"""Independent brute-force reference implementations used only by tests.

Everything here is written from first principles (definitions, not the
library's algorithms) so that test expectations are genuinely independent
of the code under test.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def all_faces(facets):
    """Every nonempty subset of a facet, as sorted tuples."""
    out = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(combinations(sorted(f), r))
    return out


def link_naive(facets, face):
    """Maximal faces g with g disjoint from ``face`` and g | face a face."""
    faces = all_faces(facets)
    fs = set(face)
    lk = [g for g in faces if not fs & set(g) and tuple(sorted(fs | set(g))) in faces]
    return {g for g in lk if not any(set(g) < set(h) for h in lk)}


def f_vector_naive(facets):
    faces = all_faces(facets)
    d = max(len(f) for f in faces) - 1
    fv = [0] * (d + 1)
    for f in faces:
        fv[len(f) - 1] += 1
    return tuple(fv)


def euler_naive(facets):
    return sum((-1) ** (len(f) - 1) for f in all_faces(facets))


def dense_boundary(facets, k):
    """Dense k-th boundary matrix; entry for dropping the i-th smallest
    vertex of a k-face is (-1)**i."""
    faces = all_faces(facets)
    hi = sorted(f for f in faces if len(f) == k + 1)
    lo = sorted(f for f in faces if len(f) == k)
    lo_index = {f: j for j, f in enumerate(lo)}
    M = [[0] * len(lo) for _ in hi]
    for r, face in enumerate(hi):
        for i in range(len(face)):
            M[r][lo_index[face[:i] + face[i + 1:]]] = (-1) ** i
    return M


def _det(mat):
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def minors_gcd_divisors(mat):
    """Elementary divisors via gcds of k x k minors (brute force)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    divisors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[mat[r][c] for c in cols] for r in rows]
                g = gcd(g, _det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def rank_over_q(mat):
    """Rank by plain Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in mat]
    n = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < n:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def rank_mod_p_naive(mat, p):
    """Rank over the prime field GF(p) by plain Gaussian elimination on a
    dense copy; inverses by Fermat's little theorem."""
    rows = [[x % p for x in row] for row in mat]
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def betti_over_q(facets):
    """Rational Betti numbers straight from boundary-matrix ranks."""
    fv = f_vector_naive(facets)
    d = len(fv) - 1
    ranks = {k: rank_over_q(dense_boundary(facets, k)) for k in range(1, d + 1)}
    return tuple(fv[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(d + 1))


def chain_count(facets, length):
    """Number of strictly increasing chains of faces of the given length
    (the faces of the barycentric subdivision, by definition)."""
    faces = sorted(all_faces(facets), key=len)
    below = {f: [g for g in faces if len(g) < len(f) and set(g) < set(f)] for f in faces}
    counts = {f: 1 for f in faces}  # chains of length 1 ending at f
    total = len(faces) if length == 1 else 0
    cur = counts
    for _ in range(length - 1):
        nxt = {}
        for f in faces:
            nxt[f] = sum(cur[g] for g in below[f])
        cur = nxt
        total = sum(cur.values())
    return total


def _is_connected(vertices, edges):
    """Whether the graph on ``vertices`` with these edges is connected."""
    vertices = set(vertices)
    if not vertices:
        return False
    start = min(vertices)
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for e in edges:
            if v in e:
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return seen == vertices


def _is_cycle_graph(vertices, edges):
    """Connected, and every vertex lies on exactly two edges."""
    return _is_connected(vertices, edges) and all(
        sum(v in e for e in edges) == 2 for v in vertices
    )


def is_sphere_small_dim_naive(facets):
    """Whether a complex of dimension <= 2 is a sphere, from the definitions:
    two points; a cycle graph; or a connected closed surface (every edge in
    two triangles, every vertex link a cycle) with Euler characteristic 2."""
    faces = all_faces(facets)
    d = max(len(f) for f in faces) - 1
    vertices = {f[0] for f in faces if len(f) == 1}
    edges = [f for f in faces if len(f) == 2]
    if d == 0:
        return len(vertices) == 2
    if d == 1:
        return _is_cycle_graph(vertices, edges)
    triangles = [f for f in faces if len(f) == 3]
    for v in vertices:
        lk = link_naive(facets, (v,))
        if not _is_cycle_graph({w for g in lk for w in g}, [g for g in lk if len(g) == 2]):
            return False
    return (
        all(sum(set(e) <= set(t) for t in triangles) == 2 for e in edges)
        and _is_connected(vertices, edges)
        and euler_naive(facets) == 2
    )
