"""Independent brute-force reference implementations used only by tests.

Everything but the last section is written from first principles
(definitions, not the library's algorithms) so that test expectations are
genuinely independent of the code under test.  The last section keeps the
library's earlier homology kernel, a plain list version of its Tietze rule,
its earlier π₁ verdict, its earlier barycentric subdivision, its earlier
Hasse diagram, its earlier manifold check, its earlier spectrum, its earlier
rule for maximal input faces and its earlier trajectory recording (one
``FlipMove`` object per move), whose outputs the current ones must repeat
exactly.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from plsphere import morse, recognizer
from plsphere.complex_core import SimplicialComplex
from plsphere.flips import (
    AnnealingSchedule,
    FlipMove,
    FlipState,
    _cooling_move,
    _heating_move,
    default_heat_weights,
)
from plsphere.homology import (
    HomologyGroups,
    _prime,
    _prime_powers,
    _smith_in_place,
    boundary_matrix,
    rank_mod_p,
    smith_normal_form,
)
from plsphere.pi1 import (
    GroupPresentation,
    TietzeTrace,
    TrivialityVerdict,
    Verdict,
    _invert,
    _try_subword,
    free_reduce,
    tietze_simplify,
)
from plsphere.rng import Rng


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


def sparse_product(a, b):
    """The nonzero entries {(row, col): value} of the product of two
    ``SparseIntMatrix``es, from the row dictionaries."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    out = {}
    for r, row in enumerate(a.rows):
        for k, v in row.items():
            for c, w in b.rows[k].items():
                out[r, c] = out.get((r, c), 0) + v * w
    return {rc: v for rc, v in out.items() if v}


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


# -- the homology kernel as it was before clearing, the Tietze rule on a
# plain relator list with full scans in place of the length heaps and the
# occurrence index, the π₁ verdict as it was before the Tietze core, the
# subdivision as it was before it walked the Hasse diagram, the Hasse
# diagram as it was built from one face -> node dict over every level, and
# the manifold check as it was before its order-type link cache.  These are
# the library's algorithms in plain form, not first principles: the faster
# kernels must give exactly their invariants, presentations, Tietze traces,
# verdicts, facets, diagrams and manifold reports.


def barycentric_subdivision_permutations(K):
    """The order complex of K's face poset, labelled by (dimension, lex)
    rank: one chain per vertex ordering of each facet, whose prefixes,
    sorted, are the chain's faces."""
    rank = {}
    for level in K.faces_by_dim():
        for f in level:
            rank[f] = len(rank)
    new_facets = []
    for facet in K.facets:
        for order in permutations(facet):
            chain = [rank[tuple(sorted(order[:j]))] for j in range(1, len(order) + 1)]
            new_facets.append(tuple(sorted(chain)))
    return SimplicialComplex(new_facets)


def hasse_reference(K):
    """``build_hasse``'s earlier build, from one face -> node dict over every
    level: (faces, level_start, down, up)."""
    faces = []
    level_start = [0]
    index = {}
    for level in K.faces_by_dim():
        for f in level:
            index[f] = len(faces)
            faces.append(f)
        level_start.append(len(faces))
    down = []
    up = [[] for _ in faces]
    for f, node in index.items():
        subs = tuple(index[s] for s in combinations(f, len(f) - 1)) if len(f) > 1 else ()
        down.append(subs)
        for sub in subs:
            up[sub].append(node)
    return faces, level_start, down, [tuple(lst) for lst in up]


def homology_full(K, coefficients="Z", reduced=False):
    """Homology from every row of every boundary map: the Smith normal form
    of each whole map over Z and Q, its rank over GF(p)."""
    d = K.dim
    f = K.f_vector()
    torsion = [() for _ in range(d + 1)]
    if coefficients in ("Z", "Q"):
        snfs = {k: smith_normal_form(boundary_matrix(K, k)) for k in range(1, d + 1)}
        ranks = {k: snf.rank for k, snf in snfs.items()}
        label = coefficients
        if coefficients == "Z":
            for k in range(d):
                torsion[k] = tuple(sorted(q for t in snfs[k + 1].torsion() for q in _prime_powers(t)))
    else:
        p = _prime(coefficients)
        ranks = {k: rank_mod_p(boundary_matrix(K, k), p) for k in range(1, d + 1)}
        label = f"GF({p})"
    betti = [f[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(d + 1)]
    if reduced:
        betti[0] -= 1
    return HomologyGroups(tuple(betti), tuple(torsion), reduced, label)


def _substitute(word, g, repl):
    """Replace every occurrence of generator g by the word ``repl``; the
    result is not freely reduced."""
    out = []
    for x in word:
        if x == g:
            out.extend(repl)
        elif x == -g:
            out.extend(_invert(repl))
        else:
            out.append(x)
    return out


def tietze_simplify_list(P, effort_limit):
    """``tietze_simplify`` on a plain relator list that every elimination
    rewrites whole, finding each eliminating relator by a full scan in
    (length, index) order.  A relator read since it was last written holds
    no generator once, and is not read again.  Returns the presentation,
    the trace, and the step whose charge ran out of budget ("scan",
    "eliminate", "subword") or None."""
    # each relator keeps its index in P; an emptied one is None
    relators = [w or None for w in P.relators]
    read = set()
    dropped = set()
    trace = TietzeTrace(empty_deletions=relators.count(None))
    phase = None

    def spend(n, step):
        nonlocal phase
        trace.operations += n
        if trace.operations > effort_limit:
            trace.budget_exhausted = True
            phase = step
            return False
        return True

    def live():
        return [i for i, w in enumerate(relators) if w is not None]

    def write(i, u):
        read.discard(i)
        if u:
            relators[i] = u
        else:
            relators[i] = None
            trace.empty_deletions += 1

    while True:
        eliminated = False
        for ri in sorted(live(), key=lambda i: (len(relators[i]), i)):
            if ri in read:
                continue
            w = relators[ri]
            if not spend(len(w), "scan"):
                break
            read.add(ri)
            counts = {}
            for x in w:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            single = [g for g, c in counts.items() if c == 1]
            if not single:
                continue
            g = min(single)
            i = next(j for j, x in enumerate(w) if abs(x) == g)
            rot = w[i:] + w[:i]
            repl = _invert(rot[1:]) if rot[0] > 0 else rot[1:]
            rewritten = {}
            cancelled = 0
            for j in live():
                u = relators[j]
                if j != ri and (g in u or -g in u):
                    raw = _substitute(u, g, repl)
                    rewritten[j] = free_reduce(raw)
                    cancelled += (len(raw) - len(rewritten[j])) // 2
            if not spend(sum(map(len, rewritten.values())), "eliminate"):
                break
            relators[ri] = None
            for j, u in rewritten.items():
                write(j, u)
            trace.free_reductions += cancelled
            dropped.add(g)
            trace.generators_eliminated += 1
            eliminated = True
            break
        if trace.budget_exhausted:
            break
        if eliminated:
            continue

        changed = False
        for si in sorted(live(), key=lambda i: len(relators[i])):
            short = relators[si]
            for li in live():
                long = relators[li]
                if li == si or len(long) < len(short):
                    continue
                if not spend(len(long) * len(short), "subword"):
                    break
                found = _try_subword(long, short)
                if found is not None:
                    u, cancelled = found
                    write(li, u)
                    trace.free_reductions += cancelled
                    trace.subword_replacements += 1
                    changed = True
            if changed or trace.budget_exhausted:
                break
        if not changed or trace.budget_exhausted:
            break

    labels = [g for g in range(1, P.generators + 1) if g not in dropped]
    new = {g: i for i, g in enumerate(labels, 1)}
    relators = tuple(tuple(new[x] if x > 0 else -new[-x] for x in w) for w in relators if w)
    return GroupPresentation(len(labels), relators), trace, phase


def triviality_verdict_renumbered(P, effort_limit):
    """``triviality_verdict`` as it was before the Tietze core: the
    renumbered presentation of ``tietze_simplify``, then its whole exponent
    matrix, every row built up front, reduced in place."""
    simplified, trace = tietze_simplify(P, effort_limit)
    if simplified.is_empty():
        return TrivialityVerdict(Verdict.TRIVIAL, trace=trace)
    snf = _smith_in_place(simplified.exponent_matrix())
    rank, torsion = simplified.generators - snf.rank, snf.torsion()
    if rank > 0 or torsion:
        return TrivialityVerdict(Verdict.NON_TRIVIAL, trace=trace, abelianization=(rank, torsion))
    return TrivialityVerdict(Verdict.UNKNOWN, trace=trace)


def is_combinatorial_manifold_per_face(K, cfg=None):
    """``is_combinatorial_manifold`` with one ``K.link(F)`` per face and
    verdicts cached by the link's labelled facet tuple."""
    Answer = recognizer.Answer
    cfg = cfg or recognizer.RecognitionConfig()
    bad = recognizer.precheck(K)
    if bad is not None:
        return recognizer.ManifoldReport(Answer.NO, [((), bad)], 0, 0, list(bad.log))

    link_cfg = replace(cfg, morse_rounds=recognizer.LINK_MORSE_ROUNDS)
    cache = {}
    failures = []
    checked = hits = 0
    log = []
    undecided = False

    for i in range(K.dim - 1):
        for F in K.faces(i):
            L = K.link(F)
            verdict = cache.get(L.facets)
            if verdict is None:
                verdict = recognizer.precheck(L) or recognizer.recognize_sphere(L, link_cfg)
                cache[L.facets] = verdict
                checked += 1
            else:
                hits += 1
            if verdict.answer is Answer.NO:
                failures.append((F, verdict))
                log.append(f"link of {F} is not a sphere")
                return recognizer.ManifoldReport(Answer.NO, failures, checked, hits, log)
            if verdict.answer is not Answer.YES:
                undecided = True
                failures.append((F, verdict))
        log.append(f"all {i}-face links checked")

    summary = Answer.UNDECIDED if undecided else Answer.YES
    return recognizer.ManifoldReport(summary, failures, checked, hits, log)


def maximal_faces_by_star(facet_lists):
    """``SimplicialComplex.from_facets``'s earlier rule: one star test for
    every distinct input face, in a complex of all of them."""
    faces = {tuple(sorted(f)) for f in facet_lists}
    everything = SimplicialComplex(faces)
    return SimplicialComplex(f for f in faces if len(everything.star(f)) == 1)


def morse_spectrum_serial(K, strategy, rounds, seed):
    """``morse_spectrum``'s counts as one serial tally of
    ``random_discrete_morse`` vectors, in order of first appearance."""
    counts = {}
    for s in range(seed, seed + rounds):
        v = morse.random_discrete_morse(K, strategy, s).vector
        counts[v] = counts.get(v, 0) + 1
    return counts


class ListFlipState(FlipState):
    """A ``FlipState`` that records its first ``buffer`` applied moves as
    ``FlipMove``s, each f-vector read off the state, in a list."""

    def __init__(self, K, rng, buffer):
        super().__init__(K, rng)
        self.buffer = buffer
        self.moves = []

    def _apply(self, face, replacement):
        super()._apply(face, replacement)
        if len(self.moves) < self.buffer:
            self.moves.append(FlipMove(self.round, face, replacement, tuple(self.f)))


def simplify_with_move_list(K, seed, max_rounds, buffer):
    """``bistellar_simplify`` with the default schedule, recorded in a list
    of the first ``buffer`` moves: the kept moves up to the best complex, as
    a tuple, and whether the list holds them all."""
    schedule = AnnealingSchedule()
    weights = default_heat_weights(K.dim)
    state = ListFlipState(K, Rng(seed), buffer)
    best_f = state.f_vector()
    best_len = stalled = heating_left = 0
    while state.round < max_rounds and not state.f[0] == state.f[state.d] == state.d + 2:
        if heating_left > 0:
            _heating_move(state, weights)
            heating_left -= 1
            continue
        if _cooling_move(state) is None:
            burst = schedule.heating_amount(state.f[state.d])
            heating_left = burst * min(stalled // schedule.threshold(state.f[state.d]) + 1, 10)
            stalled += 1
            continue
        if state.f_vector() < best_f:
            best_f, best_len, stalled = state.f_vector(), state.round, 0
    if state.f_vector() < best_f:
        best_len = state.round
    return tuple(state.moves[:best_len]), best_len <= buffer
