"""Constructors for the example complexes used in tests and experiments."""

from __future__ import annotations

from itertools import combinations

from .complex_core import SimplicialComplex, check_capacity
from .errors import ImproperMove, InvalidSpec
from .flips import FlipState
from .rng import Rng

#: the 6-vertex real projective plane, by its 10 triangles
RP2_6_FACETS = (
    (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5),
)


def simplex(d: int) -> SimplicialComplex:
    """The solid d-simplex on vertices 0..d."""
    if d < 0:
        raise InvalidSpec("simplex dimension must be >= 0")
    check_capacity(d + 1)
    return SimplicialComplex([tuple(range(d + 1))])


def boundary_of_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all d-subsets of {0..d}, a (d-1)-sphere."""
    if d < 1:
        raise InvalidSpec("boundary needs d >= 1")
    check_capacity((d + 1) * d)  # vertex entries, before any is built
    return SimplicialComplex(list(combinations(range(d + 1), d)))


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join with two new apex vertices (labels above every existing one)."""
    top = max(K.vertices) if K.vertices else -1
    a, b = top + 1, top + 2
    facets = []
    for f in K.facets:
        facets.append(f + (a,))
        facets.append(f + (b,))
    return SimplicialComplex(facets)


def rp2_6() -> SimplicialComplex:
    return SimplicialComplex(list(RP2_6_FACETS))


# -- saw blade complexes ---------------------------------------------------
#
# A k-bladed saw blade complex is built from a triangulated disk whose
# boundary polygon is glued 3-to-1 onto a cycle.  We realize the disk as an
# annulus between the boundary polygon and an interior cycle (triangulated
# zig-zag, with span widths chosen so the gluing never identifies interior
# edges), plus a fan on the interior polygon.


def _saw_blade_word_and_spans(k: int):
    if k == 1:
        # dunce hat: cycle 0-1-2 traversed forward, forward, backward
        word = [0, 1, 2, 0, 1, 2, 0, 2, 1]
        spans = [(0, 2), (2, 2), (4, 2), (6, 1), (7, 2)]
        n_cycle = 3
    elif k == 2:
        # two blades on a 3-cycle, with an extra interior vertex
        word = [0, 1, 0, 1, 2, 0, 2, 1, 2]
        spans = [(0, 1), (1, 1), (2, 1), (3, 2), (5, 2), (7, 2)]
        n_cycle = 3
    else:
        # k blades of length 1 on a k-cycle: word block j is (j, j+1, j)
        word = []
        for j in range(k):
            word += [j, (j + 1) % k, j]
        spans = []
        pos = 2
        for _ in range(k):
            spans.append((pos % (3 * k), 2))
            spans.append(((pos + 2) % (3 * k), 1))
            pos += 3
        n_cycle = k
    return word, spans, n_cycle


def saw_blade(k: int) -> SimplicialComplex:
    """k-bladed saw blade complex (k=1 is an 8-vertex dunce hat).

    Vertex counts: 8 for k=1, 9 for k=2, 3k for k >= 3.  The output is
    contractible but has no free edges, so it is never collapsible.
    """
    if k < 1:
        raise InvalidSpec("saw blade needs k >= 1")
    check_capacity(7 * (7 * k - 2))  # 7k - 2 triangles for k >= 3, 7 faces each
    word, spans, n_cycle = _saw_blade_word_and_spans(k)
    m = len(word)
    r = len(spans)
    q = [n_cycle + i for i in range(r)]  # interior cycle vertices

    triangles = []
    for i, (start, width) in enumerate(spans):
        for t in range(width):
            a = word[(start + t) % m]
            b = word[(start + t + 1) % m]
            triangles.append((a, b, q[i]))
        end = (start + width) % m
        triangles.append((word[end], q[i], q[(i + 1) % r]))
    for t in range(1, r - 1):
        triangles.append((q[0], q[t], q[t + 1]))

    canon = [tuple(sorted(t)) for t in triangles]
    if len(set(canon)) != len(canon) or any(len(set(t)) != 3 for t in canon):
        raise InvalidSpec(f"saw blade construction degenerated for k={k}")
    K = SimplicialComplex.from_facets(canon)
    if len(K.facets) != len(canon):
        raise InvalidSpec(f"saw blade construction degenerated for k={k}")
    return K


def dunce_hat() -> SimplicialComplex:
    """8-vertex triangulation of the dunce hat (the 1-bladed saw blade)."""
    return saw_blade(1)


def perturbed_sphere(
    d: int,
    add_vertices: int,
    one_moves: int,
    mixed_rounds: int,
    seed: int,
) -> SimplicialComplex:
    """Randomized triangulation of the d-sphere, PL-standard by construction.

    Starts from the boundary of the (d+1)-simplex, applies ``add_vertices``
    stellar subdivisions of random facets, then ``one_moves`` random proper
    1-moves, then ``mixed_rounds`` random proper 1- and 2-moves.
    """
    if d < 2:
        raise InvalidSpec("perturbed sphere needs d >= 2")
    counts = {"add_vertices": add_vertices, "one_moves": one_moves, "mixed_rounds": mixed_rounds}
    for name, n in counts.items():
        if n < 0:
            raise InvalidSpec(f"perturbed sphere needs {name} >= 0, not {n}")
    start = boundary_of_simplex(d + 1)
    # each move adds at most d facets, each with 2^(d+1) - 1 faces
    moves = sum(counts.values())
    check_capacity((d + 2 + d * moves) * (2 ** (d + 1) - 1))
    state = FlipState(start, Rng(seed))

    def move(k: int) -> None:
        # when the 1-skeleton saturates, no proper 1-move remains; a
        # 2-move frees an edge while preserving the vertex count
        try:
            state.random_move(move_dim=k)
        except ImproperMove:
            state.random_move(move_dim=2)

    for _ in range(add_vertices):
        state.random_move(move_dim=0)
    for _ in range(one_moves):
        move(1)
    for _ in range(mixed_rounds):
        move(1 + state.rng.randbelow(2))
    return state.to_complex()


#: names resolvable by the CLI's generate command
GENERATORS = {
    "simplex": simplex,
    "bd_simplex": boundary_of_simplex,
    "rp2_6": rp2_6,
    "dunce_hat": dunce_hat,
    "saw_blade": saw_blade,
    "perturbed_sphere": perturbed_sphere,
}
