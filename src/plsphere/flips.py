"""Bistellar flips and simulated-annealing simplification.

The flip kernel keeps the cofacet count of every face, not the facets
around it.  A flip at a face F with replacement R swaps the facets
F | (R - r), r in R, for the facets (F - v) | R, v in F.  A face S inside
F | R lies in |R - S| of the removed facets and in |F - S| of the added
ones, so its count changes by |F - S| - |R - S|; no other face changes.
A flip therefore walks the subsets of F | R once, with no per-facet
subface enumeration, and each count that crosses d-k+1 moves its k-face
into or out of the sorted list of flippable faces.  A facet lies in one
facet, itself, so the flippable d-faces ``candidates[d]`` are the facets:
no separate facet set is kept.  Link vertices come from the 1-skeleton
neighbour sets, and one rule, ``FlipState._replacement``, decides whether a
flip is proper and what it puts in.
``bistellar_simplify`` anneals toward the lexicographically smallest
f-vector, alternating cooling (f-reducing flips) with bounded heating bursts
when progress stalls.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import isfinite

from .complex_core import Face, SimplicialComplex, check_capacity
from .errors import ImproperMove, InvalidSpec, NotPseudomanifold, StaleOption
from .rng import Rng

TRAJECTORY_BUFFER = 10**6


@dataclass(frozen=True, slots=True)
class FlipMove:
    """One applied flip, enough to replay it deterministically.  Slotted:
    a flip stage keeps up to ``TRAJECTORY_BUFFER`` of them."""

    round: int
    face: Face
    replacement: Face
    f_after: tuple[int, ...]


def _proper_subsets(U: Face):
    """The non-empty proper subsets of U, by size, in ``combinations`` order."""
    return chain.from_iterable(combinations(U, s) for s in range(1, len(U)))


@lru_cache(maxsize=None)
def _count_deltas(in_face: tuple[bool, ...]) -> tuple[int, ...]:
    """|F - S| - |R - S| for each subset S of ``_proper_subsets(U)``, where
    ``in_face`` marks which vertices of the sorted U = F | R lie in F.
    There are at most 2^(d+2) such patterns per dimension d."""
    n_face = sum(in_face)
    n_rep = len(in_face) - n_face
    return tuple(
        (n_face - sum(in_face[p] for p in pos)) - (n_rep - sum(not in_face[p] for p in pos))
        for pos in _proper_subsets(tuple(range(len(in_face))))
    )


class FlipState:
    """Mutable closed pseudomanifold under bistellar flips.

    Maintains ``count``, the number of facets containing each face (a face
    is present iff it has a count); ``nbrs``, the neighbour set of each
    vertex in the 1-skeleton; the f-vector; and per dimension i the sorted
    list ``candidates[i]`` of the flippable faces, those in exactly d-i+1
    facets.  ``candidates[d]`` is the facet list.  A flip at F with
    replacement R changes the count of a face S inside F | R by
    |F - S| - |R - S| and leaves every other count alone.  A count is kept
    for every face, so the input's face bound is checked against the face
    budget first.
    """

    def __init__(self, K: SimplicialComplex, rng: Rng, record_trajectory: bool = False):
        check_capacity(K.face_bound())
        ok, witness = K.is_closed_pseudomanifold()
        if not ok:
            raise NotPseudomanifold(f"ridge {witness[0]} lies in {witness[1]} facets")
        self.d = K.dim
        self.rng = rng
        self.count: dict[Face, int] = {}
        self.nbrs: dict[int, set[int]] = {}
        self.max_label = max(K.vertices)
        self.round = 0
        self.trajectory: deque[FlipMove] | None = (
            deque(maxlen=TRAJECTORY_BUFFER) if record_trajectory else None
        )
        count = self.count
        for g in K.facets:
            for sub in _proper_subsets(g):
                count[sub] = count.get(sub, 0) + 1
            count[g] = 1
        self.f = [0] * (self.d + 1)
        self.candidates: list[list[Face]] = [[] for _ in range(self.d + 1)]
        for sub, c in count.items():
            k = len(sub) - 1
            self.f[k] += 1
            if c == self.d - k + 1:
                self.candidates[k].append(sub)
            if k == 1:
                self._add_edge(*sub)
        for cands in self.candidates:
            cands.sort()

    @property
    def facets(self) -> list[Face]:
        """The facets in sorted order (the live ``candidates[d]`` list)."""
        return self.candidates[self.d]

    # -- incremental index maintenance ----------------------------------

    def _add_edge(self, a: int, b: int) -> None:
        self.nbrs.setdefault(a, set()).add(b)
        self.nbrs.setdefault(b, set()).add(a)

    def _remove_edge(self, a: int, b: int) -> None:
        # a vertex of a closed pseudomanifold of dimension >= 1 has a
        # neighbour, so a vertex whose last edge goes is gone too
        for u, v in ((a, b), (b, a)):
            around = self.nbrs[u]
            around.discard(v)
            if not around:
                del self.nbrs[u]

    def _flip_counts(self, face: Face, replacement: Face) -> None:
        """Swap the star of ``face`` for the facets around ``replacement``.

        The count of every non-empty proper subset S of U = face |
        replacement moves by |face - S| - |replacement - S|, which updates
        the f-vector, the candidate lists and, for edges, the neighbour sets.
        """
        U = tuple(sorted(face + replacement))
        fs = set(face)
        deltas = _count_deltas(tuple(v in fs for v in U))
        count, f, candidates = self.count, self.f, self.candidates
        d2 = self.d + 2
        for sub, delta in zip(_proper_subsets(U), deltas):
            if not delta:
                continue
            old = count.get(sub, 0)
            new = old + delta
            n = len(sub)
            if new:
                count[sub] = new
            else:
                del count[sub]
                f[n - 1] -= 1
                if n == 2:
                    self._remove_edge(*sub)
            if not old:
                f[n - 1] += 1
                if n == 2:
                    self._add_edge(*sub)
            target = d2 - n  # cofacet count that makes a face of n vertices flippable
            if old == target:
                cands = candidates[n - 1]
                del cands[bisect_left(cands, sub)]
            elif new == target:
                insort(candidates[n - 1], sub)

    # -- option enumeration ----------------------------------------------

    def replacement_of(self, face: Face) -> Face:
        """Link vertices of a face: the v with face | {v} a face (the empty
        tuple for a facet or a non-face)."""
        i = len(face) - 1
        if i == self.d or face not in self.count:
            return ()
        nbrs = self.nbrs
        common = nbrs[face[0]].intersection(*[nbrs[v] for v in face[1:]])
        # the link of an i-face of a closed pseudomanifold is a closed
        # (d-i-1)-pseudomanifold, with at least d-i+1 vertices: a common
        # neighbour set of that size is the link
        if i and len(common) > self.d - i + 1:
            count = self.count
            common = [v for v in common if tuple(sorted(face + (v,))) in count]
        return tuple(sorted(common))

    def _replacement(self, face: Face) -> Face | None:
        """The face that the flip at ``face`` puts in, or None when the flip
        is improper; StaleOption unless ``face`` is flippable.

        A facet gets the fresh label ``max_label + 1``.  Any other i-face
        puts in its link vertices, and is improper when they already span a
        face.  Its star is always a flip bipyramid: the link of a flippable
        i-face is a closed (d-i-1)-pseudomanifold with d-i+1 facets of d-i
        vertices each, and every vertex lies in at least d-i of them, so
        it has at most, hence exactly, d-i+1 vertices.
        """
        i = len(face) - 1
        if self.count.get(face) != self.d - i + 1:
            raise StaleOption(f"{face} is not in exactly {self.d - i + 1} facets")
        if i == self.d:
            return (self.max_label + 1,)
        rep = self.replacement_of(face)
        return None if rep in self.count else rep

    def is_proper(self, face: Face) -> bool:
        """A flip is proper when it does not re-introduce an existing face."""
        return self._replacement(face) is not None

    # -- applying moves ----------------------------------------------------

    def apply_flip(self, face: Face, replacement: Face | None = None) -> FlipMove:
        """Replace the star of ``face`` by the complementary facets.

        ``replacement`` may pin the vertex set of the dual face; it is
        required only when replaying a recorded 0-move so the fresh vertex
        gets the same label, which must not be a vertex already.
        """
        actual = self._replacement(face)
        if actual is None:
            raise ImproperMove(f"flip at {face} would duplicate its replacement face")
        if replacement is None or replacement == actual:
            return self._apply(face, actual)
        if len(face) <= self.d:
            raise StaleOption(f"recorded replacement {replacement} no longer matches {actual}")
        label = replacement[0] if len(replacement) == 1 else None
        if type(label) is not int or label < 0 or (label,) in self.count:
            raise ImproperMove(f"{replacement} is not one new vertex label to subdivide {face}")
        return self._apply(face, replacement)

    def _apply(self, face: Face, replacement: Face) -> FlipMove:
        """Make the flip at ``face`` that puts in ``replacement``, unchecked."""
        if len(face) > self.d:
            self.max_label = max(self.max_label, replacement[0])
        self._flip_counts(face, replacement)
        self.round += 1
        move = FlipMove(self.round, face, replacement, tuple(self.f))
        if self.trajectory is not None:
            self.trajectory.append(move)
        return move

    def random_move(self, move_dim: int) -> FlipMove:
        """Apply a uniformly random proper ``move_dim``-move.

        A k-move acts on a face of dimension d-k; 0-moves subdivide a
        random facet and are always proper.
        """
        move = self._first_proper_flip(self.d - move_dim)
        if move is None:
            raise ImproperMove(f"no proper {move_dim}-move available")
        return move

    def _first_proper_flip(self, i: int) -> FlipMove | None:
        """Apply the first proper flip at an i-face in random order, if any."""
        # incremental Fisher-Yates on a copy of the sorted candidates: pay
        # random draws only for the faces tried
        items = self.candidates[i][:]
        n = len(items)
        for a in range(n):
            b = a + self.rng.randbelow(n - a)
            items[a], items[b] = items[b], items[a]
            rep = self._replacement(items[a])
            if rep is not None:
                return self._apply(items[a], rep)
        return None

    def to_complex(self) -> SimplicialComplex:
        return SimplicialComplex(self.facets)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(self.f)


def default_heat_weights(d: int) -> tuple[int, ...]:
    """Relative frequencies for heating k-moves, indexed by k ascending.

    For d = 4 a heating burst is mostly 1- and 2-moves with occasional
    stellar subdivisions (1:10:10); other dimensions heat uniformly over
    the f-increasing move dimensions.
    """
    if d == 4:
        return (1, 10, 10)
    return (1,) * -(-d // 2)


@dataclass
class AnnealingSchedule:
    """threshold = alpha * (#facets) + beta rounds without improvement
    triggers a heating burst of gamma * threshold rounds.

    Both counts are capped at ``sys.maxsize``: huge finite coefficients
    overflow a float to infinity, and the round budget ends the run long
    before any count that large runs out.
    """

    alpha: float = 0.1
    beta: float = 10.0
    gamma: float = 2.0
    heat_weights: tuple[int, ...] | None = None

    def threshold(self, n_facets: int) -> int:
        return max(1, int(min(self.alpha * n_facets + self.beta, sys.maxsize)))

    def heating_amount(self, n_facets: int) -> int:
        return max(1, int(min(self.gamma * self.threshold(n_facets), sys.maxsize)))


@dataclass
class SimplifyResult:
    complex: SimplicialComplex
    trajectory: tuple[FlipMove, ...]
    reached_simplex_boundary: bool
    rounds: int
    best_f: tuple[int, ...]
    replayable: bool
    seed: int


def _cooling_move(state: FlipState) -> FlipMove | None:
    """First proper f-non-increasing flip, scanning faces of dimension
    0 upward to floor(d/2) (i.e. d-moves first), random order per level."""
    for i in range(state.d // 2 + 1):
        if (move := state._first_proper_flip(i)) is not None:
            return move
    return None


def _heating_move(state: FlipState, weights: tuple[int, ...]) -> FlipMove:
    total = sum(weights)
    pick = state.rng.randbelow(total)
    move_dim = 0
    for k, w in enumerate(weights):
        if pick < w:
            move_dim = k
            break
        pick -= w
    try:
        return state.random_move(move_dim)
    except ImproperMove:
        return state.random_move(0)  # stellar subdivision never fails


def bistellar_simplify(
    K: SimplicialComplex,
    seed: int = 0,
    max_rounds: int = 10**5,
    schedule: AnnealingSchedule | None = None,
) -> SimplifyResult:
    """Anneal K toward a lexicographically smaller f-vector.

    Returns the best complex seen (never lexicographically worse than the
    input) with the move trajectory that reproduces it via ``replay``.
    Stops early once the boundary of a simplex is reached.
    """
    if K.dim < 2:
        raise NotPseudomanifold("simplification needs dimension >= 2")
    if max_rounds < 0:
        raise InvalidSpec(f"flip rounds must be >= 0, not {max_rounds}")
    schedule = schedule or AnnealingSchedule()
    coefficients = (schedule.alpha, schedule.beta, schedule.gamma)
    if not all(isfinite(x) and x >= 0 for x in coefficients):
        raise InvalidSpec(
            f"annealing alpha, beta, gamma {coefficients}: each must be finite and >= 0"
        )
    weights = schedule.heat_weights or default_heat_weights(K.dim)
    # weight k picks k-moves, which act on faces of dimension d - k >= 0
    if len(weights) > K.dim + 1 or min(weights) < 0 or sum(weights) == 0:
        raise InvalidSpec(
            f"heat weights {weights}: need at most {K.dim + 1} non-negative weights with a positive sum"
        )
    state = FlipState(K, Rng(seed), record_trajectory=True)

    best_f = state.f_vector()
    best_facets = state.facets[:]
    best_len = 0
    stalled = 0  # local minima hit without improving the best f-vector
    heating_left = 0

    # d+2 distinct d-faces on d+2 vertices are all of them: the boundary
    # of a (d+1)-simplex
    while state.round < max_rounds and not state.f[0] == state.f[state.d] == state.d + 2:
        if heating_left > 0:
            _heating_move(state, weights)
            heating_left -= 1
            continue
        move = _cooling_move(state)
        if move is None:
            # local minimum: heat, harder the longer the best has stalled
            burst = schedule.heating_amount(state.f[state.d])
            heating_left = burst * min(stalled // schedule.threshold(state.f[state.d]) + 1, 10)
            stalled += 1
            continue
        if state.f_vector() < best_f:
            best_f = state.f_vector()
            best_facets = state.facets[:]
            best_len = state.round
            stalled = 0

    if state.f_vector() < best_f:
        best_f = state.f_vector()
        best_facets = state.facets[:]
        best_len = state.round

    dropped = state.round - len(state.trajectory)
    kept = tuple(islice(state.trajectory, max(0, best_len - dropped)))
    return SimplifyResult(
        complex=SimplicialComplex(best_facets),
        trajectory=kept,
        reached_simplex_boundary=best_f[0] == best_f[-1] == K.dim + 2,
        rounds=state.round,
        best_f=best_f,
        replayable=dropped == 0,
        seed=seed,
    )


def replay(K: SimplicialComplex, trajectory) -> SimplicialComplex:
    """Re-apply a recorded move sequence; deterministic and rng-free."""
    state = FlipState(K, Rng(0))
    for move in trajectory:
        state.apply_flip(move.face, move.replacement)
    return state.to_complex()


def trajectory_tsv(trajectory) -> str:
    lines = ["round\tface_dim\tface\tf_vector"]
    for m in trajectory:
        lines.append(
            f"{m.round}\t{len(m.face) - 1}\t{','.join(map(str, m.face))}\t"
            f"({','.join(map(str, m.f_after))})"
        )
    return "\n".join(lines) + "\n"
