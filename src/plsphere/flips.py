"""Bistellar flips and simulated-annealing simplification.

The flip kernel works on a face -> containing-facets index instead of a
full face lattice.  A flip updates that index once, for the faces of the
facets it removes and adds, and keeps the flippable faces of each dimension
in a sorted list.  A facet lies in one facet, itself, so the flippable
d-faces ``candidates[d]`` are the facets: no separate facet set is kept.
A move pays for the star it replaces, the options it tries and one copy of
a candidate list, but sorts nothing.
``bistellar_simplify`` anneals toward the lexicographically smallest
f-vector, alternating cooling (f-reducing flips) with bounded heating bursts
when progress stalls.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .complex_core import Face, SimplicialComplex, check_capacity
from .errors import ImproperMove, InvalidSpec, NotPseudomanifold, StaleOption
from .rng import Rng

TRAJECTORY_BUFFER = 10**6


@dataclass(frozen=True)
class FlipMove:
    """One applied flip, enough to replay it deterministically."""

    round: int
    face: Face
    replacement: Face
    f_after: tuple[int, ...]


class FlipState:
    """Mutable pseudomanifold under bistellar flips.

    Maintains the star of each face (the set of facets containing it, so
    ``len(star[face])`` is its cofacet count), the f-vector, and per
    dimension i the sorted list ``candidates[i]`` of the flippable faces,
    those in exactly d-i+1 facets.  ``candidates[d]`` is the facet list.
    A star is kept for every face, so the input's face bound is checked
    against the face budget first.
    """

    def __init__(self, K: SimplicialComplex, rng: Rng, record_trajectory: bool = False):
        check_capacity(K.face_bound())
        ok, witness = K.is_closed_pseudomanifold()
        if not ok:
            raise NotPseudomanifold(f"ridge {witness[0]} lies in {witness[1]} facets")
        self.d = K.dim
        self.rng = rng
        self.star: dict[Face, set[Face]] = {}
        self.f = [0] * (self.d + 1)
        self.candidates: list[list[Face]] = [[] for _ in range(self.d + 1)]
        self.max_label = max(K.vertices)
        self.round = 0
        self.trajectory: deque[FlipMove] | None = (
            deque(maxlen=TRAJECTORY_BUFFER) if record_trajectory else None
        )
        self._update((), K.facets)

    @property
    def facets(self) -> list[Face]:
        """The facets in sorted order (the live ``candidates[d]`` list)."""
        return self.candidates[self.d]

    # -- incremental index maintenance ----------------------------------

    def _update(self, removed, added) -> None:
        """Replace the facets ``removed`` by ``added``.

        The stars change first; then every face of a touched facet is
        recounted once against its cofacet count from before, which updates
        the f-vector and the candidate lists.
        """
        star = self.star
        before: dict[Face, int] = {}
        for g in removed:
            for s in range(1, len(g) + 1):
                for sub in combinations(g, s):
                    cof = star[sub]
                    if sub not in before:
                        before[sub] = len(cof)
                    cof.remove(g)
        for g in added:
            for s in range(1, len(g) + 1):
                for sub in combinations(g, s):
                    cof = star.get(sub)
                    if cof is None:
                        cof = star[sub] = set()
                    if sub not in before:
                        before[sub] = len(cof)
                    cof.add(g)
        for sub, old in before.items():
            new = len(star[sub])
            if new == old:
                continue
            k = len(sub) - 1
            if not new:
                del star[sub]
                self.f[k] -= 1
            elif not old:
                self.f[k] += 1
            target = self.d - k + 1  # cofacet count that makes the face flippable
            if old == target:
                cands = self.candidates[k]
                del cands[bisect_left(cands, sub)]
            elif new == target:
                insort(self.candidates[k], sub)

    # -- option enumeration ----------------------------------------------

    def replacement_of(self, face: Face) -> Face:
        """Link vertices of a flippable face (empty tuple for a facet)."""
        rest = {v for cof in self.star.get(face, ()) for v in cof}
        return tuple(sorted(rest.difference(face)))

    def options_at(self, dim: int) -> list[Face]:
        """Flippable faces of the given dimension, in sorted order, as a copy
        that the caller may shuffle."""
        return self.candidates[dim][:]

    def is_proper(self, face: Face) -> bool:
        """A flip is proper when it does not re-introduce an existing face."""
        i = len(face) - 1
        cof = self.star.get(face)
        if cof is None or len(cof) != self.d - i + 1:
            raise StaleOption(f"{face} is not in exactly {self.d - i + 1} facets")
        if i == self.d:
            return True  # stellar subdivision brings a genuinely new vertex
        rep = self.replacement_of(face)
        if len(rep) != self.d - i + 1:
            return False  # star is not a flip bipyramid
        return rep not in self.star

    # -- applying moves ----------------------------------------------------

    def apply_flip(self, face: Face, replacement: Face | None = None) -> FlipMove:
        """Replace the star of ``face`` by the complementary facets.

        ``replacement`` may pin the vertex set of the dual face; it is
        required only when replaying a recorded 0-move so the fresh vertex
        gets the same label.
        """
        i = len(face) - 1
        if not self.is_proper(face):
            raise ImproperMove(f"flip at {face} would duplicate its replacement face")
        if i == self.d:
            if replacement is None:
                replacement = (self.max_label + 1,)
            self.max_label = max(self.max_label, replacement[0])
            removed = [face]
        else:
            actual = self.replacement_of(face)
            if replacement is None:
                replacement = actual
            elif replacement != actual:
                raise StaleOption(f"recorded replacement {replacement} no longer matches {actual}")
            rs = set(replacement)
            removed = [tuple(sorted(set(face) | (rs - {r}))) for r in replacement]
        fs = set(face)
        added = [tuple(sorted((fs - {v}) | set(replacement))) for v in face]
        self._update(removed, added)
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
        i = self.d - move_dim
        for face in self._shuffled(self.options_at(i)):
            if self.is_proper(face):
                return self.apply_flip(face)
        raise ImproperMove(f"no proper {move_dim}-move available")

    def _shuffled(self, items: list):
        # incremental Fisher-Yates: pay random draws only for what is consumed
        n = len(items)
        for a in range(n):
            b = a + self.rng.randbelow(n - a)
            items[a], items[b] = items[b], items[a]
            yield items[a]

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
    triggers a heating burst of gamma * threshold rounds."""

    alpha: float = 0.1
    beta: float = 10.0
    gamma: float = 2.0
    heat_weights: tuple[int, ...] | None = None

    def threshold(self, n_facets: int) -> int:
        return max(1, int(self.alpha * n_facets + self.beta))

    def heating_amount(self, n_facets: int) -> int:
        return max(1, int(self.gamma * self.threshold(n_facets)))


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
        for face in state._shuffled(state.options_at(i)):
            if state.is_proper(face):
                return state.apply_flip(face)
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
    schedule = schedule or AnnealingSchedule()
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

    moves = tuple(state.trajectory)
    dropped = state.round - len(moves)
    kept = moves[: max(0, best_len - dropped)]
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
