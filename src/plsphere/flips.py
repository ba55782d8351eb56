"""Bistellar flips and simulated-annealing simplification.

The flip kernel works on a facet set plus a face -> containing-facets index
instead of a full face lattice, so moves are cheap to apply and the set of
available options is maintained incrementally.  ``bistellar_simplify``
anneals toward the lexicographically smallest f-vector, alternating cooling
(f-reducing flips) with bounded heating bursts when progress stalls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .complex_core import Face, SimplicialComplex
from .errors import ImproperMove, NotPseudomanifold, StaleOption
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

    Maintains the facet set, the star of each face (the set of facets
    containing it, so ``len(star[face])`` is its cofacet count), the
    f-vector, and per-dimension candidate faces (faces of dimension i in
    exactly d-i+1 facets).
    """

    def __init__(self, K: SimplicialComplex, rng: Rng | int, record_trajectory: bool = False):
        ok, witness = K.is_closed_pseudomanifold()
        if not ok:
            raise NotPseudomanifold(f"ridge {witness[0]} lies in {witness[1]} facets")
        self.d = K.dim
        self.rng = rng if isinstance(rng, Rng) else Rng(rng)
        self.facets: set[Face] = set()
        self.star: dict[Face, set[Face]] = {}
        self.f = [0] * (self.d + 1)
        self.candidates: list[set[Face]] = [set() for _ in range(self.d + 1)]
        self.max_label = max(K.vertices)
        self.round = 0
        self.trajectory: deque[FlipMove] | None = (
            deque(maxlen=TRAJECTORY_BUFFER) if record_trajectory else None
        )
        self.moves_applied = 0
        for f in K.facets:
            self._add_facet(f)

    # -- incremental index maintenance ----------------------------------

    def _recount(self, face: Face, old: int, new: int) -> None:
        """Move ``face`` in or out of the candidates as its cofacet count
        changes from ``old`` to ``new``."""
        k = len(face) - 1
        target = self.d - k + 1  # cofacet count that makes the face flippable
        if old == target:
            self.candidates[k].discard(face)
        if new == target:
            self.candidates[k].add(face)

    def _add_facet(self, f: Face) -> None:
        self.facets.add(f)
        for s in range(1, len(f) + 1):
            for sub in combinations(f, s):
                cof = self.star.get(sub)
                if cof is None:
                    cof = self.star[sub] = set()
                    self.f[s - 1] += 1
                cof.add(f)
                self._recount(sub, len(cof) - 1, len(cof))

    def _remove_facet(self, f: Face) -> None:
        self.facets.remove(f)
        for s in range(1, len(f) + 1):
            for sub in combinations(f, s):
                cof = self.star[sub]
                cof.remove(f)
                if not cof:
                    del self.star[sub]
                    self.f[s - 1] -= 1
                self._recount(sub, len(cof) + 1, len(cof))

    # -- option enumeration ----------------------------------------------

    def replacement_of(self, face: Face) -> Face:
        """Link vertices of a flippable face (empty tuple for a facet)."""
        rest = {v for cof in self.star.get(face, ()) for v in cof}
        return tuple(sorted(rest.difference(face)))

    def options_at(self, dim: int) -> list[Face]:
        """Flippable faces of the given dimension, in sorted order."""
        return sorted(self.candidates[dim])

    def is_proper(self, face: Face) -> bool:
        """A flip is proper when it does not re-introduce an existing face."""
        i = len(face) - 1
        if face not in self.candidates[i]:
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
        for g in removed:
            self._remove_facet(g)
        for g in added:
            self._add_facet(g)
        self.round += 1
        self.moves_applied += 1
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
        return SimplicialComplex(sorted(self.facets))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(self.f)


def reached_simplex_boundary(K: SimplicialComplex) -> bool:
    """True iff the complex is the full boundary of a (d+1)-simplex."""
    d = K.dim
    facets = set(K.facets)
    verts = set(K.vertices)
    if len(verts) != d + 2 or len(facets) != d + 2:
        return False
    return facets == {tuple(sorted(c)) for c in combinations(sorted(verts), d + 1)}


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
    state = FlipState(K, Rng(seed), record_trajectory=True)

    best_f = state.f_vector()
    best_facets = frozenset(state.facets)
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
            best_facets = frozenset(state.facets)
            best_len = state.moves_applied
            stalled = 0

    if state.f_vector() < best_f:
        best_f = state.f_vector()
        best_facets = frozenset(state.facets)
        best_len = state.moves_applied

    moves = tuple(state.trajectory)
    dropped = state.moves_applied - len(moves)
    kept = moves[: max(0, best_len - dropped)]
    return SimplifyResult(
        complex=SimplicialComplex(sorted(best_facets)),
        trajectory=kept,
        reached_simplex_boundary=reached_simplex_boundary(
            SimplicialComplex(sorted(best_facets))
        ),
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
