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

A recording state keeps its moves flat, with no object per move: the d+2
vertex labels of each face and its replacement in one list, the face's size
in one byte.  That is all a move needs, since a flip at a face of a given
size changes the f-vector by a fixed amount (``_f_change``).  It keeps the
first moves of a run, so what it keeps always replays from the input.  A
``Trajectory`` reads them back as ``FlipMove``s.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb, isfinite
from operator import eq

from .complex_core import Face, SimplicialComplex, check_capacity
from .errors import ImproperMove, InvalidSpec, NotPseudomanifold, StaleOption
from .rng import Rng

#: The first moves of a run that a recording ``FlipState`` keeps.  A longer
#: run records no more, so its trajectory replays to the complex after this
#: many rounds, not to its best.  A kept move costs d+2 list slots and one
#: byte, about 54 B per round in dimension 3.
TRAJECTORY_BUFFER = 10**6


@dataclass(frozen=True, slots=True)
class FlipMove:
    """One applied flip, enough to replay it deterministically.  Built for
    the caller on demand; trajectories store their moves flat."""

    round: int
    face: Face
    replacement: Face
    f_after: tuple[int, ...]


@lru_cache(maxsize=None)
def _f_change(d: int, size: int) -> tuple[int, ...]:
    """The change of the f-vector of a d-complex under a flip at a face F of
    ``size`` vertices.  Its replacement R has d+2-size.  The flip adds R | T
    for every proper subset T of F and removes F | T for every proper subset
    T of R; the faces of at most d+1 vertices among these are exactly those
    with T proper."""
    rep = d + 2 - size
    return tuple(
        (comb(size, k + 1 - rep) if k + 1 >= rep else 0)
        - (comb(rep, k + 1 - size) if k + 1 >= size else 0)
        for k in range(d + 1)
    )


class Trajectory(Sequence):
    """The first moves of a flip run, a read-only sequence of ``FlipMove``s.

    Stored flat: per move, ``labels`` holds the vertex labels of its face and
    then of its replacement (d+2 in all), and ``sizes`` the face's size.  A
    ``FlipMove`` is rebuilt on access.  Its round counts on from 1, and its
    f-vector on from ``f_before``, the input's f-vector, by one
    ``_f_change`` per move.  A trajectory equals any tuple or trajectory of
    the same moves, so an empty one equals ``()``.  Slices that start at 0
    with step 1 are trajectories; other slices are tuples.
    """

    __slots__ = ("_f_before", "_labels", "_sizes")

    def __init__(self, f_before: tuple[int, ...], labels: list[int], sizes: bytearray):
        self._f_before = f_before
        self._labels = labels
        self._sizes = sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self):
        labels, f = self._labels, self._f_before
        d = len(f) - 1
        changes = [()] + [_f_change(d, size) for size in range(1, d + 2)]
        at = 0
        for j, size in enumerate(self._sizes, 1):
            f = tuple(map(int.__add__, f, changes[size]))
            yield FlipMove(j, tuple(labels[at:at + size]), tuple(labels[at + size:at + d + 2]), f)
            at += d + 2

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return next(islice(self, range(len(self))[key], None))
        start, stop, step = key.indices(len(self))
        if start or step != 1:
            return tuple(self)[key]
        width = len(self._f_before) + 1
        return Trajectory(self._f_before, self._labels[:stop * width], self._sizes[:stop])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Trajectory, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"<Trajectory of {len(self)} moves>"


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

    With ``record_trajectory`` it also keeps the first ``TRAJECTORY_BUFFER``
    moves, flat as a ``Trajectory`` stores them, and then records no more;
    ``take_trajectory`` hands them over.
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
        self._keep = TRAJECTORY_BUFFER if record_trajectory else None
        self._labels: list[int] = []
        self._sizes = bytearray()
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
        self._f_start = tuple(self.f)  # before the first recorded move

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
        if replacement is not None and replacement != actual:
            if len(face) <= self.d:
                raise StaleOption(f"recorded replacement {replacement} no longer matches {actual}")
            label = replacement[0] if len(replacement) == 1 else None
            if type(label) is not int or label < 0 or (label,) in self.count:
                raise ImproperMove(f"{replacement} is not one new vertex label to subdivide {face}")
            actual = replacement
        self._apply(face, actual)
        return FlipMove(self.round, face, actual, tuple(self.f))

    def _apply(self, face: Face, replacement: Face) -> None:
        """Make the flip at ``face`` that puts in ``replacement``, unchecked."""
        if len(face) > self.d:
            self.max_label = max(self.max_label, replacement[0])
        self._flip_counts(face, replacement)
        self.round += 1
        if self._keep is not None:
            self._record(face, replacement)

    def _record(self, face: Face, replacement: Face) -> None:
        self._labels.extend(face)
        self._labels.extend(replacement)
        self._sizes.append(len(face))
        if len(self._sizes) == self._keep:
            self._keep = None

    def take_trajectory(self, last_round: int) -> Trajectory:
        """Hand over the kept moves up to round ``last_round``, the first
        ``min(kept, last_round)`` moves; the state records no more moves."""
        labels, sizes = self._labels, self._sizes
        del sizes[last_round:]
        stop = len(sizes) * (self.d + 2)
        # trimmed in place, as a copy of the kept moves would double a full
        # buffer for a moment; so would one slice deletion of the tail,
        # which first copies the references it drops
        while len(labels) > stop:
            del labels[max(stop, len(labels) - 4096):]
        self._keep, self._labels, self._sizes = None, [], bytearray()
        return Trajectory(self._f_start, labels, sizes)

    def random_move(self, move_dim: int) -> FlipMove:
        """Apply a uniformly random proper ``move_dim``-move.

        A k-move acts on a face of dimension d-k; 0-moves subdivide a
        random facet and are always proper.
        """
        flip = self._first_proper_flip(self.d - move_dim)
        if flip is None:
            raise ImproperMove(f"no proper {move_dim}-move available")
        return FlipMove(self.round, *flip, tuple(self.f))

    def _first_proper_flip(self, i: int) -> tuple[Face, Face] | None:
        """Apply the first proper flip at an i-face in random order, if any,
        and return its face and replacement; the scans of a flip run build
        no ``FlipMove``."""
        # incremental Fisher-Yates over the sorted candidates, which stay as
        # they are: ``moved`` holds the slots a swap has changed, and random
        # draws are paid only for the faces tried
        items = self.candidates[i]
        moved: dict[int, Face] = {}
        n = len(items)
        for a in range(n):
            b = a + self.rng.randbelow(n - a)
            face = moved.get(b, items[b])
            moved[b] = moved.get(a, items[a])
            rep = self._replacement(face)
            if rep is not None:
                self._apply(face, rep)
                return face, rep
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
    """The best complex of a run and the moves that reach it from the input.

    ``trajectory`` is the ``Trajectory`` of the moves up to the best
    complex, as far as the first ``TRAJECTORY_BUFFER`` moves of the run hold
    them.  ``replayable`` says that they hold them all, so ``replay`` of the
    input along it gives ``complex``; otherwise it gives the complex after
    ``TRAJECTORY_BUFFER`` rounds.
    """

    complex: SimplicialComplex
    trajectory: Trajectory
    reached_simplex_boundary: bool
    rounds: int
    best_f: tuple[int, ...]
    replayable: bool
    seed: int


def _cooling_move(state: FlipState) -> tuple[Face, Face] | None:
    """First proper f-non-increasing flip, scanning faces of dimension
    0 upward to floor(d/2) (i.e. d-moves first), random order per level."""
    for i in range(state.d // 2 + 1):
        if (flip := state._first_proper_flip(i)) is not None:
            return flip
    return None


def _heating_move(state: FlipState, weights: tuple[int, ...]) -> tuple[Face, Face]:
    """A random proper k-move, k drawn by ``weights``; a stellar subdivision
    (0-move), which never fails, when no k-move is proper."""
    total = sum(weights)
    pick = state.rng.randbelow(total)
    move_dim = 0
    for k, w in enumerate(weights):
        if pick < w:
            move_dim = k
            break
        pick -= w
    return state._first_proper_flip(state.d - move_dim) or state._first_proper_flip(state.d)


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
        if _cooling_move(state) is None:
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

    trajectory = state.take_trajectory(best_len)
    return SimplifyResult(
        complex=SimplicialComplex(best_facets),
        trajectory=trajectory,
        reached_simplex_boundary=best_f[0] == best_f[-1] == K.dim + 2,
        rounds=state.round,
        best_f=best_f,
        replayable=len(trajectory) == best_len,
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
