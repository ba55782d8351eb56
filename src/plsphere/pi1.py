"""Fundamental-group presentations and a bounded triviality test.

The presentation comes from a seeded random spanning tree of the
1-skeleton (non-tree edges are generators, 2-faces give relators).  A
budgeted round of Tietze simplification then tries to empty the
presentation; failing that, the abelianization decides non-triviality or
the verdict is an honest ``unknown``.

One Tietze core, ``_tietze``, serves both callers.  It keeps each relator
once and leaves the surviving generators under their original labels.  It
eliminates through the shortest relator that holds a generator exactly
once, found from per-length heaps of the relators not read since they were
last written, and rewrites only the relators that hold that generator.
The budget charges only work done: a relator read costs its length, an
elimination the letters it writes, and a subword attempt the product of
the two lengths.
``tietze_simplify`` renumbers its result into a new presentation.  The
verdict does not: it abelianizes the surviving words as they stand, whose
dropped generators are empty columns, and builds each exponent row only
when the elimination first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

from .complex_core import SimplicialComplex
from .errors import DimensionOutOfRange, InvalidSpec, NotConnected
from .homology import SparseIntMatrix, _smith_in_place
from .rng import Rng

DEFAULT_BUDGET = 10**6

# A word is a tuple of nonzero signed generator indices, 1-based:
# +g means the generator g, -g its inverse.
Word = tuple[int, ...]


def free_reduce(word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _invert(word) -> Word:
    return tuple(-x for x in reversed(word))


def _exponent_row(word: Word) -> dict[int, int]:
    """The exponent sum of each generator in ``word``, keyed by its 0-based
    column, in order of first occurrence; zero sums are left out."""
    row: dict[int, int] = {}
    for x in word:
        c = abs(x) - 1
        row[c] = row.get(c, 0) + (1 if x > 0 else -1)
    if 0 in row.values():
        row = {c: v for c, v in row.items() if v}
    return row


def _exponent_matrix(words, ncols: int, built: bool) -> SparseIntMatrix:
    """The exponent rows of ``words`` over ``ncols`` columns.  Unless
    ``built``, only the column lists are filled and every row is None, for
    ``_eliminate`` to build with ``_exponent_row`` on first touch."""
    M = SparseIntMatrix(0, ncols)
    M.nrows = len(words)
    M.rows = [None] * len(words)
    col_rows = M.col_rows
    for r, w in enumerate(words):
        row = _exponent_row(w)
        if built:
            M.rows[r] = row
        for c in row:
            col_rows[c].append(r)
    return M


def _abelianization(words, ncols: int, generators: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion orders) of the group on ``generators`` generators
    whose relators are ``words`` over columns 1..``ncols``; the columns of
    the labels that are not generators must be empty.  The exponent matrix
    is reduced in place, with each row built on first touch."""
    snf = _smith_in_place(
        _exponent_matrix(words, ncols, built=False), lambda r: _exponent_row(words[r])
    )
    return generators - snf.rank, snf.torsion()


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation; relators are freely reduced words."""

    generators: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        for w in self.relators:
            for x in w:
                if x == 0 or abs(x) > self.generators:
                    raise ValueError(f"generator index {x} out of range")
            if free_reduce(w) != w:
                raise ValueError("relator is not freely reduced")

    def is_empty(self) -> bool:
        return self.generators == 0

    def exponent_matrix(self) -> SparseIntMatrix:
        """Relator-by-generator exponent sums (presents the abelianization)."""
        return _exponent_matrix(self.relators, self.generators, built=True)

    def abelianization(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, cyclic torsion orders) of the abelianized group.

        The exponent matrix is built here and reduced in place, so no
        second copy of it is made.
        """
        return _abelianization(self.relators, self.generators, self.generators)

    def export_text(self) -> str:
        lines = [f"generators: {self.generators}"]
        lines.extend(" ".join(map(str, w)) for w in self.relators)
        return "\n".join(lines) + "\n"


def pi1_presentation(K: SimplicialComplex, base_tree_seed: int = 0) -> GroupPresentation:
    """Edge-path-group presentation of the fundamental group.

    Generators are the 1-skeleton edges outside a seeded random spanning
    tree; each 2-face {a<b<c} contributes the relator reading a->b->c->a,
    with tree edges contributing the identity.
    """
    if K.dim < 2:
        raise DimensionOutOfRange("fundamental group needs dimension >= 2")
    if not K.is_connected():
        raise NotConnected("fundamental group of a disconnected complex")

    verts = list(K.vertices)
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in K.faces(1):
        adj[a].append(b)
        adj[b].append(a)

    rng = Rng(base_tree_seed)
    tree: set[tuple[int, int]] = set()
    seen = {verts[rng.randbelow(len(verts))]}
    frontier = list(seen)
    while frontier:
        nxt: list[int] = []
        rng.shuffle(frontier)
        for v in frontier:
            nbrs = sorted(adj[v])
            rng.shuffle(nbrs)
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    tree.add((min(v, w), max(v, w)))
                    nxt.append(w)
        frontier = nxt

    gen_index: dict[tuple[int, int], int] = {}
    for e in K.faces(1):
        if e not in tree:
            gen_index[e] = len(gen_index) + 1

    def letter(u: int, v: int) -> tuple[int, ...]:
        e = (u, v) if u < v else (v, u)
        g = gen_index.get(e)
        if g is None:
            return ()
        return (g,) if u < v else (-g,)

    relators = []
    for a, b, c in K.faces(2):
        # three distinct edges give distinct generators: w is reduced
        w = letter(a, b) + letter(b, c) + letter(c, a)
        if w:
            relators.append(w)
    return GroupPresentation(len(gen_index), tuple(relators))


@dataclass
class TietzeTrace:
    """Counts of each elementary simplification applied."""

    #: inverse pairs x x^-1 cancelled by free reduction in the relators kept
    free_reductions: int = 0
    empty_deletions: int = 0
    generators_eliminated: int = 0
    subword_replacements: int = 0
    operations: int = 0
    budget_exhausted: bool = False

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _rewrite(word: Word, g: int, repl: Word, inv: Word) -> tuple[Word, int]:
    """``word`` with each g replaced by ``repl`` and each g^-1 by ``inv``,
    its inverse, freely reduced as it is written; and the number of
    inverse pairs cancelled."""
    out: list[int] = []
    cancelled = 0
    for x in word:
        for y in repl if x == g else inv if x == -g else (x,):
            if out and out[-1] == -y:
                out.pop()
                cancelled += 1
            else:
                out.append(y)
    return tuple(out), cancelled


def _cyclic_rotations(word: Word):
    for i in range(len(word)):
        yield word[i:] + word[:i]


def _try_subword(long: Word, short: Word) -> tuple[Word, int] | None:
    """Shorten ``long`` using the relation short = 1, if strictly shorter.

    Looks for a cyclic rotation u of ``short`` (or its inverse) such that
    more than half of u appears in ``long``; the matched prefix is then
    replaced by the inverse of the remainder.  Returns the shortened word
    and the number of inverse pairs its free reduction cancelled.
    """
    n = len(long)
    for cand in (short, _invert(short)):
        for rot in _cyclic_rotations(cand):
            half = len(rot) // 2 + 1
            probe = rot[:half]
            for i in range(n - half + 1):
                if long[i:i + half] == probe:
                    repl = _invert(rot[half:])
                    joined = long[:i] + repl + long[i + half:]
                    out = free_reduce(joined)
                    if len(out) < n:
                        return out, (len(joined) - len(out)) // 2
    return None


def _single(word: Word) -> int:
    """The least generator that occurs exactly once in ``word``, or 0."""
    gens = [abs(x) for x in word]
    if len(set(gens)) == len(gens):
        return min(gens)
    counts: dict[int, int] = {}
    for g in gens:
        counts[g] = counts.get(g, 0) + 1
    return min((g for g, c in counts.items() if c == 1), default=0)


def _tietze(
    P: GroupPresentation, effort_limit: int
) -> tuple[list[Word], list[int], TietzeTrace]:
    """The Tietze core of ``tietze_simplify``: the non-empty relators left,
    in order and under P's generator labels, the labels of the generators
    left, in increasing order, and the trace.  Each relator is held once,
    and replaced where it stands."""
    if effort_limit <= 0:
        raise InvalidSpec(f"the Tietze budget must be positive, not {effort_limit}")
    # relators by their index in P, () once deleted.  P's relators are
    # freely reduced tuples, which ``GroupPresentation`` checks
    rel = list(P.relators)
    # generator -> ids of the relators it was written into, or None once it
    # is eliminated.  A rewrite only appends, so an id may be stale or
    # repeated
    occ: list[list[int] | None] = [[] for _ in range(P.generators + 1)]
    # length -> min-heap of the ids of the relators of that length that
    # have not been read since they were last written, flagged in
    # ``fresh``; an id whose relator has since been read, rewritten to
    # another length or deleted is stale
    buckets: list[list[int]] = [[]]
    fresh = bytearray(b"\1") * len(rel)
    for i, w in enumerate(rel):
        for x in w:
            occ[abs(x)].append(i)
        while len(buckets) <= len(w):
            buckets.append([])
        buckets[len(w)].append(i)
    trace = TietzeTrace(empty_deletions=len(buckets[0]))
    buckets[0] = []
    low = 1

    def spend(n: int) -> bool:
        trace.operations += n
        if trace.operations > effort_limit:
            trace.budget_exhausted = True
            return False
        return True

    def write(i: int, u: Word, gens: set[int]) -> None:
        """Make ``u`` the i-th relator, to be read again; ``gens`` includes
        every generator of u that the relator did not hold before."""
        nonlocal low
        for h in gens.difference(map(abs, rel[i])):
            occ[h].append(i)
        rel[i] = u
        if not u:
            trace.empty_deletions += 1
            return
        fresh[i] = 1
        n = len(u)
        while len(buckets) <= n:
            buckets.append([])
        heappush(buckets[n], i)
        if n < low:
            low = n

    def shortest_single() -> tuple[int, int] | None:
        """Read the unread relators in (length, index) order up to the
        first that holds a generator once: its id and least such
        generator, or None when there is none or the budget runs out."""
        nonlocal low
        while low < len(buckets):
            heap = buckets[low]
            while heap:
                i = heappop(heap)
                w = rel[i]
                if len(w) != low or not fresh[i]:
                    continue
                fresh[i] = 0
                if not spend(low):
                    return None
                g = _single(w)
                if g:
                    return i, g
            low += 1
        return None

    while True:
        # eliminate through the shortest relator holding a generator once
        while (found := shortest_single()) is not None:
            ri, g = found
            w = rel[ri]
            i = w.index(g) if g in w else w.index(-g)
            # rotate so the single occurrence leads, then solve for g
            rot = w[i:] + w[:i]
            rest = rot[1:]
            repl, inv = (_invert(rest), rest) if rot[0] > 0 else (rest, _invert(rest))
            rewritten: dict[int, tuple[Word, int]] = {}
            cancelled = charge = 0
            for j in occ[g]:
                u = rel[j]
                if j == ri or j in rewritten or (g not in u and -g not in u):
                    continue
                u, c = rewritten[j] = _rewrite(u, g, repl, inv)
                cancelled += c
                charge += len(u)
            if not spend(charge):
                break
            rel[ri] = ()
            occ[g] = None
            # the generators of repl are the only ones a rewrite can add
            added = {abs(x) for x in repl}
            for j, (u, _) in rewritten.items():
                write(j, u, added)
            trace.free_reductions += cancelled
            trace.generators_eliminated += 1
        if trace.budget_exhausted:
            break

        # greedy length-reducing subword replacement
        live = [i for i, w in enumerate(rel) if w]
        changed = False
        for si in sorted(live, key=lambda i: len(rel[i])):
            short = rel[si]
            for li in live:
                long = rel[li]
                if li == si or len(long) < len(short):
                    continue
                if not spend(len(long) * len(short)):
                    break
                shorter = _try_subword(long, short)
                if shorter is not None:
                    u, cancelled = shorter
                    write(li, u, {abs(x) for x in u})
                    trace.free_reductions += cancelled
                    trace.subword_replacements += 1
                    changed = True
            if changed or trace.budget_exhausted:
                break
        if not changed or trace.budget_exhausted:
            break

    labels = [g for g in range(1, P.generators + 1) if occ[g] is not None]
    return [w for w in rel if w], labels, trace


def tietze_simplify(
    P: GroupPresentation, effort_limit: int = DEFAULT_BUDGET
) -> tuple[GroupPresentation, TietzeTrace]:
    """Length-non-increasing Tietze simplification within a work budget.

    Applies free reduction, empty-relator deletion, elimination of a
    generator occurring exactly once in some relator, and greedy
    length-reducing subword replacement, to a fixpoint or until the budget
    is spent.  The resulting presentation is of an isomorphic group.

    Each elimination goes through the shortest relator that holds some
    generator exactly once, the lowest-indexed among equally short ones,
    and eliminates the least such generator.  A subword pass runs only
    when no relator holds a generator once.

    The budget counts operations, and only work done: reading a relator to
    look for a generator that occurs in it once costs its length, and a
    relator is read again only after it is rewritten; an elimination costs
    the letters it writes into the relators it rewrites, those that hold
    the generator; each subword attempt costs the product of the two
    lengths.  A step whose charge overruns the budget is not applied.

    This is the Tietze core ``_tietze`` with its surviving generators
    numbered 1, 2, ... in their original order; ``triviality_verdict``
    runs the core alone and builds no renumbered copy.
    """
    words, labels, trace = _tietze(P, effort_limit)
    new = {g: i for i, g in enumerate(labels, 1)}
    relators = tuple(tuple(new[x] if x > 0 else -new[-x] for x in w) for w in words)
    return GroupPresentation(len(labels), relators), trace


class Verdict(Enum):
    TRIVIAL = "trivial"
    NON_TRIVIAL = "non-trivial"
    UNKNOWN = "unknown"


@dataclass
class TrivialityVerdict:
    verdict: Verdict
    #: for TRIVIAL: the simplification trace; for NON_TRIVIAL: the
    #: abelianization (free rank, torsion orders) as witness
    trace: TietzeTrace | None = None
    abelianization: tuple[int, tuple[int, ...]] | None = None

    def as_dict(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.trace is not None:
            out["trace"] = self.trace.as_dict()
        if self.abelianization is not None:
            rank, torsion = self.abelianization
            out["abelianization"] = {"free_rank": rank, "torsion": list(torsion)}
        return out


def triviality_verdict(
    P: GroupPresentation, effort_limit: int = DEFAULT_BUDGET
) -> TrivialityVerdict:
    """Trivial if simplification empties the presentation, non-trivial if
    the abelianization is non-trivial, unknown otherwise.

    Runs the Tietze core of ``tietze_simplify`` and abelianizes the words
    it leaves under P's labels, so no renumbered presentation is built.
    The columns of the eliminated generators are empty, and renumbering
    keeps the column order, so the elementary divisors are those of the
    renumbered presentation; the free rank counts the surviving
    generators.
    """
    words, labels, trace = _tietze(P, effort_limit)
    if not labels:
        return TrivialityVerdict(Verdict.TRIVIAL, trace=trace)
    rank, torsion = _abelianization(words, P.generators, len(labels))
    if rank > 0 or torsion:
        return TrivialityVerdict(Verdict.NON_TRIVIAL, trace=trace, abelianization=(rank, torsion))
    return TrivialityVerdict(Verdict.UNKNOWN, trace=trace)
