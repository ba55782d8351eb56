"""Fundamental-group presentations and a bounded triviality test.

The presentation comes from a seeded random spanning tree of the
1-skeleton (non-tree edges are generators, 2-faces give relators).  A
budgeted round of Tietze simplification then tries to empty the
presentation; failing that, the abelianization decides non-triviality or
the verdict is an honest ``unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .complex_core import SimplicialComplex
from .errors import DimensionOutOfRange, NotConnected
from .homology import SparseIntMatrix, smith_normal_form
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
        M = SparseIntMatrix(len(self.relators), self.generators)
        for r, w in enumerate(self.relators):
            for x in w:
                g = abs(x) - 1
                M.set(r, g, M.get(r, g) + (1 if x > 0 else -1))
        return M

    def abelianization(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, cyclic torsion orders) of the abelianized group."""
        snf = smith_normal_form(self.exponent_matrix())
        return self.generators - snf.rank, snf.torsion()

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
        w = free_reduce(letter(a, b) + letter(b, c) + letter(c, a))
        if w:
            relators.append(w)
    return GroupPresentation(len(gen_index), tuple(relators))


@dataclass
class TietzeTrace:
    """Counts of each elementary simplification applied."""

    free_reductions: int = 0
    empty_deletions: int = 0
    generators_eliminated: int = 0
    subword_replacements: int = 0
    operations: int = 0
    budget_exhausted: bool = False

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _substitute(word: Word, g: int, repl: Word) -> Word:
    """Replace every occurrence of generator g by the word ``repl``."""
    out: list[int] = []
    for x in word:
        if x == g:
            out.extend(repl)
        elif x == -g:
            out.extend(_invert(repl))
        else:
            out.append(x)
    return free_reduce(out)


def _cyclic_rotations(word: Word):
    for i in range(len(word)):
        yield word[i:] + word[:i]


def _try_subword(long: Word, short: Word) -> Word | None:
    """Shorten ``long`` using the relation short = 1, if strictly shorter.

    Looks for a cyclic rotation u of ``short`` (or its inverse) such that
    more than half of u appears in ``long``; the matched prefix is then
    replaced by the inverse of the remainder.
    """
    n = len(long)
    for cand in (short, _invert(short)):
        for rot in _cyclic_rotations(cand):
            half = len(rot) // 2 + 1
            probe = rot[:half]
            for i in range(n - half + 1):
                if long[i:i + half] == probe:
                    repl = _invert(rot[half:])
                    out = free_reduce(long[:i] + repl + long[i + half:])
                    if len(out) < n:
                        return out
    return None


def tietze_simplify(
    P: GroupPresentation, effort_limit: int = DEFAULT_BUDGET
) -> tuple[GroupPresentation, TietzeTrace]:
    """Length-non-increasing Tietze simplification within a work budget.

    Applies free reduction, empty-relator deletion, elimination of a
    generator occurring exactly once in some relator, and greedy
    length-reducing subword replacement, to a fixpoint or until the budget
    is spent.  The resulting presentation is of an isomorphic group.
    """
    relators = [free_reduce(w) for w in P.relators]
    dropped: set[int] = set()  # generators keep their labels until the end
    trace = TietzeTrace()

    def spend(n: int = 1) -> bool:
        trace.operations += n
        if trace.operations > effort_limit:
            trace.budget_exhausted = True
            return False
        return True

    changed = True
    while changed and not trace.budget_exhausted:
        changed = False

        kept = [w for w in relators if w]
        if len(kept) != len(relators):
            trace.empty_deletions += len(relators) - len(kept)
            relators = kept
            changed = True
        if not spend():
            break

        # eliminate a generator that occurs exactly once in some relator
        eliminated = False
        for ri, w in enumerate(relators):
            if not spend(len(w)):
                break
            counts: dict[int, int] = {}
            for x in w:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            single = [g for g, c in counts.items() if c == 1]
            if not single:
                continue
            g = min(single)
            i = next(j for j, x in enumerate(w) if abs(x) == g)
            # rotate so the single occurrence leads, then solve for g
            rot = w[i:] + w[:i]
            repl = _invert(rot[1:]) if rot[0] > 0 else rot[1:]
            rest = [
                _substitute(u, g, repl) if g in u or -g in u else u
                for u in relators[:ri] + relators[ri + 1:]
            ]
            if not spend(sum(len(u) for u in rest)):
                break
            relators = rest
            dropped.add(g)
            trace.generators_eliminated += 1
            eliminated = True
            changed = True
            break
        if eliminated or trace.budget_exhausted:
            continue

        # greedy length-reducing subword replacement
        order = sorted(range(len(relators)), key=lambda i: len(relators[i]))
        for si in order:
            short = relators[si]
            if not short:
                continue
            for li in range(len(relators)):
                if li == si:
                    continue
                long = relators[li]
                if len(long) < len(short):
                    continue
                if not spend(len(long) * len(short)):
                    break
                out = _try_subword(long, short)
                if out is not None and len(out) < len(long):
                    relators[li] = out
                    trace.subword_replacements += 1
                    changed = True
            if changed or trace.budget_exhausted:
                break

    # number the surviving generators 1, 2, ... in their original order
    labels = [g for g in range(1, P.generators + 1) if g not in dropped]
    new = {g: i for i, g in enumerate(labels, 1)}
    relators = tuple(tuple(new[x] if x > 0 else -new[-x] for x in w) for w in relators if w)
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
    simplified: GroupPresentation | None = None

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
    the abelianization is non-trivial, unknown otherwise."""
    simplified, trace = tietze_simplify(P, effort_limit)
    if simplified.is_empty():
        return TrivialityVerdict(Verdict.TRIVIAL, trace=trace, simplified=simplified)
    rank, torsion = simplified.abelianization()
    if rank > 0 or torsion:
        return TrivialityVerdict(
            Verdict.NON_TRIVIAL,
            trace=trace,
            abelianization=(rank, torsion),
            simplified=simplified,
        )
    return TrivialityVerdict(Verdict.UNKNOWN, trace=trace, simplified=simplified)
