"""Heuristic PL-sphere recognition and the combinatorial-manifold check.

One rule decides every dimension.  :func:`recognize_sphere` judges a
d-complex K given two facts: K passes :func:`precheck` (it is pure, every
ridge lies in exactly two facets, and the 1-skeleton is connected), and the
link of every face of K is a PL sphere.  Given both, K is two points for
d = 0, a single cycle for d = 1, and a closed surface, a sphere iff its
Euler characteristic is 2, for d = 2.  For d >= 3 it runs, in order: random
discrete Morse searches (a spherical vector certifies YES), integral homology
(a non-spherical answer certifies NO), budgeted Tietze simplification of a
fundamental-group presentation (an emptied one certifies YES off dimension
4), and bistellar simplification toward the boundary of a simplex (YES only
when the whole move trajectory was kept).  In dimension 4 an emptied
presentation pins only the topological type, so the flips run after it,
and it certifies TOPOLOGICAL_SPHERE_ONLY when they do not reach the simplex
boundary.  Every YES or NO carries a replayable certificate; anything else
is reported UNDECIDED.

:func:`is_combinatorial_manifold` establishes the second fact.  The link of
an i-face F has dimension d - i - 1, and the link of a face G inside it is
the link of the union of F and G in K.  So the check judges each link L
by ``precheck(L)`` and ``recognize_sphere(L)`` alone and never re-derives
the links of L: it visits every face of dimension <= d - 2 anyway (the link
of a ridge is two points) and stops at the first NO.  A link judged YES
whose own links fail still ends the check in NO, at the larger face.
Each link shape is judged once, on its canonical labels: the link's facets
relabelled to 0..n-1 in vertex order, which is also the cache key.
Symmetric inputs such as barycentric subdivisions repeat a few link shapes
under many labellings (see :func:`is_combinatorial_manifold`).
:func:`recognize` runs the manifold check on K and then
:func:`recognize_sphere` on K itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations

from .complex_core import Face, SimplicialComplex
from .errors import NotPure, PrereqFailed
from .flips import bistellar_simplify
from .homology import homology
from .morse import Strategy, is_spherical, random_discrete_morse
from .pi1 import Verdict as Pi1Verdict
from .pi1 import DEFAULT_BUDGET, TrivialityVerdict, _tietze, pi1_presentation

#: Morse rounds per link in the manifold check
LINK_MORSE_ROUNDS = 20


class Answer(Enum):
    YES = "YES"
    NO = "NO"
    UNDECIDED = "UNDECIDED"
    #: dimension 4 only: simply connected with spherical homology pins the
    #: homeomorphism type, but not the PL type
    TOPOLOGICAL_SPHERE_ONLY = "TOPOLOGICAL_SPHERE_ONLY"

    @property
    def exit_code(self) -> int:
        return {
            Answer.YES: 0,
            Answer.NO: 1,
            Answer.UNDECIDED: 2,
            Answer.TOPOLOGICAL_SPHERE_ONLY: 3,
        }[self]


@dataclass(frozen=True)
class Certificate:
    """A replayable witness for a YES/NO answer; ``kind`` is one of
    spherical_morse, non_spherical_homology, trivial_pi1, flip_path,
    pseudomanifold_failure, euler_characteristic, link_failure, vertex_count,
    polygon."""

    kind: str
    payload: object = None


@dataclass
class Verdict:
    answer: Answer
    certificate: Certificate | None
    log: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "answer": self.answer.value,
            "certificate": self.certificate.kind if self.certificate else None,
            "log": list(self.log),
        }


@dataclass
class RecognitionConfig:
    morse_rounds: int = 100
    flip_rounds: int = 10**6
    strategy: Strategy = Strategy.RANDOM_RANDOM
    seed: int = 0
    pi1_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.morse_rounds < 0 or self.flip_rounds < 0:
            raise PrereqFailed("round counts must be >= 0")
        if self.pi1_budget <= 0:
            raise PrereqFailed("the pi1 budget must be positive")


def precheck(K: SimplicialComplex) -> Verdict | None:
    """Purity, the two-facets-per-ridge condition, and connectivity.

    Returns a NO verdict with a witness when K cannot be a sphere for one
    of these elementary reasons, else None.
    """
    try:
        ok, witness = K.is_closed_pseudomanifold()
    except NotPure as e:
        return Verdict(
            Answer.NO,
            Certificate("pseudomanifold_failure", str(e)),
            [f"not pure: {e}"],
        )
    if not ok:
        ridge, count = witness
        return Verdict(
            Answer.NO,
            Certificate("pseudomanifold_failure", witness),
            [f"ridge {ridge} lies in {count} facets (expected 2)"],
        )
    if K.dim >= 1 and not K.is_connected():
        return Verdict(
            Answer.NO,
            Certificate("pseudomanifold_failure", "disconnected"),
            ["1-skeleton is disconnected"],
        )
    return None


def recognize_sphere(K: SimplicialComplex, cfg: RecognitionConfig | None = None) -> Verdict:
    """Decide K given that it passes :func:`precheck` and that the link of
    every face of K is a PL sphere; :func:`recognize` establishes both."""
    cfg = cfg or RecognitionConfig()
    d = K.dim
    if d == 0:
        return Verdict(Answer.YES, Certificate("vertex_count", 2), ["two isolated vertices"])
    if d == 1:
        return Verdict(Answer.YES, Certificate("polygon", K.f_vector()), ["single cycle"])
    if d == 2:
        chi = K.euler_characteristic()
        if chi == 2:
            return Verdict(Answer.YES, Certificate("euler_characteristic", 2), ["closed surface with chi = 2"])
        return Verdict(
            Answer.NO,
            Certificate("euler_characteristic", chi),
            [f"closed surface with chi = {chi} != 2"],
        )
    log: list[str] = []

    if cfg.morse_rounds > 0:
        for r in range(cfg.morse_rounds):
            res = random_discrete_morse(K, cfg.strategy, seed=cfg.seed + r)
            if is_spherical(res.vector):
                log.append(f"morse: spherical vector in round {r + 1}")
                return Verdict(Answer.YES, Certificate("spherical_morse", res), log)
        log.append(f"morse: no spherical vector in {cfg.morse_rounds} rounds")

    hg = homology(K, "Z", reduced=True)
    if not hg.is_spherical():
        log.append("homology: not that of a sphere")
        return Verdict(Answer.NO, Certificate("non_spherical_homology", hg), log)
    log.append("homology: spherical")

    # H_1 = 0 here, so pi1 has a trivial abelianization and is never shown
    # non-trivial: only a presentation with no generator left decides
    _, labels, trace = _tietze(pi1_presentation(K, base_tree_seed=cfg.seed), cfg.pi1_budget)
    trivial = None
    if not labels:
        trivial = Certificate("trivial_pi1", TrivialityVerdict(Pi1Verdict.TRIVIAL, trace=trace))
        log.append("pi1: presentation simplified to trivial")
        if d != 4:
            return Verdict(Answer.YES, trivial, log)
    elif trace.budget_exhausted:
        log.append("pi1: inconclusive at budget")
    else:
        log.append(f"pi1: {len(labels)} generators left, budget not exhausted")

    if cfg.flip_rounds > 0:
        result = bistellar_simplify(K, seed=cfg.seed, max_rounds=cfg.flip_rounds)
        if result.reached_simplex_boundary and result.replayable:
            log.append(f"flips: reached the simplex boundary after {result.rounds} rounds")
            return Verdict(Answer.YES, Certificate("flip_path", result), log)
        if result.reached_simplex_boundary:
            # the trajectory buffer filled before the best: no certificate
            log.append(
                f"flips: reached the simplex boundary after {result.rounds} rounds, "
                "but the trajectory is not replayable"
            )
        else:
            log.append(f"flips: best f-vector {result.best_f} after {result.rounds} rounds")

    if trivial is not None:
        # a simply connected homology 4-sphere that the flips did not
        # reduce: its topological type only
        return Verdict(Answer.TOPOLOGICAL_SPHERE_ONLY, trivial, log)
    return Verdict(Answer.UNDECIDED, None, log)


@dataclass
class ManifoldReport:
    summary: Answer
    #: links that did not come back YES, as (face, verdict) pairs
    failures: list[tuple[Face, Verdict]]
    #: link shapes (order types) judged
    links_checked: int
    #: links whose shape was judged before
    cache_hits: int
    log: list[str] = field(default_factory=list)


def is_combinatorial_manifold(
    K: SimplicialComplex, cfg: RecognitionConfig | None = None
) -> ManifoldReport:
    """Check that the link of every face of dimension <= d - 2 is a PL sphere.

    A precheck failure of K is reported as the single failure ``((), verdict)``.
    Each link L is judged given its own links, as ``precheck(L)`` or else
    ``recognize_sphere(L)``: the links of L are links of larger faces of K,
    which this loop visits too, bottom-up by face dimension (vertex links
    first), stopping at the first NO.  One sweep over the facets per
    dimension i gives every i-face its link facets, in facet order.

    A link's shape is its order type: its facets with the vertices
    relabelled 0..n-1 in sorted order.  Each shape is judged once, on that
    canonical complex, and the verdict is cached under it, so a cached
    verdict is by construction the verdict of its own key.  Given that K
    passes the precheck, every link is a closed pseudomanifold, so a verdict
    other than YES holds no vertex labels: the link is disconnected, its
    homology or Euler characteristic is not a sphere's, or no stage
    decides.  YES payloads never leave this function.
    """
    cfg = cfg or RecognitionConfig()
    bad = precheck(K)
    if bad is not None:
        return ManifoldReport(Answer.NO, [((), bad)], 0, 0, list(bad.log))

    link_cfg = replace(cfg, morse_rounds=LINK_MORSE_ROUNDS)
    cache: dict[tuple[Face, ...], Verdict] = {}
    failures: list[tuple[Face, Verdict]] = []
    checked = hits = 0
    log: list[str] = []
    undecided = False

    d = K.dim
    for i in range(d - 1):
        # the j-th (i+1)-subset of g, in lex order, is the complement of the
        # j-th (d-i)-subset in reverse lex order
        links: dict[Face, list[Face]] = {}
        for g in K.facets:
            for F, rest in zip(combinations(g, i + 1), reversed(list(combinations(g, d - i)))):
                links.setdefault(F, []).append(rest)
        for F in K.faces(i):
            facets = links[F]
            rank = {v: n for n, v in enumerate(sorted(set().union(*facets)))}
            key = tuple([tuple([rank[v] for v in f]) for f in facets])
            verdict = cache.get(key)
            if verdict is None:
                L = SimplicialComplex(key)
                verdict = cache[key] = precheck(L) or recognize_sphere(L, link_cfg)
                checked += 1
            else:
                hits += 1
            if verdict.answer is Answer.NO:
                failures.append((F, verdict))
                log.append(f"link of {F} is not a sphere")
                return ManifoldReport(Answer.NO, failures, checked, hits, log)
            if verdict.answer is not Answer.YES:
                undecided = True
                failures.append((F, verdict))
        log.append(f"all {i}-face links checked")

    summary = Answer.UNDECIDED if undecided else Answer.YES
    return ManifoldReport(summary, failures, checked, hits, log)


def recognize(K: SimplicialComplex, cfg: RecognitionConfig | None = None) -> Verdict:
    """Full decision procedure: the precheck and the manifold check, then
    :func:`recognize_sphere` on K."""
    cfg = cfg or RecognitionConfig()
    report = is_combinatorial_manifold(K, cfg)
    if report.summary is Answer.NO:
        face, verdict = report.failures[-1]
        if face == ():
            return verdict
        return Verdict(
            Answer.NO,
            Certificate("link_failure", (face, verdict)),
            report.log + ["not a combinatorial manifold"],
        )
    if report.summary is not Answer.YES:
        return Verdict(
            Answer.UNDECIDED,
            None,
            report.log + ["manifold check inconclusive"],
        )
    return recognize_sphere(K, cfg)


def recognize_small_dim(K: SimplicialComplex) -> Verdict:
    """Exact sphere recognition in dimensions 0, 1 and 2."""
    if K.dim > 2:
        raise PrereqFailed(f"exact recognition limited to dimension <= 2, got {K.dim}")
    return recognize(K)
