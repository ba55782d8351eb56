"""Heuristic PL-sphere recognition and the combinatorial-manifold check.

The pipeline for dimension >= 3 runs, in order: random discrete Morse
searches (a spherical vector certifies YES), integral homology (a
non-spherical answer certifies NO), a bounded fundamental-group triviality
test (YES off dimension 4, where only the topological type follows), and
bistellar simplification toward the boundary of a simplex.  Every YES or NO
carries a replayable certificate; anything else is reported UNDECIDED.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .complex_core import DEFAULT_CAPACITY, Face, SimplicialComplex, build_hasse
from .errors import NotPure, PrereqFailed
from .flips import bistellar_simplify
from .homology import homology
from .morse import Strategy, is_spherical, random_discrete_morse
from .pi1 import Verdict as Pi1Verdict
from .pi1 import pi1_presentation, triviality_verdict


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
    spherical_morse, non_spherical_homology, trivial_pi1, non_trivial_pi1,
    flip_path, pseudomanifold_failure, euler_characteristic, link_failure,
    vertex_count, polygon."""

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
    pi1_budget: int = 10**6
    #: full_inductive checks links of every proper face; vertices_only only
    #: the vertex links; skip_links trusts the caller (at their risk)
    link_check_mode: str = "full_inductive"
    link_morse_rounds: int = 20
    capacity: int = DEFAULT_CAPACITY
    use_homology: bool = True
    use_pi1: bool = True

    def __post_init__(self):
        if self.morse_rounds < 0 or self.flip_rounds < 0:
            raise PrereqFailed("round counts must be >= 0")
        if self.pi1_budget <= 0 or self.capacity <= 0 or self.link_morse_rounds <= 0:
            raise PrereqFailed("budgets must be positive")


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


def _is_single_cycle(edges: list[Face], vertices: list[int]) -> bool:
    if not vertices or len(edges) != len(vertices):
        return False
    deg: dict[int, int] = {v: 0 for v in vertices}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity of the cycle graph
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def recognize_small_dim(K: SimplicialComplex) -> Verdict:
    """Exact sphere recognition in dimensions 0, 1 and 2."""
    d = K.dim
    if d > 2:
        raise PrereqFailed(f"exact recognition limited to dimension <= 2, got {d}")
    bad = precheck(K)
    if bad is not None:
        return bad
    if d == 0:
        n = K.n_vertices
        if n == 2:
            return Verdict(Answer.YES, Certificate("vertex_count", 2), ["two isolated vertices"])
        return Verdict(Answer.NO, Certificate("vertex_count", n), [f"{n} vertices, need 2"])
    if d == 1:
        if _is_single_cycle(list(K.facets), list(K.vertices)):
            return Verdict(Answer.YES, Certificate("polygon", K.f_vector()), ["single cycle"])
        return Verdict(Answer.NO, Certificate("polygon", K.f_vector()), ["not a single cycle"])
    # d == 2: closed surface iff every vertex link is a single cycle
    for v in K.vertices:
        L = K.link((v,))
        if L.dim != 1 or not _is_single_cycle(list(L.faces(1)), list(L.vertices)):
            return Verdict(
                Answer.NO,
                Certificate("link_failure", (v,)),
                [f"vertex {v} has a non-cycle link"],
            )
    chi = K.euler_characteristic()
    if chi == 2:
        return Verdict(Answer.YES, Certificate("euler_characteristic", 2), ["closed surface with chi = 2"])
    return Verdict(
        Answer.NO,
        Certificate("euler_characteristic", chi),
        [f"closed surface with chi = {chi} != 2"],
    )


def recognize_sphere(K: SimplicialComplex, cfg: RecognitionConfig | None = None) -> Verdict:
    """The heuristic pipeline for a combinatorial manifold of dim >= 3."""
    cfg = cfg or RecognitionConfig()
    d = K.dim
    if d < 3:
        raise PrereqFailed("heuristic pipeline requires dimension >= 3")
    log: list[str] = []

    if cfg.morse_rounds > 0:
        H = build_hasse(K, capacity=cfg.capacity)
        for r in range(cfg.morse_rounds):
            res = random_discrete_morse(K, cfg.strategy, seed=cfg.seed + r, hasse=H)
            if is_spherical(res.vector):
                log.append(f"morse: spherical vector in round {r + 1}")
                return Verdict(Answer.YES, Certificate("spherical_morse", res), log)
        log.append(f"morse: no spherical vector in {cfg.morse_rounds} rounds")

    if cfg.use_homology:
        hg = homology(K, "Z", reduced=True)
        if not hg.is_spherical():
            log.append("homology: not that of a sphere")
            return Verdict(Answer.NO, Certificate("non_spherical_homology", hg), log)
        log.append("homology: spherical")

    if cfg.use_pi1:
        P = pi1_presentation(K, base_tree_seed=cfg.seed)
        pv = triviality_verdict(P, cfg.pi1_budget)
        if pv.verdict is Pi1Verdict.TRIVIAL:
            log.append("pi1: presentation simplified to trivial")
            if d == 4:
                # simply connected homology 4-sphere: topological type only
                return Verdict(
                    Answer.TOPOLOGICAL_SPHERE_ONLY, Certificate("trivial_pi1", pv), log
                )
            return Verdict(Answer.YES, Certificate("trivial_pi1", pv), log)
        if pv.verdict is Pi1Verdict.NON_TRIVIAL:
            log.append(f"pi1: non-trivial abelianization {pv.abelianization}")
            return Verdict(Answer.NO, Certificate("non_trivial_pi1", pv), log)
        log.append("pi1: inconclusive at budget")

    if cfg.flip_rounds > 0:
        result = bistellar_simplify(K, seed=cfg.seed, max_rounds=cfg.flip_rounds)
        if result.reached_simplex_boundary:
            log.append(f"flips: reached the simplex boundary after {result.rounds} rounds")
            return Verdict(Answer.YES, Certificate("flip_path", result), log)
        log.append(f"flips: best f-vector {result.best_f} after {result.rounds} rounds")

    return Verdict(Answer.UNDECIDED, None, log)


@dataclass
class ManifoldReport:
    summary: Answer
    #: links that did not come back YES, as (face, verdict) pairs
    failures: list[tuple[Face, Verdict]]
    links_checked: int
    cache_hits: int
    log: list[str] = field(default_factory=list)


def is_combinatorial_manifold(
    K: SimplicialComplex, cfg: RecognitionConfig | None = None
) -> ManifoldReport:
    """Check that every proper face link is a PL sphere of the right dim.

    Works bottom-up by face dimension (vertex links first) and caches link
    verdicts by facet set, since links repeat heavily in structured inputs.
    """
    cfg = cfg or RecognitionConfig()
    bad = precheck(K)
    if bad is not None:
        return ManifoldReport(Answer.NO, [((), bad)], 0, 0, list(bad.log))

    d = K.dim
    link_cfg = replace(cfg, morse_rounds=cfg.link_morse_rounds)
    cache: dict[frozenset, Verdict] = {}
    failures: list[tuple[Face, Verdict]] = []
    checked = hits = 0
    log: list[str] = []
    undecided = False

    max_i = 0 if cfg.link_check_mode == "vertices_only" else d - 1
    for i in range(max_i + 1):
        for F in K.faces(i):
            L = K.link(F)
            key = frozenset(L.facets)
            verdict = cache.get(key)
            if verdict is None:
                if L.dim != d - i - 1:
                    verdict = Verdict(
                        Answer.NO,
                        Certificate("link_failure", F),
                        [f"link of {F} has dimension {L.dim}, expected {d - i - 1}"],
                    )
                elif L.dim <= 2:
                    verdict = recognize_small_dim(L)
                else:
                    pre = precheck(L)
                    verdict = pre if pre is not None else recognize_sphere(L, link_cfg)
                cache[key] = verdict
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
    """Full decision procedure: prechecks, exact small dimensions, the
    inductive manifold check, then the heuristic pipeline."""
    cfg = cfg or RecognitionConfig()
    bad = precheck(K)
    if bad is not None:
        return bad
    if K.dim <= 2:
        return recognize_small_dim(K)

    if cfg.link_check_mode != "skip_links":
        report = is_combinatorial_manifold(K, cfg)
        if report.summary is Answer.NO:
            face, verdict = report.failures[0]
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
    verdict = recognize_sphere(K, cfg)
    return verdict
