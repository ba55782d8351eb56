from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import is_combinatorial_manifold_per_face, is_sphere_small_dim_naive
from plsphere import flips, generators, recognizer
from plsphere.complex_core import SimplicialComplex
from plsphere.errors import PrereqFailed
from plsphere.morse import Strategy
from plsphere.pi1 import GroupPresentation
from plsphere.recognizer import (
    Answer,
    Certificate,
    RecognitionConfig,
    Verdict,
    is_combinatorial_manifold,
    precheck,
    recognize,
    recognize_small_dim,
    recognize_sphere,
)


def test_answer_exit_codes():
    assert Answer.YES.exit_code == 0
    assert Answer.NO.exit_code == 1
    assert Answer.UNDECIDED.exit_code == 2
    assert Answer.TOPOLOGICAL_SPHERE_ONLY.exit_code == 3


def test_precheck_failures():
    impure = SimplicialComplex([(0, 1, 2), (2, 3)])
    v = precheck(impure)
    assert v.answer is Answer.NO and v.certificate.kind == "pseudomanifold_failure"

    tripled = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    v = precheck(tripled)
    assert v.answer is Answer.NO
    assert v.certificate.payload == ((0, 1), 3)

    two_cycles = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    v = precheck(two_cycles)
    assert v.answer is Answer.NO and "disconnected" in v.log[0]

    assert precheck(generators.boundary_of_simplex(4)) is None


def test_dimension_zero():
    s0 = SimplicialComplex([(0,), (1,)])
    assert recognize_small_dim(s0).answer is Answer.YES
    assert recognize(s0).answer is Answer.YES


def test_dimension_one_polygon():
    hexagon = SimplicialComplex([(i, (i + 1) % 6) for i in range(5)] + [(0, 5)])
    assert recognize(hexagon).answer is Answer.YES


def test_dimension_two_spheres_and_non_spheres():
    assert recognize(generators.boundary_of_simplex(3)).answer is Answer.YES
    octa = generators.suspension(generators.suspension(generators.boundary_of_simplex(1)))
    assert recognize(octa).answer is Answer.YES

    v = recognize(generators.rp2_6())
    assert v.answer is Answer.NO
    assert v.certificate.kind == "euler_characteristic"
    assert v.certificate.payload == 1

    # chi = 1 catches RP^2 above; a pinch point needs the link check:
    a = generators.boundary_of_simplex(3)
    b = SimplicialComplex([tuple(v + 10 if v else 0 for v in f) for f in a.facets])
    pinched = SimplicialComplex(list(a.facets) + list(b.facets))
    v = recognize(pinched)
    assert v.answer is Answer.NO
    assert v.certificate.kind == "link_failure"


SURFACES = (
    generators.boundary_of_simplex(3).facets,
    generators.suspension(generators.suspension(generators.boundary_of_simplex(1))).facets,
)


@st.composite
def small_dim_facet_lists(draw):
    """Facet lists of dimension <= 2: random facet subsets (plus, at times, a
    stray lower face), one relabeled 2-sphere, disjoint unions of two of them,
    two of them glued at one or two vertices, and rp2_6."""
    kind = draw(st.sampled_from(("subset", "sphere", "union", "wedge", "rp2")))
    if kind == "rp2":
        return [list(f) for f in generators.rp2_6().facets]
    if kind == "subset":
        k = draw(st.integers(0, 2))
        n = draw(st.integers(k + 2, 6))
        pool = list(combinations(range(n), k + 1))
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        stray = st.sets(st.integers(0, n + 1), min_size=1, max_size=k + 1)
        return [list(f) for f in chosen] + [sorted(f) for f in draw(st.lists(stray, max_size=1))]
    pieces = []
    for offset in range(1 if kind == "sphere" else 2):
        facets = draw(st.sampled_from(SURFACES))
        labels = draw(st.permutations(range(6)))
        pieces.append([[labels[v] + 10 * offset for v in f] for f in facets])
    if kind == "wedge":
        # one glued vertex pair gives chi = 3; two pairs give chi = 2
        pairs = draw(st.integers(1, 2))
        glued = draw(st.permutations(range(10, 16)))[:pairs]
        glue = dict(zip(glued, draw(st.permutations(range(6)))))
        pieces[1] = [[glue.get(v, v) for v in f] for f in pieces[1]]
    return [f for piece in pieces for f in piece]


@given(small_dim_facet_lists())
@example([[0], [1]])  # two points
@example([[0], [1], [2]])  # a ridge (the empty face) in three facets
@example([[0, 1], [1, 2], [0, 2]])  # a cycle
@example([[0, 1], [1, 2], [0, 2], [3]])  # not pure
@example([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])  # disconnected
# glued at one vertex
@example([list(f) for f in SURFACES[0]] + [[0, 4, 5], [0, 5, 6], [0, 4, 6], [4, 5, 6]])
# glued at two vertices: chi = 2, but two vertex links are not cycles
@example([list(f) for f in SURFACES[1]] + [[0, 1, 12], [0, 1, 13], [0, 12, 13], [1, 12, 13]])
@example([list(f) for f in generators.rp2_6().facets])  # chi = 1
@example([list(f) for f in SURFACES[1]])  # chi = 2
@settings(max_examples=150, deadline=None)
def test_small_dim_recognition_matches_oracle(facets):
    v = recognize(SimplicialComplex.from_facets(facets))
    assert v.answer in (Answer.YES, Answer.NO)
    assert (v.answer is Answer.YES) == is_sphere_small_dim_naive(facets)


@given(small_dim_facet_lists())
@settings(max_examples=60, deadline=None)
def test_suspension_recognition_matches_oracle(facets):
    # the links of a suspension are judged given their own links
    v = recognize(generators.suspension(SimplicialComplex.from_facets(facets)))
    assert v.answer in (Answer.YES, Answer.NO)
    assert (v.answer is Answer.YES) == is_sphere_small_dim_naive(facets)


def test_small_dim_rejects_high_dimension():
    with pytest.raises(PrereqFailed):
        recognize_small_dim(generators.boundary_of_simplex(4))
    v = recognize_sphere(generators.boundary_of_simplex(3))
    assert v.answer is Answer.YES
    assert v.certificate == Certificate("euler_characteristic", 2)


def test_link_failure_at_the_face_whose_link_fails_the_precheck():
    # two octahedra glued at two antipodal vertex pairs: chi = 2, but the
    # links of 0 and 1 are two disjoint cycles each
    octa = [list(f) for f in SURFACES[1]]
    glue = {10: 0, 11: 1}
    P = SimplicialComplex.from_facets(octa + [[glue.get(v + 10, v + 10) for v in f] for f in octa])
    assert P.euler_characteristic() == 2
    S = generators.suspension(P)
    v = recognize(S)
    assert v.answer is Answer.NO
    assert v.certificate.kind == "link_failure"
    face, link_verdict = v.certificate.payload
    # the link of the vertex 0 has chi = 2; the link of the edge (0, 16),
    # 16 an apex, is the link of 0 in P
    assert face == (0, 16)
    assert precheck(S.link(face)) == link_verdict


def test_link_failure_names_the_no_after_undecided_links(monkeypatch):
    judge = recognizer.recognize_sphere

    def undecided_on_two_spheres(L, cfg=None):
        if L.dim == 2 and L.euler_characteristic() == 2:
            return Verdict(Answer.UNDECIDED, None, [])
        return judge(L, cfg)

    monkeypatch.setattr(recognizer, "recognize_sphere", undecided_on_two_spheres)
    # vertices 0..5 have 2-sphere links, the apex 6 has the link rp2_6
    v = recognize(generators.suspension(generators.rp2_6()))
    assert v.answer is Answer.NO
    face, link_verdict = v.certificate.payload
    assert face == (6,)
    assert link_verdict.certificate.kind == "euler_characteristic"


def test_recognize_boundary_of_simplex_4_via_morse():
    v = recognize(generators.boundary_of_simplex(4))
    assert v.answer is Answer.YES
    assert v.certificate.kind == "spherical_morse"
    res = v.certificate.payload
    assert res.vector == (1, 0, 0, 1)


def test_recognize_subdivided_sphere():
    K = generators.boundary_of_simplex(4).barycentric_subdivision()
    v = recognize(K)
    assert v.answer is Answer.YES


def test_recognize_suspension_of_rp2():
    v = recognize(generators.suspension(generators.rp2_6()))
    assert v.answer is Answer.NO
    assert v.certificate.kind == "link_failure"


@pytest.fixture
def prechecked(monkeypatch):
    """The complexes passed to ``precheck``, in call order."""
    seen = []

    def counting_precheck(K):
        seen.append(K)
        return precheck(K)

    monkeypatch.setattr(recognizer, "precheck", counting_precheck)
    return seen


@pytest.mark.parametrize(
    "facets, witness",
    [
        ([(0, 1, 2, 3), (3, 4)], "pseudomanifold check needs a pure complex"),
        # the triangle (0, 1, 2) lies in three tetrahedra
        ([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)], ((0, 1, 2), 3)),
    ],
)
def test_precheck_failure_in_dimension_3_is_returned_as_is(facets, witness, prechecked):
    K = SimplicialComplex.from_facets(facets)
    v = recognize(K)
    assert prechecked == [K]
    assert v == precheck(K)
    assert v.answer is Answer.NO
    assert v.certificate == Certificate("pseudomanifold_failure", witness)


def test_recognize_prechecks_the_input_once(prechecked):
    K = generators.boundary_of_simplex(4)
    assert recognize(K).answer is Answer.YES
    assert sum(L is K for L in prechecked) == 1


def test_pi1_path_and_dimension_4_guard():
    cfg = RecognitionConfig(morse_rounds=0, flip_rounds=0)
    v3 = recognize_sphere(generators.boundary_of_simplex(4), cfg)
    assert v3.answer is Answer.YES and v3.certificate.kind == "trivial_pi1"
    v4 = recognize_sphere(generators.boundary_of_simplex(5), cfg)
    assert v4.answer is Answer.TOPOLOGICAL_SPHERE_ONLY
    assert v4.certificate.kind == "trivial_pi1"


def test_dimension_4_runs_the_flips_after_a_trivial_pi1():
    # a trivial pi1 pins only the topological type in dimension 4, so the
    # flips still get their turn at a PL certificate
    cfg = RecognitionConfig(morse_rounds=0, flip_rounds=10**4)
    v = recognize_sphere(generators.boundary_of_simplex(5), cfg)
    assert v.answer is Answer.YES
    assert v.certificate.kind == "flip_path"
    assert v.log[:2] == ["homology: spherical", "pi1: presentation simplified to trivial"]


@pytest.mark.parametrize(
    "K, cfg, want, trace",
    [
        (
            generators.boundary_of_simplex(4),
            RecognitionConfig(morse_rounds=0, flip_rounds=0),
            ("YES", ["homology: spherical", "pi1: presentation simplified to trivial"]),
            {
                "free_reductions": 0,
                "empty_deletions": 4,
                "generators_eliminated": 6,
                "subword_replacements": 0,
                "operations": 18,
                "budget_exhausted": False,
            },
        ),
        (
            generators.boundary_of_simplex(4).barycentric_subdivision(),
            RecognitionConfig(morse_rounds=0, pi1_budget=50, flip_rounds=0),
            ("UNDECIDED", ["homology: spherical", "pi1: inconclusive at budget"]),
            None,
        ),
    ],
    ids=["bd_simplex_4", "sd1_bd_simplex_4"],
)
def test_pi1_stage_needs_no_abelianization(monkeypatch, K, cfg, want, trace):
    # homology has shown H_1 = 0, so the pi1 stage only tries to empty the
    # presentation
    def refuse(P):
        raise AssertionError("the abelianization is not needed here")

    monkeypatch.setattr(GroupPresentation, "abelianization", refuse)
    v = recognize_sphere(K, cfg)
    assert (v.answer.value, v.log) == want
    if trace is None:
        assert v.certificate is None
    else:
        assert v.certificate.kind == "trivial_pi1"
        assert v.certificate.payload.as_dict() == {"verdict": "trivial", "trace": trace}


def test_homology_no_path():
    # a 3-pseudomanifold with non-spherical homology: S^2 x S^1-like via
    # suspension of rp2 has wrong links, so instead test the pipeline off
    # manifold checks with torsion homology
    K = generators.suspension(generators.rp2_6())
    cfg = RecognitionConfig(morse_rounds=2)
    v = recognize_sphere(K, cfg)
    assert v.answer is Answer.NO
    assert v.certificate.kind == "non_spherical_homology"


def test_flip_path_yes():
    # a pi1 budget of 1 leaves the pi1 stage inconclusive
    cfg = RecognitionConfig(morse_rounds=0, pi1_budget=1, flip_rounds=10**4)
    K = generators.perturbed_sphere(3, 6, 20, 0, seed=12)
    v = recognize_sphere(K, cfg)
    assert v.answer is Answer.YES
    assert v.certificate.kind == "flip_path"
    assert v.certificate.payload.reached_simplex_boundary
    assert "pi1: inconclusive at budget" in v.log
    assert v.certificate.payload.replayable


def test_no_flip_path_yes_without_a_replayable_trajectory(monkeypatch):
    # a buffer of 3 moves keeps only the start of the path to the simplex boundary
    monkeypatch.setattr(flips, "TRAJECTORY_BUFFER", 3)
    cfg = RecognitionConfig(morse_rounds=0, pi1_budget=1, flip_rounds=10**4)
    K = generators.perturbed_sphere(3, 6, 20, 0, seed=12)
    v = recognize_sphere(K, cfg)
    assert v.answer is Answer.UNDECIDED
    assert v.certificate is None
    assert v.log[-1].startswith("flips: reached the simplex boundary after ")
    assert v.log[-1].endswith(" rounds, but the trajectory is not replayable")


def test_undecided_when_all_tests_disabled():
    cfg = RecognitionConfig(morse_rounds=0, pi1_budget=1, flip_rounds=0)
    v = recognize_sphere(generators.boundary_of_simplex(4), cfg)
    assert v.answer is Answer.UNDECIDED
    assert v.certificate is None
    assert v.log == ["homology: spherical", "pi1: inconclusive at budget"]


def test_manifold_verifier_yes():
    r = is_combinatorial_manifold(generators.boundary_of_simplex(5))
    assert r.summary is Answer.YES
    assert not r.failures
    # links repeat heavily in subdivisions: the cache must kick in there
    sd = generators.boundary_of_simplex(4).barycentric_subdivision()
    r = is_combinatorial_manifold(sd)
    assert r.summary is Answer.YES
    assert r.cache_hits > 0


def test_manifold_verifier_no_with_witness():
    S = generators.suspension(generators.rp2_6())
    r = is_combinatorial_manifold(S)
    assert r.summary is Answer.NO
    face, verdict = r.failures[0]
    assert S.link(face) == generators.rp2_6()


#: (Morse rounds per link, config) pairs: the defaults; a lex strategy, which
#: needs three Morse rounds on ``perturbed_3``; UNDECIDED links (no Morse, a
#: pi1 budget of 1, no flips); the same with the flip path; and the pi1 path
#: at its default budget
LINK_CONFIGS = [
    (recognizer.LINK_MORSE_ROUNDS, RecognitionConfig()),
    (recognizer.LINK_MORSE_ROUNDS, RecognitionConfig(strategy=Strategy.RANDOM_LEX_FIRST)),
    (0, RecognitionConfig(pi1_budget=1, flip_rounds=0)),
    (0, RecognitionConfig(pi1_budget=1, flip_rounds=200)),
    (0, RecognitionConfig(flip_rounds=0)),
]


def _manifold_inputs(corpus):
    yield from corpus.items()
    yield "susp_rp2_6", generators.suspension(generators.rp2_6())
    yield "sd1_bd_simplex_5", generators.boundary_of_simplex(5).barycentric_subdivision()
    yield "perturbed_3", generators.perturbed_sphere(3, 20, 200, 0, seed=7)
    yield "perturbed_4", generators.perturbed_sphere(4, 10, 60, 40, 0)


def _report(r):
    return r.summary, r.log, [(F, v.as_dict()) for F, v in r.failures]


@pytest.mark.parametrize("link_rounds, cfg", LINK_CONFIGS)
def test_manifold_check_matches_per_face_oracle(corpus, monkeypatch, link_rounds, cfg):
    monkeypatch.setattr(recognizer, "LINK_MORSE_ROUNDS", link_rounds)
    for name, K in _manifold_inputs(corpus):
        got = is_combinatorial_manifold(K, cfg)
        want = is_combinatorial_manifold_per_face(K, cfg)
        assert _report(got) == _report(want), name
        assert got.links_checked + got.cache_hits == want.links_checked + want.cache_hits


def _canonical(K):
    rank = {v: n for n, v in enumerate(K.vertices)}
    return SimplicialComplex([tuple(rank[v] for v in f) for f in K.facets])


@pytest.mark.parametrize("link_rounds, cfg", LINK_CONFIGS)
def test_link_verdicts_survive_order_preserving_relabelling(corpus, link_rounds, cfg):
    # the manifold check judges each link on its canonical labels 0..n-1 and
    # hands that verdict to every link of the same order type
    cfg = replace(cfg, morse_rounds=link_rounds)
    seen = set()
    for name, K in _manifold_inputs(corpus):
        if precheck(K) is not None:
            continue
        links = [K] + [K.link(F) for i in (0, 1) if i < K.dim for F in K.faces(i)]
        for L in links:
            if L.facets in seen or precheck(L) is not None:
                continue
            seen.add(L.facets)
            want = recognize_sphere(L, cfg).as_dict()
            assert recognize_sphere(_canonical(L), cfg).as_dict() == want, (name, L)


@pytest.mark.parametrize(
    "K",
    [
        generators.boundary_of_simplex(5).barycentric_subdivision(),
        generators.perturbed_sphere(3, 20, 200, 0, seed=7),
    ],
    ids=["sd1_bd_simplex_5", "perturbed_3"],
)
def test_manifold_check_judges_links_on_canonical_labels(monkeypatch, K):
    judged = []

    def recording(judge):
        def wrapper(L, *args):
            judged.append(L)
            return judge(L, *args)

        return wrapper

    monkeypatch.setattr(recognizer, "precheck", recording(precheck))
    monkeypatch.setattr(recognizer, "recognize_sphere", recording(recognize_sphere))
    assert is_combinatorial_manifold(K).summary is Answer.YES
    links = [L for L in judged if L is not K]
    assert links
    for L in links:
        assert L.vertices == tuple(range(len(L.vertices))), L.facets


def test_manifold_check_judges_each_link_shape_once():
    # 1542 labelled links of 10 order types, 2162 faces of dimension <= 2
    r = is_combinatorial_manifold(generators.boundary_of_simplex(5).barycentric_subdivision())
    assert r.summary is Answer.YES
    assert (r.links_checked, r.cache_hits) == (10, 2152)


def test_config_validation():
    with pytest.raises(PrereqFailed):
        RecognitionConfig(morse_rounds=-1)
    with pytest.raises(PrereqFailed):
        RecognitionConfig(pi1_budget=0)


def test_recognize_deterministic():
    K = generators.boundary_of_simplex(4).barycentric_subdivision()
    cfg = RecognitionConfig(seed=5)
    a = recognize(K, cfg)
    b = recognize(K, cfg)
    assert a.answer == b.answer
    assert a.log == b.log
    assert a.certificate.kind == b.certificate.kind
