import pytest

from plsphere import generators
from plsphere.complex_core import SimplicialComplex
from plsphere.errors import PrereqFailed
from plsphere.morse import Strategy
from plsphere.recognizer import (
    Answer,
    RecognitionConfig,
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


def test_small_dim_rejects_high_dimension():
    with pytest.raises(PrereqFailed):
        recognize_small_dim(generators.boundary_of_simplex(4))
    with pytest.raises(PrereqFailed):
        recognize_sphere(generators.boundary_of_simplex(3))


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


def test_pi1_path_and_dimension_4_guard():
    cfg = RecognitionConfig(morse_rounds=0, flip_rounds=0)
    v3 = recognize_sphere(generators.boundary_of_simplex(4), cfg)
    assert v3.answer is Answer.YES and v3.certificate.kind == "trivial_pi1"
    v4 = recognize_sphere(generators.boundary_of_simplex(5), cfg)
    assert v4.answer is Answer.TOPOLOGICAL_SPHERE_ONLY
    assert v4.certificate.kind == "trivial_pi1"


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
    cfg = RecognitionConfig(morse_rounds=0, use_pi1=False, flip_rounds=10**4)
    K = generators.perturbed_sphere(3, 6, 20, 0, seed=12)
    v = recognize_sphere(K, cfg)
    assert v.answer is Answer.YES
    assert v.certificate.kind == "flip_path"
    assert v.certificate.payload.reached_simplex_boundary


def test_undecided_when_all_tests_disabled():
    cfg = RecognitionConfig(morse_rounds=0, use_homology=False, use_pi1=False, flip_rounds=0)
    v = recognize_sphere(generators.boundary_of_simplex(4), cfg)
    assert v.answer is Answer.UNDECIDED
    assert v.certificate is None


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


def test_manifold_verifier_vertices_only():
    cfg = RecognitionConfig(link_check_mode="vertices_only")
    r = is_combinatorial_manifold(generators.boundary_of_simplex(4), cfg)
    assert r.summary is Answer.YES
    assert r.links_checked <= 5


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
