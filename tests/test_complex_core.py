import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import all_faces, chain_count, euler_naive, f_vector_naive, link_naive
from plsphere import generators
from plsphere.complex_core import SimplicialComplex, build_hasse
from plsphere.errors import (
    CapacityExceeded,
    DuplicateVertexInFacet,
    EmptyInput,
    NotAFace,
    NotPure,
)


def test_from_facets_normalizes_and_deduplicates():
    K = SimplicialComplex.from_facets([[2, 0, 1], [0, 1, 2], [0, 1]])
    assert K.facets == ((0, 1, 2),)
    assert K.dim == 2


def test_from_facets_errors():
    with pytest.raises(EmptyInput):
        SimplicialComplex.from_facets([])
    with pytest.raises(DuplicateVertexInFacet):
        SimplicialComplex.from_facets([[0, 1, 1]])


def test_f_vector_against_oracle(small_corpus):
    for name, K in small_corpus.items():
        assert K.f_vector() == f_vector_naive(K.facets), name
        assert K.euler_characteristic() == euler_naive(K.facets), name
        assert K.num_faces() == len(all_faces(K.facets)), name


def test_faces_sorted_and_closed(small_corpus):
    for K in small_corpus.values():
        for k in range(K.dim + 1):
            faces = K.faces(k)
            assert faces == sorted(faces)
        assert set(K.faces(K.dim)) <= set(K.facets) or K.is_pure()


def test_has_face():
    K = generators.boundary_of_simplex(3)
    assert K.has_face((0, 1))
    assert K.has_face((2,))
    assert not K.has_face((0, 1, 2, 3))
    assert not K.has_face((0, 9))


def test_purity_and_pseudomanifold():
    K = generators.boundary_of_simplex(4)
    assert K.is_pure()
    ok, witness = K.is_closed_pseudomanifold()
    assert ok and witness is None

    # a triangle with a dangling edge is not pure
    L = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert not L.is_pure()
    with pytest.raises(NotPure):
        L.is_closed_pseudomanifold()

    # three triangles around one edge: witness names the bad ridge
    M = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    ok, witness = M.is_closed_pseudomanifold()
    assert not ok and witness == ((0, 1), 3)


def test_connectivity():
    assert generators.rp2_6().is_connected()
    two = SimplicialComplex([(0, 1, 2), (3, 4, 5)])
    assert not two.is_connected()
    # S^0: two isolated vertices, 0-dimensional, counts as disconnected graph
    assert not SimplicialComplex([(0,), (1,)]).is_connected()


def test_link():
    K = generators.boundary_of_simplex(3)
    L = K.link((0,))
    assert L.facets == ((1, 2), (1, 3), (2, 3))  # a triangle: S^1
    assert K.link((0, 1)).facets == ((2,), (3,))  # S^0
    with pytest.raises(NotAFace):
        K.link((0, 9))


def test_link_of_suspension_apex_is_base():
    K = generators.rp2_6()
    S = generators.suspension(K)
    apex = max(S.vertices)
    assert S.link((apex,)) == K


def test_barycentric_subdivision_triangle():
    # sd of a triangle boundary is the hexagon
    K = generators.boundary_of_simplex(2).barycentric_subdivision()
    assert K.f_vector() == (6, 6)
    assert K.euler_characteristic() == 0


def test_barycentric_subdivision_counts_match_chain_oracle(small_corpus):
    for name in ("simplex_3", "bd_simplex_4", "rp2_6"):
        K = small_corpus[name]
        sd = K.barycentric_subdivision()
        expected = tuple(chain_count(K.facets, t + 1) for t in range(K.dim + 1))
        assert sd.f_vector() == expected, name
        assert sd.euler_characteristic() == K.euler_characteristic(), name


def test_barycentric_capacity():
    K = generators.boundary_of_simplex(4)
    with pytest.raises(CapacityExceeded):
        K.barycentric_subdivision(capacity=10)


def test_hasse_levels_and_degrees(small_corpus):
    for name, K in small_corpus.items():
        H = build_hasse(K)
        assert H.n_nodes() == K.num_faces(), name
        fv = K.f_vector()
        for k in range(K.dim + 1):
            assert len(H.level_range(k)) == fv[k], name
        # each k-face has exactly k+1 down-neighbors
        for k in range(1, K.dim + 1):
            for node in H.level_range(k):
                downs = H.down_neighbors(node)
                assert len(downs) == k + 1
                face = H.faces[node]
                for dn in downs:
                    assert set(H.faces[dn]) < set(face)


def test_hasse_up_down_consistency():
    K = generators.rp2_6()
    H = build_hasse(K)
    for node in range(H.n_nodes()):
        for up in H.up_neighbors(node):
            assert node in H.down_neighbors(up)


def test_hasse_capacity():
    with pytest.raises(CapacityExceeded):
        build_hasse(generators.boundary_of_simplex(4), capacity=5)


@st.composite
def facet_lists(draw):
    n = draw(st.integers(1, 5))
    facets = []
    for _ in range(n):
        size = draw(st.integers(1, 4))
        fac = draw(st.sets(st.integers(0, 7), min_size=size, max_size=size))
        facets.append(sorted(fac))
    return facets


@given(facet_lists())
@settings(max_examples=100, deadline=None)
def test_complex_matches_oracles_on_random_inputs(facets):
    K = SimplicialComplex.from_facets(facets)
    assert K.f_vector() == f_vector_naive(facets)
    assert K.euler_characteristic() == euler_naive(facets)
    faces = all_faces(facets)
    assert K.link(()).facets == K.facets
    # closure under subsets; stars and links against their definitions
    for f in faces:
        assert K.has_face(f)
        assert K.star(f) == [g for g in K.facets if set(f) <= set(g)]
        expected = link_naive(facets, f)
        if expected:
            assert set(K.link(f).facets) == expected
        else:
            with pytest.raises(NotAFace):
                K.link(f)
