import gc
import tracemalloc
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    all_faces,
    barycentric_subdivision_permutations,
    chain_count,
    euler_naive,
    f_vector_naive,
    hasse_reference,
    link_naive,
    maximal_faces_by_star,
)
from plsphere import complex_core, generators
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
        assert sum(K.f_vector()) == len(all_faces(K.facets)), name


def test_faces_sorted_and_closed(small_corpus):
    for K in small_corpus.values():
        for k in range(K.dim + 1):
            faces = K.faces(k)
            assert faces == sorted(faces)
        assert set(K.faces(K.dim)) <= set(K.facets) or K.is_pure()


def test_has_face():
    K = generators.boundary_of_simplex(3)
    assert K.star((0, 1))
    assert K.star((2,))
    assert not K.star((0, 1, 2, 3))
    assert not K.star((0, 9))


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


#: facets of different sizes: every chain must run down to a vertex
NON_PURE = {
    "triangle_and_edge": [[0, 1, 2], [2, 3]],
    "triangle_and_vertex": [[0, 1, 2], [3]],
    "tetrahedron_edge_triangle": [[0, 1, 2, 3], [3, 4], [4, 5, 6]],
}


def test_barycentric_subdivision_matches_permutation_oracle(small_corpus):
    non_pure = {name: SimplicialComplex.from_facets(f) for name, f in NON_PURE.items()}
    for name, K in {**small_corpus, **non_pure}.items():
        expected = barycentric_subdivision_permutations(K).facets
        assert K.barycentric_subdivision().facets == expected, name


def test_barycentric_capacity(monkeypatch):
    # 2047 faces fit, but the 11! maximal chains of the 10-simplex do not
    with pytest.raises(CapacityExceeded) as exc:
        generators.simplex(10).barycentric_subdivision()
    assert exc.value.needed == 39916800
    K = generators.boundary_of_simplex(4)
    monkeypatch.setattr(complex_core, "DEFAULT_CAPACITY", 10)
    with pytest.raises(CapacityExceeded) as exc:
        K.barycentric_subdivision()
    assert exc.value.needed == 120  # 5 facets, 4! chains each


def test_hasse_levels_and_degrees(small_corpus):
    for name, K in small_corpus.items():
        H = build_hasse(K)
        assert H.n_nodes() == sum(K.f_vector()), name
        fv = K.f_vector()
        for k in range(K.dim + 1):
            assert len(H.level_range(k)) == fv[k], name
        # each k-face has exactly k+1 down-neighbors
        for k in range(1, K.dim + 1):
            for node in H.level_range(k):
                downs = H.down[node]
                assert len(downs) == k + 1
                face = H.faces[node]
                for dn in downs:
                    assert set(H.faces[dn]) < set(face)


def test_hasse_up_down_consistency():
    K = generators.rp2_6()
    H = build_hasse(K)
    for node in range(H.n_nodes()):
        for up in H.up[node]:
            assert node in H.down[up]


def test_hasse_matches_the_dict_built_reference(corpus):
    """Per-level numbering builds the diagram the one-dict build built."""
    others = {
        "triangle_and_edge": SimplicialComplex.from_facets(NON_PURE["triangle_and_edge"]),
        "empty": SimplicialComplex([]),
    }
    for name, K in {**corpus, **others}.items():
        H = build_hasse(K)
        assert (H.faces, H.level_start, H.down, H.up) == hasse_reference(K), name
    assert not hasattr(H, "index")


def test_hasse_node_is_the_dimension_lex_rank(corpus):
    for name, K in corpus.items():
        H = K.hasse()
        faces = [f for level in K.faces_by_dim() for f in level]
        assert [H.node(f) for f in faces] == list(range(len(faces))), name
        assert all(H.faces[H.node(f)] == f for f in faces), name
        known = set(faces)
        top = max(K.vertices)
        for k in range(K.dim + 1):
            # below, above and (where there are any) between the k-faces
            misses = [(-1,) + tuple(range(k)), tuple(range(k)) + (top + 1,)]
            misses += islice((c for c in combinations(K.vertices, k + 1) if c not in known), 20)
            for f in misses:
                assert H.node(f) is None, (name, f)
        assert H.node(()) is None, name
        assert H.node(tuple(range(K.dim + 2))) is None, name


def _traced(fn):
    """(bytes still allocated when ``fn`` returns, peak bytes during it)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_face_enumeration_drops_each_level_set_once_sorted():
    """The peak of ``faces_by_dim`` stays near its sorted result: 1.08 times
    it, where it read 1.76 when every level's set lived until all were
    sorted."""
    K = generators.simplex(12)
    held = []
    size, peak = _traced(lambda: held.append(K.faces_by_dim()))
    assert sum(map(len, held[0])) == 2**13 - 1
    assert peak <= 1.4 * size, peak / size


def test_hasse_capacity(monkeypatch):
    K = generators.boundary_of_simplex(4)
    with monkeypatch.context() as m:
        m.setattr(complex_core, "DEFAULT_CAPACITY", 5)
        with pytest.raises(CapacityExceeded) as exc:
            build_hasse(K)
    assert exc.value.needed == 75  # 5 facets, 2^4 - 1 faces each
    # one 40-simplex has 2^41 - 1 faces: refused before any is enumerated
    K = generators.simplex(40)
    with pytest.raises(CapacityExceeded) as exc:
        build_hasse(K)
    assert exc.value.needed == 2**41 - 1
    assert K._faces_by_dim is None


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
    given_faces = {tuple(sorted(f)) for f in facets}
    maximal = {f for f in given_faces if not any(set(f) < set(g) for g in given_faces)}
    assert set(K.facets) == maximal
    assert K.f_vector() == f_vector_naive(facets)
    assert K.euler_characteristic() == euler_naive(facets)
    faces = all_faces(facets)
    assert K.link(()).facets == K.facets
    # closure under subsets; stars and links against their definitions
    for f in faces:
        assert K.star(f)
        assert K.star(f) == [g for g in K.facets if set(f) <= set(g)]
        expected = link_naive(facets, f)
        if expected:
            assert set(K.link(f).facets) == expected
        else:
            with pytest.raises(NotAFace):
                K.link(f)


@st.composite
def nested_facet_lists(draw):
    """Faces of mixed sizes where some lie in others and some repeat,
    with their vertices in any order."""
    tops = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=4))
    facets = [sorted(f) for f in tops]
    for _ in range(draw(st.integers(0, 6))):
        g = sorted(draw(st.sampled_from(facets)))
        sub = draw(st.lists(st.sampled_from(g), min_size=1, max_size=len(g), unique=True))
        facets.append(sub)
    return draw(st.permutations(facets))


@given(nested_facet_lists())
@example([[0, 1, 2], [1, 2], [2, 1, 0], [3], [3, 4], [4, 3]])
@example([[5], [5], [0, 5], [1, 2, 3], [3, 2], [0, 1]])
@example([[3, 1], [1, 3], [2, 4], [0]])
@settings(max_examples=200, deadline=None)
def test_from_facets_keeps_the_faces_the_star_rule_keeps(facets):
    K = SimplicialComplex.from_facets(facets)
    expected = maximal_faces_by_star(facets)
    assert K.facets == expected.facets
    assert K.dim == expected.dim
