import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    betti_over_q,
    dense_boundary,
    minors_gcd_divisors,
    rank_mod_p_naive,
    rank_over_q,
)
from plsphere import generators
from plsphere.errors import DimensionOutOfRange
from plsphere.homology import (
    SparseIntMatrix,
    boundary_matrix,
    homology,
    rank_mod_p,
    smith_normal_form,
)
from plsphere.rng import Rng


def _to_sparse(dense):
    M = SparseIntMatrix(len(dense), len(dense[0]) if dense else 0)
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            M.set(r, c, v)
    return M


def _to_dense(M):
    return [[M.get(r, c) for c in range(M.ncols)] for r in range(M.nrows)]


def test_boundary_matrix_signs():
    # row for the 2-face (0,1,2): +1 on (1,2), -1 on (0,2), +1 on (0,1)
    K = generators.rp2_6()
    M = boundary_matrix(K, 2)
    faces2 = K.faces(2)
    edges = {e: i for i, e in enumerate(K.faces(1))}
    r = faces2.index((0, 1, 2))
    assert M.get(r, edges[(1, 2)]) == 1
    assert M.get(r, edges[(0, 2)]) == -1
    assert M.get(r, edges[(0, 1)]) == 1


def test_boundary_matrix_shape_and_range():
    K = generators.boundary_of_simplex(4)
    M = boundary_matrix(K, 3)
    assert (M.nrows, M.ncols) == (5, 10)
    with pytest.raises(DimensionOutOfRange):
        boundary_matrix(K, 0)
    with pytest.raises(DimensionOutOfRange):
        boundary_matrix(K, 4)


def test_boundary_of_boundary_is_zero(small_corpus):
    for name, K in small_corpus.items():
        for k in range(2, K.dim + 1):
            prod = boundary_matrix(K, k).multiply(boundary_matrix(K, k - 1))
            assert prod.nnz() == 0, (name, k)


def test_boundary_matrix_matches_oracle(small_corpus):
    for name, K in small_corpus.items():
        for k in range(1, K.dim + 1):
            assert _to_dense(boundary_matrix(K, k)) == dense_boundary(K.facets, k), (name, k)


def test_snf_simple_cases():
    assert smith_normal_form(_to_sparse([[0]])).divisors == ()
    assert smith_normal_form(_to_sparse([[5]])).divisors == (5,)
    assert smith_normal_form(_to_sparse([[2, 0], [0, 3]])).divisors == (1, 6)
    assert smith_normal_form(_to_sparse([[2, 4], [6, 8]])).divisors == (2, 4)


def test_snf_against_minors_oracle_fixed_sample():
    rng = Rng(2024)
    for _ in range(500):
        m = 1 + rng.randbelow(5)
        n = 1 + rng.randbelow(5)
        dense = [[rng.randbelow(19) - 9 for _ in range(n)] for _ in range(m)]
        got = list(smith_normal_form(_to_sparse(dense)).divisors)
        assert got == minors_gcd_divisors(dense), dense


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=200, deadline=None)
def test_snf_against_minors_oracle_hypothesis(dense):
    got = list(smith_normal_form(_to_sparse(dense)).divisors)
    assert got == minors_gcd_divisors(dense)


def test_snf_divisibility_chain():
    rng = Rng(9)
    for _ in range(100):
        dense = [[rng.randbelow(41) - 20 for _ in range(4)] for _ in range(4)]
        div = smith_normal_form(_to_sparse(dense)).divisors
        for a, b in zip(div, div[1:]):
            assert b % a == 0


def test_rank_mod_p_matches_rational_rank_when_no_torsion():
    K = generators.boundary_of_simplex(5)
    for k in range(1, 5):
        M = boundary_matrix(K, k)
        assert rank_mod_p(M, 5) == rank_over_q(_to_dense(M))


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n),
            min_size=1,
            max_size=8,
        )
    ),
    st.sampled_from((2, 3, 5, 7)),
)
@settings(max_examples=300, deadline=None)
def test_rank_mod_p_against_dense_oracle(dense, p):
    assert rank_mod_p(_to_sparse(dense), p) == rank_mod_p_naive(dense, p)


def test_sphere_homology():
    for d in (3, 4, 5):
        K = generators.boundary_of_simplex(d)
        hg = homology(K)
        expected = tuple(1 if k in (0, d - 1) else 0 for k in range(d))
        assert hg.betti == expected
        assert all(not t for t in hg.torsion)
        assert hg.is_spherical()
        assert homology(K, reduced=True).is_spherical()


def test_projective_plane_homology():
    K = generators.rp2_6()
    hg = homology(K)
    assert hg.betti == (1, 0, 0)
    assert hg.torsion == ((), (2,), ())
    assert hg.report_text() == "H_0 = Z\nH_1 = Z/2\nH_2 = 0\n"
    assert not homology(K, reduced=True).is_spherical()

    gf2 = homology(K, 2)
    assert gf2.betti == (1, 1, 1)
    assert gf2.coefficients == "GF(2)"
    q = homology(K, "Q")
    assert q.betti == (1, 0, 0)


def test_reduced_homology():
    hg = homology(generators.boundary_of_simplex(3), reduced=True)
    assert hg.betti == (0, 0, 1)


def test_betti_against_rational_oracle(small_corpus):
    for name, K in small_corpus.items():
        assert homology(K, "Q").betti == betti_over_q(K.facets), name


def test_torsion_prime_power_decomposition():
    # cokernel of diag(12) is Z/12 = Z/4 + Z/3
    class FakeK:
        pass

    M = _to_sparse([[12, 0], [0, 1]])
    snf = smith_normal_form(M)
    assert snf.divisors == (1, 12)
    # decomposition surface: via a complex with 12-torsion is overkill;
    # check the helper through a lens complex substitute below
    from plsphere.homology import _prime_powers

    assert _prime_powers(12) == [4, 3]
    assert _prime_powers(2) == [2]
    assert _prime_powers(360) == [8, 9, 5]


def test_universal_coefficients(corpus):
    """GF(p) Betti numbers are the Z Betti numbers plus the p-power torsion
    summands of H_k and H_{k-1}, so the Z and GF(p) eliminations check
    each other."""
    susp = generators.suspension(generators.rp2_6())
    complexes = {**corpus, "susp_rp2_6": susp, "susp2_rp2_6": generators.suspension(susp)}
    for name, K in complexes.items():
        z = homology(K)
        for p in (2, 3, 5):
            p_torsion = [sum(1 for t in ts if t % p == 0) for ts in z.torsion]
            expected = tuple(
                b + p_torsion[k] + (p_torsion[k - 1] if k else 0) for k, b in enumerate(z.betti)
            )
            assert homology(K, p).betti == expected, (name, p)
