import gc
import importlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    betti_over_q,
    dense_boundary,
    homology_full,
    minors_gcd_divisors,
    rank_mod_p_naive,
    rank_over_q,
    sparse_product,
)
from plsphere import cli, generators
from plsphere.errors import DimensionOutOfRange, InvalidSpec
from plsphere.homology import (
    _RETIRED,
    SparseIntMatrix,
    _eliminate,
    _residual,
    boundary_matrix,
    homology,
    rank_mod_p,
    smith_normal_form,
)
from plsphere.pi1 import GroupPresentation, free_reduce, pi1_presentation
from plsphere.rng import Rng

# ``plsphere.homology`` as an attribute of the package is the function
homology_module = importlib.import_module("plsphere.homology")


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
            prod = sparse_product(boundary_matrix(K, k), boundary_matrix(K, k - 1))
            assert not prod, (name, k)


def test_boundary_matrix_matches_oracle(small_corpus):
    for name, K in small_corpus.items():
        for k in range(1, K.dim + 1):
            assert _to_dense(boundary_matrix(K, k)) == dense_boundary(K.facets, k), (name, k)


def _column_index_holds(M):
    """``col_rows[c]`` lists, in increasing order and once each, exactly
    the rows whose dict holds c."""
    for c, listed in enumerate(M.col_rows):
        assert listed == [r for r, row in enumerate(M.rows) if c in row], c


@pytest.mark.parametrize("p", [0, 2, 3])
def test_column_index_follows_set_and_eliminate(p):
    rng = Rng(77 + p)
    for _ in range(60):
        m, n = 1 + rng.randbelow(7), 1 + rng.randbelow(7)
        M = SparseIntMatrix(m, n)
        for _ in range(rng.randbelow(3 * m * n)):
            # zeros (and, over GF(p), multiples of p) delete an entry
            v = rng.randbelow(7) - 3
            M.set(rng.randbelow(m), rng.randbelow(n), v % p if p else v)
            _column_index_holds(M)
        _eliminate(M, p)
        _column_index_holds(M)


def _mod(M, p):
    """M over GF(p) as ``rank_mod_p`` reduces it: entries mod p, zeros dropped."""
    if not p:
        return M.copy()
    W = SparseIntMatrix(M.nrows, M.ncols)
    for r, row in enumerate(M.rows):
        for c, v in row.items():
            W.set(r, c, v % p)
    return W


def _unbuilt(M):
    """M's column lists with no row built, and the function that builds
    row r as M holds it."""
    L = SparseIntMatrix(0, M.ncols)
    L.nrows, L.rows = M.nrows, [None] * M.nrows
    L.col_rows = [rs[:] for rs in M.col_rows]
    return L, lambda r: dict(M.rows[r])


def _elimination_inputs(corpus):
    for name in ("rp2_6", "saw_blade_3", "bd_simplex_5", "sd1_bd_simplex_4"):
        K = corpus[name]
        for k in range(1, K.dim + 1):
            yield f"{name} d{k}", boundary_matrix(K, k)
    rp2 = corpus["rp2_6"]
    for K in (rp2, generators.suspension(rp2), generators.dunce_hat(), corpus["saw_blade_2"]):
        for seed in range(3):
            yield f"pi1 {K.f_vector()} {seed}", pi1_presentation(K, base_tree_seed=seed).exponent_matrix()
    rng = Rng(23)
    for i in range(100):
        n = 1 + rng.randbelow(5)
        words = [
            free_reduce([(1 + rng.randbelow(n)) * (1 - 2 * rng.randbelow(2)) for _ in range(rng.randbelow(9))])
            for _ in range(rng.randbelow(8))
        ]
        yield f"random {i}", GroupPresentation(n, tuple(words)).exponent_matrix()


@pytest.mark.parametrize("p", [0, 2])
def test_rows_built_on_first_touch_eliminate_as_rows_built_up_front(corpus, p):
    """Same pivots, rows and residual divisors; every pivot row ends as the
    one shared retired row, and no column lists it."""
    for name, M in _elimination_inputs(corpus):
        eager = _mod(M, p)
        lazy, row_of = _unbuilt(eager)
        pivots = _eliminate(lazy, p, row_of)
        assert _eliminate(eager, p) == pivots, name
        assert lazy.rows == eager.rows and lazy.col_rows == eager.col_rows, name
        if not p:
            assert _residual(lazy) == _residual(eager), name
        retired = {r for r, row in enumerate(lazy.rows) if row is _RETIRED}
        assert len(retired) == len(pivots), name
        assert all(type(row) is dict for r, row in enumerate(lazy.rows) if r not in retired), name
        assert not retired & {r for rs in lazy.col_rows for r in rs}, name


def test_smith_normal_form_leaves_its_argument():
    M = boundary_matrix(generators.rp2_6(), 2)
    rows, cols = [dict(row) for row in M.rows], [rs[:] for rs in M.col_rows]
    assert smith_normal_form(M).divisors == (1,) * 9 + (2,)
    assert (M.rows, M.col_rows) == (rows, cols)


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


def test_coefficients_name_a_prime_exactly():
    K = generators.rp2_6()
    for coefficients in (2.9, 2.0, 3.0, True, "2.0", " 3", "+3", "٣", "1_1", "3" * 5000, None):
        with pytest.raises(InvalidSpec, match="coefficients must be Z, Q or a prime"):
            homology(K, coefficients)
    for coefficients in (3, "3", "0003"):
        assert homology(K, coefficients).coefficients == "GF(3)"


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


def test_homology_matches_full_matrix_oracle(corpus):
    """Clearing leaves every invariant as reducing each whole map gives."""
    susp = generators.suspension(generators.rp2_6())
    for name, K in {**corpus, "susp_rp2_6": susp}.items():
        for coefficients in ("Z", "Q", 2, 3):
            assert homology(K, coefficients) == homology_full(K, coefficients), (name, coefficients)
    assert homology(susp, reduced=True) == homology_full(susp, reduced=True)


def test_cleared_rows_are_the_unit_pivots_of_the_map_above(corpus, monkeypatch):
    built = []
    real = homology_module.boundary_matrix

    def spy(K, k, *, _cleared=()):
        M = real(K, k, _cleared=_cleared)
        built.append((k, set(_cleared), M.copy()))
        return M

    monkeypatch.setattr(homology_module, "boundary_matrix", spy)
    dense_steps = 0
    for name in ("rp2_6", "saw_blade_3", "sd1_bd_simplex_4"):
        K = corpus[name]
        for p in (0, 2, 3):
            built.clear()
            homology(K, p or "Z")
            # the maps come top down, and the rows left out of each are the
            # columns of the unit pivots of the map built before it
            assert [k for k, _, _ in built] == list(range(K.dim, 0, -1)), name
            above = set()
            for k, cleared, M in built:
                assert cleared == above, (name, p, k)
                assert M.nrows == K.f_vector()[k] - len(cleared)
                above = set(homology_module._eliminate(M, p))
                dense_steps += any(M.rows)
    # rp2_6 over Z leaves a row without a unit, so a dense pivot was seen
    assert dense_steps


def _traced(fn):
    """(bytes still allocated when ``fn`` returns, peak bytes during it)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sd1_bd5():
    K = cli.resolve_complex("sd:1:bd_simplex:5")
    for k in range(K.dim + 1):
        K.faces(k)  # cached, so no face list counts toward a peak below
    return K


def test_abelianization_reduces_its_exponent_matrix_in_place(sd1_bd5):
    """A copy of the exponent matrix would double the peak (2.0 when the
    abelianization went through ``smith_normal_form``)."""
    P = pi1_presentation(sd1_bd5)
    held = []
    size, _ = _traced(lambda: held.append(P.exponent_matrix()))
    held.clear()
    _, peak = _traced(P.abelianization)
    assert peak <= 1.2 * size, peak / size


def test_homology_keeps_one_boundary_map_alive(sd1_bd5):
    """The peak of ``homology`` stays near that of the top map alone (2.1
    times it when each map was still bound while the next was built, and
    set column indexes dominated)."""
    d = sd1_bd5.dim

    def top_map():
        M = boundary_matrix(sd1_bd5, d)
        _eliminate(M)
        _residual(M)

    _, alone = _traced(top_map)
    _, peak = _traced(lambda: homology(sd1_bd5, "Z"))
    assert peak <= 1.5 * alone, peak / alone
