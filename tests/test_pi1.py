import gc
import tracemalloc

import pytest

from _oracles import tietze_simplify_list, triviality_verdict_renumbered
from plsphere import cli, generators, homology
from plsphere.complex_core import SimplicialComplex
from plsphere.errors import DimensionOutOfRange, NotConnected
from plsphere.homology import smith_normal_form
from plsphere.pi1 import (
    GroupPresentation,
    Verdict,
    free_reduce,
    pi1_presentation,
    tietze_simplify,
    triviality_verdict,
)
from plsphere.rng import Rng

G3 = GroupPresentation(2, ((1, 2, 1, -2, -1, -2), (1, 1, 1, -2, -2)))

#: no generator occurs once in a relator, so simplification starts with
#: subword moves; they expose three eliminations, which rewrite several
#: relators and empty one.  Unbounded it costs 547 operations.
SUBWORD_FIRST = GroupPresentation(
    3,
    (
        (1, 1, 3, 2, -1, 2, 1, 2, -3),
        (3, 1, 3, 2, -1, 2, 1),
        (2, 1, -3, 1, -3, 2, -1, -1, -3),
        (-2, 1, 1, -2, -3, -2, 3),
    ),
)


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(1, ((2,),))
    with pytest.raises(ValueError):
        GroupPresentation(1, ((1, -1),))


def test_presentation_counts_boundary_of_simplex_3():
    P = pi1_presentation(generators.boundary_of_simplex(3), base_tree_seed=0)
    assert P.generators == 6 - 3  # edges minus spanning-tree edges
    assert len(P.relators) <= 4


def test_presentation_counts_rp2():
    P = pi1_presentation(generators.rp2_6(), base_tree_seed=0)
    assert P.generators == 15 - 5
    assert len(P.relators) <= 10


def test_preconditions():
    with pytest.raises(DimensionOutOfRange):
        pi1_presentation(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(NotConnected):
        pi1_presentation(SimplicialComplex([(0, 1, 2), (3, 4, 5)]))


def test_single_generator_trivial():
    P = GroupPresentation(1, ((1,),))
    simplified, trace = tietze_simplify(P)
    assert simplified.is_empty()
    assert trace.generators_eliminated == 1


def test_trace_counts_free_reductions():
    # eliminating a = b^-1 turns a b b into b^-1 b b, which reduces to b
    simplified, trace = tietze_simplify(GroupPresentation(2, ((1, 2), (1, 2, 2))))
    assert simplified.is_empty()
    assert (trace.generators_eliminated, trace.free_reductions) == (2, 1)
    # b a^-1 b^-1 = 1 shortens b a^-1 b^-1 a^-1 a^-1 a^-1 to a a^-1 a^-1 a^-1 = a^-2
    simplified, trace = tietze_simplify(GroupPresentation(2, ((1, 2, 1, -2), (2, -1, -2, -1, -1, -1))))
    assert simplified.relators == ((1, 2, 1, -2), (-1, -1))
    assert (trace.subword_replacements, trace.free_reductions) == (1, 1)


def test_empty_presentation_is_trivial():
    assert triviality_verdict(GroupPresentation(0, ())).verdict is Verdict.TRIVIAL


def test_spheres_simplify_to_trivial():
    for K in (
        generators.boundary_of_simplex(3),
        generators.boundary_of_simplex(4),
        generators.boundary_of_simplex(3).barycentric_subdivision(),
    ):
        P = pi1_presentation(K, base_tree_seed=1)
        v = triviality_verdict(P)
        assert v.verdict is Verdict.TRIVIAL, K.f_vector()


def test_rp2_non_trivial_with_z2_witness():
    P = pi1_presentation(generators.rp2_6(), base_tree_seed=0)
    v = triviality_verdict(P)
    assert v.verdict is Verdict.NON_TRIVIAL
    assert v.abelianization == (0, (2,))


def test_g3_presentation_returns_unknown():
    # perfect-group shape: trivial abelianization, resists simplification
    v = triviality_verdict(G3)
    assert v.verdict is Verdict.UNKNOWN
    rank, torsion = G3.abelianization()
    assert rank == 0 and not torsion


def test_simplification_preserves_abelianization():
    for P in (
        G3,
        pi1_presentation(generators.rp2_6(), base_tree_seed=3),
        GroupPresentation(2, ((1, 1), (2, 2, 2), (1, 2, -1, -2))),
    ):
        before = P.abelianization()
        simplified, _ = tietze_simplify(P)
        assert simplified.abelianization() == before


def test_abelianization_matches_h1(small_corpus):
    for name, K in small_corpus.items():
        if K.dim < 2:
            continue
        P = pi1_presentation(K, base_tree_seed=0)
        rank, torsion = P.abelianization()
        hg = homology(K)
        assert rank == hg.betti[1], name
        assert tuple(sorted(torsion)) == _as_cyclic(hg.torsion[1]), name


def _random_presentation(rng):
    n = 1 + rng.randbelow(5)
    relators = []
    for _ in range(rng.randbelow(7)):
        word = [(1 + rng.randbelow(n)) * (1 if rng.randbelow(2) else -1) for _ in range(rng.randbelow(9))]
        relators.append(free_reduce(word))
    return GroupPresentation(n, tuple(relators))


def test_abelianization_is_the_snf_of_the_exponent_matrix():
    """The in-place reduction agrees with the public copying path."""
    rp2 = generators.rp2_6()
    presentations = [
        pi1_presentation(K, base_tree_seed=seed)
        for K in (rp2, generators.suspension(rp2), generators.dunce_hat(), generators.saw_blade(2))
        for seed in range(3)
    ]
    rng = Rng(2014)
    presentations += [_random_presentation(rng) for _ in range(300)]
    for P in presentations:
        snf = smith_normal_form(P.exponent_matrix())
        assert P.abelianization() == (P.generators - snf.rank, snf.torsion()), P


def _as_cyclic(prime_powers):
    # recombine prime powers into the invariant-factor torsion orders
    from math import gcd

    parts = list(prime_powers)
    factors = []
    while parts:
        coprime = []
        rest = []
        for p in sorted(parts, reverse=True):
            if all(gcd(p, q) == 1 for q in coprime):
                coprime.append(p)
            else:
                rest.append(p)
        prod = 1
        for p in coprime:
            prod *= p
        factors.append(prod)
        parts = rest
    return tuple(sorted(factors))


def test_classification_stable_across_tree_seeds():
    for K, expected in (
        (generators.boundary_of_simplex(3), Verdict.TRIVIAL),
        (generators.rp2_6(), Verdict.NON_TRIVIAL),
    ):
        for seed in range(10):
            P = pi1_presentation(K, base_tree_seed=seed)
            assert triviality_verdict(P).verdict is expected, (K.f_vector(), seed)


def test_budget_exhaustion_is_honest():
    huge = GroupPresentation(2, ((1, 2, 1, -2, -1, -2) * 50, (1, 1, 1, -2, -2) * 50))
    v = triviality_verdict(huge, effort_limit=10)
    assert v.verdict in (Verdict.UNKNOWN, Verdict.NON_TRIVIAL)
    assert v.trace.budget_exhausted or v.verdict is not Verdict.TRIVIAL


def test_export_format():
    P = GroupPresentation(2, ((1, 2, -1, -2),))
    assert P.export_text() == "generators: 2\n1 2 -1 -2\n"


def test_tietze_matches_list_oracle_at_every_budget():
    _, unbounded, _ = tietze_simplify_list(SUBWORD_FIRST, 10**9)
    assert unbounded.subword_replacements and unbounded.generators_eliminated == 3
    steps = set()
    for budget in range(1, unbounded.operations + 2):
        want, want_trace, step = tietze_simplify_list(SUBWORD_FIRST, budget)
        assert tietze_simplify(SUBWORD_FIRST, budget) == (want, want_trace), budget
        steps.add(step)
    # the budget runs out in each step that charges it, and not at all
    assert steps == {"scan", "eliminate", "subword", None}


def test_tietze_matches_list_oracle_on_random_presentations():
    rng = Rng(1303)
    for _ in range(100):
        P = _random_presentation(rng)
        _, unbounded, _ = tietze_simplify_list(P, 10**9)
        for budget in range(1, unbounded.operations + 2):
            want, want_trace, _ = tietze_simplify_list(P, budget)
            assert tietze_simplify(P, budget) == (want, want_trace), (P, budget)


@pytest.mark.parametrize("budget", [10**2, 10**3, 10**4])
def test_tietze_matches_list_oracle_on_sd1_bd5(budget):
    # unbounded the simplification costs 4197 operations
    P = pi1_presentation(generators.boundary_of_simplex(5).barycentric_subdivision(), base_tree_seed=0)
    want, want_trace, _ = tietze_simplify_list(P, budget)
    assert tietze_simplify(P, budget) == (want, want_trace)


#: one generator is eliminated, and the survivors present Z + Z/6
FREE_AND_TORSION = GroupPresentation(4, ((1, 1), (2, 2, 2), (3, 1, 2)))


def _verdict_inputs():
    rp2 = generators.rp2_6()
    for K in (
        rp2,
        generators.suspension(rp2),
        cli.resolve_complex("sd:1:bd_simplex:4"),
        cli.resolve_complex("sd:1:bd_simplex:5"),
        generators.dunce_hat(),
    ):
        yield pi1_presentation(K, base_tree_seed=0)
    yield FREE_AND_TORSION


@pytest.mark.parametrize("budget", [10**2, 10**3, 10**6])
def test_verdict_matches_the_renumbered_presentation_path(budget):
    spent = 0
    for P in _verdict_inputs():
        got = triviality_verdict(P, budget)
        assert got == triviality_verdict_renumbered(P, budget), P.generators
        spent += got.trace.budget_exhausted
    assert spent or budget == 10**6
    assert triviality_verdict(FREE_AND_TORSION, budget).abelianization == (1, (6,))


def _peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verdict_peak_below_the_renumbered_presentation_path():
    """No renumbered copy, and exponent rows alive only from first touch to
    retirement: 0.54 of the peak of the path through ``tietze_simplify``
    and a matrix built up front, which itself read 1.0 when the verdict
    took that path.  A budget of 10^3 runs out after 145 of the 2881
    eliminations, so most of the presentation is abelianized."""
    P = pi1_presentation(cli.resolve_complex("sd:2:bd_simplex:4"), base_tree_seed=0)
    oracle = _peak(lambda: triviality_verdict_renumbered(P, 10**3))
    verdict = _peak(lambda: triviality_verdict(P, 10**3))
    assert verdict <= 0.8 * oracle, verdict / oracle
