import pytest

from _oracles import betti_over_q
from plsphere import generators
from plsphere.complex_core import build_hasse
from plsphere.errors import InconsistentMatching
from plsphere.morse import (
    MorseResult,
    Strategy,
    is_collapsible_witness,
    is_spherical,
    morse_spectrum,
    random_discrete_morse,
    spectrum_tsv,
    verify_acyclic_matching,
)

ALL_STRATEGIES = list(Strategy)


def test_vector_predicates():
    assert is_spherical((1, 0, 0, 1))
    assert is_spherical((2,))  # S^0
    assert not is_spherical((1, 0, 1, 1))
    assert is_collapsible_witness((1, 0, 0))
    assert not is_collapsible_witness((1, 0, 1))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_simplex_always_collapses(strategy):
    K = generators.simplex(5)
    for seed in range(5):
        res = random_discrete_morse(K, strategy, seed=seed)
        assert res.vector == (1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_sphere_boundaries_spherical(strategy):
    for d in (3, 4, 5):
        K = generators.boundary_of_simplex(d)
        res = random_discrete_morse(K, strategy, seed=1)
        assert is_spherical(res.vector), (d, res.vector)


def test_morse_euler_identity_and_counts(corpus):
    for name, K in corpus.items():
        if K.num_faces() > 20000:
            continue
        chi = K.euler_characteristic()
        res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=3)
        assert sum((-1) ** k * c for k, c in enumerate(res.vector)) == chi, name
        # matched pairs + critical cells account for every face
        assert 2 * len(res.matching) + len(res.critical) == K.num_faces(), name


def test_weak_morse_inequalities(small_corpus):
    for name, K in small_corpus.items():
        betti = betti_over_q(K.facets)
        for seed in range(10):
            res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=seed)
            assert all(c >= b for c, b in zip(res.vector, betti)), (name, res.vector)


def test_matching_verifies_and_tampering_detected():
    K = generators.boundary_of_simplex(4)
    H = build_hasse(K)
    res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=2, hasse=H)
    assert verify_acyclic_matching(H, res)

    # a pair between non-incident faces must be rejected
    bogus = MorseResult(
        vector=res.vector,
        matching=res.matching[:-1] + [((0,), (1, 2, 3, 4))],
        critical=res.critical,
        seed=res.seed,
        strategy=res.strategy,
    )
    with pytest.raises(InconsistentMatching):
        verify_acyclic_matching(H, bogus)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_matching_is_acyclic_and_partitions_the_faces(small_corpus, strategy):
    for name, K in small_corpus.items():
        H = build_hasse(K)
        faces = [f for level in K.faces_by_dim() for f in level]
        for seed in range(5):
            res = random_discrete_morse(K, strategy, seed=seed, hasse=H)
            assert verify_acyclic_matching(H, res), (name, seed)
            covered = [f for pair in res.matching for f in pair] + res.critical
            assert sorted(covered) == sorted(faces), (name, seed)


def test_duplicated_pair_rejected():
    K = generators.boundary_of_simplex(3)
    H = build_hasse(K)
    res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=0, hasse=H)
    pair = res.matching[0]
    bogus = MorseResult(
        vector=res.vector,
        matching=list(res.matching) + [pair],
        critical=res.critical,
        seed=res.seed,
        strategy=res.strategy,
    )
    with pytest.raises(InconsistentMatching):
        verify_acyclic_matching(H, bogus)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_runs_are_seed_deterministic(strategy):
    K = generators.rp2_6()
    a = random_discrete_morse(K, strategy, seed=77)
    b = random_discrete_morse(K, strategy, seed=77)
    assert a.vector == b.vector
    assert a.matching == b.matching
    assert a.critical == b.critical


def test_lex_strategies_vary_only_by_relabeling():
    # with one vertex relabeling per run, different seeds may differ, but
    # the run is a function of the seed alone
    K = generators.boundary_of_simplex(5)
    vectors = {random_discrete_morse(K, Strategy.RANDOM_LEX_FIRST, seed=s).vector for s in range(5)}
    assert all(sum(v) >= 2 for v in vectors)


def test_saw_blade_never_collapses(corpus):
    # no free edge at the start: the first 2-face is always critical
    for k in range(1, 6):
        K = corpus[f"saw_blade_{k}"]
        for seed in range(20):
            res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=seed)
            assert res.vector != (1, 0, 0), (k, seed)
            assert res.vector[2] >= 1


def test_spectrum_counts_and_tsv():
    K = generators.simplex(4)
    res = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=100, seed=5)
    assert sum(res.counts.values()) == 100
    assert res.counts[(1, 0, 0, 0, 0)] == 100
    tsv = spectrum_tsv(res, include_runtime=False)
    assert "(1,0,0,0,0)\t100" in tsv
    assert "seed=5" in tsv
    # deterministic reruns byte-identical without the runtime comment
    res2 = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=100, seed=5)
    assert spectrum_tsv(res2, include_runtime=False) == tsv


def test_spectrum_on_projective_plane():
    K = generators.rp2_6()
    res = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=200, seed=0)
    for vector, count in res.counts.items():
        assert sum((-1) ** k * c for k, c in enumerate(vector)) == 1
        assert vector[0] >= 1 and vector[2] >= 1
    # (1,1,1) is the minimal vector here and should dominate
    assert res.counts.get((1, 1, 1), 0) > 100

