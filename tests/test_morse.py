import os

import pytest

from _oracles import betti_over_q, morse_spectrum_serial
from plsphere import complex_core, generators, morse
from plsphere.cli import resolve_complex
from plsphere.errors import InconsistentMatching, PLSphereError
from plsphere.morse import (
    MorseResult,
    Strategy,
    is_collapsible_witness,
    is_spherical,
    morse_spectrum,
    morse_vector,
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
        if sum(K.f_vector()) > 20000:
            continue
        chi = K.euler_characteristic()
        res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=3)
        assert sum((-1) ** k * c for k, c in enumerate(res.vector)) == chi, name
        # matched pairs + critical cells account for every face
        assert 2 * len(res.matching) + len(res.critical) == sum(K.f_vector()), name


def test_weak_morse_inequalities(small_corpus):
    for name, K in small_corpus.items():
        betti = betti_over_q(K.facets)
        for seed in range(10):
            res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=seed)
            assert all(c >= b for c, b in zip(res.vector, betti)), (name, res.vector)


def test_matching_verifies_and_tampering_detected():
    K = generators.boundary_of_simplex(4)
    H = K.hasse()
    res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=2)
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

    # so must a pair whose faces are not in K, each side in turn
    for pair in [((0,), (0, 9)), ((0, 9), (0, 1, 9)), ((), (0,))]:
        bogus = MorseResult(
            vector=res.vector,
            matching=res.matching[:-1] + [pair],
            critical=res.critical,
            seed=res.seed,
            strategy=res.strategy,
        )
        with pytest.raises(InconsistentMatching):
            verify_acyclic_matching(H, bogus)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_matching_is_acyclic_and_partitions_the_faces(small_corpus, strategy):
    for name, K in small_corpus.items():
        H = K.hasse()
        faces = [f for level in K.faces_by_dim() for f in level]
        for seed in range(5):
            res = random_discrete_morse(K, strategy, seed=seed)
            assert verify_acyclic_matching(H, res), (name, seed)
            covered = [f for pair in res.matching for f in pair] + res.critical
            assert sorted(covered) == sorted(faces), (name, seed)


def test_duplicated_pair_rejected():
    K = generators.boundary_of_simplex(3)
    H = K.hasse()
    res = random_discrete_morse(K, Strategy.RANDOM_RANDOM, seed=0)
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


#: non-perfect vectors, the two perfect kinds, and (the perturbed sphere)
#: vectors that differ from seed to seed under every strategy
VECTOR_KINDS = (
    "rp2_6", "dunce_hat", "saw_blade:2", "sd:1:bd_simplex:4", "simplex:6",
    "perturbed_sphere:3:20:200:0:7",
)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("spec", VECTOR_KINDS)
def test_morse_vector_is_the_vector_of_the_full_run(spec, strategy):
    K = resolve_complex(spec)
    for seed in range(20):
        assert morse_vector(K, strategy, seed) == random_discrete_morse(K, strategy, seed).vector


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_spectrum_is_a_tally_of_full_runs(monkeypatch, strategy, workers):
    _use_workers(monkeypatch, workers)
    for spec in ("rp2_6", "saw_blade:2", "perturbed_sphere:3:20:200:0:7"):
        K = resolve_complex(spec)
        res = morse_spectrum(K, strategy, rounds=30, seed=7)
        assert list(res.counts.items()) == list(morse_spectrum_serial(K, strategy, 30, 7).items()), spec


def _use_workers(monkeypatch, n):
    """Let ``morse_spectrum`` run min(rounds, n) workers."""
    monkeypatch.setattr(morse, "_available_cpus", lambda: n)
    monkeypatch.setattr(morse, "MAX_WORKERS", n)


def _count_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_spectrum_is_independent_of_the_worker_count(monkeypatch, small_corpus, strategy):
    complexes = dict(small_corpus, sd1_bd4=resolve_complex("sd:1:bd_simplex:4"))
    rounds = 7
    for name, K in complexes.items():
        _use_workers(monkeypatch, 1)
        serial = morse_spectrum(K, strategy, rounds, seed=11)
        for workers in (2, 3, rounds + 5):
            _use_workers(monkeypatch, workers)
            res = morse_spectrum(K, strategy, rounds, seed=11)
            assert list(res.counts.items()) == list(serial.counts.items()), (name, workers)
            assert spectrum_tsv(res, include_runtime=False) == spectrum_tsv(
                serial, include_runtime=False
            ), (name, workers)


@pytest.mark.parametrize("workers", [2, 3, 25])
def test_spectrum_merges_blocks_in_seed_order(monkeypatch, workers):
    # real runs on small complexes mostly repeat one vector, so a stand-in
    # run with a new vector every third seed pins the order of ``counts``
    def run(K, strategy, seed):
        k = (seed - 40) // 3
        return (1 + k, k, 0)

    monkeypatch.setattr(morse, "morse_vector", run)
    _use_workers(monkeypatch, workers)
    forks = _count_forks(monkeypatch)
    K = generators.simplex(2)
    res = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=20, seed=40)
    expected = {(1 + k, k, 0): 3 for k in range(6)}
    expected[(7, 6, 0)] = 2
    assert list(res.counts.items()) == list(expected.items())
    assert len(forks) == min(20, workers) - 1


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_spectrum_blocks_send_count_tables(monkeypatch, workers):
    # three distinct vectors over 3000 seeds: (3,2,0) first appears in the
    # last third, so the merged order is the order of first appearance
    def run(K, strategy, seed):
        k = 2 if seed >= 2040 else seed % 2
        return (1 + k, k, 0)

    tables = []

    def recorded(fn):
        def wrapper(*args):
            table = fn(*args)
            tables.append(table)
            return table

        return wrapper

    monkeypatch.setattr(morse, "morse_vector", run)
    monkeypatch.setattr(morse, "_run_block", recorded(morse._run_block))
    monkeypatch.setattr(morse, "_read_block", recorded(morse._read_block))
    _use_workers(monkeypatch, workers)
    res = morse_spectrum(generators.simplex(2), Strategy.RANDOM_RANDOM, rounds=3000, seed=40)
    assert len(tables) == workers
    assert all(len(table) <= 3 for table in tables)
    assert list(res.counts.items()) == [((1, 0, 0), 1000), ((2, 1, 0), 1000), ((3, 2, 0), 1000)]


def test_a_failed_worker_names_its_seeds(monkeypatch, capfd):
    # the last of three blocks raises in its child, which writes no table
    def run(K, strategy, seed):
        if seed >= 8:
            raise RuntimeError("run failed")
        return (1, 0, 0)

    monkeypatch.setattr(morse, "morse_vector", run)
    _use_workers(monkeypatch, 3)
    with pytest.raises(PLSphereError, match=r"the worker for seeds 8\.\.11 failed \(exit status 1\)"):
        morse_spectrum(generators.simplex(2), Strategy.RANDOM_RANDOM, rounds=12, seed=0)
    assert "RuntimeError: run failed" in capfd.readouterr().err


def test_hasse_diagram_is_built_once_before_the_first_fork(monkeypatch):
    builds = []
    real_build = complex_core.build_hasse

    def build(K):
        builds.append(K)
        return real_build(K)

    seen_at_fork = []
    real_fork_block = morse._fork_block

    def fork_block(K, *args):
        seen_at_fork.append(len(builds))
        return real_fork_block(K, *args)

    monkeypatch.setattr(complex_core, "build_hasse", build)
    monkeypatch.setattr(morse, "_fork_block", fork_block)
    _use_workers(monkeypatch, 3)
    K = generators.rp2_6()
    morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=12, seed=0)
    assert seen_at_fork == [1, 1]
    assert builds == [K]
    assert K.hasse() is K.hasse()


def test_spectrum_default_workers_match_serial(monkeypatch):
    K = generators.rp2_6()
    res = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=40, seed=3)
    _use_workers(monkeypatch, 1)
    serial = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=40, seed=3)
    assert list(res.counts.items()) == list(serial.counts.items())


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(morse, "_available_cpus", lambda: 64)
    forks = _count_forks(monkeypatch)
    morse_spectrum(generators.rp2_6(), Strategy.RANDOM_LEX_LAST, rounds=20, seed=0)
    assert len(forks) == morse.MAX_WORKERS - 1


def test_single_round_forks_nothing(monkeypatch):
    _use_workers(monkeypatch, 4)
    _no_fork(monkeypatch)
    res = morse_spectrum(generators.rp2_6(), Strategy.RANDOM_LEX_FIRST, rounds=1, seed=0)
    assert sum(res.counts.values()) == 1


def test_spectrum_beside_another_thread_forks_nothing(monkeypatch):
    # a fork while another thread holds a lock can hang the child, and the
    # parent with it, so a multi-threaded caller gets a serial spectrum
    import threading

    K = generators.rp2_6()
    _use_workers(monkeypatch, 1)
    serial = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=12, seed=5)
    _use_workers(monkeypatch, 4)
    _no_fork(monkeypatch)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        res = morse_spectrum(K, Strategy.RANDOM_RANDOM, rounds=12, seed=5)
    finally:
        done.set()
        other.join()
    assert list(res.counts.items()) == list(serial.counts.items())


def test_spectrum_on_macos_forks_nothing(monkeypatch):
    _use_workers(monkeypatch, 4)
    _no_fork(monkeypatch)
    monkeypatch.setattr(morse.sys, "platform", "darwin")
    res = morse_spectrum(generators.rp2_6(), Strategy.RANDOM_RANDOM, rounds=12, seed=5)
    assert sum(res.counts.values()) == 12


def _failing_on(bad_seed, error=RuntimeError):
    real = morse.morse_vector

    def run(K, strategy, seed, **kw):
        if seed == bad_seed:
            raise error(f"seed {seed}")
        return real(K, strategy, seed, **kw)

    return run


def test_failing_child_block_raises(monkeypatch):
    # rounds 10 over 2 workers: seeds 100..104 in the parent, 105..109 in the child
    monkeypatch.setattr(morse, "morse_vector", _failing_on(107))
    _use_workers(monkeypatch, 2)
    with pytest.raises(PLSphereError, match="105..109"):
        morse_spectrum(generators.rp2_6(), Strategy.RANDOM_RANDOM, rounds=10, seed=100)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failing_parent_block_reaps_children(monkeypatch, error):
    monkeypatch.setattr(morse, "morse_vector", _failing_on(101, error))
    _use_workers(monkeypatch, 3)
    with pytest.raises(error):
        morse_spectrum(generators.rp2_6(), Strategy.RANDOM_RANDOM, rounds=10, seed=100)
