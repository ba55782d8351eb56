import copy
import re
import tracemalloc
from itertools import combinations
from operator import sub

import pytest
from _oracles import simplify_with_move_list

from plsphere import flips, generators, homology
from plsphere.complex_core import SimplicialComplex
from plsphere.errors import ImproperMove, NotPseudomanifold, StaleOption
from plsphere.flips import (
    AnnealingSchedule,
    FlipMove,
    FlipState,
    Trajectory,
    _f_change,
    bistellar_simplify,
    default_heat_weights,
    replay,
    trajectory_tsv,
)
from plsphere.rng import Rng


def _fresh_counts(facets):
    count = {}
    for f in facets:
        for r in range(1, len(f) + 1):
            for sub in combinations(f, r):
                count[sub] = count.get(sub, 0) + 1
    return count


def test_raw_options_boundary_of_simplex_3():
    K = generators.boundary_of_simplex(3)
    state = FlipState(K, Rng(0))
    opts = state.candidates
    assert len(opts[0]) == 4  # every vertex has degree 3 = d+1
    assert len(opts[1]) == 6  # every edge lies in exactly 2 facets
    assert len(opts[2]) == 4  # every facet is a 0-move option
    # 2-neighborly: every edge-flip would duplicate an existing edge
    assert all(not state.is_proper(f) for f in opts[1])
    assert all(state.is_proper(f) for f in opts[2])


def test_raw_options_octahedron_has_no_vertex_options():
    octa = generators.suspension(generators.suspension(generators.boundary_of_simplex(1)))
    assert octa.f_vector() == (6, 12, 8)
    state = FlipState(octa, Rng(0))
    assert len(state.candidates[0]) == 0  # every vertex lies in 4 > 3 triangles
    assert len(state.candidates[2]) == 8


def test_non_pseudomanifold_rejected():
    with pytest.raises(NotPseudomanifold):
        FlipState(SimplicialComplex([(0, 1, 2)]), Rng(0))


def test_zero_move_and_inverse():
    K = generators.boundary_of_simplex(3)
    state = FlipState(K, Rng(1))
    before = set(state.facets)
    move = state.apply_flip((0, 1, 2))  # stellar subdivision
    assert state.f_vector() == (5, 9, 6)
    new_vertex = move.replacement[0]
    assert new_vertex == 4
    # the inverse flip on the new vertex restores the facet set
    state.apply_flip((new_vertex,))
    assert set(state.facets) == before
    assert state.f_vector() == (4, 6, 4)


def test_flip_involution_in_dim_3():
    state = FlipState(generators.boundary_of_simplex(4), Rng(5))
    state.random_move(move_dim=0)
    before = set(state.facets)
    opts = [f for f in state.candidates[2] if state.is_proper(f)]
    move = state.apply_flip(opts[0])
    assert set(state.facets) != before
    state.apply_flip(move.replacement)  # the reverse move is always proper
    assert set(state.facets) == before


def test_improper_and_stale_errors():
    state = FlipState(generators.boundary_of_simplex(3), Rng(0))
    with pytest.raises(ImproperMove):
        state.apply_flip((0, 1))  # replacement edge (2,3) already present
    with pytest.raises(StaleOption):
        state.is_proper((0, 1, 9))
    with pytest.raises(StaleOption):
        state.is_proper((0, 1, 2, 3))  # longer than a facet


def _assert_index_matches_scratch(state):
    count = _fresh_counts(state.facets)
    assert state.count == count
    nbrs = {}
    for a, b in (f for f in count if len(f) == 2):
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    assert state.nbrs == nbrs
    d = state.d
    for k in range(d + 1):
        faces = [f for f in count if len(f) == k + 1]
        flippable = sorted(f for f in faces if count[f] == d - k + 1)
        assert state.candidates[k] == sorted(state.candidates[k])
        assert state.candidates[k] == flippable
        assert state.f[k] == len(faces)
    # every face against link vertices read off the facets
    for face in count:
        link = {v for g in state.facets if set(face) <= set(g) for v in g}
        expected = () if len(face) == d + 1 else tuple(sorted(link - set(face)))
        assert state.replacement_of(face) == expected, face


def test_incremental_index_matches_scratch_after_moves():
    # 0-, 1- and 2-moves, each undone by its inverse (a d-, (d-1)- or
    # (d-2)-move) a third of the time
    for d, seed in ((3, 7), (4, 3)):
        state = FlipState(generators.boundary_of_simplex(d + 1), Rng(seed))
        _assert_index_matches_scratch(state)
        for i in range(60):
            before = set(state.facets)
            try:
                move = state.random_move(move_dim=state.rng.randbelow(3))
            except ImproperMove:
                move = state.random_move(move_dim=0)
            _assert_index_matches_scratch(state)
            if i % 3 == 0:
                state.apply_flip(move.replacement)
                assert set(state.facets) == before
                _assert_index_matches_scratch(state)


def _scratch_replacement(facets, faces, face, max_label):
    """The properness rule read off the facet list alone: the replacement
    of a flip at ``face``, or None when that flip is improper."""
    d = len(facets[0]) - 1
    i = len(face) - 1
    if i == d:
        return (max_label + 1,)
    link = tuple(sorted({v for g in facets if set(face) <= set(g) for v in g} - set(face)))
    # the star of a flippable face is a bipyramid, so the kernel never
    # tests the size of the link
    assert len(link) == d - i + 1, face
    return None if link in faces else link


def test_properness_and_scans_match_scratch_rule():
    # after each random 0-, 1- or 2-move, every candidate of every dimension
    # is judged as the scratch rule judges it, and the scan of each
    # dimension picks the first face that rule calls proper, in the order
    # its random draws give
    for d, seed in ((3, 7), (4, 3)):
        state = FlipState(generators.boundary_of_simplex(d + 1), Rng(seed))
        outcomes = set()
        for _ in range(40):
            faces = set(_fresh_counts(state.facets))
            for i in range(d + 1):
                expected = {
                    face: _scratch_replacement(state.facets, faces, face, state.max_label)
                    for face in state.candidates[i]
                }
                for face, rep in expected.items():
                    assert state.is_proper(face) == (rep is not None), face
                    outcomes.add("facet" if i == d else "improper" if rep is None else "proper")
                rng = Rng(0)
                rng.s0, rng.s1 = state.rng.s0, state.rng.s1
                items = state.candidates[i][:]
                pick = None
                for a in range(len(items)):
                    b = a + rng.randbelow(len(items) - a)
                    items[a], items[b] = items[b], items[a]
                    if expected[items[a]] is not None:
                        pick = (items[a], expected[items[a]])
                        break
                assert copy.deepcopy(state)._first_proper_flip(i) == pick, (d, i)
            try:
                state.random_move(move_dim=state.rng.randbelow(3))
            except ImproperMove:
                state.random_move(move_dim=0)
        assert outcomes == {"facet", "improper", "proper"}, d


def test_replay_rejects_a_pinned_stellar_label_that_is_not_new():
    K = generators.boundary_of_simplex(4)
    facet = (0, 1, 2, 3)
    for label in ((4,), (2,), (5, 6), (), (-1,), ("a",)):
        tampered = [FlipMove(1, facet, label, (6, 14, 16, 8))]
        with pytest.raises(ImproperMove, match=re.escape(str(label))):
            replay(K, tampered)
    # a label not yet used is a new vertex, whether or not it is the next one
    for label in ((5,), (9,)):
        L = replay(K, [FlipMove(1, facet, label, (6, 14, 16, 8))])
        assert L.f_vector() == (6, 14, 16, 8)
        assert label[0] in L.vertices


def test_rejected_moves_leave_the_state_alone():
    state = FlipState(generators.boundary_of_simplex(4), Rng(0))
    state.apply_flip((0, 1, 2, 3))  # puts in vertex 5
    before = (dict(state.count), state.f_vector(), state.max_label, state.round)
    for face, replacement, error in (
        ((0, 1, 2, 4), (5,), ImproperMove),
        ((0, 1, 2, 4), (2, 6), ImproperMove),
        ((0, 4), None, ImproperMove),  # the triangle (1, 2, 3) is there
        ((0, 1, 2), (3, 5), StaleOption),  # the recorded edge is (4, 5)
        ((0, 1, 2, 3), None, StaleOption),  # no longer a facet
    ):
        with pytest.raises(error):
            state.apply_flip(face, replacement)
        assert (state.count, state.f_vector(), state.max_label, state.round) == before
    assert state.apply_flip((0, 1, 2), (4, 5)).replacement == (4, 5)


def test_flips_preserve_invariants():
    state = FlipState(generators.boundary_of_simplex(4), Rng(11))
    base = homology(state.to_complex()).report_dict()
    chi = state.to_complex().euler_characteristic()
    for _ in range(30):
        try:
            state.random_move(move_dim=state.rng.randbelow(3))
        except ImproperMove:
            state.random_move(move_dim=0)
        K = state.to_complex()
        assert K.euler_characteristic() == chi
        ok, _ = K.is_closed_pseudomanifold()
        assert ok
    assert homology(state.to_complex()).report_dict() == base


def test_facets_are_the_top_candidates():
    state = FlipState(generators.boundary_of_simplex(4), Rng(2))
    for _ in range(20):
        state.random_move(move_dim=0)
        assert state.facets is state.candidates[state.d]
        assert state.facets == sorted(set(state.facets))
        assert state.to_complex().facets == tuple(state.facets)


def test_reached_simplex_boundary():
    def reached(K):
        return bistellar_simplify(K, max_rounds=0).reached_simplex_boundary

    assert reached(generators.boundary_of_simplex(5))
    octa = generators.suspension(generators.suspension(generators.boundary_of_simplex(1)))
    assert not reached(octa)
    assert not reached(generators.suspension(generators.boundary_of_simplex(2)))


def test_default_heat_weights():
    assert default_heat_weights(4) == (1, 10, 10)
    assert default_heat_weights(3) == (1, 1)
    assert default_heat_weights(6) == (1, 1, 1)


def test_schedule_thresholds():
    s = AnnealingSchedule()
    assert s.threshold(100) == 20
    assert s.heating_amount(100) == 40


def test_simplify_already_minimal():
    res = bistellar_simplify(generators.boundary_of_simplex(4), seed=0, max_rounds=50)
    assert res.reached_simplex_boundary
    assert res.best_f == (5, 10, 10, 5)
    assert res.trajectory == ()


def test_simplify_returns_to_simplex_boundary():
    K = generators.perturbed_sphere(3, 10, 50, 0, seed=21)
    res = bistellar_simplify(K, seed=2, max_rounds=10**5)
    assert res.reached_simplex_boundary
    assert res.best_f == (5, 10, 10, 5)
    assert res.replayable
    assert replay(K, res.trajectory) == res.complex


def test_simplify_never_worse_and_euler_constant():
    K = generators.perturbed_sphere(3, 8, 30, 5, seed=4)
    res = bistellar_simplify(K, seed=1, max_rounds=300)
    assert res.best_f <= K.f_vector()
    chi = K.euler_characteristic()
    for move in res.trajectory:
        assert sum((-1) ** k * c for k, c in enumerate(move.f_after)) == chi


def test_simplify_best_complex_before_the_last_move():
    # the best f-vector comes after 38 of 80 moves: the result is the
    # snapshot taken then, not the final state
    K = generators.perturbed_sphere(3, 8, 30, 5, seed=4)
    res = bistellar_simplify(K, seed=1, max_rounds=80)
    assert res.rounds == 80
    assert len(res.trajectory) == 38
    assert res.best_f == (8, 24, 32, 16)
    assert res.complex.f_vector() == res.best_f
    assert replay(K, res.trajectory) == res.complex


def test_simplify_deterministic():
    K = generators.perturbed_sphere(3, 10, 50, 0, seed=21)
    a = bistellar_simplify(K, seed=3, max_rounds=10**4)
    b = bistellar_simplify(K, seed=3, max_rounds=10**4)
    assert a.trajectory == b.trajectory
    assert a.complex == b.complex
    assert trajectory_tsv(a.trajectory) == trajectory_tsv(b.trajectory)


def test_trajectory_tsv_format():
    K = generators.perturbed_sphere(3, 3, 0, 0, seed=1)
    res = bistellar_simplify(K, seed=1, max_rounds=10**4)
    lines = trajectory_tsv(res.trajectory).splitlines()
    assert lines[0] == "round\tface_dim\tface\tf_vector"
    assert len(lines) == len(res.trajectory) + 1


def test_closed_form_f_change_matches_the_kernel():
    # every face size of every dimension 2..5 is flipped at least once, and
    # its f-vector change is what the kernel's counts do to f
    for d in range(2, 6):
        state = FlipState(generators.boundary_of_simplex(d + 1), Rng(d))
        sizes = set()
        for step in range(400):
            before = state.f_vector()
            try:
                move = state.random_move(move_dim=step % (d + 1))
            except ImproperMove:
                continue
            assert tuple(map(sub, move.f_after, before)) == _f_change(d, len(move.face))
            sizes.add(len(move.face))
        assert sizes == set(range(1, d + 2)), d


_DEQUE_CASES = {
    "perturbed_3": (generators.perturbed_sphere(3, 10, 50, 0, seed=21), 3, 10**4),
    "best_before_last": (generators.perturbed_sphere(3, 8, 30, 5, seed=4), 1, 80),
    "perturbed_4": (generators.perturbed_sphere(4, 10, 60, 40, 0), 1, 2000),
}


@pytest.mark.parametrize("buffer", [None, 3, 50])
@pytest.mark.parametrize("case", sorted(_DEQUE_CASES))
def test_trajectory_matches_the_deque_oracle(monkeypatch, case, buffer):
    # move by move, and the kept moves and replayable flag of a buffer that
    # fills, as a list of the first FlipMoves keeps them (the name and ids
    # stay from the deque of the last moves it first compared to)
    K, seed, rounds = _DEQUE_CASES[case]
    if buffer is not None:
        monkeypatch.setattr(flips, "TRAJECTORY_BUFFER", buffer)
    expected, replayable = simplify_with_move_list(K, seed, rounds, flips.TRAJECTORY_BUFFER)
    res = bistellar_simplify(K, seed=seed, max_rounds=rounds)
    assert isinstance(res.trajectory, Trajectory)
    assert len(res.trajectory) == len(expected)
    for got, want in zip(res.trajectory, expected):
        assert got.round == want.round
        assert got.face == want.face
        assert got.replacement == want.replacement
        assert got.f_after == want.f_after, got.round
    assert res.replayable == replayable
    assert res.trajectory == expected
    if buffer == 3:
        assert not replayable and len(expected) == 3
    if buffer is None:
        assert replayable and expected


def test_a_buffer_of_the_best_length_is_just_replayable(monkeypatch):
    # the run goes on past its best at round 38, so a buffer of 38 keeps the
    # whole path to the best and a buffer of 37 keeps a prefix of it, which
    # replays to the complex after 37 rounds
    K, seed, rounds = _DEQUE_CASES["best_before_last"]
    full = bistellar_simplify(K, seed=seed, max_rounds=rounds)
    best_len = len(full.trajectory)
    assert full.replayable and full.rounds > best_len
    monkeypatch.setattr(flips, "TRAJECTORY_BUFFER", best_len)
    exact = bistellar_simplify(K, seed=seed, max_rounds=rounds)
    assert exact.replayable
    assert exact.trajectory == full.trajectory
    assert replay(K, exact.trajectory) == exact.complex
    monkeypatch.setattr(flips, "TRAJECTORY_BUFFER", best_len - 1)
    short = bistellar_simplify(K, seed=seed, max_rounds=rounds)
    assert not short.replayable
    assert short.complex == full.complex and short.best_f == full.best_f
    moves, _ = simplify_with_move_list(K, seed, rounds, best_len - 1)
    assert short.trajectory == moves == tuple(full.trajectory)[: best_len - 1]
    # the oracle reads f_after off the live state after round 37
    assert replay(K, short.trajectory).f_vector() == moves[-1].f_after


def test_a_recording_state_keeps_the_first_moves_and_then_stops(monkeypatch):
    monkeypatch.setattr(flips, "TRAJECTORY_BUFFER", 50)
    state = FlipState(generators.boundary_of_simplex(4), Rng(5), record_trajectory=True)
    moves = []
    for _ in range(500):
        try:
            moves.append(state.random_move(move_dim=state.rng.randbelow(3)))
        except ImproperMove:
            moves.append(state.random_move(move_dim=0))
        assert len(state._sizes) <= 50
    kept = state.take_trajectory(480)
    assert isinstance(kept, Trajectory)
    assert kept == tuple(moves[:50])
    assert state.take_trajectory(500) == ()


def test_trajectory_slices_indices_and_equality():
    K = generators.perturbed_sphere(3, 8, 30, 5, seed=4)
    res = bistellar_simplify(K, seed=1, max_rounds=80)
    moves = tuple(res.trajectory)
    assert len(moves) == 38
    for cut in (0, 1, 17, 38, 50):
        part = res.trajectory[:cut]
        assert isinstance(part, Trajectory)
        assert part == moves[:cut]
        assert replay(K, part) == replay(K, moves[:cut])
    for key in (slice(5, 20), slice(-5, None), slice(20, 10), slice(None, None, 2), slice(30, 3, -4)):
        assert res.trajectory[key] == moves[key], key
        assert type(res.trajectory[key]) is tuple, key
    for i in (0, 9, 37, -1, -38):
        assert res.trajectory[i] == moves[i]
    for i in (38, -39):
        with pytest.raises(IndexError):
            res.trajectory[i]
    assert moves == res.trajectory
    assert res.trajectory == bistellar_simplify(K, seed=1, max_rounds=80).trajectory
    assert res.trajectory != moves[:-1]
    assert res.trajectory != bistellar_simplify(K, seed=2, max_rounds=80).trajectory
    assert res.trajectory[:0] == () == res.trajectory[38:]
    idle = bistellar_simplify(K, seed=1, max_rounds=0)
    assert idle.trajectory == () and idle.replayable and not idle.trajectory


def test_trajectory_memory_per_round(monkeypatch):
    # traced bytes that the recorded moves of a 2*10^4-round run on the
    # suspension of rp2_6 (no sphere, so every round runs) add to the peak,
    # against a buffer of one move: a FlipMove object per round read 321 B
    # per round, flat records read 52
    K = generators.suspension(generators.rp2_6())
    rounds = 2 * 10**4
    bistellar_simplify(K, seed=1, max_rounds=2000)  # the caches of K and of the kernel

    def peak(buffer):
        monkeypatch.setattr(flips, "TRAJECTORY_BUFFER", buffer)
        tracemalloc.start()
        try:
            assert bistellar_simplify(K, seed=1, max_rounds=rounds).rounds == rounds
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(10**6) - peak(1)) / rounds < 100
