from itertools import combinations

import pytest

from plsphere import generators, homology
from plsphere.complex_core import SimplicialComplex
from plsphere.errors import ImproperMove, NotPseudomanifold, StaleOption
from plsphere.flips import (
    AnnealingSchedule,
    FlipState,
    bistellar_simplify,
    default_heat_weights,
    reached_simplex_boundary,
    replay,
    trajectory_tsv,
)
from plsphere.rng import Rng


def _fresh_star(facets):
    star = {}
    for f in facets:
        for r in range(1, len(f) + 1):
            for sub in combinations(f, r):
                star.setdefault(sub, set()).add(f)
    return star


def test_raw_options_boundary_of_simplex_3():
    K = generators.boundary_of_simplex(3)
    state = FlipState(K, Rng(0))
    opts = [state.options_at(i) for i in range(K.dim + 1)]
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
    assert len(state.options_at(0)) == 0  # every vertex lies in 4 > 3 triangles
    assert len(state.options_at(2)) == 8


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
    opts = [f for f in state.options_at(2) if state.is_proper(f)]
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


def test_incremental_index_matches_scratch_after_moves():
    state = FlipState(generators.boundary_of_simplex(4), Rng(3), record_trajectory=True)
    for i in range(100):
        try:
            state.random_move(move_dim=state.rng.randbelow(3))
        except ImproperMove:
            state.random_move(move_dim=0)
        if i % 10 == 9:
            assert _fresh_star(state.facets) == state.star
            fresh = FlipState(state.to_complex(), Rng(0))
            assert fresh.candidates == state.candidates
            assert fresh.f == state.f


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


def test_reached_simplex_boundary():
    assert reached_simplex_boundary(generators.boundary_of_simplex(5))
    octa = generators.suspension(generators.suspension(generators.boundary_of_simplex(1)))
    assert not reached_simplex_boundary(octa)
    assert not reached_simplex_boundary(generators.suspension(generators.boundary_of_simplex(2)))


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
