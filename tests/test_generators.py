from math import comb

import pytest

from plsphere import generators, homology
from plsphere.errors import InvalidSpec


def test_simplex():
    K = generators.simplex(8)
    assert K.dim == 8
    assert K.f_vector() == tuple(comb(9, k + 1) for k in range(9))
    assert generators.simplex(0).f_vector() == (1,)


def test_boundary_of_simplex():
    assert generators.boundary_of_simplex(2).f_vector() == (3, 3)
    assert generators.boundary_of_simplex(4).f_vector() == (5, 10, 10, 5)
    K = generators.boundary_of_simplex(5)
    assert K.dim == 4
    assert K.euler_characteristic() == 2
    with pytest.raises(InvalidSpec):
        generators.boundary_of_simplex(0)


def test_suspension():
    s0 = generators.suspension(generators.boundary_of_simplex(1))  # susp(S^0)
    assert s0.f_vector() == (4, 4)  # the 4-cycle
    s2 = generators.suspension(generators.boundary_of_simplex(2))
    assert s2.f_vector() == (5, 9, 6)
    assert s2.euler_characteristic() == 2


def test_rp2_6():
    K = generators.rp2_6()
    assert K.f_vector() == (6, 15, 10)
    assert K.euler_characteristic() == 1
    # 2-neighborly and vertex links are 5-cycles
    for v in K.vertices:
        L = K.link((v,))
        assert L.f_vector() == (5, 5)


@pytest.mark.parametrize("k,nverts", [(1, 8), (2, 9), (3, 9), (4, 12), (5, 15)])
def test_saw_blade_vertex_counts(k, nverts):
    K = generators.saw_blade(k)
    assert len(K.vertices) == nverts
    assert K.dim == 2
    assert K.euler_characteristic() == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_saw_blade_has_no_free_edges(k):
    K = generators.saw_blade(k)
    for e in K.faces(1):
        cofacets = sum(1 for f in K.facets if set(e) <= set(f))
        assert cofacets >= 2, f"free edge {e} in saw_blade({k})"


@pytest.mark.parametrize("k", range(3, 7))
def test_saw_blade_edge_multiplicities(k):
    # interior edges in exactly 2 triangles, identified boundary edges in 3
    K = generators.saw_blade(k)
    mults = sorted(
        {sum(1 for f in K.facets if set(e) <= set(f)) for e in K.faces(1)}
    )
    assert set(mults) <= {2, 3}
    assert 3 in mults


@pytest.mark.parametrize("k", range(1, 6))
def test_saw_blade_reduced_homology_vanishes(k):
    hg = homology(generators.saw_blade(k), "Z", reduced=True)
    assert all(b == 0 for b in hg.betti)
    assert all(not t for t in hg.torsion)


def test_dunce_hat_is_one_bladed():
    assert generators.dunce_hat() == generators.saw_blade(1)


def test_perturbed_sphere_subdivision_only_closed_form():
    # each stellar subdivision of a 3-sphere facet adds (1, 4, 6, 3)
    for a in (0, 5, 20):
        K = generators.perturbed_sphere(3, a, 0, 0, seed=3)
        assert K.f_vector() == (5 + a, 10 + 4 * a, 10 + 6 * a, 5 + 3 * a)


def test_perturbed_sphere_shape_and_invariants():
    K = generators.perturbed_sphere(3, 20, 200, 0, seed=1)
    assert len(K.vertices) == 25
    assert K.euler_characteristic() == 0
    ok, _ = K.is_closed_pseudomanifold()
    assert ok
    hg = homology(K, "Z", reduced=True)
    assert hg.betti == (0, 0, 0, 1)
    assert all(not t for t in hg.torsion)


@pytest.mark.parametrize(
    "counts, name",
    [((-5, 0, 0), "add_vertices"), ((2, -7, 0), "one_moves"), ((2, 7, -1), "mixed_rounds")],
)
def test_perturbed_sphere_rejects_negative_move_counts(counts, name):
    with pytest.raises(InvalidSpec, match=f"perturbed sphere needs {name} >= 0"):
        generators.perturbed_sphere(3, *counts, seed=0)
    # a negative seed is still a seed
    assert generators.perturbed_sphere(3, 2, 7, 1, seed=-3).dim == 3


def test_perturbed_sphere_seeded():
    a = generators.perturbed_sphere(3, 5, 30, 10, seed=9)
    b = generators.perturbed_sphere(3, 5, 30, 10, seed=9)
    c = generators.perturbed_sphere(3, 5, 30, 10, seed=10)
    assert a == b
    assert a != c
