"""Spectral matrices, Perron values, Wiener index, and monotonicity facts."""

import random

import numpy as np
import pytest

from evenfactor.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    join,
    path,
)
from evenfactor.spectral import (
    DisconnectedGraphError,
    distance_matrix,
    largest_eigenvalue,
    perron,
    rho_d,
    rho_d_many,
    rho_q,
    rho_q_many,
    signless_laplacian,
    wiener_index,
)
from evenfactor.spectral import _distance_stack, _signless_laplacian_stack


def test_signless_laplacian_entries():
    assert signless_laplacian(complete(2)).tolist() == [[1, 1], [1, 1]]
    q3 = signless_laplacian(cycle(3))
    assert q3.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert signless_laplacian(complete(1)).tolist() == [[0]]


def test_distance_matrix_entries():
    d = distance_matrix(complete(5))
    assert (d + np.eye(5) == np.ones((5, 5))).all()
    p3 = distance_matrix(path(3))
    assert p3[0, 2] == 2 and p3[0, 1] == 1 and p3[1, 2] == 1
    c4 = distance_matrix(cycle(4))
    for row in c4:
        assert sorted(row.tolist()) == [0, 1, 1, 2]
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(disjoint_union(complete(2), complete(2)))


def _floyd_warshall(g):
    n = g.n
    ref = np.full((n, n), float(n + 1))
    np.fill_diagonal(ref, 0.0)
    for u, v in g.edges():
        ref[u, v] = ref[v, u] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                ref[i, j] = min(ref[i, j], ref[i, k] + ref[k, j])
    return ref


def _random_connected(rng, n, p):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        if g.is_connected():
            return g


def test_distance_matrix_vs_floyd_warshall():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        assert (distance_matrix(g) == _floyd_warshall(g)).all()


def test_distance_stack_vs_floyd_warshall():
    rng = random.Random(11)
    for n in (1, 2, 5, 9, 14):
        # sparse draws give long distances, dense ones short
        graphs = [_random_connected(rng, n, rng.choice((0.15, 0.4, 0.8)))
                  for _ in range(12)] + [path(n)]
        stack = _distance_stack(graphs)
        assert stack.shape == (len(graphs), n, n)
        for g, d in zip(graphs, stack):
            assert (d == _floyd_warshall(g)).all()
    with pytest.raises(DisconnectedGraphError):
        _distance_stack([path(4), disjoint_union(complete(2), complete(2))])
    with pytest.raises(ValueError):
        _distance_stack([path(4), path(5)])


def test_stacked_radii_equal_one_graph_radii():
    rng = random.Random(13)
    for n in (3, 8, 14):
        graphs = [_random_connected(rng, n, 0.5) for _ in range(20)]
        assert rho_q_many(graphs).tolist() == [rho_q(g) for g in graphs]
        assert rho_d_many(graphs).tolist() == [rho_d(g) for g in graphs]


def test_perron_vector_positive_for_connected_graphs():
    rng = random.Random(19)
    for n in (2, 4, 7, 10):
        graphs = [_random_connected(rng, n, p) for p in (0.2, 0.5, 0.9)] + [path(n)]
        for g in graphs:
            for m in (signless_laplacian(g), distance_matrix(g)):
                res = largest_eigenvalue(m)
                assert (res.vector > 0).all()
                assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
        for stack in (_signless_laplacian_stack(graphs), _distance_stack(graphs)):
            values, vectors, residuals = perron(stack)
            assert values.shape == residuals.shape == (len(graphs),)
            assert (vectors > 0).all()


def test_perron_known_values():
    # regular graphs: rho_Q equals the constant row sum
    assert rho_q(complete(8)) == pytest.approx(14, abs=1e-9)
    assert rho_q(cycle(6)) == pytest.approx(4, abs=1e-9)
    assert rho_d(complete(8)) == pytest.approx(7, abs=1e-9)
    # D(C_4) has constant row sum 4 with the all-ones eigenvector
    assert rho_d(cycle(4)) == pytest.approx(4, abs=1e-9)
    assert rho_q(complete(1)) == pytest.approx(0, abs=1e-12)


def test_perron_matches_lapack_and_residual():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(2, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        q = signless_laplacian(g)
        res = largest_eigenvalue(q)
        norm = float(np.max(np.sum(np.abs(q), axis=1)))
        assert res.residual <= 1e-10 * (1 + norm)
        assert res.value == pytest.approx(float(np.linalg.eigvalsh(q)[-1]), abs=1e-8)
        assert res.value == pytest.approx(float(res.vector @ q @ res.vector), abs=1e-10)
        if g.is_connected() and n >= 2:
            d = distance_matrix(g)
            resd = largest_eigenvalue(d)
            assert resd.value == pytest.approx(float(np.linalg.eigvalsh(d)[-1]), abs=1e-8)
            assert (resd.vector > 0).all()  # Perron vector of irreducible matrix


def test_largest_eigenvalue_input_validation():
    with pytest.raises(ValueError):
        largest_eigenvalue(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        largest_eigenvalue(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        largest_eigenvalue(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        largest_eigenvalue(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        largest_eigenvalue(np.zeros((2, 2, 2)))  # stacks go through perron
    with pytest.raises(ValueError):
        perron(np.zeros((3, 0, 0)))
    with pytest.raises(ValueError):
        perron(np.array([[[0.0, 1.0], [0.5, 0.0]]]))


def test_largest_eigenvalue_deterministic():
    q = signless_laplacian(join(complete(2), disjoint_union(complete(5), complete(1))))
    a = largest_eigenvalue(q)
    b = largest_eigenvalue(q)
    assert a.value == b.value and a.residual == b.residual
    assert (a.vector == b.vector).all()


def test_extremal_rho_q_bracketed_by_cubic_signs():
    # the cubic x^3 - 20x^2 + 104x - 120 changes sign on [12, 13]
    poly = lambda x: x**3 - 20 * x**2 + 104 * x - 120
    assert poly(12) < 0 < poly(13)
    g = join(complete(2), disjoint_union(complete(5), complete(1)))
    value = rho_q(g)
    assert 12 < value < 13
    assert poly(value) == pytest.approx(0, abs=1e-6)


def test_wiener_values():
    for n in range(2, 7):
        assert wiener_index(complete(n)) == n * (n - 1) // 2
    assert wiener_index(path(3)) == 4
    assert wiener_index(path(4)) == 1 + 1 + 1 + 2 + 2 + 3 == 10
    g = join(complete(2), disjoint_union(complete(5), complete(1)))
    n, delta = 8, 2
    assert wiener_index(g) == (n * n + (2 * delta - 3) * n - 3 * delta**2 + 3 * delta) // 2 == 33
    with pytest.raises(DisconnectedGraphError):
        wiener_index(disjoint_union(complete(1), complete(1)))


def test_wiener_rayleigh_lower_bound_randomized():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        assert rho_d(g) >= 2 * wiener_index(g) / n - 1e-8


def test_rho_q_strictly_monotone_under_edge_addition():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(3, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        if not missing:
            continue
        extra = rng.choice(missing)
        assert rho_q(Graph(n, edges + [extra])) > rho_q(g) + 1e-8


def test_rho_d_strictly_monotone_under_edge_deletion():
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        n = rng.randrange(4, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        for e in g.edges():
            rest = [x for x in g.edges() if x != e]
            smaller = Graph(n, rest)
            if smaller.is_connected():
                assert rho_d(smaller) > rho_d(g) + 1e-8
                checked += 1
                break
