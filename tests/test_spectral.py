"""Spectral matrices, Perron values, Wiener index, and monotonicity facts."""

import random
from fractions import Fraction

import numpy as np
import pytest

from evenfactor.corpus import load_bundled_corpus
from evenfactor.graphs import Graph, clique_join
from evenfactor.spectral import (
    DisconnectedGraphError,
    distance_matrix,
    perron,
    perron_brackets,
    rho_d,
    rho_d_many,
    rho_q,
    rho_q_many,
    signless_laplacian,
    wiener_index,
)
from evenfactor.spectral import _distance_stack, _signless_laplacian_stack
from small_graphs import cycle, path


def test_signless_laplacian_entries():
    assert signless_laplacian(clique_join(2, ())).tolist() == [[1, 1], [1, 1]]
    q3 = signless_laplacian(cycle(3))
    assert q3.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert signless_laplacian(clique_join(1, ())).tolist() == [[0]]


def test_distance_matrix_entries():
    d = distance_matrix(clique_join(5, ()))
    assert (d + np.eye(5) == np.ones((5, 5))).all()
    p3 = distance_matrix(path(3))
    assert p3[0, 2] == 2 and p3[0, 1] == 1 and p3[1, 2] == 1
    c4 = distance_matrix(cycle(4))
    for row in c4:
        assert sorted(row.tolist()) == [0, 1, 1, 2]
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(clique_join(0, (2, 2)))


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
    # sparse draws give long distances, dense ones short
    stacks = [[_random_connected(rng, n, rng.choice((0.15, 0.4, 0.8))) for _ in range(12)]
              + [path(n)] for n in (1, 2, 5, 9, 14)]
    # complete graphs alone, which I | A fills with no product, and
    # diameters 1 and 2 (K_5 joined to two nonadjacent vertices) beside a
    # path of diameter 6
    k7 = clique_join(7, ())
    stacks += [[k7] * 3, [k7, clique_join(5, (1, 1)), path(7), k7]]
    for graphs in stacks:
        n = graphs[0].n
        stack = _distance_stack(graphs)
        assert stack.shape == (len(graphs), n, n)
        for g, d in zip(graphs, stack):
            assert (d == _floyd_warshall(g)).all()
    with pytest.raises(DisconnectedGraphError):
        _distance_stack([path(4), clique_join(0, (2, 2))])
    with pytest.raises(DisconnectedGraphError):
        _distance_stack([clique_join(4, ()), clique_join(0, (2, 2)), clique_join(4, ())])
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
                _, vector, _ = perron(m)
                assert (vector > 0).all()
                assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
        for stack in (_signless_laplacian_stack(graphs), _distance_stack(graphs)):
            values, vectors, residuals = perron(stack)
            assert values.shape == residuals.shape == (len(graphs),)
            assert (vectors > 0).all()


def test_perron_known_values():
    # regular graphs: rho_Q equals the constant row sum
    assert rho_q(clique_join(8, ())) == pytest.approx(14, abs=1e-9)
    assert rho_q(cycle(6)) == pytest.approx(4, abs=1e-9)
    assert rho_d(clique_join(8, ())) == pytest.approx(7, abs=1e-9)
    # D(C_4) has constant row sum 4 with the all-ones eigenvector
    assert rho_d(cycle(4)) == pytest.approx(4, abs=1e-9)
    assert rho_q(clique_join(1, ())) == pytest.approx(0, abs=1e-12)


def test_perron_matches_lapack_and_residual():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(2, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        q = signless_laplacian(g)
        value, vector, residual = perron(q)
        norm = float(np.max(np.sum(np.abs(q), axis=1)))
        assert residual <= 1e-10 * (1 + norm)
        assert value == pytest.approx(float(np.linalg.eigvalsh(q)[-1]), abs=1e-8)
        assert value == pytest.approx(float(vector @ q @ vector), abs=1e-10)
        if g.is_connected() and n >= 2:
            d = distance_matrix(g)
            value, vector, _ = perron(d)
            assert value == pytest.approx(float(np.linalg.eigvalsh(d)[-1]), abs=1e-8)
            assert (vector > 0).all()  # Perron vector of irreducible matrix


def test_perron_input_validation():
    with pytest.raises(ValueError):
        perron(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        perron(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        perron(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        perron(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        perron(np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValueError):
        rho_q(Graph(0))
    with pytest.raises(ValueError):
        perron(np.zeros((3, 0, 0)))
    with pytest.raises(ValueError):
        perron(np.array([[[0.0, 1.0], [0.5, 0.0]]]))


def test_perron_deterministic():
    q = signless_laplacian(clique_join(2, (5, 1)))
    a_value, a_vector, a_residual = perron(q)
    b_value, b_vector, b_residual = perron(q)
    assert a_value == b_value and a_residual == b_residual
    assert (a_vector == b_vector).all()


def test_extremal_rho_q_bracketed_by_cubic_signs():
    # the cubic x^3 - 20x^2 + 104x - 120 changes sign on [12, 13]
    poly = lambda x: x**3 - 20 * x**2 + 104 * x - 120
    assert poly(12) < 0 < poly(13)
    g = clique_join(2, (5, 1))
    value = rho_q(g)
    assert 12 < value < 13
    assert poly(value) == pytest.approx(0, abs=1e-6)


def test_wiener_values():
    for n in range(2, 7):
        assert wiener_index(clique_join(n, ())) == n * (n - 1) // 2
    assert wiener_index(path(3)) == 4
    assert wiener_index(path(4)) == 1 + 1 + 1 + 2 + 2 + 3 == 10
    g = clique_join(2, (5, 1))
    n, delta = 8, 2
    assert wiener_index(g) == (n * n + (2 * delta - 3) * n - 3 * delta**2 + 3 * delta) // 2 == 33
    with pytest.raises(DisconnectedGraphError):
        wiener_index(clique_join(0, (1, 1)))


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


def _brackets_in_python_ints(m, power, start=None):
    """perron_brackets' bounds from x = M^power start, start the all-ones
    vector by default, in Python ints that cannot wrap: (x'y / x'x,
    max y_i / x_i) as Fractions."""
    m = m.tolist()
    x = start or [1] * len(m)
    for _ in range(power):
        x = [sum(a * b for a, b in zip(row, x)) for row in m]
    y = [sum(a * b for a, b in zip(row, x)) for row in m]
    return (Fraction(sum(a * b for a, b in zip(x, y)), sum(a * a for a in x)),
            max(Fraction(b, a) for a, b in zip(x, y)))


def test_perron_brackets_hold_on_every_connected_graph_to_order_7():
    # lower <= rho <= upper for Q and D of all 995 connected graphs on 2..7
    # vertices, and they are the bounds exact integers give at power 3, or
    # from the eigenvector scaled to largest entry 2^52 and rounded, which
    # brackets rho within 1e-9
    for n in range(2, 8):
        graphs = load_bundled_corpus(n)
        for build, radii in ((_signless_laplacian_stack, rho_q_many),
                             (_distance_stack, rho_d_many)):
            stack = build(graphs)
            brackets = perron_brackets(stack)
            for m, rho, (lower, upper) in zip(stack, radii(graphs), brackets):
                assert lower[0] / lower[1] <= rho + 1e-9 <= upper[0] / upper[1] + 2e-9
                assert (Fraction(*lower), Fraction(*upper)) == _brackets_in_python_ints(m, 3)
            values, vectors, _ = perron(stack)
            for m, rho, v, (lower, upper) in zip(stack, values, vectors,
                                                 perron_brackets(stack, vectors)):
                x = [max(1, round(e / max(v) * 2.0**52)) for e in v.tolist()]
                assert max(x) == 2**52
                assert (Fraction(*lower), Fraction(*upper)) == _brackets_in_python_ints(m, 0, x)
                assert rho - 1e-9 <= Fraction(*lower) <= Fraction(*upper) <= rho + 1e-9


def test_perron_brackets_lower_the_power_per_matrix_before_int64_wraps():
    # the extremal graph at (160, 3) plus the edge (3, 158), with largest Q
    # row sum 318: n 318^7 passes 2^62 and n 318^5 does not, so its bounds
    # come from power 2, while C_160 (row sums 4) in the same stack keeps
    # power 3; a largest row sum of 2^31 leaves not even power 1
    g = Graph(160, clique_join(3, (155, 1, 1)).edges() + [(3, 158)])
    stack = _signless_laplacian_stack([g, cycle(160)])
    assert stack.sum(axis=2).max(axis=1).tolist() == [318, 4]
    brackets = perron_brackets(stack)
    for m, power, (lower, upper) in zip(stack, (2, 3), brackets):
        assert (Fraction(*lower), Fraction(*upper)) == _brackets_in_python_ints(m, power)
    assert brackets == perron_brackets(stack[:1]) + perron_brackets(stack[1:])
    lower, upper = brackets[0]
    assert lower[0] / lower[1] <= rho_q(g) <= upper[0] / upper[1]
    huge = np.full((2, 2, 2), 2**30, np.int64)
    huge[1] = 1
    assert perron_brackets(huge) == [None, ((256, 128), (16, 8))]  # rho = 2, at power 3
