"""Extremal family, thresholds, verdicts, Perron components, harness checks."""

import hashlib
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import partial
from random import Random

import numpy as np
import pytest

from evenfactor.corpus import bundled_corpus_lines, load_bundled_corpus
from evenfactor.graphs import (Graph, _component, clique_join, from_graph6, read_graph6,
                               to_graph6)
from evenfactor.oracle import CertificateStatus, find_even_factor, is_even_factor
from evenfactor.quotient import N, ROOT_TOL, S, eval_poly
from evenfactor.sampling import sample_connected_graphs
from evenfactor import cli, corpus, lemmas, sampling, theorems
from evenfactor.spectral import (_distance_stack, distance_matrix, perron, rho_d, rho_d_many,
                                 rho_q, rho_q_many, signless_laplacian, wiener_index)
from evenfactor.lemmas import (
    COMPARISON_EPSILON,
    CheckOutcome,
    check_d_threshold_below_bridged,
    check_d_threshold_floor,
    check_q_threshold_above_bridged,
    check_q_threshold_bracket,
    check_quotient_matches_matrix,
    perron_abc,
    run_property_suite,
)
from evenfactor.theorems import (
    Conclusion,
    VERDICT_CHUNK,
    TheoremKind,
    check_even_factor,
    check_even_factor_many,
    extremal_graph,
    extremal_table,
    extremal_wiener,
    order_bound,
    order_bound_grid,
    recognize_extremal,
    threshold,
)
from small_graphs import cycle, path

# the exact binary value of ROOT_TOL: a settling bound lies at least this
# far past the threshold's float
_TOL = Fraction(ROOT_TOL)
# the reference float rule (_float_rule): a guarantee needs rho this far
# past the threshold's float, and rho closer to it than this is borderline;
# the exact verdicts must agree with it wherever it places a graph
_FLOAT_BAND = 1e-8


def test_extremal_cell_rule():
    # a cell is delta >= 2 and n >= 2*delta, of either parity: (8, 1) has
    # delta 1 and (5, 3) an empty big clique, and every family function
    # applies that one rule
    for n, d in ((8, 1), (5, 3)):
        for build in (extremal_graph, extremal_wiener,
                      *(partial(theorems.extremal_cubic, kind) for kind in TheoremKind)):
            with pytest.raises(ValueError, match="need delta >= 2 and n >= 2\\*delta"):
                build(n, d)
        assert not recognize_extremal(Graph(n), d)
    assert extremal_graph(9, 2) == clique_join(2, (6, 1))
    assert extremal_graph(7, 3) == clique_join(3, (2, 1, 1))  # n = 2*delta + 1
    assert extremal_wiener(9, 2) == wiener_index(clique_join(2, (6, 1)))


def test_extremal_graph_shape():
    g = extremal_graph(8, 2)
    assert (g.n, g.edge_count) == (8, 23)
    assert sorted(g.degree(v) for v in range(8)) == [2, 6, 6, 6, 6, 6, 7, 7]
    assert g.min_degree() == 2 and g.is_connected()
    boundary = extremal_graph(6, 3)  # n = 2*delta
    assert boundary == clique_join(3, (1, 1, 1))
    assert boundary.min_degree() == 3
    g14 = extremal_graph(14, 3)
    assert g14 == clique_join(3, (9, 1, 1))


def test_thresholds_at_8_2():
    thr_q = threshold(TheoremKind.SIGNLESS_LAPLACIAN, 8, 2)
    assert 12 < thr_q < 13
    assert thr_q == pytest.approx(rho_q(extremal_graph(8, 2)), abs=1e-8)
    thr_d = threshold(TheoremKind.DISTANCE, 8, 2)
    assert 8 < thr_d < 9
    assert thr_d >= 8 + 2 - 3  # n + delta - 3
    assert thr_d == pytest.approx(rho_d(extremal_graph(8, 2)), abs=1e-8)


def test_threshold_brackets_on_grid():
    for d in range(2, 7):
        for n in range(max(2 * d + 2, 7 * d - 7 + (7 * d - 7) % 2), 41, 6):
            thr = threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, d)
            assert 2 * n - 2 * d < thr < 2 * n - d


def test_thresholds_from_the_smallest_order():
    # every cell from n = 2*delta up, where the brackets callers once chose
    # fell short; both thresholds are compared with the matrix
    for d in range(2, 13):
        for n in range(2 * d, 8 * d + 9, 2):
            thr_q = threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, d)
            thr_d = threshold(TheoremKind.DISTANCE, n, d)
            assert thr_q > thr_d > 0
            g = extremal_graph(n, d)
            assert abs(thr_q - rho_q(g)) < COMPARISON_EPSILON, (n, d)
            assert abs(thr_d - rho_d(g)) < COMPARISON_EPSILON, (n, d)


def test_thresholds_match_golden_digest():
    # every threshold float, bit for bit, at delta = 2..20 and n = 2*delta..160,
    # odd n included: 2,641 cells, both kinds
    digest = hashlib.sha256()
    for d in range(2, 21):
        for n in range(2 * d, 161):
            for kind in TheoremKind:
                digest.update(f"{kind.value} {n} {d} {threshold(kind, n, d).hex()}\n".encode())
    assert digest.hexdigest() == \
        "1058bffa06e90f765d4db4c7dc66721e6487c5dcd3a83fbacf5b5c3ec79029a8"


@pytest.mark.parametrize("n,d", [(200, 12), (400, 5), (162, 20)])
def test_thresholds_match_the_matrix_beyond_the_acceptance_grid(n, d):
    # the certified cubic roots are the extremal graph's spectral radii at
    # orders and degrees past the n <= 60 grid of the acceptance criteria
    g = extremal_graph(n, d)
    assert abs(threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, d) - rho_q(g)) < COMPARISON_EPSILON
    assert abs(threshold(TheoremKind.DISTANCE, n, d) - rho_d(g)) < COMPARISON_EPSILON


def test_order_bounds_exact_rational():
    assert order_bound(TheoremKind.SIGNLESS_LAPLACIAN, 2) == 8
    assert order_bound(TheoremKind.SIGNLESS_LAPLACIAN, 3) == 14
    assert order_bound(TheoremKind.SIGNLESS_LAPLACIAN, 5) == Fraction(28)
    assert order_bound(TheoremKind.DISTANCE, 2) == 9
    assert order_bound(TheoremKind.DISTANCE, 6) == 41
    # the quadratic branch wins for large delta
    assert order_bound(TheoremKind.SIGNLESS_LAPLACIAN, 30) == Fraction(900, 4) + 15 + 6
    assert order_bound(TheoremKind.DISTANCE, 30) == 300 + 3
    # the CLI names the deltas an --n-max drops from the lemma grids by the
    # distance grid alone, which relies on its bound never being the lower
    for delta in range(2, 51):
        assert (order_bound(TheoremKind.DISTANCE, delta)
                >= order_bound(TheoremKind.SIGNLESS_LAPLACIAN, delta))


def test_recognize_extremal():
    for n, d in [(8, 2), (12, 3), (14, 3), (6, 3), (4, 2)]:
        g = extremal_graph(n, d)
        assert recognize_extremal(g, d), (n, d)
    assert not recognize_extremal(clique_join(8, ()), 2)
    assert not recognize_extremal(cycle(8), 2)
    assert not recognize_extremal(extremal_graph(8, 2), 3)


def test_recognize_extremal_finds_one_bundled_graph_per_cell():
    # the bundled corpora hold every connected graph up to isomorphism, so
    # the degree-sequence test must pick out exactly one at each (n, delta)
    for n in range(4, 9):
        corpus = load_bundled_corpus(n)
        for d in range(2, n // 2 + 1):
            found = [g for g in corpus if recognize_extremal(g, d)]
            assert len(found) == 1, (n, d)
            if n % 2 == 0:
                thr = threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, d)
                assert abs(rho_q(found[0]) - thr) < COMPARISON_EPSILON, (n, d)


def test_recognize_extremal_rejects_nearby_rewirings():
    # No degree-preserving 2-swap exists on this family (the join vertices
    # are degree-maxed and a swap inside a clique is a no-op), so the
    # rejected perturbations necessarily move the degree sequence slightly.
    g = extremal_graph(10, 3)
    edges = g.edges()
    joins, bigs, singles = (0, 1, 2), (3, 4, 5, 6, 7), (8, 9)
    # trade a big-clique edge for a big-singleton edge (same edge count)
    swapped = Graph(g.n, [e for e in edges if e != (bigs[0], bigs[1])]
                    + [(bigs[0], singles[0])])
    assert g.edge_count == swapped.edge_count
    assert not recognize_extremal(swapped, 3)
    # rewire a singleton from one join vertex to a big-clique vertex
    rewired = Graph(g.n, [e for e in edges if e != (joins[0], singles[0])]
                    + [(bigs[0], singles[0])])
    assert not recognize_extremal(rewired, 3)
    # drop one singleton-join edge entirely
    dropped = Graph(g.n, [e for e in edges if e != (joins[0], singles[0])])
    assert not recognize_extremal(dropped, 3)


def _less_edge(g, edge):
    return Graph(g.n, [e for e in g.edges() if e != edge])


# 3-regular prisms C_k x K_2 at the order bounds for delta = 3 (14 for
# rho_Q, 17 for rho_D): the 7-prism and the 9-prism
PRISM_7 = "MhCKK@@GG_`@@@?o_"
PRISM_9 = "QhCGGE@_A?c@C@A?__GC@?OC?oG"


def test_check_q_on_extremal_and_simple_graphs():
    # at delta = 2 the sandwich lemma settles every graph with no bound: the
    # extremal graph is borderline and oracle-checked, any other is
    # inconclusive, and neither is eigen-solved
    star = extremal_graph(8, 2)
    v = check_even_factor(star, TheoremKind.SIGNLESS_LAPLACIAN)
    assert v.conclusion is Conclusion.EXTREMAL_EXCEPTION
    assert v.borderline and v.rung is None  # sits exactly on the threshold
    assert v.oracle_status is CertificateStatus.FOUND
    assert v.spectral_value is None and v.bound is None
    for g in (cycle(8), _less_edge(star, (2, 3))):
        v2 = check_even_factor(g, TheoremKind.SIGNLESS_LAPLACIAN)
        assert (v2.conclusion, v2.rung, v2.bound, v2.spectral_value, v2.oracle_status) == (
            Conclusion.INCONCLUSIVE, "sandwich", None, None, None)
        assert v2.threshold == threshold(TheoremKind.SIGNLESS_LAPLACIAN, 8, 2)
        assert not v2.borderline

    # the 7-prism: rho_Q <= 2 Delta = 6 lies far below the (14, 3)
    # threshold, so the x = 1 bound settles it with no matrix
    v2 = check_even_factor(from_graph6(PRISM_7), TheoremKind.SIGNLESS_LAPLACIAN)
    assert (v2.min_degree, v2.spectral_value, v2.bound, v2.rung) == (3, None, (6, 1), "row-sums")
    assert v2.threshold == threshold(TheoremKind.SIGNLESS_LAPLACIAN, 14, 3)
    assert v2.conclusion is Conclusion.INCONCLUSIVE
    assert not v2.borderline and v2.oracle_status is None
    # the (14, 3) extremal graph less a big-clique edge keeps Delta = 13,
    # and 2 Delta = 26 lies above the threshold, but the Collatz-Wielandt
    # upper bound lies below it, and above rho_Q = 22.408
    less = _less_edge(extremal_graph(14, 3), (3, 4))
    v5 = check_even_factor(less, TheoremKind.SIGNLESS_LAPLACIAN)
    assert (v5.min_degree, v5.spectral_value, v5.rung) == (3, None, "power")
    assert rho_q(less) == pytest.approx(22.408323401814165, abs=1e-9)
    assert rho_q(less) <= Fraction(*v5.bound) <= Fraction(v5.threshold) - _TOL
    assert v5.conclusion is Conclusion.INCONCLUSIVE and not v5.borderline

    v3 = check_even_factor(clique_join(8, ()), TheoremKind.SIGNLESS_LAPLACIAN)
    assert v3.conclusion is Conclusion.NOT_APPLICABLE  # delta=7 needs n >= 42
    assert v3.min_degree == 7 and theorems.min_order(TheoremKind.SIGNLESS_LAPLACIAN, 7) == 42

    v4 = check_even_factor(cycle(7), TheoremKind.SIGNLESS_LAPLACIAN)
    assert v4.conclusion is Conclusion.NOT_APPLICABLE  # odd order
    assert (v4.n, v4.min_degree, v4.threshold, v4.borderline, v4.rung) == (7, 2, None, False, None)


def test_check_d_direction():
    star = extremal_graph(10, 2)
    v = check_even_factor(star, TheoremKind.DISTANCE)
    assert v.conclusion is Conclusion.EXTREMAL_EXCEPTION and v.borderline
    # sparser graph: rho_D grows, condition fails; at delta = 2 the
    # sandwich lemma says so with no bound
    v2 = check_even_factor(cycle(10), TheoremKind.DISTANCE)
    assert (v2.conclusion, v2.rung, v2.bound) == (Conclusion.INCONCLUSIVE, "sandwich", None)
    assert not v2.borderline
    # the 9-prism: the bound rho_D >= 2(n(n - 1) - m)/n = 558/18 = 31
    # already lies above the (18, 3) threshold
    v2 = check_even_factor(from_graph6(PRISM_9), TheoremKind.DISTANCE)
    assert v2.min_degree == 3 and v2.conclusion is Conclusion.INCONCLUSIVE
    assert (v2.spectral_value, v2.bound, v2.rung) == (None, (558, 18), "row-sums")
    assert Fraction(*v2.bound) == 31 > v2.threshold and not v2.borderline
    # the (18, 3) extremal graph less a big-clique edge: the bound
    # 2(306 - m)/18 does not clear the threshold, but its bracket's lower
    # bound does, and lies below its rho_D
    less = _less_edge(extremal_graph(18, 3), (3, 4))
    v4 = check_even_factor(less, TheoremKind.DISTANCE)
    assert v4.spectral_value is None and v4.conclusion is Conclusion.INCONCLUSIVE
    assert v4.rung == "power"
    assert Fraction(v4.threshold) + _TOL <= Fraction(*v4.bound) <= rho_d(less)
    assert not v4.borderline and v4.oracle_status is None
    # complete graph of even order: delta = n-1 fails the order bound
    v3 = check_even_factor(clique_join(10, ()), TheoremKind.DISTANCE)
    assert v3.conclusion is Conclusion.NOT_APPLICABLE


def test_guaranteed_conclusion_exists_and_oracle_agrees():
    # the extremal graph at (16, 2) plus an edge from the big clique's
    # vertex 2 to the singleton 15: delta rises to 3, and rho_Q = 28.24
    # clears the (16, 3) threshold 26.55, so the Q condition guarantees a
    # factor
    base = extremal_graph(16, 2)
    g = Graph(base.n, base.edges() + [(2, base.n - 1)])
    v = check_even_factor(g, TheoremKind.SIGNLESS_LAPLACIAN)
    assert v.min_degree == 3
    assert v.conclusion is Conclusion.EVEN_FACTOR_GUARANTEED
    assert v.oracle_status is CertificateStatus.FOUND
    assert v.oracle_agrees is True


def test_perron_abc_matches_general_eigensolver():
    for n, d in [(8, 2), (14, 3), (30, 4), (26, 3)]:
        res = perron_abc(n, d)
        quotient = np.array([
            [n - 2 * d, d, 2 * (d - 1)],
            [n - 2 * d + 1, d - 1, d - 1],
            [2 * (n - 2 * d + 1), d, 2 * (d - 2)],
        ], dtype=float)
        w, vec = np.linalg.eig(quotient)
        i = int(np.argmax(w.real))
        v = vec[:, i].real
        v = v / v[0]
        assert res.rho == pytest.approx(float(w.real[i]), abs=1e-8)
        assert res.b == pytest.approx(float(v[1]), abs=1e-8)
        assert res.c == pytest.approx(float(v[2]), abs=1e-8)
        assert res.system_residual <= 1e-8
        assert res.ratio_residual <= 1e-10


def test_perron_positivity_and_spec_points():
    res = perron_abc(8, 2)
    assert 2 * res.b - res.a > 0
    res2 = perron_abc(14, 3)
    assert res2.ratio_residual <= 1e-10
    # closed form for the margin: (2n - 3 delta + 2) / (2 rho - delta + 2)
    for n, d in [(18, 3), (26, 4), (34, 5)]:
        r = perron_abc(n, d)
        expected = (2 * n - 3 * d + 2) / (2 * r.rho - d + 2)
        assert 2 * r.b - r.a == pytest.approx(expected, abs=1e-9)
        assert 2 * r.b - r.a > 0


def test_extremal_wiener_closed_form():
    from evenfactor.spectral import wiener_index

    for n, d in [(8, 2), (12, 3), (20, 4), (30, 5)]:
        assert wiener_index(extremal_graph(n, d)) == extremal_wiener(n, d)


def test_extremal_graph_at_odd_orders():
    # every odd-order cell with delta = 2..15 and n = 2*delta + 1..8*delta + 9:
    # the graph is recognized, its Wiener index is the closed form, both
    # thresholds are its spectral radii, and the parity repair finds an even
    # factor with no search node
    cells = [(n, d) for d in range(2, 16) for n in range(2 * d + 1, 8 * d + 10, 2)]
    assert len(cells) == 427
    for n, d in cells:
        g = extremal_graph(n, d)
        assert recognize_extremal(g, d), (n, d)
        assert wiener_index(g) == extremal_wiener(n, d), (n, d)
        assert abs(rho_q(g) - threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, d)) < 1e-8, (n, d)
        assert abs(rho_d(g) - threshold(TheoremKind.DISTANCE, n, d)) < 1e-8, (n, d)
        cert = find_even_factor(g)
        assert (cert.status, cert.nodes_explored) == (CertificateStatus.FOUND, 0), (n, d)


def test_extremal_graph_even_factor_certificates():
    # every cell with delta = 2..11 and even n = 2*delta..60, n = 2*delta
    # included, where the big clique is K_1
    for d in range(2, 12):
        for n in range(2 * d, 61, 2):
            g = extremal_graph(n, d)
            cert = find_even_factor(g)
            assert cert.status is CertificateStatus.FOUND, (n, d)
            assert is_even_factor(g, cert.edges), (n, d)


def test_join_family_dominance_spec_instance():
    # n=12, s=2, p=1, t=2: concentrating K_5 u K_5 into K_9 u K_1
    spread = clique_join(2, (5, 5))
    packed = clique_join(2, (9, 1))
    assert rho_q(spread) < rho_q(packed)
    assert rho_d(spread) > rho_d(packed)


def test_rho_d_complete_graph_equality_case():
    from evenfactor.spectral import wiener_index

    for n in (3, 5, 8):
        g = clique_join(n, ())
        assert rho_d(g) == pytest.approx(2 * wiener_index(g) / n, abs=1e-9)
        assert rho_d(g) == pytest.approx(n - 1, abs=1e-9)


def test_property_suite_all_pass():
    outcomes = run_property_suite(
        seed=2024, trials=60, delta_range=(2, 5), n_max=34,
        corpus_max_n=5, oracle_max_n=6,
    )
    assert outcomes
    assert [o for o in outcomes if not o.passed] == []
    names = {o.check for o in outcomes}
    assert "q-threshold-bracket" in names and "d-blocks-rayleigh-gap" in names
    assert {"q-threshold-above-2n-2delta", "d-threshold-below-bridged"} <= names
    assert {"wiener-lower-bound", "q-max-degree-bound"} <= names


def test_bound_checks_cover_both_links_of_the_bound_chain(monkeypatch):
    graphs = [g for n in range(1, 7) for g in load_bundled_corpus(n)]
    for check in (lemmas.check_wiener_bound, lemmas.check_q_max_degree_bound):
        outcomes = check(graphs)
        assert len(outcomes) == 143 and all(o.passed for o in outcomes)
    # regular graphs meet rho_Q = 2 Delta: K_4, C_5 and K_6 among them
    tight = [o for o in lemmas.check_q_max_degree_bound(graphs) if abs(o.margin) < 1e-9]
    assert len(tight) >= 3
    # distances one short: W < n(n - 1) - m fails, rho_D >= 2W/n still holds
    monkeypatch.setattr(lemmas, "_distance_stack",
                        lambda graphs: np.maximum(_distance_stack(graphs) - 1, 0))
    (bad,) = lemmas.check_wiener_bound([path(4)])
    assert not bad.passed and bad.margin > 0
    assert bad.note == "W=4 < n(n-1)-m=9"


def last_coefficient_shifted(coeffs, by=1):
    return lambda *args: coeffs(*args)[:-1] + (coeffs(*args)[-1] + by,)


def test_q_threshold_above_bridged_graphs(monkeypatch):
    # rho_Q(extremal) > 2n - 2delta > rho_Q of any bridged graph, proved
    # once for every n > delta >= 2, far below the order bound
    (outcome,) = check_q_threshold_above_bridged()
    assert outcome.passed and outcome.point == "all n > delta >= 2"
    assert run_property_suite(delta_range=(3, 3), n_max=12,
                              checks={"q-threshold-above-2n-2delta"}) == [outcome]
    monkeypatch.setattr(lemmas, "_q_clique_star_coeffs",
                        last_coefficient_shifted(lemmas._q_clique_star_coeffs, -1))
    assert check_q_threshold_above_bridged()[0].passed is False


def test_q_threshold_bracket_is_proved_from_the_order_bound(monkeypatch):
    # 2n - 2delta < rho_Q(extremal) < 2n - delta, proved once for every
    # delta >= 2 and n >= 7delta - 7, whatever the grid
    (outcome,) = check_q_threshold_bracket()
    assert outcome.passed and outcome.point == "all delta >= 2, n >= 7delta - 7"
    assert run_property_suite(delta_range=(3, 3), n_max=12,
                              checks={"q-threshold-bracket"}) == [outcome]
    # the lower half is the bridged proof's: the bracket fails with it
    (lower,) = check_q_threshold_above_bridged()
    with monkeypatch.context() as m:
        m.setattr(lemmas, "check_q_threshold_above_bridged",
                  lambda: [CheckOutcome(lower.check, lower.point, False, 0.0)])
        assert check_q_threshold_bracket()[0].passed is False
    # the upper half fails alone: c_Q(x) - 6x^2 has its largest root above
    # 2n - delta = 14 at (8, 2)
    coeffs = lemmas._q_clique_star_coeffs
    perturbed = lambda n, t: (coeffs(n, t)[0] - 6,) + coeffs(n, t)[1:]
    assert max(np.roots((1,) + perturbed(8, 2)).real) > 14
    monkeypatch.setattr(lemmas, "check_q_threshold_above_bridged", lambda: [lower])
    monkeypatch.setattr(lemmas, "_q_clique_star_coeffs", perturbed)
    assert check_q_threshold_bracket()[0].passed is False


def test_bridged_graphs_lie_above_the_d_threshold():
    # K_{delta+1} -xy- K_{n-delta-1}, the bridged graph of least 2W/n, whose
    # 2W/n is the U of the d-threshold-below-bridged proof
    for n, d in ((8, 3), (20, 5), (62, 10)):
        bridged = Graph(n, clique_join(0, (d + 1, n - d - 1)).edges() + [(d, d + 1)])
        w = wiener_index(bridged)
        assert bridged.min_degree() == d and 2 * w == lemmas.bridged_wiener_twice(n, d + 1)
        assert rho_d(bridged) >= 2 * w / n > threshold(TheoremKind.DISTANCE, n, d)


def test_d_threshold_below_bridged_graphs(monkeypatch):
    (outcome,) = check_d_threshold_below_bridged()
    assert outcome.passed and outcome.point == "all delta >= 3, n >= 2delta + 2"
    # c_D(x) - 6x^2 is negative at U = 13 at (8, 3), so its largest root
    # lies above U there and the claim fails
    coeffs = lemmas._d_clique_star_coeffs
    perturbed = lambda n, t: (coeffs(n, t)[0] - 6,) + coeffs(n, t)[1:]
    assert np.polyval((1,) + perturbed(8, 3), 13) < 0
    monkeypatch.setattr(lemmas, "_d_clique_star_coeffs", perturbed)
    assert check_d_threshold_below_bridged()[0].passed is False


def test_delta2_sandwich_lemma(monkeypatch):
    # one point per connected graph of order 4..8 with delta = 2, odd orders
    # included: 5,262 graphs, one extremal graph per order; exact brackets
    # separate every other one from both thresholds, on the side away from
    # the condition
    graphs = [g for n in range(1, 9) for g in load_bundled_corpus(n)]
    outcomes = lemmas.check_delta2_sandwich(graphs)
    assert len(outcomes) == 5262 and all(o.passed for o in outcomes)
    assert run_property_suite(corpus_max_n=8, checks={"delta2-sandwich"}) == outcomes
    extremal = [o for o in outcomes if o.margin == 1.0]
    assert [o.point.split(",")[1] for o in extremal] == [f"n={n}" for n in range(4, 9)]
    assert min(o.margin for o in outcomes) > 0
    # a recognizer blind to the extremal graph fails it on every order, and
    # bounds read as meeting the condition fail every other graph
    with monkeypatch.context() as m:
        m.setattr(lemmas, "recognize_extremal", lambda g, delta: False)
        failed = [o for o in lemmas.check_delta2_sandwich(graphs) if not o.passed]
        assert [o.point for o in failed] == [o.point for o in extremal]
    monkeypatch.setattr(theorems, "_settle", lambda q_side, cutoffs, lower, upper: (lower, True))
    failed = [o for o in lemmas.check_delta2_sandwich(graphs) if not o.passed]
    assert len(failed) == 5262 - 5
    assert {o.note for o in failed} == {"a bracket puts rho on the condition's side"}


def test_d_threshold_floor_is_proved_from_the_order_bound(monkeypatch):
    # rho_D(extremal) > n + delta - 3, proved once for every delta >= 2 and
    # n >= 8delta - 7, whatever the grid
    (outcome,) = check_d_threshold_floor()
    assert outcome.passed and outcome.point == "all delta >= 2, n >= 8delta - 7"
    assert run_property_suite(delta_range=(3, 3), n_max=12,
                              checks={"d-threshold-floor"}) == [outcome]
    # the proof needs the order bound: from n = 2delta + k the cubic's value
    # at n + delta - 3 has positive terms in j = delta - 2, and the floor is
    # false at (8, 4) and (16, 7)
    j, k = S, N
    d, n = 2 + j, 4 + 2 * j + k  # n = 2d + k
    below = eval_poly((1,) + lemmas._d_clique_star_coeffs(n, d), n + d - 3)
    assert below.terms[(0, 2, 0)] == 5 and below.terms[(0, 3, 0)] == 3
    for n, d in ((8, 4), (16, 7)):
        assert threshold(TheoremKind.DISTANCE, n, d) < n + d - 3
    # a cubic whose constant is 151 larger is positive at n + delta - 3 = 8
    # at (9, 2), and the check fails
    monkeypatch.setattr(lemmas, "_d_clique_star_coeffs",
                        last_coefficient_shifted(lemmas._d_clique_star_coeffs, 151))
    assert check_d_threshold_floor()[0].passed is False


def test_symbolic_lemmas_fail_on_perturbed_inputs(monkeypatch):
    # a Q block cubic off by one misses the expected s = 2 tuple, a D one
    # equal to it must not match, and a gap off by one misses its expansion
    perturbed = [(lemmas.check_blocks_cubic_s2, "_q_blocks_coeffs",
                  last_coefficient_shifted(lemmas._q_blocks_coeffs)),
                 (lemmas.check_blocks_cubic_s2, "_d_blocks_coeffs", lemmas._q_blocks_coeffs)]
    perturbed += [(lemmas.check_gap_polynomial_expansions, name,
                   last_coefficient_shifted(getattr(lemmas, name)))
                  for name in ("q_block_gap_coeffs", "d_block_gap_coeffs", "q_block_gap_s2_coeffs")]
    for check, name, wrong in perturbed:
        assert check()[0].passed
        with monkeypatch.context() as m:
            m.setattr(lemmas, name, wrong)
            assert not check()[0].passed, name


def test_property_suite_check_filter_and_determinism():
    for checks in ({"q-monotone-edge-add"}, {"q-family-dominance"}):
        r1 = run_property_suite(seed=5, trials=10, checks=checks)
        r2 = run_property_suite(seed=5, trials=10, checks=checks)
        assert [o.__dict__ for o in r1] == [o.__dict__ for o in r2]
        assert {o.check for o in r1} == checks


def test_check_even_factor_many_matches_per_graph_verdicts():
    # orders 6, 7 and 8 interleaved, so every chunk stacks several orders
    corpora = [load_bundled_corpus(n)[:120] for n in (6, 7, 8)]
    graphs = [g for triple in zip(*corpora) for g in triple]
    graphs += [extremal_graph(8, 2), Graph(0),
               clique_join(0, (3, 3))]
    assert len(graphs) > 3 * VERDICT_CHUNK
    for kind, rho in ((TheoremKind.SIGNLESS_LAPLACIAN, rho_q),
                      (TheoremKind.DISTANCE, rho_d)):
        batched = list(check_even_factor_many(graphs, kind))
        single = [check_even_factor(g, kind) for g in graphs]
        assert batched == single
        for g, v in zip(graphs, batched):
            if v.spectral_value is not None:
                assert v.spectral_value == rho(g)
    assert batched[-1].spectral_value is None  # rho_D of a disconnected graph
    assert batched[-2].spectral_value is None  # the 0-vertex graph


def test_check_even_factor_many_eigen_solves_only_admitted_graphs(monkeypatch):
    solved = []

    def recording(m):
        solved.extend(m.tolist())
        return perron(m)

    monkeypatch.setattr(theorems, "perron", recording)
    two_c4 = Graph(8, [(i + j, i + (j + 1) % 4) for i in (0, 4) for j in range(4)])
    refused = [clique_join(8, ()), cycle(7), two_c4, Graph(0)]
    # the order bound is 8 for rho_Q and 9 for rho_D at delta = 2, 14 and 17
    # at delta = 3. At delta = 2 the sandwich lemma settles the cycle and
    # the extremal graph's one-edge deletion, and leaves the extremal graph
    # borderline, all three with no eigen-solve. At delta = 3 the prism is
    # settled by its x = 1 bound, the extremal graph's one-edge deletion by
    # its M^3 1 bracket, and the extremal graph is left to the eigen-solve,
    # whose eigenvector bracket cannot settle it either; with no M^3 1
    # bracket, the deletion is eigen-solved too, and its eigenvector bracket
    # settles it with the same verdict
    brackets = theorems.perron_brackets
    for kind, n, prism in ((TheoremKind.SIGNLESS_LAPLACIAN, 8, PRISM_7),
                           (TheoremKind.DISTANCE, 10, PRISM_9)):
        matrix = signless_laplacian if kind is TheoremKind.SIGNLESS_LAPLACIAN else distance_matrix
        star2 = extremal_graph(n, 2)
        prism = from_graph6(prism)
        star = extremal_graph(prism.n, 3)
        graphs = refused + [cycle(n), _less_edge(star2, (2, 3)), star2,
                            prism, _less_edge(star, (3, 4)), star]
        solved.clear()
        verdicts = list(check_even_factor_many(graphs, kind))
        assert solved == [matrix(star).tolist()]
        assert [v.spectral_value is None for v in verdicts] == [True] * 9 + [False]
        assert [v.rung for v in verdicts] == (
            [None] * 4 + ["sandwich"] * 2 + [None, "row-sums", "power", None])
        assert [v.bound is not None for v in verdicts] == [False] * 7 + [True] * 2 + [False]
        assert [v.borderline for v in verdicts] == [False] * 6 + [True] + [False] * 2 + [True]
        radius = rho_q if kind is TheoremKind.SIGNLESS_LAPLACIAN else rho_d
        for g, v in zip(graphs[7:9], verdicts[7:9]):
            _assert_bound_side(v, radius(g))
        with monkeypatch.context() as m:
            m.setattr(theorems, "perron_brackets", lambda stack, vectors=None: (
                [None] * len(stack) if vectors is None else brackets(stack, vectors)))
            solved.clear()
            unbracketed = list(check_even_factor_many(graphs, kind))
        assert solved == [matrix(g).tolist() for g in graphs[-2:]]
        assert [v.conclusion for v in unbracketed] == [v.conclusion for v in verdicts]
        assert unbracketed[:8] == verdicts[:8] and unbracketed[-1] == verdicts[-1]
        deletion = unbracketed[-2]
        assert deletion.spectral_value == radius(graphs[-2]) and deletion.bound is not None
        assert deletion.rung == "eigenvector"
        _assert_bound_side(deletion, deletion.spectral_value)
    v = check_even_factor(clique_join(8, ()), TheoremKind.SIGNLESS_LAPLACIAN)
    assert v.conclusion is Conclusion.NOT_APPLICABLE
    assert v.spectral_value is None and v.threshold is None


def test_connectivity_is_tested_after_the_constant_time_tests(monkeypatch):
    # even order, delta >= 2 and the order bound come before the flood: of
    # the 11,117 connected 8-vertex graphs, the Q bound (8 at delta = 2, 14
    # at delta = 3) admits the 4,853 with delta = 2 and the D bound (9 at
    # delta = 2) none; the D bound admits the 984 of the 3,000 seed-1
    # n = 10 samples with delta = 2. The bundled corpus and the sampler
    # hand each graph its connectivity, so none of theirs is flooded; the
    # same corpus lines through read_graph6 carry none, and flood
    q, d = TheoremKind.SIGNLESS_LAPLACIAN, TheoremKind.DISTANCE
    corpus = load_bundled_corpus(8)
    decoded = list(read_graph6(bundled_corpus_lines(8)))
    assert decoded == corpus
    samples = list(sample_connected_graphs(Random(1), 10, 3000))
    floods, searches = [], []

    def counting(bits, start, alive):
        floods.append(bits)
        return _component(bits, start, alive)

    monkeypatch.setattr("evenfactor.graphs._component", counting)
    for graphs, kind, flooded in ((corpus, q, 0), (decoded, q, 4853), (corpus, d, 0),
                                  (samples, d, 0)):
        floods.clear()
        assert len(list(check_even_factor_many(graphs, kind))) == len(graphs)
        assert len(floods) == flooded
    # a graph floods once, however often it is asked
    floods.clear()
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert path.is_connected() and path.is_connected()
    assert len(floods) == 1
    # a disconnected graph that passes every O(1) test is still
    # not-applicable, with no threshold, no bound and no oracle run
    monkeypatch.setattr(theorems, "even_factor_status", searches.append)
    for k, kind in ((4, q), (5, d)):
        two_cycles = Graph(2 * k, [(i + j, i + (j + 1) % k) for i in (0, k) for j in range(k)])
        assert two_cycles.min_degree() == 2 and 2 * k >= theorems.min_order(kind, 2)
        floods.clear()
        [v] = check_even_factor_many([two_cycles], kind)
        assert floods == [two_cycles._bits]
        assert (v.conclusion, v.threshold, v.bound, v.spectral_value, v.oracle_status) == (
            Conclusion.NOT_APPLICABLE, None, None, None, None)
        assert not v.borderline
    assert searches == []


def _assert_bound_side(v, rho):
    """A bound-settled verdict's bound lies on the side of the threshold its
    conclusion names, at least ROOT_TOL past the threshold's float, and on
    the same side of rho: a lower bound where rho lies above the threshold."""
    bound, threshold = Fraction(*v.bound), Fraction(v.threshold)
    assert not v.borderline
    above = ((v.conclusion is Conclusion.EVEN_FACTOR_GUARANTEED)
             == (v.kind is TheoremKind.SIGNLESS_LAPLACIAN))
    if above:
        assert threshold + _TOL <= bound and bound <= rho + 1e-9
    else:
        assert bound <= threshold - _TOL and rho <= bound + 1e-9


def _float_rule(g, v, rho):
    """(conclusion, borderline, oracle status) that the float rule gives g
    from its rho: the extremal graph by recognition, a guarantee when rho
    lies at least _FLOAT_BAND past the threshold on the theorem's side,
    inconclusive otherwise, borderline within _FLOAT_BAND of it, and the
    oracle run on every verdict but a non-borderline inconclusive one."""
    margin = rho - v.threshold if v.kind is TheoremKind.SIGNLESS_LAPLACIAN else v.threshold - rho
    borderline = abs(margin) < _FLOAT_BAND
    if recognize_extremal(g, v.min_degree):
        conclusion = Conclusion.EXTREMAL_EXCEPTION
    elif margin >= _FLOAT_BAND:
        conclusion = Conclusion.EVEN_FACTOR_GUARANTEED
    else:
        conclusion = Conclusion.INCONCLUSIVE
    checked = conclusion is not Conclusion.INCONCLUSIVE or borderline
    return conclusion, borderline, find_even_factor(g).status if checked else None


def _assert_eigen_path_verdicts(graphs, kind, verdicts):
    """Each verdict is the float rule's on g's own eigen-solve (conclusion,
    borderline flag and oracle status) wherever that rule can place g: rho
    at least _FLOAT_BAND from the threshold, or g the extremal graph. A
    bound-settled verdict has its bound on the right side, an eigen-solved
    one carries rho, a sandwich one has delta = 2 and neither, and one no
    rung settles is borderline; returns the verdicts' rungs, counted."""
    radii = rho_q_many if kind is TheoremKind.SIGNLESS_LAPLACIAN else rho_d_many
    rungs = Counter()
    for g, v in zip(graphs, verdicts):
        rho = float(radii([g])[0])
        if abs(rho - v.threshold) >= _FLOAT_BAND or recognize_extremal(g, v.min_degree):
            assert (v.conclusion, v.borderline, v.oracle_status) == _float_rule(g, v, rho)
        assert v.spectral_value in (None, rho)
        rungs[v.rung] += 1
        if v.bound is not None:
            _assert_bound_side(v, rho)
            assert v.rung in ("row-sums", "power", "eigenvector")
            assert (v.rung == "eigenvector") == (v.spectral_value is not None)
        elif v.rung == "sandwich":
            assert v.min_degree == 2 and v.conclusion is Conclusion.INCONCLUSIVE
            assert (v.spectral_value, v.oracle_status) == (None, None) and not v.borderline
        else:
            assert v.rung is None and v.borderline and v.oracle_status is not None
            # an eigen-solve runs on no delta = 2 graph
            assert (v.spectral_value == rho) == (v.min_degree > 2)
    return rungs


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_sandwich_gives_the_eigen_path_verdicts(kind, monkeypatch):
    # every graph of the criterion 4 sweep (all 4,853 n = 8 graphs with
    # delta = 2) and of the benchmark's distance sweep (3,000 seed-1 n = 10
    # samples, 984 of them applicable, all with delta = 2), judged by the
    # sandwich lemma with every matrix build, bracket and eigen-solve
    # refused, and again from its own eigen-solve by the float rule; the
    # oracle runs on the extremal graph alone, which only the n = 8 corpus
    # holds
    if kind is TheoremKind.SIGNLESS_LAPLACIAN:
        graphs = [g for g in load_bundled_corpus(8) if g.min_degree() == 2]
        applicable, extremal = 4853, 1
    else:
        graphs = list(sample_connected_graphs(Random(1), 10, 3000))
        applicable, extremal = 984, 0

    def refused(*args):
        raise AssertionError("a delta = 2 graph reached a matrix")

    for name in ("_signless_laplacian_stack", "_distance_stack", "perron_brackets", "perron"):
        monkeypatch.setattr(theorems, name, refused)
    searched = []
    search = theorems.even_factor_status
    monkeypatch.setattr(theorems, "even_factor_status", lambda g: searched.append(g) or search(g))
    verdicts = list(check_even_factor_many(graphs, kind))
    monkeypatch.undo()
    met = [(g, v) for g, v in zip(graphs, verdicts)
           if v.conclusion is not Conclusion.NOT_APPLICABLE]
    assert len(met) == applicable
    assert len(searched) == extremal and all(recognize_extremal(g, 2) for g in searched)
    rungs = _assert_eigen_path_verdicts([g for g, _ in met], kind, [v for _, v in met])
    assert rungs == Counter({"sandwich": applicable - extremal, None: extremal})


def test_shared_verdicts_equal_fresh_ones():
    # a not-applicable or sandwich verdict depends on (kind, n, delta) alone,
    # and one object per cell serves a whole call; each equals, field by
    # field, the verdict built for that graph by hand
    corpora = [load_bundled_corpus(n) for n in (6, 7, 8)]
    graphs = [g for corpus in corpora for g in corpus[:300]] + [Graph(0), cycle(8)]
    graphs += sample_connected_graphs(Random(1), 10, 300)
    for kind in TheoremKind:
        verdicts = list(check_even_factor_many(graphs, kind))
        shared = [(g, v) for g, v in zip(graphs, verdicts)
                  if v.rung == "sandwich" or v.conclusion is Conclusion.NOT_APPLICABLE]
        cells = {(v.n, v.min_degree, v.rung) for _, v in shared}
        assert len({id(v) for _, v in shared}) == len(cells) < len(shared)
        assert any(v.rung == "sandwich" for _, v in shared)
        for g, v in shared:
            n, delta = g.n, g.min_degree()
            if v.rung == "sandwich":
                fresh = theorems.TheoremVerdict(kind, n, delta, None, threshold(kind, n, delta),
                                                Conclusion.INCONCLUSIVE, None, None, "sandwich")
            else:
                fresh = theorems.TheoremVerdict(kind, n, delta, None, None,
                                                Conclusion.NOT_APPLICABLE, None, None, None)
            assert [getattr(v, f.name) for f in fields(v)] == [
                getattr(fresh, f.name) for f in fields(fresh)]
        # a cell's verdict lives as long as one call
        again = list(check_even_factor_many(graphs[-3:], kind))
        assert all(a is not b for a, b in zip(again, verdicts[-3:]))


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_judge_blocks_gives_the_verdicts_of_check_even_factor_many(kind):
    # row blocks of the bundled corpora of orders 6..8 and of the sampler at
    # n = 10, 14 and 18 (where delta = 3 graphs meet the Q bound, and at 18
    # the D bound, and are held to their bounds, each block's own
    # verdicts batched): each block's cell counts and own verdicts are what
    # check_even_factor_many gives its graphs, verdict for verdict, and the
    # rows of the own verdicts count on across blocks
    sources = [corpus.bundled_blocks(n, bundled_corpus_lines(n)) for n in (6, 7, 8)]
    sources += [sampling.sample_blocks(Random(1), 10, 400),
                sampling.sample_blocks(Random(2), 14, 150),
                sampling.sample_blocks(Random(3), 18, 100)]
    own_rows = 0
    for blocks in sources:
        blocks = list(blocks)
        graphs = [g for b in blocks for g in b.graphs()]
        expected = list(check_even_factor_many(graphs, kind))
        cells, own = Counter(), []
        for pairs, mine in theorems.judge_blocks(blocks, kind):
            for v, count in pairs:
                assert v.rung == "sandwich" or v.conclusion is Conclusion.NOT_APPLICABLE
                cells[v] += count
            own += mine
        shared = [v for v in expected if v.bound is None and v.oracle_status is None]
        assert cells == Counter(shared)
        assert [(row, graphs[row], v) for row, _, v in own] == [
            (i, g, v) for i, (g, v) in enumerate(zip(graphs, expected))
            if v.bound is not None or v.oracle_status is not None]
        assert [g for _, g, _ in own] == [graphs[row] for row, _, _ in own]
        own_rows += len(own)
    assert own_rows


def _near_extremal(rng, n, delta):
    """The extremal graph at (n, delta) with a random nonempty set of edges
    added from the big clique to the singletons other than the last and
    among those singletons, and half the time one big-clique edge deleted:
    minimum degree delta, on both sides of the threshold."""
    big, singles = range(delta, n - delta + 1), range(n - delta + 1, n - 1)
    movable = ([(u, s) for s in singles for u in big]
               + [(s, t) for s in singles for t in singles if s < t])
    edges = set(extremal_graph(n, delta).edges())
    edges |= set(rng.sample(movable, rng.randint(1, len(movable))))
    if rng.random() < 0.5:
        edges.discard(rng.choice([(u, v) for u in big for v in big if u < v]))
    return Graph(n, sorted(edges))


@pytest.mark.parametrize("kind,n", [(TheoremKind.SIGNLESS_LAPLACIAN, 14),
                                    (TheoremKind.DISTANCE, 18)])
def test_bracket_settles_near_extremal_guarantees(kind, n):
    # graphs just past the extremal graph at the order bounds for delta = 3:
    # the bracket settles guarantees, each confirmed by the oracle, with the
    # verdicts of the eigen path
    rng = Random(f"near-extremal:{kind.value}")
    graphs = [_near_extremal(rng, n, 3) for _ in range(80)]
    verdicts = list(check_even_factor_many(graphs, kind))
    rungs = _assert_eigen_path_verdicts(graphs, kind, verdicts)
    assert rungs["row-sums"] + rungs["power"] >= 70
    guaranteed = [v for v in verdicts
                  if v.bound is not None and v.conclusion is Conclusion.EVEN_FACTOR_GUARANTEED]
    assert len(guaranteed) >= 50
    assert all(v.oracle_status is CertificateStatus.FOUND for v in guaranteed)


@pytest.mark.parametrize("kind", list(TheoremKind))
def test_bracket_guard_keeps_the_eigen_path_verdict_at_order_160(kind):
    # the extremal graph at (160, 3) plus the edge (3, 158): Q's largest row
    # sum is 2 Delta = 318 and n 318^7 passes 2^62, so the bracket starts
    # from a lower power; either way the verdict is the float rule's, and it
    # carries an exact bound
    star = extremal_graph(160, 3)
    g = Graph(160, star.edges() + [(3, 158)])
    assert g.min_degree() == 3 and 160 * 318**7 >= 2**62 > 160 * 318**5
    [v] = check_even_factor_many([g], kind)
    assert v.conclusion is Conclusion.EVEN_FACTOR_GUARANTEED and v.bound is not None
    # the lower power still settles the Q guarantee; the D bracket from
    # M^2 1 stays above the threshold, so the eigenvector's bracket settles it
    assert (v.spectral_value is None) == (kind is TheoremKind.SIGNLESS_LAPLACIAN)
    _assert_eigen_path_verdicts([g], kind, [v])


def test_a_bound_inside_the_certified_interval_never_settles():
    # theta lies in (x - ROOT_TOL, x + ROOT_TOL) for the threshold's float
    # x, and those ends are the cutoffs: a bound strictly between them
    # settles nothing, one at or past an end settles on its side, and a
    # graph no bound settles is borderline and oracle-checked
    for kind, n in ((TheoremKind.SIGNLESS_LAPLACIAN, 8), (TheoremKind.DISTANCE, 10)):
        q_side = kind is TheoremKind.SIGNLESS_LAPLACIAN
        x = Fraction(threshold(kind, n, 2))
        lo, hi = (x - _TOL).as_integer_ratio(), (x + _TOL).as_integer_ratio()
        cutoffs = theorems._cutoffs(kind, n, 2)
        assert cutoffs == (lo, hi)
        hair = Fraction(1, 10**40)
        for inside in (x - _TOL + hair, x - _TOL / 2, x, x + _TOL / 2, x + _TOL - hair):
            bound = inside.as_integer_ratio()
            assert theorems._settle(q_side, cutoffs, lower=bound, upper=bound) is None
        assert theorems._settle(q_side, cutoffs, lower=hi) == (hi, q_side)
        assert theorems._settle(q_side, cutoffs, upper=lo) == (lo, not q_side)
        for g, conclusion in ((cycle(n), Conclusion.INCONCLUSIVE),
                              (extremal_graph(n, 2), Conclusion.EXTREMAL_EXCEPTION)):
            assert g.min_degree() == 2
            assert check_even_factor(g, kind).conclusion is not Conclusion.NOT_APPLICABLE
            v = theorems._conclude(g, kind, 2, None, None)
            assert (v.conclusion, v.borderline, v.bound, v.oracle_status) == (
                conclusion, True, None, CertificateStatus.FOUND)


def test_quotient_check_margin_is_the_worst_cell():
    grid = list(order_bound_grid(TheoremKind.SIGNLESS_LAPLACIAN, (2, 5), n_max=40))
    outcomes = check_quotient_matches_matrix(grid)
    errors = [max(abs(threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, d) - rho_q(extremal_graph(n, d))),
                  abs(threshold(TheoremKind.DISTANCE, n, d) - rho_d(extremal_graph(n, d))))
              for n, d in grid]
    assert [o.margin for o in outcomes] == [COMPARISON_EPSILON - e for e in errors]
    worst = min(outcomes, key=lambda o: o.margin)
    assert worst.margin == COMPARISON_EPSILON - max(errors) < COMPARISON_EPSILON
    # the lemmas summary, on the same default grid, reports that cell
    _, [row], _ = cli.cmd_lemmas(cli.build_parser().parse_args(
        ["lemmas", "--check", "quotient-root-matches-matrix"]))
    assert row["points"] == len(grid) and row["min_margin"] == worst.margin


def test_extremal_table():
    rows = extremal_table((2, 3), n_max=20)
    assert rows
    for r in rows:
        assert r.bracket_ok
        assert r.even_factor is CertificateStatus.FOUND
        assert r.threshold_d >= r.n + r.delta - 3 - 1e-8
    deltas = Counter(r.delta for r in rows)
    assert set(deltas) == {2, 3}
    # default lower bound is the theorem order bound
    assert min(r.n for r in rows if r.delta == 2) == 8
    assert min(r.n for r in rows if r.delta == 3) == 14
    (row,) = extremal_table((3, 3), n_min=6, n_max=6)
    assert row.even_factor is CertificateStatus.FOUND


def test_order_bound_grid():
    def cells(*args, **kw):
        return list(order_bound_grid(*args, **kw))

    q, d = TheoremKind.SIGNLESS_LAPLACIAN, TheoremKind.DISTANCE
    # bounds 8, 14 (Q) and 9, 17 (D), rounded up to even
    assert cells(q, (2, 3), n_max=16) == [
        (8, 2), (10, 2), (12, 2), (14, 2), (16, 2), (14, 3), (16, 3)]
    assert cells(d, (2, 3), n_max=18) == [(10, 2), (12, 2), (14, 2), (16, 2), (18, 2), (18, 3)]
    # n_min replaces the bound but never goes below 2*delta
    assert cells(q, (3, 4), n_min=3, n_max=9) == [(6, 3), (8, 3), (8, 4)]
    # without n_max: up to 40, or the first order where the bound lies above
    # 40 (49 at delta = 8)
    assert cells(q, (7, 8)) == [(42, 7), (50, 8)]
    assert cells(q, (2, 2))[-1] == (40, 2)


def test_quotient_check_below_the_order_bound():
    # n + delta - 3 lies above rho_D of the extremal graph at these cells, so
    # no lower bound of that form can bracket rho_D there; the certified root
    # needs none
    cells = [(8, 4), (16, 7), (26, 11)]
    assert all(o.passed for o in check_quotient_matches_matrix(cells))


def test_verdict_graph6_round_trip_stability():
    line = to_graph6(extremal_graph(8, 2))
    v = check_even_factor(from_graph6(line), TheoremKind.SIGNLESS_LAPLACIAN)
    assert v.conclusion is Conclusion.EXTREMAL_EXCEPTION


def test_property_suite_draw_order_digest():
    # pins which points the suite visits, and in what order: the first three
    # checks share one Random(seed). Margins are left out, since eigenvalues
    # may differ in the last bits between numpy builds.
    # The delta = 2 sandwich lemma, which reads the corpora and no Random,
    # is pinned apart, so the other checks keep their digest.
    outcomes = run_property_suite(seed=12345, trials=200, corpus_max_n=6, oracle_max_n=6)
    digests = {True: hashlib.sha256(), False: hashlib.sha256()}
    counts = Counter()
    for o in outcomes:
        sandwich = o.check == "delta2-sandwich"
        counts[sandwich] += 1
        digests[sandwich].update(f"{o.check}|{o.point}|{o.passed}\n".encode())
    assert (counts[False], counts[True]) == (949, 52)
    assert digests[False].hexdigest() == \
        "60ade59f61edf8964cf91d5d0033a358755278d772a0af90e9a9c6b888ac12b4"
    assert digests[True].hexdigest() == \
        "1d0004ed27c20db89ce400fb2103e59d8990c240d909962427618ede10b1571f"
