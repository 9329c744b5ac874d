"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line. Run with `pytest -s
tests/test_acceptance.py` to see the lines as the criteria complete.
"""

from itertools import tee
from random import Random

from evenfactor.corpus import load_bundled_corpus
from evenfactor.graphs import to_graph6
from evenfactor.lemmas import SUITE_CHECK_NAMES, perron_abc, run_property_suite
from evenfactor.oracle import (
    CertificateStatus,
    find_even_factor,
    odd_component_conditions,
)
from evenfactor.quotient import largest_root
from evenfactor.sampling import sample_connected_graphs
from evenfactor.spectral import rho_d, rho_q
from evenfactor.theorems import (
    Conclusion,
    TheoremKind,
    check_even_factor_many,
    extremal_cubic,
    extremal_graph,
    extremal_table,
    order_bound_grid,
    recognize_extremal,
    threshold,
    EXTREMAL_TABLE_NOTE,
)

AGREEMENT_TOL = 1e-8
RATIO_TOL = 1e-10
COMPARISON_EPS = 1e-8


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_q_threshold_consistency_and_bracket():
    """The cubic threshold equals extremal rho_Q within 1e-8; strict bracket."""
    worst_gap = 0.0
    worst_margin = float("inf")
    points = 0
    ok = True
    for n, d in order_bound_grid(TheoremKind.SIGNLESS_LAPLACIAN, (2, 6), n_max=60):
        cubic = extremal_cubic(TheoremKind.SIGNLESS_LAPLACIAN, n, d)
        root = largest_root(cubic)
        direct = rho_q(extremal_graph(n, d))
        gap = abs(root - direct)
        margin = min(root - (2 * n - 2 * d), (2 * n - d) - root)
        worst_gap = max(worst_gap, gap)
        worst_margin = min(worst_margin, margin)
        points += 1
        ok = ok and gap <= AGREEMENT_TOL and margin > 0
    _report(
        "criterion 1: rho_Q threshold consistency + strict bracket, "
        f"{points} grid points",
        ok,
        f"worst |cubic-matrix| = {worst_gap:.2e}, min bracket margin = {worst_margin:.3g}",
    )


def test_criterion_2_d_threshold_consistency_and_floor():
    """Distance threshold agrees within 1e-8 and is >= n + delta - 3."""
    worst_gap = 0.0
    worst_floor = float("inf")
    points = 0
    ok = True
    for n, d in order_bound_grid(TheoremKind.DISTANCE, (2, 6), n_max=60):
        cubic = extremal_cubic(TheoremKind.DISTANCE, n, d)
        root = largest_root(cubic)
        direct = rho_d(extremal_graph(n, d))
        gap = abs(root - direct)
        floor_margin = root - (n + d - 3)
        worst_gap = max(worst_gap, gap)
        worst_floor = min(worst_floor, floor_margin)
        points += 1
        ok = ok and gap <= AGREEMENT_TOL and floor_margin >= -AGREEMENT_TOL
    _report(
        "criterion 2: rho_D threshold consistency + Wiener floor, "
        f"{points} grid points",
        ok,
        f"worst |cubic-matrix| = {worst_gap:.2e}, min (rho_D - n - delta + 3) = {worst_floor:.3g}",
    )


def test_criterion_3_odd_component_implication_exhaustive():
    """All connected graphs, n in {4, 6, 8}: condition holds => factor found."""
    violations = []
    satisfied = 0
    graphs = [g for n in (4, 6, 8) for g in load_bundled_corpus(n)]
    for g, holds in zip(graphs, odd_component_conditions(graphs)):
        if not holds:
            continue
        satisfied += 1
        if find_even_factor(g).status is not CertificateStatus.FOUND:
            violations.append(to_graph6(g))
    _report(
        "criterion 3: odd-component condition implies even factor, "
        f"exhaustive n in {{4,6,8}} ({len(graphs)} graphs, {satisfied} satisfy)",
        not violations,
        f"violations = {violations[:5]}",
    )


def test_criterion_4_q_condition_exhaustive_n8():
    """All 11117 connected graphs on 8 vertices, delta = 2 rows."""
    graphs = load_bundled_corpus(8)
    assert len(graphs) == 11117
    theta = threshold(TheoremKind.SIGNLESS_LAPLACIAN, 8, 2)
    met = 0
    violations = []
    delta2 = 0
    for g in graphs:
        if g.min_degree() != 2:
            continue
        delta2 += 1
        if rho_q(g) < theta - COMPARISON_EPS:
            continue
        met += 1
        if recognize_extremal(g, 2):
            continue
        if find_even_factor(g).status is not CertificateStatus.FOUND:
            violations.append(to_graph6(g))
    _report(
        "criterion 4: signless-Laplacian condition exhaustive at n=8 "
        f"({delta2} graphs with delta=2, {met} meet the spectral condition)",
        not violations and met >= 1,
        f"violations = {violations[:5]}",
    )


def test_criterion_5_d_condition_sampled_n10():
    """1e5 seeded connected samples, delta >= 2: zero-violation contract."""
    rng = Random(42)
    samples = 100_000
    violations = []
    guaranteed = 0
    applicable = 0
    graphs, judged = tee(sample_connected_graphs(rng, 10, samples))
    verdicts = check_even_factor_many(judged, TheoremKind.DISTANCE)
    for g, verdict in zip(graphs, verdicts):
        if verdict.conclusion is not Conclusion.NOT_APPLICABLE:
            applicable += 1
        if verdict.conclusion is Conclusion.EVEN_FACTOR_GUARANTEED:
            guaranteed += 1
        if verdict.oracle_agrees is False:
            violations.append(to_graph6(g))
    _report(
        f"criterion 5: distance condition on {samples} seeded samples at n=10 "
        f"({applicable} applicable, {guaranteed} guaranteed)",
        not violations,
        f"violations = {violations[:5]}",
    )


def test_criterion_6_identity_suite():
    """Difference-factorization identities, exact, for all (n, s, delta)."""
    names = {name for name in SUITE_CHECK_NAMES if name.startswith("difference-identity-")}
    outcomes = run_property_suite(checks=names)
    failed = [o.check for o in outcomes if not o.passed]
    _report("criterion 6: identity suite, each identity proved once for all (n, s, delta), "
            "coefficient for coefficient", len(outcomes) == len(names) == 4 and not failed,
            f"failed = {failed}")


def test_criterion_7_perron_positivity_and_ratio():
    """2b - a > 0 and the closed-form ratio to 1e-10, delta in [3,6]."""
    worst_ratio = 0.0
    min_margin = float("inf")
    points = 0
    ok = True
    for delta in range(3, 7):
        n0 = 8 * delta - 7
        n0 += n0 % 2
        for n in range(n0, 61, 2):
            res = perron_abc(n, delta)
            margin = 2 * res.b - res.a
            worst_ratio = max(worst_ratio, res.ratio_residual)
            min_margin = min(min_margin, margin)
            points += 1
            ok = ok and margin > 0 and res.ratio_residual <= RATIO_TOL
    _report(
        f"criterion 7: Perron positivity + closed-form ratio, {points} grid points",
        ok,
        f"min (2b-a) = {min_margin:.4g}, worst ratio residual = {worst_ratio:.2e}",
    )


def test_criterion_8_monotonicity_suites():
    """1000 seeded edge additions (rho_Q up), 1000 deletions (rho_D up)."""
    outcomes = run_property_suite(
        seed=808, trials=1000,
        checks={"q-monotone-edge-add", "d-monotone-edge-delete"},
    )
    add = [o for o in outcomes if o.check == "q-monotone-edge-add"]
    dele = [o for o in outcomes if o.check == "d-monotone-edge-delete"]
    ok = (
        len(add) == 1000 and len(dele) == 1000
        and all(o.passed and o.margin > 0 for o in add + dele)
    )
    min_add = min(o.margin for o in add)
    min_del = min(o.margin for o in dele)
    _report(
        "criterion 8: strict spectral monotonicity, 1000 + 1000 seeded trials",
        ok,
        f"min rho_Q increase = {min_add:.3g}, min rho_D increase = {min_del:.3g}",
    )


def test_criterion_9_extremal_status_table():
    """The grid table completes with settled even-factor verdicts."""
    rows = extremal_table((2, 6), n_max=40)
    settled = all(
        r.even_factor in (CertificateStatus.FOUND, CertificateStatus.NONE_EXISTS)
        for r in rows
    )
    brackets = all(r.bracket_ok for r in rows)
    statuses = sorted({r.even_factor.value for r in rows})
    ok = bool(rows) and settled and brackets and "exempt" in EXTREMAL_TABLE_NOTE
    _report(
        f"criterion 9: extremal status table settled over {len(rows)} grid points",
        ok,
        f"statuses = {statuses}; table note cross-references the exemption clause",
    )
