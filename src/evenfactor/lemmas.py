"""Property checks of the facts behind the two even-factor conditions.

Each check tests one supporting fact and returns one CheckOutcome per point
of its input (seeded samples, the (n, delta) cells ``order_bound_grid``
yields, or a bundled corpus): spectral monotonicity, join-family dominance,
equitable-quotient roots, the Wiener lower bound, rho_Q <= 2 Delta, the
odd-component implication, the delta = 2 sandwich lemma, the extremal
Wiener closed form, the block-family Rayleigh gap and Perron-component
positivity. The grid checks build the extremal graph with
``theorems.extremal_graph`` and read its blocks from
``theorems.extremal_blocks``, the one module that knows its labeling. Ten
facts read no input and are proved once for all parameters on
quotient.Poly: the rho_Q bracket 2n - 2delta < rho_Q(extremal) < 2n - delta
from the Q order bound on, the rho_D floor rho_D(extremal) > n + delta - 3
from the D order bound on, the extremal rho_Q above and rho_D below those
of bridged graphs, the s = 2 block cubic, the gap expansions and four
difference identities.

The sandwich lemma (``delta2-sandwich``) is why the verdicts settle every
delta = 2 graph with no bound. Let G be connected with minimum degree 2 and
x a vertex of degree 2 with neighbours a and b. Sending a and b to the hubs
of the extremal graph at (n, 2), x to its singleton and the rest to its big
clique makes G a spanning subgraph of it, the whole graph iff G has its
C(n - 1, 2) + 2 edges. Adding an edge to a connected graph strictly raises
rho_Q and strictly lowers rho_D (Perron-Frobenius), so no other G meets
either condition. The check re-derives this on the bundled corpora from
exact brackets.

CHECKS is the registry: it fixes which checks exist, the order they run in,
and the input each one reads. COMPARISON_EPSILON is the one tolerance of
the checks that compare floats, such as the equitable-quotient check's
distance between a root and the full-matrix rho; no verdict reads it.
``lemmas`` runs the oracle (``even_factor_status``) on the bundled corpora
for the odd-component checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from random import Random
from typing import Iterable, Iterator, Optional

from .corpus import load_bundled_corpus
from .graphs import Graph, clique_join
from .oracle import CertificateStatus, even_factor_status, odd_component_conditions
from .quotient import (
    DELTA,
    N,
    S,
    _d_blocks_coeffs,
    _d_clique_star_coeffs,
    _fourier_signs,
    _q_blocks_coeffs,
    _q_clique_star_coeffs,
    charpoly3,
    d_block_gap_at_wiener_floor,
    d_block_gap_coeffs,
    d_singleton_gap_coeffs,
    eval_poly,
    largest_root,
    q_block_gap_at_bracket_floor,
    q_block_gap_coeffs,
    q_block_gap_s2_coeffs,
    q_singleton_gap_coeffs,
    quotient_matrix,
)
from .sampling import sample_graph
from .spectral import (
    Ratio,
    _distance_stack,
    _signless_laplacian_stack,
    distance_matrix,
    perron,
    rho_d,
    rho_q,
    signless_laplacian,
    wiener_index,
)
from .theorems import (
    TheoremKind,
    _bracket_rungs,
    _cutoffs,
    extremal_blocks,
    extremal_cubic,
    extremal_graph,
    extremal_wiener,
    order_bound_grid,
    recognize_extremal,
    threshold,
)

COMPARISON_EPSILON = 1e-8


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    point: str
    passed: bool
    margin: float
    note: str = ""


# -- Perron block components of the extremal distance quotient -----------------


@dataclass(frozen=True)
class PerronABC:
    """Block components (big clique a=1, join b, singletons c) at rho.

    ``system_residual`` is the worst absolute defect of the three quotient
    eigen-equations; ``ratio_residual`` compares b against the closed form
    (rho + n - 2delta + 2) / (2rho - delta + 2).
    """

    a: float
    b: float
    c: float
    rho: float
    system_residual: float
    ratio_residual: float


def perron_abc(n: int, delta: int) -> PerronABC:
    """Solve the 3-block distance quotient eigen-system of the extremal graph
    at the cell (n, delta) with a = 1."""
    d = delta
    rho = threshold(TheoremKind.DISTANCE, n, d)
    # rows of the quotient (blocks: big clique, join, singletons):
    #   rho a = (n-2d) a   + d b     + 2(d-1) c
    #   rho b = (n-2d+1) a + (d-1) b + (d-1) c
    #   rho c = 2(n-2d+1) a + d b    + 2(d-2) c
    # Solve rows 1 and 3 for (b, c) with a = 1, then rows give residuals.
    c = (rho + n - 2 * d + 2) / (rho + 2)
    b = (rho - (n - 2 * d) - 2 * (d - 1) * c) / d
    a = 1.0
    r1 = abs((n - 2 * d) * a + d * b + 2 * (d - 1) * c - rho * a)
    r2 = abs((n - 2 * d + 1) * a + (d - 1) * b + (d - 1) * c - rho * b)
    r3 = abs(2 * (n - 2 * d + 1) * a + d * b + 2 * (d - 2) * c - rho * c)
    closed_b = (rho + n - 2 * d + 2) / (2 * rho - d + 2)
    result = PerronABC(a, b, c, rho, max(r1, r2, r3), abs(b - closed_b))
    if not (b > 0 and c > 0):
        raise RuntimeError(f"non-positive Perron block components: {result}")
    return result


# -- the checks -------------------------------------------------------------------


def _random_connected_graph(rng: Random, n: int, p: float) -> Graph:
    while True:
        g = sample_graph(rng, n, p)
        if g.is_connected():
            return g


def check_q_edge_addition(rng: Random, trials: int) -> list[CheckOutcome]:
    """Adding any missing edge to a connected graph strictly raises rho_Q."""
    out = []
    done = 0
    while done < trials:
        n = rng.randrange(4, 10)
        g = _random_connected_graph(rng, n, rng.uniform(0.3, 0.7))
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        bigger = Graph(n, g.edges() + [(u, v)])
        margin = rho_q(bigger) - rho_q(g)
        out.append(CheckOutcome(
            "q-monotone-edge-add", f"n={n},m={g.edge_count},edge=({u},{v})",
            margin > COMPARISON_EPSILON, margin,
        ))
        done += 1
    return out


def check_d_edge_deletion(rng: Random, trials: int) -> list[CheckOutcome]:
    """Deleting a non-bridge edge strictly raises rho_D."""
    out = []
    done = 0
    while done < trials:
        n = rng.randrange(4, 10)
        g = _random_connected_graph(rng, n, rng.uniform(0.4, 0.8))
        choices = list(g.edges())
        rng.shuffle(choices)
        smaller = None
        removed = None
        for u, v in choices:
            cand = Graph(n, [e for e in g.edges() if e != (u, v)])
            if cand.is_connected():
                smaller, removed = cand, (u, v)
                break
        if smaller is None:
            continue
        margin = rho_d(smaller) - rho_d(g)
        out.append(CheckOutcome(
            "d-monotone-edge-delete", f"n={n},m={g.edge_count},edge={removed}",
            margin > COMPARISON_EPSILON, margin,
        ))
        done += 1
    return out


def _dominance_point(rng: Random) -> tuple[int, int, int, tuple[int, ...]]:
    while True:
        t = rng.randrange(2, 4)
        s = rng.randrange(2, 5)
        p = rng.randrange(1, 3)
        parts = sorted((rng.randrange(p, p + 4) for _ in range(t)), reverse=True)
        n = s + sum(parts)
        if parts[0] < n - s - p * (t - 1):
            return n, s, p, tuple(parts)


def check_family_dominance(rng: Random, trials: int) -> list[CheckOutcome]:
    """Concentrating clique mass raises rho_Q and lowers rho_D.

    Compares K_s v (K_{n_1} u ... u K_{n_t}) against
    K_s v (K_{n-s-p(t-1)} u (t-1)K_p) when n_1 < n - s - p(t-1), at one
    point per four trials (at least one), each with a Q and a D outcome.
    """
    out = []
    for _ in range(max(1, trials // 4)):
        n, s, p, parts = _dominance_point(rng)
        t = len(parts)
        spread = clique_join(s, parts)
        packed = clique_join(s, (n - s - p * (t - 1),) + (p,) * (t - 1))
        q_margin = rho_q(packed) - rho_q(spread)
        d_margin = rho_d(spread) - rho_d(packed)
        point = f"n={n},s={s},p={p},parts={parts}"
        out.append(CheckOutcome("q-family-dominance", point,
                                q_margin > COMPARISON_EPSILON, q_margin))
        out.append(CheckOutcome("d-family-dominance", point,
                                d_margin > COMPARISON_EPSILON, d_margin))
    return out


def check_quotient_matches_matrix(grid: Iterable[tuple[int, int]]) -> list[CheckOutcome]:
    """Equitable-quotient cubic roots equal full-matrix Perron values, and
    the quotient cubics are the extremal cubics the thresholds are roots of.

    A cell passes when both matrix rho lie less than COMPARISON_EPSILON
    from the roots. The margin is COMPARISON_EPSILON less the cell's larger
    root error, so the smallest margin is the worst cell."""
    out = []
    for n, d in grid:
        g = extremal_graph(n, d)
        joins, bigs, singles = extremal_blocks(n, d)
        qm = quotient_matrix(signless_laplacian(g), (joins, bigs, singles))
        cubic_q = charpoly3(qm)
        err_q = abs(largest_root(cubic_q) - rho_q(g))
        dm = quotient_matrix(distance_matrix(g), (bigs, joins, singles))
        cubic_d = charpoly3(dm)
        err_d = abs(largest_root(cubic_d) - rho_d(g))
        notes = []
        if not (qm.equitable and dm.equitable):
            notes.append("partition not equitable")
        for kind, cubic in zip(TheoremKind, (cubic_q, cubic_d)):
            if cubic != extremal_cubic(kind, n, d):
                notes.append(f"quotient cubic differs from the {kind.value} extremal cubic")
        margin = COMPARISON_EPSILON - max(err_q, err_d)
        out.append(CheckOutcome(
            "quotient-root-matches-matrix", f"n={n},delta={d}",
            margin > 0 and not notes, margin, "; ".join(notes),
        ))
    return out


def _by_order(build, graphs: list[Graph]) -> Iterator[tuple]:
    """(graph, matrix, rho) per graph: one build and eigen-solve per run of equal orders."""
    for _, run in groupby(graphs, key=lambda g: g.n):
        stack = build(run := list(run))
        yield from zip(run, stack, map(float, perron(stack)[0]))


def check_wiener_bound(graphs: list[Graph]) -> list[CheckOutcome]:
    """rho_D >= 2 W / n for connected graphs (all-ones Rayleigh quotient),
    and W >= n(n - 1) - m in exact integers, since each of the
    n(n - 1)/2 - m non-adjacent pairs is at distance at least 2.

    Together they are the lower bound rho_D >= 2(n(n - 1) - m)/n that
    settles distance verdicts before any eigen-solve. The margin is
    rho_D - 2W/n; W and rho_D come from the same distance matrix.
    """
    out = []
    for i, (g, dist, rho) in enumerate(_by_order(_distance_stack, graphs)):
        w = int(dist.sum()) // 2
        floor = g.n * (g.n - 1) - g.edge_count
        margin = rho - 2 * w / g.n
        out.append(CheckOutcome(
            "wiener-lower-bound", f"graph#{i},n={g.n},m={g.edge_count}",
            margin >= -COMPARISON_EPSILON and w >= floor, margin,
            "" if w >= floor else f"W={w} < n(n-1)-m={floor}",
        ))
    return out


def check_q_max_degree_bound(graphs: list[Graph]) -> list[CheckOutcome]:
    """rho_Q <= 2 Delta: Q is nonnegative and its largest row sum is the
    largest 2 d(v). It settles signless-Laplacian verdicts before any
    eigen-solve. The margin is 2 Delta - rho_Q."""
    out = []
    for i, (g, _, rho) in enumerate(_by_order(_signless_laplacian_stack, graphs)):
        margin = 2 * g.max_degree() - rho
        out.append(CheckOutcome(
            "q-max-degree-bound", f"graph#{i},n={g.n},m={g.edge_count}",
            margin >= -COMPARISON_EPSILON, margin,
        ))
    return out


def _sandwich_bounds(kind: TheoremKind, graphs: list[Graph]
                     ) -> Iterator[Optional[tuple[Ratio, bool]]]:
    """Per graph, the exact bound on rho under kind that clears the cutoffs
    of its cell (n, 2), with whether the condition holds, or None: the
    verdicts' ``power`` and ``eigenvector`` rungs. One stack per run of
    equal orders."""
    q_side = kind is TheoremKind.SIGNLESS_LAPLACIAN
    build = _signless_laplacian_stack if q_side else _distance_stack
    for n, run in groupby(graphs, key=lambda g: g.n):
        stack = build(list(run))
        found = _bracket_rungs(q_side, stack, [_cutoffs(kind, n, 2)] * len(stack))
        yield from (settled for settled, _, _ in found)


def check_delta2_sandwich(graphs: list[Graph]) -> list[CheckOutcome]:
    """At delta = 2 only the extremal graph meets either condition (the
    sandwich lemma; its proof is in the module docstring).

    One outcome per connected graph of order >= 4 with minimum degree 2, at
    its own cell (n, 2), odd orders included. It passes when
    ``recognize_extremal`` holds exactly when m = C(n - 1, 2) + 2, and, for
    a graph it rejects, the exact brackets put rho_Q at or below the Q
    cutoff lo and rho_D at or above the D cutoff hi. The margin is the
    smaller of theta_Q - bound and bound - theta_D, or 1.0 on the extremal
    graph, whose rho is theta.
    """
    graphs = [g for g in graphs if g.n >= 4 and g.min_degree() == 2 and g.is_connected()]
    q_bounds, d_bounds = (list(_sandwich_bounds(kind, graphs)) for kind in TheoremKind)
    out = []
    for i, (g, q, d) in enumerate(zip(graphs, q_bounds, d_bounds)):
        n, m = g.n, g.edge_count
        extremal = recognize_extremal(g, 2)
        notes = []
        if extremal != (m == (n - 1) * (n - 2) // 2 + 2):
            notes.append(f"recognize_extremal is {extremal} at m={m}")
        if extremal:
            margin = 1.0
        elif q is None or d is None:
            margin = 0.0
            notes.append("no bracket separates rho from theta")
        else:
            margin = min(threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, 2) - q[0][0] / q[0][1],
                         d[0][0] / d[0][1] - threshold(TheoremKind.DISTANCE, n, 2))
            if q[1] or d[1]:
                notes.append("a bracket puts rho on the condition's side")
        out.append(CheckOutcome("delta2-sandwich", f"graph#{i},n={n},m={m}",
                                not notes, margin, "; ".join(notes)))
    return out


def _positive(p) -> bool:
    """Whether the Poly p has a positive constant and no negative coefficient."""
    return p.terms.get((0, 0, 0), 0) > 0 and min(p.terms.values()) > 0


def check_q_threshold_above_bridged() -> list[CheckOutcome]:
    """rho_Q(extremal) > 2n - 2delta, above every bridged graph's rho_Q.

    As Polys, the extremal Q cubic at x = 2n - 2delta is
    -2 delta (delta - 1)(n - delta); with delta = 2 + j and n = 3 + j + k,
    minus its value at x = 2k + 2 has positive coefficients and constant,
    so it is negative at every n > delta >= 2. A monic cubic is positive
    beyond its largest root, so the threshold lies above 2n - 2delta. A
    bridge of a graph with minimum degree delta has at least delta + 1
    vertices on each side, so rho_Q <= 2 Delta <= 2n - 2delta - 2.
    """
    value = eval_poly((1,) + _q_clique_star_coeffs(N, DELTA), 2 * N - 2 * DELTA)
    j, k = S, N  # two free variables >= 0, in the s and n places of a Poly
    shifted = -eval_poly((1,) + _q_clique_star_coeffs(3 + j + k, 2 + j), 2 * k + 2)
    ok = value == -2 * DELTA * (DELTA - 1) * (N - DELTA) and _positive(shifted)
    return [CheckOutcome("q-threshold-above-2n-2delta", "all n > delta >= 2", ok, float(ok))]


def check_q_threshold_bracket() -> list[CheckOutcome]:
    """Strict bracket 2n - 2delta < rho_Q(extremal) < 2n - delta from the
    Q order bound on: every delta >= 2 and n >= 7delta - 7.

    The lower half holds at every n > delta >= 2
    (``check_q_threshold_above_bridged``). For the upper half, with
    delta = 2 + j and n = 7delta - 7 + k, the values of c'', c' and c at
    2n - delta, for c the extremal Q cubic, are Polys in j, k >= 0 with
    positive coefficients and constant (``quotient._fourier_signs``), so
    2n - delta lies above c's largest root: the threshold.
    """
    j, k = S, N  # two free variables >= 0, in the s and n places of a Poly
    d, n = 2 + j, 7 + 7 * j + k  # n = 7d - 7 + k
    upper = all(map(_positive, _fourier_signs(_q_clique_star_coeffs(n, d), 2 * n - d, 1)))
    ok = check_q_threshold_above_bridged()[0].passed and upper
    return [CheckOutcome("q-threshold-bracket", "all delta >= 2, n >= 7delta - 7", ok, float(ok))]


def bridged_wiener_twice(n, a):
    """2W(K_a -xy- K_{n-a}) = n(n - 3) + 4a(n - a), for the bridge xy from
    K_a to K_{n-a}: the pairs across it lie at distance 1, 2 or 3, those
    inside a clique at 1. On ints, or on Polys."""
    return n * (n - 3) + 4 * a * (n - a)


def check_d_threshold_below_bridged() -> list[CheckOutcome]:
    """rho_D(extremal) < U <= rho_D of every bridged graph, at delta >= 3.

    A bridge of a graph G with minimum degree delta has a, b >= delta + 1
    vertices on its sides, so G spans B = K_a -xy- K_b and, by the all-ones
    Rayleigh quotient, rho_D(G) >= rho_D(B) >= 2W(B)/n = n - 3 + 4ab/n >= U,
    its value at a = delta + 1 (``bridged_wiener_twice``). At delta = 3 + j
    and n = 2delta + 2 + k, the values of c'', c' and c at U, for c the
    extremal D cubic, are positive multiples of Polys in j, k >= 0 with
    positive coefficients (``quotient._fourier_signs``), so U lies above
    c's largest root: the threshold.
    """
    j, k = S, N  # two free variables >= 0, in the s and n places of a Poly
    d, n = 3 + j, 2 * j + 8 + k
    nu = bridged_wiener_twice(n, d + 1)  # n U
    ok = all(map(_positive, _fourier_signs(_d_clique_star_coeffs(n, d), nu, n)))
    return [CheckOutcome("d-threshold-below-bridged", "all delta >= 3, n >= 2delta + 2",
                         ok, float(ok))]


def check_d_threshold_floor() -> list[CheckOutcome]:
    """rho_D(extremal) > n + delta - 3 from the D order bound on: every
    delta >= 2 and n >= 8delta - 7.

    With delta = 2 + j and n = 8delta - 7 + k, the extremal D cubic at
    n + delta - 3 is a Poly in j, k >= 0 whose coefficients and constant
    are all negative. A monic cubic is positive beyond its largest root, so
    n + delta - 3 lies below it: the threshold.
    """
    j, k = S, N  # two free variables >= 0, in the s and n places of a Poly
    d, n = 2 + j, 9 + 8 * j + k  # n = 8d - 7 + k
    ok = _positive(-eval_poly((1,) + _d_clique_star_coeffs(n, d), n + d - 3))
    return [CheckOutcome("d-threshold-floor", "all delta >= 2, n >= 8delta - 7", ok, float(ok))]


def check_odd_component_implication(graphs: Iterable[Graph]) -> list[CheckOutcome]:
    """On even orders >= 4: o(G-S) < |S| for all |S| >= 2 implies an even factor.

    By the Tutte-Berge formula the condition says, on even orders, that G
    is bicritical: every G - u - v has a perfect matching (see
    ``odd_component_conditions``). So this tests "bicritical => even factor".

    n = 2 is a genuine degenerate boundary: K_2 satisfies the condition
    vacuously (the only subset of size >= 2 is all of V) but has no even
    factor, so it is excluded.
    """
    graphs = list(graphs)
    out = []
    for i, (g, holds) in enumerate(zip(graphs, odd_component_conditions(graphs))):
        if g.n % 2 or g.n < 4 or not holds:
            continue
        status = even_factor_status(g)
        out.append(CheckOutcome(
            "odd-component-implication", f"graph#{i},n={g.n},m={g.edge_count}",
            status is CertificateStatus.FOUND,
            1.0 if status is CertificateStatus.FOUND else 0.0,
            status.value,
        ))
    return out


def observe_odd_order_condition(graphs: Iterable[Graph]) -> list[CheckOutcome]:
    """Record (never assert) the condition-vs-factor relation on odd orders.

    The sufficient condition is only stated for even orders; this summarizes
    what happens on odd-order inputs as a single always-passing observation.
    On odd orders the condition says, by the Tutte-Berge formula, that every
    G - u - v has a matching missing just one vertex (see
    ``odd_component_conditions``).
    """
    satisfied = with_factor = without = 0
    graphs = list(graphs)
    for g, holds in zip(graphs, odd_component_conditions(graphs)):
        if g.n % 2 == 0 or g.n < 3 or not holds:
            continue
        satisfied += 1
        status = even_factor_status(g)
        if status is CertificateStatus.FOUND:
            with_factor += 1
        elif status is CertificateStatus.NONE_EXISTS:
            without += 1
    return [CheckOutcome(
        "odd-order-observation", f"odd-order graphs observed={satisfied}",
        True, float(without),
        f"condition held on {satisfied}; factor found on {with_factor}, "
        f"absent on {without} (recorded as data, not a claim)",
    )]


def check_extremal_wiener_closed_form(grid: Iterable[tuple[int, int]]) -> list[CheckOutcome]:
    """BFS Wiener index equals the closed form on the extremal family."""
    out = []
    for n, d in grid:
        direct = wiener_index(extremal_graph(n, d))
        closed = extremal_wiener(n, d)
        out.append(CheckOutcome(
            "extremal-wiener-closed-form", f"n={n},delta={d}",
            direct == closed, float(direct - closed),
        ))
    return out


def check_blocks_rayleigh_gap(grid: Iterable[tuple[int, int]]) -> list[CheckOutcome]:
    """rho_D(blocks s=2) - rho_D(extremal) >= (d-1)(d-2) x_iso (2 x_join - x_iso).

    The s=2 uniform-blocks graph is K_2 v (K_{n-delta-1} u K_{delta-1}).
    The right side is the Rayleigh quadratic form of the distance-matrix
    perturbation evaluated at the extremal graph's unit Perron vector, whose
    block values are read off the exact labeling.
    """
    out = []
    for n, d in grid:
        if d < 3:
            continue
        star = extremal_graph(n, d)
        value, vector, _ = perron(distance_matrix(star))
        joins, _, singles = extremal_blocks(n, d)
        x_join = float(vector[joins[0]])
        x_iso = float(vector[singles[0]])
        bound = (d - 1) * (d - 2) * x_iso * (2 * x_join - x_iso)
        blocks = clique_join(2, (n - d - 1, d - 1))
        gap = rho_d(blocks) - float(value)
        margin = gap - bound
        out.append(CheckOutcome(
            "d-blocks-rayleigh-gap", f"n={n},delta={d}",
            margin >= -COMPARISON_EPSILON and bound > 0, margin,
            f"gap={gap:.6g},bound={bound:.6g}",
        ))
    return out


def check_perron_ratio(grid: Iterable[tuple[int, int]]) -> list[CheckOutcome]:
    """2b - a > 0 and the closed-form ratio for b, at 1e-10.

    Checked at the cells with delta >= 3 and n >= 8*delta - 7.
    """
    out = []
    for n, d in grid:
        if d < 3 or n < 8 * d - 7:
            continue
        res = perron_abc(n, d)
        ok = (
            2 * res.b - res.a > 0
            and res.ratio_residual <= 1e-10
            and res.system_residual <= 1e-8
        )
        out.append(CheckOutcome(
            "perron-ratio-positivity", f"n={n},delta={d}",
            ok, 2 * res.b - res.a,
            f"ratio_residual={res.ratio_residual:.3e}",
        ))
    return out


def check_blocks_cubic_s2() -> list[CheckOutcome]:
    """The s=2 block-family cubic is the signless-Laplacian one: as Polys,
    the expected specialization (x^3 + (4-3n)x^2 + ...) matches the Q-side
    block family and differs from the distance-side one, settling the
    labeling question for all (n, delta)."""
    n, d = N, DELTA
    expected = (
        4 - 3 * n,
        2 * n**2 + 4 * d * n - 10 * n - 4 * d**2 + 8,
        4 * n**2 - 4 * d * n**2 + 4 * d**2 * n + 8 * d * n - 12 * n - 8 * d**2 + 8,
    )
    ok = _q_blocks_coeffs(n, 2, d) == expected and _d_blocks_coeffs(n, 2, d) != expected
    return [CheckOutcome("blocks-cubic-s2-specialization", "all n, delta", ok, float(ok),
                         "matches signless-Laplacian block cubic; distance one differs")]


def check_gap_polynomial_expansions() -> list[CheckOutcome]:
    """Expanded bound polynomials equal the gap quadratics at their floors,
    and the s = 2 gap is the Q block gap at s = 2, as Polys in (n, s, delta).
    """
    n, s, d = N, S, DELTA
    q_floor = eval_poly(q_block_gap_coeffs(n, s, d), 2 * n - 2 * d)
    d_floor = eval_poly(d_block_gap_coeffs(n, s, d), n + d - 3)
    ok = (q_floor == q_block_gap_at_bracket_floor(n, s, d)
          and d_floor == d_block_gap_at_wiener_floor(n, s, d)
          and q_block_gap_s2_coeffs(n, d) == q_block_gap_coeffs(n, 2, d))
    return [CheckOutcome("gap-polynomial-expansions", "all n, s, delta", ok, float(ok))]


def check_difference_identities() -> list[CheckOutcome]:
    """Each family cubic minus the extremal one is (s - delta), or its
    negation, times the family's gap quadratic, as Polys in (n, s, delta)."""
    n, s, d = N, S, DELTA
    q_star, d_star = _q_clique_star_coeffs(n, d), _d_clique_star_coeffs(n, d)
    out = []
    for name, family, star, factor, gap in (
            ("q-singletons", _q_clique_star_coeffs(n, s), q_star, s - d, q_singleton_gap_coeffs),
            ("q-blocks", _q_blocks_coeffs(n, s, d), q_star, d - s, q_block_gap_coeffs),
            ("d-singletons", _d_clique_star_coeffs(n, s), d_star, d - s, d_singleton_gap_coeffs),
            ("d-blocks", _d_blocks_coeffs(n, s, d), d_star, s - d, d_block_gap_coeffs)):
        ok = tuple(a - b for a, b in zip(family, star)) == tuple(factor * c for c in gap(n, s, d))
        out.append(CheckOutcome(f"difference-identity-{name}", "all n, s, delta", ok, float(ok)))
    return out


# -- the registry -----------------------------------------------------------------

# (check names, check function, the input it reads), in run order. The first
# three draw from one Random(seed), so their order fixes every sampled point.
CHECKS = (
    (("q-monotone-edge-add",), check_q_edge_addition, "rng"),
    (("d-monotone-edge-delete",), check_d_edge_deletion, "rng"),
    (("q-family-dominance", "d-family-dominance"), check_family_dominance, "rng"),
    (("quotient-root-matches-matrix",), check_quotient_matches_matrix, "q-grid"),
    (("wiener-lower-bound",), check_wiener_bound, "bound-corpus"),
    (("q-max-degree-bound",), check_q_max_degree_bound, "bound-corpus"),
    (("delta2-sandwich",), check_delta2_sandwich, "bound-corpus"),
    (("q-threshold-bracket",), check_q_threshold_bracket, "none"),
    (("q-threshold-above-2n-2delta",), check_q_threshold_above_bridged, "none"),
    (("d-threshold-below-bridged",), check_d_threshold_below_bridged, "none"),
    (("d-threshold-floor",), check_d_threshold_floor, "none"),
    (("odd-component-implication",), check_odd_component_implication, "even-corpus"),
    (("odd-order-observation",), observe_odd_order_condition, "odd-corpus"),
    (("extremal-wiener-closed-form",), check_extremal_wiener_closed_form, "d-grid"),
    (("d-blocks-rayleigh-gap",), check_blocks_rayleigh_gap, "d-grid"),
    (("perron-ratio-positivity",), check_perron_ratio, "d-grid"),
    (("blocks-cubic-s2-specialization",), check_blocks_cubic_s2, "none"),
    (("gap-polynomial-expansions",), check_gap_polynomial_expansions, "none"),
    (("difference-identity-q-singletons", "difference-identity-q-blocks",
      "difference-identity-d-singletons", "difference-identity-d-blocks"),
     check_difference_identities, "none"),
)

SUITE_CHECK_NAMES = tuple(name for names, _, _ in CHECKS for name in names)


def run_property_suite(
    *,
    seed: int = 12345,
    trials: int = 200,
    delta_range: tuple[int, int] = (2, 5),
    n_max: int = 40,
    corpus_max_n: int = 0,
    oracle_max_n: int = 0,
    checks: Optional[Iterable[str]] = None,
) -> list[CheckOutcome]:
    """Outcomes of the named checks (all by default), in registry order.

    The bundled corpora of orders 1..corpus_max_n feed the Wiener lower
    bound, rho_Q <= 2 Delta and the delta = 2 sandwich lemma; those of
    orders 3..oracle_max_n feed the odd-component implication (even orders)
    and the odd-order observation (odd orders).
    A corpus is decoded only when a selected check reads it.
    """
    selected = set(SUITE_CHECK_NAMES if checks is None else checks)
    unknown = selected.difference(SUITE_CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    rng = Random(seed)

    def corpus(orders: range) -> list[Graph]:
        return [g for n in orders for g in load_bundled_corpus(n)]

    inputs = {
        "rng": lambda: (rng, trials),
        "q-grid": lambda: (order_bound_grid(TheoremKind.SIGNLESS_LAPLACIAN, delta_range,
                                            n_max=n_max),),
        "d-grid": lambda: (order_bound_grid(TheoremKind.DISTANCE, delta_range, n_max=n_max),),
        "none": lambda: (),
        "bound-corpus": lambda: (corpus(range(1, corpus_max_n + 1)),),
        "even-corpus": lambda: (corpus(range(4, oracle_max_n + 1, 2)),),
        "odd-corpus": lambda: (corpus(range(3, oracle_max_n + 1, 2)),),
    }
    outcomes = []
    for names, check, reads in CHECKS:
        if not selected.isdisjoint(names):
            outcomes.extend(o for o in check(*inputs[reads]()) if o.check in selected)
    return outcomes
