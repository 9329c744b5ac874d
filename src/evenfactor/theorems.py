"""Extremal family, spectral thresholds, and even-factor certification.

The two sufficient conditions implemented here compare a connected graph
of even order n and minimum degree delta >= 2 against the extremal graph
K_delta v (K_{n-2delta+1} u (delta-1)K_1):

  * signless Laplacian: rho_Q(G) >= rho_Q(extremal)  =>  even factor,
    unless G is the extremal graph itself (order bound
    n >= max(7*delta - 7, delta^2/4 + delta/2 + 6));
  * distance: rho_D(G) <= rho_D(extremal)  =>  even factor, same
    exception (order bound n >= max(8*delta - 7, delta^2/3 + 3)).

Thresholds come from the closed-form quotient cubics and are cross-checked
against the explicitly built extremal graph on every evaluation. Order
bounds are compared in exact rational arithmetic. A property-check suite
exercises the supporting monotonicity, dominance, quotient, and
perturbation facts on finite grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from random import Random
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, clique_join
from .oracle import (
    CertificateStatus,
    EvenFactorCertificate,
    find_even_factor,
    is_even_factor,
    odd_component_condition,
)
from .quotient import (
    CubicFamily,
    blocks_family_big_clique,
    charpoly3,
    d_block_gap_at_wiener_floor,
    d_block_gap_coeffs,
    eval_poly,
    family_cubic,
    largest_root,
    q_block_gap_at_bracket_floor,
    q_block_gap_coeffs,
    q_block_gap_s2_coeffs,
    quotient_matrix,
)
from .sampling import sample_graph
from .spectral import (
    distance_matrix,
    largest_eigenvalue,
    rho_d,
    rho_d_many,
    rho_q,
    rho_q_many,
    signless_laplacian,
    wiener_index,
)

COMPARISON_EPSILON = 1e-8
BORDERLINE_MARGIN = 1e-6
THRESHOLD_AGREEMENT = 1e-8
# graphs per chunk of check_even_factor_many; chunks of 512 raised the
# peak memory of the benchmark sweeps by 11-14%, chunks of 64 by under 8%
VERDICT_CHUNK = 64


# -- extremal family ---------------------------------------------------------


@dataclass(frozen=True)
class ExtremalParams:
    """Even order n and minimum degree delta of the extremal family."""

    n: int
    delta: int

    def __post_init__(self):
        if self.delta < 2:
            raise ValueError(f"delta must be >= 2, got {self.delta}")
        if self.n % 2 != 0:
            raise ValueError(f"n must be even, got {self.n}")
        if self.n - 2 * self.delta + 1 < 1:
            raise ValueError(
                f"need n - 2*delta + 1 >= 1, got n={self.n}, delta={self.delta}"
            )

    @property
    def big_clique(self) -> int:
        return self.n - 2 * self.delta + 1


def extremal_graph(p: ExtremalParams) -> Graph:
    """K_delta v (K_{n-2delta+1} u (delta-1)K_1).

    Labels: join clique 0..delta-1, big clique next, singletons last.
    """
    return clique_join(p.delta, (p.big_clique,) + (1,) * (p.delta - 1))


def extremal_blocks(p: ExtremalParams) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(join, big clique, singletons) vertex blocks of extremal_graph."""
    d, q = p.delta, p.big_clique
    return (
        tuple(range(d)),
        tuple(range(d, d + q)),
        tuple(range(d + q, p.n)),
    )


def extremal_wiener(p: ExtremalParams) -> int:
    """Closed-form Wiener index (n^2 + (2delta-3)n - 3delta^2 + 3delta) / 2."""
    n, d = p.n, p.delta
    return (n * n + (2 * d - 3) * n - 3 * d * d + 3 * d) // 2


# -- the comparison families --------------------------------------------------


class JoinFamily(Enum):
    ODD_CLIQUES = "odd-cliques"          # K_s v (K_{n_1} u ... u K_{n_s})
    SINGLETONS = "singletons"            # K_s v (K_{n-2s+1} u (s-1)K_1)
    UNIFORM_BLOCKS = "uniform-blocks"    # K_s v (K_q u (s-1)K_{delta+1-s})


@dataclass(frozen=True)
class FamilyParams:
    n: int
    s: int
    delta: Optional[int] = None
    parts: Optional[tuple[int, ...]] = None


def family_graph(f: FamilyParams, which: JoinFamily) -> Graph:
    """Build one of the three comparison families; labeling as clique_join."""
    if which is JoinFamily.ODD_CLIQUES:
        if f.parts is None:
            raise ValueError("odd-cliques family needs parts")
        parts = tuple(f.parts)
        if len(parts) != f.s:
            raise ValueError(f"expected {f.s} parts, got {len(parts)}")
        if any(p % 2 == 0 or p < 1 for p in parts):
            raise ValueError(f"parts must be odd positive integers, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        if sum(parts) != f.n - f.s:
            raise ValueError(f"parts must sum to n - s = {f.n - f.s}, got {sum(parts)}")
        return clique_join(f.s, parts)
    if which is JoinFamily.SINGLETONS:
        if f.s < 2 or f.n < 2 * f.s:
            raise ValueError(f"singleton family needs s >= 2 and n >= 2s, got {f}")
        return clique_join(f.s, (f.n - 2 * f.s + 1,) + (1,) * (f.s - 1))
    if f.delta is None:
        raise ValueError("uniform-blocks family needs delta")
    if not (2 <= f.s <= f.delta - 1):
        raise ValueError(f"uniform-blocks family needs 2 <= s <= delta-1, got {f}")
    q = blocks_family_big_clique(f.n, f.s, f.delta)
    if q < 1:
        raise ValueError(f"uniform-blocks family needs a nonempty big clique, got {f}")
    return clique_join(f.s, (q,) + (f.delta + 1 - f.s,) * (f.s - 1))


# -- thresholds ----------------------------------------------------------------


class ThresholdConsistencyError(RuntimeError):
    """Cubic root and full-matrix eigenvalue disagree beyond tolerance."""


@lru_cache(maxsize=None)
def _thresholds(n: int, delta: int) -> tuple[float, float]:
    p = ExtremalParams(n, delta)
    g = extremal_graph(p)
    cubic_q = family_cubic(CubicFamily.Q_EXTREMAL, n, delta=delta)
    root_q = largest_root(
        cubic_q, 2 * n - 2 * delta, 2 * n - delta, widen=True, hi_cap=4 * n
    )
    direct_q = rho_q(g)
    if abs(root_q - direct_q) > THRESHOLD_AGREEMENT:
        raise ThresholdConsistencyError(
            f"rho_Q threshold mismatch at (n={n}, delta={delta}): "
            f"cubic {root_q!r} vs matrix {direct_q!r}"
        )
    cubic_d = family_cubic(CubicFamily.D_EXTREMAL, n, delta=delta)
    root_d = largest_root(cubic_d, n + delta - 3, 3 * n, widen=True, hi_cap=4 * n)
    direct_d = rho_d(g)
    if abs(root_d - direct_d) > THRESHOLD_AGREEMENT:
        raise ThresholdConsistencyError(
            f"rho_D threshold mismatch at (n={n}, delta={delta}): "
            f"cubic {root_d!r} vs matrix {direct_d!r}"
        )
    return root_q, root_d


def threshold_rho_q(p: ExtremalParams) -> float:
    """rho_Q of the extremal graph, from its cubic, matrix-cross-checked."""
    return _thresholds(p.n, p.delta)[0]


def threshold_rho_d(p: ExtremalParams) -> float:
    """rho_D of the extremal graph, from its cubic, matrix-cross-checked."""
    return _thresholds(p.n, p.delta)[1]


# -- recognizing the extremal graph -------------------------------------------


def recognize_extremal(g: Graph, delta: int) -> bool:
    """Structural isomorphism test against the extremal graph at (n, delta).

    The target is rigid: delta dominating vertices of degree n-1, delta-1
    vertices of degree delta whose neighborhood is exactly the dominating
    set, and a clique on the rest. No general isomorphism search is needed.
    """
    n = g.n
    if delta < 2 or n < 2 * delta:
        return False
    q = n - 2 * delta + 1
    expected_edges = (
        delta * (delta - 1) // 2 + q * (q - 1) // 2 + delta * (n - delta)
    )
    if g.edge_count != expected_edges:
        return False
    hubs = [v for v in range(n) if g.degree(v) == n - 1]
    if len(hubs) != delta:
        return False
    hub_mask = 0
    for v in hubs:
        hub_mask |= 1 << v
    only_hubs = []
    big = []
    for v in range(n):
        if v in hubs:
            continue
        if g.neighbor_bits(v) == hub_mask:
            only_hubs.append(v)
        elif g.degree(v) == n - delta:
            big.append(v)
        else:
            return False
    if n == 2 * delta:
        # degree classes delta and n - delta coincide; the big clique is K_1
        return len(only_hubs) == delta and not big
    if len(only_hubs) != delta - 1 or len(big) != q:
        return False
    big_mask = 0
    for v in big:
        big_mask |= 1 << v
    for v in big:
        nb = g.neighbor_bits(v)
        if nb & ~(hub_mask | big_mask):
            return False
        if (big_mask & ~(1 << v)) & ~nb:
            return False
    return True


# -- theorem order bounds (exact rational arithmetic) --------------------------


class TheoremKind(Enum):
    SIGNLESS_LAPLACIAN = "signless-laplacian"
    DISTANCE = "distance"


def order_bound(kind: TheoremKind, delta: int) -> Fraction:
    """Smallest admissible n for the given condition at minimum degree delta."""
    d = Fraction(delta)
    if kind is TheoremKind.SIGNLESS_LAPLACIAN:
        return max(Fraction(7 * delta - 7), d * d / 4 + d / 2 + 6)
    return max(Fraction(8 * delta - 7), d * d / 3 + 3)


# -- verdicts ------------------------------------------------------------------


class Conclusion(Enum):
    EVEN_FACTOR_GUARANTEED = "even-factor-guaranteed"
    EXTREMAL_EXCEPTION = "extremal-exception"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class HypothesisReport:
    connected: bool
    even_order: bool
    min_degree_ok: bool
    order_bound_ok: bool

    @property
    def met(self) -> bool:
        return (
            self.connected
            and self.even_order
            and self.min_degree_ok
            and self.order_bound_ok
        )


@dataclass(frozen=True)
class TheoremVerdict:
    kind: TheoremKind
    n: int
    min_degree: int
    hypotheses: HypothesisReport
    spectral_value: Optional[float]
    threshold: Optional[float]
    borderline: bool
    conclusion: Conclusion
    oracle_status: Optional[CertificateStatus] = None
    oracle_agrees: Optional[bool] = None


def _spectral_condition_met(kind: TheoremKind, value: float, threshold: float,
                            epsilon: float) -> bool:
    if kind is TheoremKind.SIGNLESS_LAPLACIAN:
        return value >= threshold - epsilon
    return value <= threshold + epsilon


def _spectral_value_defined(g: Graph, kind: TheoremKind) -> bool:
    """rho_Q needs a vertex; rho_D needs a connected graph with a vertex."""
    return g.n >= 1 and (kind is TheoremKind.SIGNLESS_LAPLACIAN or g.is_connected())


def check_even_factor(
    g: Graph,
    kind: TheoremKind,
    *,
    run_oracle: bool = False,
    node_cap: int = 100_000_000,
    epsilon: float = COMPARISON_EPSILON,
    borderline_margin: float = BORDERLINE_MARGIN,
    spectral_value: Optional[float] = None,
) -> TheoremVerdict:
    """Evaluate one spectral sufficient condition on a graph.

    The minimum degree used in thresholds is always min_degree(g). When the
    spectral comparison lands within ``borderline_margin`` of the threshold
    the verdict is flagged borderline; with ``run_oracle`` the exact search
    cross-checks every conclusion that claims an even factor.
    ``spectral_value`` is g's rho_Q or rho_D when the caller already has
    it; it is computed here when None.
    """
    n = g.n
    delta = g.min_degree()
    connected = g.is_connected() and n >= 1
    hyp = HypothesisReport(
        connected=connected,
        even_order=n % 2 == 0 and n > 0,
        min_degree_ok=delta >= 2,
        order_bound_ok=delta >= 2 and Fraction(n) >= order_bound(kind, delta),
    )
    spectral = spectral_value
    if spectral is None and _spectral_value_defined(g, kind):
        spectral = rho_q(g) if kind is TheoremKind.SIGNLESS_LAPLACIAN else rho_d(g)

    if not hyp.met:
        return TheoremVerdict(
            kind, n, delta, hyp, spectral, None, False, Conclusion.NOT_APPLICABLE
        )

    params = ExtremalParams(n, delta)
    threshold = (
        threshold_rho_q(params)
        if kind is TheoremKind.SIGNLESS_LAPLACIAN
        else threshold_rho_d(params)
    )
    assert spectral is not None
    borderline = abs(spectral - threshold) <= borderline_margin
    if not _spectral_condition_met(kind, spectral, threshold, epsilon):
        conclusion = Conclusion.INCONCLUSIVE
    elif recognize_extremal(g, delta):
        conclusion = Conclusion.EXTREMAL_EXCEPTION
    else:
        conclusion = Conclusion.EVEN_FACTOR_GUARANTEED

    oracle_status = None
    oracle_agrees = None
    claims_factor = conclusion is Conclusion.EVEN_FACTOR_GUARANTEED
    if run_oracle and (claims_factor or conclusion is Conclusion.EXTREMAL_EXCEPTION
                       or borderline):
        cert = find_even_factor(g, node_cap=node_cap)
        oracle_status = cert.status
        if claims_factor:
            if cert.status is CertificateStatus.FOUND:
                oracle_agrees = True
            elif cert.status is CertificateStatus.NONE_EXISTS:
                oracle_agrees = False
    return TheoremVerdict(
        kind, n, delta, hyp, spectral, threshold, borderline, conclusion,
        oracle_status, oracle_agrees,
    )


def check_even_factor_many(graphs: Iterable[Graph], kind: TheoremKind,
                           **kwargs) -> Iterator[TheoremVerdict]:
    """``check_even_factor`` on each graph, yielding verdicts in input order.

    Graphs are read VERDICT_CHUNK at a time. Within a chunk, the spectral
    values of same-order graphs come from one stacked eigen-solve and are
    passed on as ``spectral_value``; other keywords go to
    ``check_even_factor`` unchanged.
    """
    radii = rho_q_many if kind is TheoremKind.SIGNLESS_LAPLACIAN else rho_d_many
    source = iter(graphs)
    while chunk := list(islice(source, VERDICT_CHUNK)):
        by_order: dict[int, list[int]] = {}
        for i, g in enumerate(chunk):
            if _spectral_value_defined(g, kind):
                by_order.setdefault(g.n, []).append(i)
        values: list[Optional[float]] = [None] * len(chunk)
        for members in by_order.values():
            for i, value in zip(members, radii([chunk[i] for i in members])):
                values[i] = float(value)
        for g, value in zip(chunk, values):
            yield check_even_factor(g, kind, spectral_value=value, **kwargs)


def check_even_factor_q(g: Graph, **kwargs) -> TheoremVerdict:
    """Signless-Laplacian condition: rho_Q(G) >= threshold."""
    return check_even_factor(g, TheoremKind.SIGNLESS_LAPLACIAN, **kwargs)


def check_even_factor_d(g: Graph, **kwargs) -> TheoremVerdict:
    """Distance condition: rho_D(G) <= threshold."""
    return check_even_factor(g, TheoremKind.DISTANCE, **kwargs)


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


def perron_abc(p: ExtremalParams) -> PerronABC:
    """Solve the 3-block distance quotient eigen-system with a = 1."""
    n, d = p.n, p.delta
    rho = threshold_rho_d(p)
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


# -- explicit even factor of the extremal graph --------------------------------


def extremal_even_factor(p: ExtremalParams, *, node_cap: int = 100_000_000) -> EvenFactorCertificate:
    """Settle the extremal graph's even-factor status.

    For the generic shapes a disjoint cycle certificate is constructed
    directly and validated; degenerate small shapes fall back to the exact
    search. The status is therefore settled (never cap-exceeded) whenever
    the construction applies.
    """
    g = extremal_graph(p)
    d, q, n = p.delta, p.big_clique, p.n
    joins = list(range(d))
    bigs = list(range(d, d + q))
    singles = list(range(d + q, n))
    edges: list[tuple[int, int]] = []
    if d == 2 and q >= 3:
        u = singles[0]
        edges += [(joins[0], joins[1]), (joins[1], u), (u, joins[0])]
        edges += [(bigs[i], bigs[(i + 1) % q]) for i in range(q)]
    elif d >= 3 and q >= 2:
        ring: list[int] = []
        for i, u in enumerate(singles):
            ring += [u, joins[i + 1]]
        edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        loop = [joins[0]] + bigs
        edges += [(loop[i], loop[(i + 1) % len(loop)]) for i in range(len(loop))]
    else:
        return find_even_factor(g, node_cap=node_cap)
    if not is_even_factor(g, edges):
        raise RuntimeError(f"internal error: invalid constructed certificate at {p}")
    return EvenFactorCertificate(CertificateStatus.FOUND, tuple(sorted(edges)), 0)


# -- property-check suite -------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    point: str
    passed: bool
    margin: float
    note: str = ""


@dataclass
class SuiteReport:
    outcomes: list[CheckOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if not o.passed]

    def extend(self, outcomes: Iterable[CheckOutcome]) -> None:
        self.outcomes.extend(outcomes)


def _random_connected_graph(rng: Random, n: int, p: float) -> Graph:
    while True:
        g = sample_graph(rng, n, p)
        if g.is_connected():
            return g


def check_q_edge_addition(rng: Random, trials: int, tolerance: float) -> list[CheckOutcome]:
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
            margin > tolerance, margin,
        ))
        done += 1
    return out


def check_d_edge_deletion(rng: Random, trials: int, tolerance: float) -> list[CheckOutcome]:
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
            margin > tolerance, margin,
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


def check_family_dominance(rng: Random, trials: int, tolerance: float) -> list[CheckOutcome]:
    """Concentrating clique mass raises rho_Q and lowers rho_D.

    Compares K_s v (K_{n_1} u ... u K_{n_t}) against
    K_s v (K_{n-s-p(t-1)} u (t-1)K_p) when n_1 < n - s - p(t-1).
    """
    out = []
    for _ in range(trials):
        n, s, p, parts = _dominance_point(rng)
        t = len(parts)
        spread = clique_join(s, parts)
        packed = clique_join(s, (n - s - p * (t - 1),) + (p,) * (t - 1))
        q_margin = rho_q(packed) - rho_q(spread)
        d_margin = rho_d(spread) - rho_d(packed)
        point = f"n={n},s={s},p={p},parts={parts}"
        out.append(CheckOutcome("q-family-dominance", point,
                                q_margin > tolerance, q_margin))
        out.append(CheckOutcome("d-family-dominance", point,
                                d_margin > tolerance, d_margin))
    return out


def _extremal_grid(delta_range: tuple[int, int], n_max: int,
                   kind: TheoremKind) -> Iterable[ExtremalParams]:
    for delta in range(delta_range[0], delta_range[1] + 1):
        start = order_bound(kind, delta)
        n0 = int(math.ceil(start))
        if n0 % 2:
            n0 += 1
        for n in range(n0, n_max + 1, 2):
            yield ExtremalParams(n, delta)


def check_quotient_matches_matrix(grid: Iterable[ExtremalParams],
                                  tolerance: float = 1e-8) -> list[CheckOutcome]:
    """Equitable-quotient cubic roots equal full-matrix Perron values."""
    out = []
    for p in grid:
        g = extremal_graph(p)
        joins, bigs, singles = extremal_blocks(p)
        n, d = p.n, p.delta
        qm = quotient_matrix(signless_laplacian(g), (joins, bigs, singles))
        root = largest_root(charpoly3(qm), 2 * n - 2 * d, 4 * n, widen=True)
        err_q = abs(root - rho_q(g))
        dm = quotient_matrix(distance_matrix(g), (bigs, joins, singles))
        root_d = largest_root(charpoly3(dm), n + d - 3, 4 * n, widen=True)
        err_d = abs(root_d - rho_d(g))
        note = "" if qm.equitable and dm.equitable else "partition not equitable"
        err = max(err_q, err_d)
        out.append(CheckOutcome(
            "quotient-root-matches-matrix", f"n={n},delta={d}",
            err <= tolerance and qm.equitable and dm.equitable, err, note,
        ))
    return out


def check_wiener_bound(graphs: Iterable[Graph], tolerance: float) -> list[CheckOutcome]:
    """rho_D >= 2 W / n for connected graphs (all-ones Rayleigh quotient)."""
    out = []
    for i, g in enumerate(graphs):
        margin = rho_d(g) - 2 * wiener_index(g) / g.n
        out.append(CheckOutcome(
            "wiener-lower-bound", f"graph#{i},n={g.n},m={g.edge_count}",
            margin >= -tolerance, margin,
        ))
    return out


def check_q_threshold_bracket(grid: Iterable[ExtremalParams]) -> list[CheckOutcome]:
    """Strict bracket 2n-2delta < rho_Q(extremal) < 2n-delta."""
    out = []
    for p in grid:
        thr = threshold_rho_q(p)
        lo_margin = thr - (2 * p.n - 2 * p.delta)
        hi_margin = (2 * p.n - p.delta) - thr
        out.append(CheckOutcome(
            "q-threshold-bracket", f"n={p.n},delta={p.delta}",
            lo_margin > 0 and hi_margin > 0, min(lo_margin, hi_margin),
        ))
    return out


def check_odd_component_implication(graphs: Iterable[Graph],
                                    node_cap: int) -> list[CheckOutcome]:
    """On even orders >= 4: o(G-S) < |S| for all |S| >= 2 implies an even factor.

    n = 2 is a genuine degenerate boundary: K_2 satisfies the condition
    vacuously (the only subset of size >= 2 is all of V) but has no even
    factor, so it is excluded.
    """
    out = []
    for i, g in enumerate(graphs):
        if g.n % 2 or g.n < 4:
            continue
        report = odd_component_condition(g)
        if not report.holds:
            continue
        cert = find_even_factor(g, node_cap=node_cap)
        out.append(CheckOutcome(
            "odd-component-implication", f"graph#{i},n={g.n},m={g.edge_count}",
            cert.status is CertificateStatus.FOUND,
            1.0 if cert.status is CertificateStatus.FOUND else 0.0,
            cert.status.value,
        ))
    return out


def observe_odd_order_condition(graphs: Iterable[Graph],
                                node_cap: int) -> list[CheckOutcome]:
    """Record (never assert) the condition-vs-factor relation on odd orders.

    The sufficient condition is only stated for even orders; this summarizes
    what happens on odd-order inputs as a single always-passing observation.
    """
    satisfied = with_factor = without = 0
    for g in graphs:
        if g.n % 2 == 0 or g.n < 3:
            continue
        if not odd_component_condition(g).holds:
            continue
        satisfied += 1
        status = find_even_factor(g, node_cap=node_cap).status
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


def check_extremal_wiener_closed_form(grid: Iterable[ExtremalParams]) -> list[CheckOutcome]:
    """BFS Wiener index equals the closed form on the extremal family."""
    out = []
    for p in grid:
        direct = wiener_index(extremal_graph(p))
        closed = extremal_wiener(p)
        out.append(CheckOutcome(
            "extremal-wiener-closed-form", f"n={p.n},delta={p.delta}",
            direct == closed, float(direct - closed),
        ))
    return out


def blocks_graph_aligned(p: ExtremalParams) -> Graph:
    """The s=2 uniform-blocks graph laid out on the extremal graph's labels.

    Starting from the extremal graph: the singletons become a clique joined
    only to the first two join vertices; the remaining join vertices merge
    into the big clique. The result is isomorphic to
    K_2 v (K_{n-delta-1} u K_{delta-1}).
    """
    joins, _, singles = extremal_blocks(p)
    edges = set(extremal_graph(p).edges())
    for u in singles:
        for j in joins[2:]:
            edges.discard((j, u) if j < u else (u, j))
    for i, u in enumerate(singles):
        for w in singles[i + 1:]:
            edges.add((u, w))
    return Graph(p.n, sorted(edges))


def check_blocks_rayleigh_gap(grid: Iterable[ExtremalParams],
                              tolerance: float) -> list[CheckOutcome]:
    """rho_D(blocks s=2) - rho_D(extremal) >= (d-1)(d-2) x_iso (2 x_join - x_iso).

    The right side is the Rayleigh quadratic form of the distance-matrix
    perturbation evaluated at the extremal graph's unit Perron vector, whose
    block values are read off the exact labeling.
    """
    out = []
    for p in grid:
        if p.delta < 3:
            continue
        star = extremal_graph(p)
        moved = blocks_graph_aligned(p)
        res = largest_eigenvalue(distance_matrix(star))
        joins, _, singles = extremal_blocks(p)
        x_join = float(res.vector[joins[0]])
        x_iso = float(res.vector[singles[0]])
        bound = (p.delta - 1) * (p.delta - 2) * x_iso * (2 * x_join - x_iso)
        gap = rho_d(moved) - res.value
        margin = gap - bound
        out.append(CheckOutcome(
            "d-blocks-rayleigh-gap", f"n={p.n},delta={p.delta}",
            margin >= -tolerance and bound > 0, margin,
            f"gap={gap:.6g},bound={bound:.6g}",
        ))
    return out


def check_perron_ratio(grid: Iterable[ExtremalParams]) -> list[CheckOutcome]:
    """2b - a > 0 and the closed-form ratio for b, at 1e-10."""
    out = []
    for p in grid:
        res = perron_abc(p)
        ok = (
            2 * res.b - res.a > 0
            and res.ratio_residual <= 1e-10
            and res.system_residual <= 1e-8
        )
        out.append(CheckOutcome(
            "perron-ratio-positivity", f"n={p.n},delta={p.delta}",
            ok, 2 * res.b - res.a,
            f"ratio_residual={res.ratio_residual:.3e}",
        ))
    return out


def check_blocks_cubic_s2(delta_range: tuple[int, int], n_max: int) -> list[CheckOutcome]:
    """The s=2 block-family cubic is the signless-Laplacian one.

    The expected specialization (x^3 + (4-3n)x^2 + ... ) matches the Q-side
    block family exactly and differs from the distance-side block family;
    recorded here so the labeling question is settled by data.
    """
    out = []
    for delta in range(max(3, delta_range[0]), delta_range[1] + 1):
        n0 = delta + 4 - delta % 2
        for n in range(n0, n_max + 1, 4):
            q_cubic = family_cubic(CubicFamily.Q_BLOCKS, n, s=2, delta=delta)
            expected = (
                1,
                4 - 3 * n,
                2 * n**2 + 4 * delta * n - 10 * n - 4 * delta**2 + 8,
                4 * n**2 - 4 * delta * n**2 + 4 * delta**2 * n + 8 * delta * n
                - 12 * n - 8 * delta**2 + 8,
            )
            match_q = q_cubic.coefficients == expected
            d_cubic = family_cubic(CubicFamily.D_BLOCKS, n, s=2, delta=delta)
            differs_d = d_cubic.coefficients != expected
            out.append(CheckOutcome(
                "blocks-cubic-s2-specialization", f"n={n},delta={delta}",
                match_q and differs_d, 1.0 if match_q else 0.0,
                "matches signless-Laplacian block cubic; distance one differs",
            ))
    return out


def check_gap_polynomial_expansions(delta_range: tuple[int, int],
                                    n_max: int) -> list[CheckOutcome]:
    """Expanded bound polynomials agree with direct gap evaluations (exact)."""
    out = []
    worst_pass = True
    for delta in range(max(3, delta_range[0]), delta_range[1] + 1):
        for s in range(2, delta):
            n_lo = s + (delta + 1 - s) * (s - 1) + 1
            for n in range(n_lo, n_max + 1, 3):
                f_direct = eval_poly(q_block_gap_coeffs(n, s, delta), 2 * n - 2 * delta)
                f_closed = q_block_gap_at_bracket_floor(n, s, delta)
                g_direct = eval_poly(d_block_gap_coeffs(n, s, delta), n + delta - 3)
                g_closed = d_block_gap_at_wiener_floor(n, s, delta)
                s2_ok = True
                if s == 2:
                    s2_ok = q_block_gap_s2_coeffs(n, delta) == q_block_gap_coeffs(n, 2, delta)
                ok = f_direct == f_closed and g_direct == g_closed and s2_ok
                worst_pass = worst_pass and ok
                if not ok:
                    out.append(CheckOutcome(
                        "gap-polynomial-expansions", f"n={n},s={s},delta={delta}",
                        False, 0.0,
                        f"f:{f_direct}!={f_closed} g:{g_direct}!={g_closed}",
                    ))
    out.append(CheckOutcome(
        "gap-polynomial-expansions", "grid", worst_pass,
        1.0 if worst_pass else 0.0,
    ))
    return out


def run_property_suite(
    *,
    seed: int = 12345,
    trials: int = 200,
    delta_range: tuple[int, int] = (2, 5),
    n_max: int = 40,
    corpus_graphs: Sequence[Graph] = (),
    oracle_graphs: Sequence[Graph] = (),
    node_cap: int = 100_000_000,
    tolerance: float = COMPARISON_EPSILON,
    checks: Optional[set[str]] = None,
) -> SuiteReport:
    """Run the supporting-fact checks on seeded samples and finite grids.

    ``corpus_graphs`` feeds the Wiener lower bound; ``oracle_graphs`` feeds
    the odd-component implication (even orders only). ``checks`` restricts
    the run to a subset of check names.
    """
    rng = Random(seed)
    q_grid = list(_extremal_grid(delta_range, n_max, TheoremKind.SIGNLESS_LAPLACIAN))
    d_grid = list(_extremal_grid(delta_range, n_max, TheoremKind.DISTANCE))
    report = SuiteReport()

    def want(name: str) -> bool:
        return checks is None or name in checks

    if want("q-monotone-edge-add"):
        report.extend(check_q_edge_addition(rng, trials, tolerance))
    if want("d-monotone-edge-delete"):
        report.extend(check_d_edge_deletion(rng, trials, tolerance))
    if want("q-family-dominance") or want("d-family-dominance"):
        report.extend(check_family_dominance(rng, max(1, trials // 4), tolerance))
    if want("quotient-root-matches-matrix"):
        report.extend(check_quotient_matches_matrix(q_grid))
    if want("wiener-lower-bound"):
        report.extend(check_wiener_bound(corpus_graphs, tolerance))
    if want("q-threshold-bracket"):
        report.extend(check_q_threshold_bracket(q_grid))
    if want("odd-component-implication"):
        report.extend(check_odd_component_implication(oracle_graphs, node_cap))
    if want("odd-order-observation"):
        report.extend(observe_odd_order_condition(oracle_graphs, node_cap))
    if want("extremal-wiener-closed-form"):
        report.extend(check_extremal_wiener_closed_form(d_grid))
    if want("d-blocks-rayleigh-gap"):
        report.extend(check_blocks_rayleigh_gap(d_grid, tolerance))
    if want("perron-ratio-positivity"):
        report.extend(check_perron_ratio(
            [p for p in d_grid if p.delta >= 3 and p.n >= 8 * p.delta - 7]))
    if want("blocks-cubic-s2-specialization"):
        report.extend(check_blocks_cubic_s2(delta_range, n_max))
    if want("gap-polynomial-expansions"):
        report.extend(check_gap_polynomial_expansions(delta_range, n_max))
    return report


SUITE_CHECK_NAMES = (
    "q-monotone-edge-add",
    "d-monotone-edge-delete",
    "q-family-dominance",
    "d-family-dominance",
    "quotient-root-matches-matrix",
    "wiener-lower-bound",
    "q-threshold-bracket",
    "odd-component-implication",
    "odd-order-observation",
    "extremal-wiener-closed-form",
    "d-blocks-rayleigh-gap",
    "perron-ratio-positivity",
    "blocks-cubic-s2-specialization",
    "gap-polynomial-expansions",
)


# -- extremal status table -------------------------------------------------------

EXTREMAL_TABLE_NOTE = (
    "The guarantee statements exempt the extremal graph itself; its own "
    "even-factor status is not implied either way and is settled "
    "empirically per grid point in the even_factor column."
)


@dataclass(frozen=True)
class ExtremalRow:
    n: int
    delta: int
    threshold_q: float
    threshold_d: float
    bracket_ok: bool
    bracket_margin: float
    even_factor: CertificateStatus
    settled_by: str


def extremal_table(
    delta_range: tuple[int, int],
    n_min: Optional[int] = None,
    n_max: Optional[int] = None,
    *,
    node_cap: int = 100_000_000,
) -> list[ExtremalRow]:
    """Per-(n, delta) thresholds, bracket check, and even-factor status.

    Without ``n_min`` each delta starts at its theorem order bound.
    """
    rows = []
    for delta in range(delta_range[0], delta_range[1] + 1):
        if n_min is None:
            lo = int(math.ceil(order_bound(TheoremKind.SIGNLESS_LAPLACIAN, delta)))
        else:
            lo = n_min
        hi = n_max if n_max is not None else max(lo, 40)
        if lo % 2:
            lo += 1
        for n in range(max(lo, 2 * delta), hi + 1, 2):
            p = ExtremalParams(n, delta)
            thr_q = threshold_rho_q(p)
            thr_d = threshold_rho_d(p)
            lo_m = thr_q - (2 * n - 2 * delta)
            hi_m = (2 * n - delta) - thr_q
            cert = extremal_even_factor(p, node_cap=node_cap)
            settled = "construction" if cert.nodes_explored == 0 else "search"
            rows.append(ExtremalRow(
                n, delta, thr_q, thr_d,
                lo_m > 0 and hi_m > 0, min(lo_m, hi_m),
                cert.status, settled,
            ))
    return rows
