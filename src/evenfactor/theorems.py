"""Extremal graph, spectral thresholds, and even-factor verdicts.

The two sufficient conditions implemented here compare a connected graph
of even order n and minimum degree delta >= 2 against the extremal graph
K_delta v (K_{n-2delta+1} u (delta-1)K_1):

  * signless Laplacian: rho_Q(G) >= rho_Q(extremal)  =>  even factor,
    unless G is the extremal graph itself (order bound
    n >= max(7*delta - 7, delta^2/4 + delta/2 + 6));
  * distance: rho_D(G) <= rho_D(extremal)  =>  even factor, same
    exception (order bound n >= max(8*delta - 7, delta^2/3 + 3)).

Each threshold is the certified largest root of the extremal graph's
closed-form quotient cubic (``extremal_cubic``), which is that graph's
spectral radius: the quotient is equitable and the cubic is its exact
characteristic polynomial (tests/test_quotient.py proves the identity; the
``quotient-root-matches-matrix`` lemma compares roots with the matrix). Order
bounds are exact rationals; a graph's order is compared with their ceiling.

A cell of the extremal family is a pair (n, delta) with delta >= 2 and
n >= 2*delta, of either parity; one predicate decides it. ``extremal_cubic``
(and so ``threshold``), ``extremal_graph`` and ``extremal_wiener`` take a
cell and raise ValueError on any other pair, and ``recognize_extremal`` is
False there. ``extremal_blocks`` gives the graph's labeling.
``order_bound_grid`` yields the paper's cells, of even order from an order
bound on, as (n, delta) pairs.

Every verdict on a graph that meets the hypotheses is settled on one rung,
which the verdict records. The first needs no bound. At delta = 2 only the
extremal graph meets either condition, by the sandwich lemma: let x be a
vertex of degree 2 with neighbours a and b. Mapping a and b to the hubs, x
to the singleton and every other vertex to the big clique embeds G in the
extremal graph at (n, 2) as a spanning subgraph, since every edge of G not
at x joins two vertices that are adjacent there. Adding an edge to a
connected graph strictly raises rho_Q and strictly lowers rho_D
(Perron-Frobenius), so a proper spanning subgraph has rho_Q below theta_Q
and rho_D above theta_D. G is the whole extremal graph iff it has as many
edges, C(n - 1, 2) + 2; ``recognize_extremal`` checks that count first.
So a connected delta = 2 graph is ``inconclusive`` on the ``sandwich``
rung with no matrix built, unless it is the extremal graph (the lemma
``delta2-sandwich`` re-checks this on the bundled corpora).

At delta >= 3, a verdict rests on an exact rational bound on rho, compared
with theta exactly. ``largest_root`` certifies theta in (x - ROOT_TOL,
x + ROOT_TOL) for its float x, and the cutoffs lo = x - ROOT_TOL and
hi = x + ROOT_TOL are cached per (kind, n, delta) as rationals. A lower
bound at least hi puts rho above theta (a Q guarantee, a D "not met"), and
an upper bound at most lo puts rho below it (a D guarantee, a Q "not
met"); each bound is compared with them by integer cross-multiplication.
The bounds come in three rungs, each run on the graphs the one before
leaves open:

  * ``row-sums``, x = 1, before any matrix is built: rho_Q <= 2 Delta (row
    sums), and rho_D >= 2W/n >= 2(n(n-1) - m)/n (the all-ones Rayleigh
    quotient, with every non-adjacent pair at distance at least 2);
  * ``power``, x = M^3 1, from one int64 stack of Q or D per order
    (``spectral.perron_brackets``): the Rayleigh quotient x'Mx / x'x <= rho,
    as M is symmetric and nonnegative, and the Collatz-Wielandt bound
    rho <= max_i (Mx)_i / x_i, as M is nonnegative and x > 0 (M has no zero
    row). Entries of M^j 1 are at most R^j, for R the graph's largest row
    sum, so every integer formed is at most n R^(2k+1) for x = M^k 1; k is
    lowered from 3, per graph, until that lies below 2^62, and when not
    even k = 1 fits the graph has no bracket here. No bound is read from a
    wrapped int64, and a graph's bounds do not depend on the graphs batched
    with it;
  * ``eigenvector``, x = the eigenvector of the eigen-solve, rounded to
    positive integers with largest entry 2^52, in Python ints: the same two
    bounds, within about 1e-13 of rho.

A graph no rung settles is ``borderline`` and has no rung: the extremal
graph, whose rho is theta itself, and any other graph whose rho lies too
near theta for its bounds to clear the cutoffs. It is the extremal
exception when recognized and inconclusive otherwise, and the exact oracle
checks it, as it checks every guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .graphs import Graph, clique_join
from .oracle import CertificateStatus, even_factor_status
from .quotient import ROOT_TOL, _d_clique_star_coeffs, _q_clique_star_coeffs, largest_root
from .spectral import Ratio, _distance_stack, _signless_laplacian_stack, perron, perron_brackets

# graphs per chunk of check_even_factor_many; chunks of 512 raised the
# peak memory of the benchmark sweeps by 11-14%, chunks of 64 by under 8%
VERDICT_CHUNK = 64


# -- extremal family ---------------------------------------------------------


def _is_cell(n: int, delta: int) -> bool:
    """Whether (n, delta) names an extremal graph: delta >= 2 and n >= 2*delta,
    of either parity, so that the big clique K_{n-2delta+1} is not empty."""
    return delta >= 2 and n >= 2 * delta


def _require_cell(n: int, delta: int) -> None:
    if not _is_cell(n, delta):
        raise ValueError(f"need delta >= 2 and n >= 2*delta, got n={n}, delta={delta}")


def extremal_graph(n: int, delta: int) -> Graph:
    """K_delta v (K_{n-2delta+1} u (delta-1)K_1), labeled as ``extremal_blocks``."""
    _require_cell(n, delta)
    return clique_join(delta, (n - 2 * delta + 1,) + (1,) * (delta - 1))


def extremal_blocks(n: int, delta: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                                 tuple[int, ...]]:
    """(join, big clique, singletons) vertex blocks of extremal_graph(n, delta):
    join clique 0..delta-1, big clique next, singletons last."""
    big_end = n - delta + 1
    return tuple(range(delta)), tuple(range(delta, big_end)), tuple(range(big_end, n))


def extremal_wiener(n: int, delta: int) -> int:
    """Closed-form Wiener index (n^2 + (2delta-3)n - 3delta^2 + 3delta) / 2."""
    _require_cell(n, delta)
    return (n * n + (2 * delta - 3) * n - 3 * delta * delta + 3 * delta) // 2


# -- thresholds ----------------------------------------------------------------


class TheoremKind(Enum):
    SIGNLESS_LAPLACIAN = "signless-laplacian"
    DISTANCE = "distance"


def extremal_cubic(kind: TheoremKind, n: int, delta: int) -> tuple[int, int, int]:
    """(c2, c1, c0) of the cubic det(xI - q), for q the extremal graph's equitable
    quotient of Q(G) or D(G) under kind; its largest root is that rho_Q or rho_D."""
    _require_cell(n, delta)
    if kind is TheoremKind.SIGNLESS_LAPLACIAN:
        return _q_clique_star_coeffs(n, delta)
    return _d_clique_star_coeffs(n, delta)


@lru_cache(maxsize=None)
def threshold(kind: TheoremKind, n: int, delta: int) -> float:
    """rho_Q or rho_D, under kind, of the extremal graph at (n, delta): the
    certified largest root of its cubic."""
    return largest_root(extremal_cubic(kind, n, delta))


# -- recognizing the extremal graph -------------------------------------------


def recognize_extremal(g: Graph, delta: int) -> bool:
    """Isomorphism test against the extremal graph at (n, delta).

    The extremal graph's degree multiset, delta of n - 1, delta - 1 of
    delta and q = n - 2delta + 1 of n - delta, forces the graph, so
    comparing sorted degrees is enough. The delta vertices of degree n - 1
    are universal. A vertex of degree delta is adjacent to all of them, so
    it has no other neighbour. Each of the q vertices left sees the delta
    hubs and none of the delta - 1 degree-delta vertices, so the rest of
    its degree n - delta is exactly the other q - 1: the big clique. The
    classes n - 1 and delta differ as delta >= 2 and n >= 2delta, and
    n - 1 and n - delta differ as delta >= 2. At n = 2delta the classes
    delta and n - delta merge into delta vertices that see only the hubs,
    which is the extremal graph with q = 1. The edge count is checked first
    as a fast reject.
    """
    n = g.n
    if not _is_cell(n, delta):
        return False
    q = n - 2 * delta + 1
    expected_edges = (
        delta * (delta - 1) // 2 + q * (q - 1) // 2 + delta * (n - delta)
    )
    if g.edge_count != expected_edges:
        return False
    expected = [delta] * (delta - 1) + [n - delta] * q + [n - 1] * delta
    return sorted(g.degree(v) for v in range(n)) == expected


# -- theorem order bounds (exact rational arithmetic) --------------------------


@lru_cache(maxsize=None)
def order_bound(kind: TheoremKind, delta: int) -> Fraction:
    """Smallest admissible n for the given condition at minimum degree delta."""
    d = Fraction(delta)
    if kind is TheoremKind.SIGNLESS_LAPLACIAN:
        return max(Fraction(7 * delta - 7), d * d / 4 + d / 2 + 6)
    return max(Fraction(8 * delta - 7), d * d / 3 + 3)


@lru_cache(maxsize=None)
def min_order(kind: TheoremKind, delta: int) -> int:
    """Smallest integer order n >= order_bound(kind, delta)."""
    return math.ceil(order_bound(kind, delta))


def order_bound_grid(kind: TheoremKind, delta_range: tuple[int, int], *,
                     n_min: Optional[int] = None,
                     n_max: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """The paper's extremal-family cells (n, delta): delta over delta_range, n even.

    Each delta's orders start at its order bound under ``kind``, or at
    ``n_min`` when given, and never below 2*delta. They end at ``n_max``;
    without it at 40, or at the first order when that lies above 40.
    """
    for delta in range(delta_range[0], delta_range[1] + 1):
        lo = min_order(kind, delta) if n_min is None else n_min
        lo = max(lo + lo % 2, 2 * delta)
        hi = max(lo, 40) if n_max is None else n_max
        for n in range(lo, hi + 1, 2):
            yield n, delta


# -- verdicts ------------------------------------------------------------------


class Conclusion(Enum):
    EVEN_FACTOR_GUARANTEED = "even-factor-guaranteed"
    EXTREMAL_EXCEPTION = "extremal-exception"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class TheoremVerdict:
    kind: TheoremKind
    n: int
    min_degree: int
    spectral_value: Optional[float]
    threshold: Optional[float]
    conclusion: Conclusion
    oracle_status: Optional[CertificateStatus] = None
    # the exact bound on rho that settled the verdict, as (numerator,
    # denominator); it lies past the certified interval around the
    # threshold, on the side the conclusion puts rho
    bound: Optional[Ratio] = None
    # the rung that settled an applicable verdict (module docstring):
    # "sandwich", "row-sums", "power" or "eigenvector"; None when none did
    rung: Optional[str] = None

    @property
    def borderline(self) -> bool:
        """Whether the graph is applicable and no rung settled its verdict."""
        return self.conclusion is not Conclusion.NOT_APPLICABLE and self.rung is None

    @property
    def oracle_agrees(self) -> Optional[bool]:
        """Whether the oracle confirms a guarantee; None for any other
        conclusion, or when the search gave up."""
        if (self.conclusion is not Conclusion.EVEN_FACTOR_GUARANTEED
                or self.oracle_status is CertificateStatus.SEARCH_CAP_EXCEEDED):
            return None
        return self.oracle_status is CertificateStatus.FOUND


def _applicable(g: Graph, delta: int, least_order: int) -> bool:
    """Whether g, of minimum degree delta, meets the hypotheses of a theorem
    whose order bound at delta is least_order (its ``min_order``): even
    order, delta >= 2, the order bound (so n > 0), and, last, connectivity,
    the one test that may flood g. A graph whose builder handed it its
    connectivity answers from memory (graphs module docstring)."""
    n = g.n
    return n % 2 == 0 and delta >= 2 and n >= least_order and g.is_connected()


@lru_cache(maxsize=None)
def _cutoffs(kind: TheoremKind, n: int, delta: int) -> tuple[Ratio, Ratio]:
    """Rationals lo < theta < hi, as (numerator, denominator): x -+ ROOT_TOL,
    for the float x that ``largest_root`` certifies within ROOT_TOL of theta."""
    x, tol = Fraction(threshold(kind, n, delta)), Fraction(ROOT_TOL)
    lo, hi = x - tol, x + tol
    return (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)


def _settle(q_side: bool, cutoffs: tuple[Ratio, Ratio], lower: Optional[Ratio] = None,
            upper: Optional[Ratio] = None) -> Optional[tuple[Ratio, bool]]:
    """(bound, whether the condition holds) when the exact lower bound on rho
    reaches hi or the exact upper bound stays at or below lo; None otherwise.
    Bounds and cutoffs are (numerator, denominator) pairs, compared by
    integer cross-multiplication."""
    (lo_num, lo_den), (hi_num, hi_den) = cutoffs
    if lower is not None and lower[0] * hi_den >= hi_num * lower[1]:
        return lower, q_side
    if upper is not None and upper[0] * lo_den <= lo_num * upper[1]:
        return upper, not q_side
    return None


def _bracket_rungs(q_side: bool, stack: np.ndarray, cutoffs: list[tuple[Ratio, Ratio]]
                   ) -> list[tuple[Optional[tuple[Ratio, bool]], str, Optional[float]]]:
    """(what ``_settle`` gives, the last rung tried, rho or None) per matrix of
    a same-order int64 stack of Q or D, each against its own cutoffs: the
    ``power`` rung's M^3 1 bracket, then, on the matrices it leaves open,
    one eigen-solve and the ``eigenvector`` rung's bracket."""
    out = [(None if bracket is None else _settle(q_side, c, *bracket), "power", None)
           for bracket, c in zip(perron_brackets(stack), cutoffs)]
    left = [i for i, (settled, _, _) in enumerate(out) if settled is None]
    if left:
        sub = stack[left]
        radii, vectors, _ = perron(sub)
        for i, rho, bracket in zip(left, radii.tolist(), perron_brackets(sub, vectors)):
            out[i] = _settle(q_side, cutoffs[i], *bracket), "eigenvector", rho
    return out


def _conclude(g: Graph, kind: TheoremKind, delta: int, spectral: Optional[float],
              settled: Optional[tuple[Ratio, bool]], rung: Optional[str] = None
              ) -> TheoremVerdict:
    """The verdict on g, which is applicable, from its rho (None when no
    eigen-solve ran), the exact bound on rho that settles it, with whether
    the condition holds (None when no bound does), and the last rung tried,
    which is the verdict's rung when a bound settles it."""
    bound, holds = settled if settled is not None else (None, False)
    rung = rung if settled is not None else None
    if holds:
        conclusion = Conclusion.EVEN_FACTOR_GUARANTEED
    elif bound is None and recognize_extremal(g, delta):
        conclusion = Conclusion.EXTREMAL_EXCEPTION
    else:
        conclusion = Conclusion.INCONCLUSIVE
    # the oracle checks every guarantee and every borderline verdict
    searched = holds or bound is None
    n = g.n
    return TheoremVerdict(kind, n, delta, spectral, threshold(kind, n, delta), conclusion,
                          even_factor_status(g) if searched else None, bound, rung)


def _cell_verdict(kind: TheoremKind, n: int, delta: int, applicable: bool) -> TheoremVerdict:
    """The verdict that (n, delta) alone determines: the sandwich lemma's
    ``inconclusive`` on an applicable graph, which has delta = 2 and is not
    the extremal graph, and ``not-applicable`` otherwise."""
    if applicable:
        return TheoremVerdict(kind, n, delta, None, threshold(kind, n, delta),
                              Conclusion.INCONCLUSIVE, rung="sandwich")
    return TheoremVerdict(kind, n, delta, None, None, Conclusion.NOT_APPLICABLE)


def check_even_factor(g: Graph, kind: TheoremKind) -> TheoremVerdict:
    """Evaluate one spectral sufficient condition on a graph: a batch of one."""
    return next(check_even_factor_many((g,), kind))


def check_even_factor_many(graphs: Iterable[Graph],
                           kind: TheoremKind) -> Iterator[TheoremVerdict]:
    """Evaluate one spectral sufficient condition on each graph, in input order.

    The hypotheses are tested first, cheapest first: even order, minimum
    degree at least 2, the order bound, and only then connectivity, the one
    test that may flood the graph. The sampler hands each graph its minimum
    degree and connectivity, and the graph6 reader its minimum degree, so
    neither is derived again here for their graphs. A graph that fails one
    is ``not-applicable`` and carries ``spectral_value`` and ``threshold``
    as None. An applicable
    graph with delta = 2 is settled by the sandwich lemma (module
    docstring), with no matrix, bound or eigen-solve: ``inconclusive`` on
    the ``sandwich`` rung, or, for the extremal graph, ``extremal-exception``
    and borderline. Any other applicable graph is held to its exact bounds
    on rho, rung by rung: the x = 1 bound, the M^3 1 bracket, and the
    bracket from its eigenvector. A bound on the theorem's side of the
    threshold (rho_Q above it, rho_D below it) makes the verdict
    ``even-factor-guaranteed``, one on the other side ``inconclusive``;
    either way it is in ``bound`` and its rung in ``rung``. A graph no bound
    settles is ``borderline``: ``extremal-exception`` if recognized by its
    degrees, ``inconclusive`` otherwise. ``spectral_value`` is rho from the
    eigen-solve, None on a graph settled before it. The exact search runs
    on every guarantee and every borderline verdict, and ``oracle_status``
    holds its answer; it is None on the other verdicts. The minimum degree
    used in thresholds is always min_degree(g).

    The verdicts that (kind, n, delta) alone determines, the not-applicable
    and the sandwich ones, are built once per call and shared; verdicts are
    frozen. Each delta's order bound is looked up once per call too. Graphs
    are read VERDICT_CHUNK at a time. Within a chunk, the graphs of one
    order that the x = 1 bound leaves open share one integer matrix stack,
    which gives their brackets, and those the brackets leave open are
    eigen-solved together, from their slice of it.
    """
    q_side = kind is TheoremKind.SIGNLESS_LAPLACIAN
    build = _signless_laplacian_stack if q_side else _distance_stack
    shared: dict[tuple[int, int, bool], TheoremVerdict] = {}
    least_orders: dict[int, int] = {}
    source = iter(graphs)
    while chunk := list(islice(source, VERDICT_CHUNK)):
        verdicts: list[Optional[TheoremVerdict]] = [None] * len(chunk)
        # the graphs left to the bounds: index -> (delta, cutoffs), and what
        # the rungs found on each, as _bracket_rungs gives it
        bounded: dict[int, tuple[int, tuple[Ratio, Ratio]]] = {}
        found: dict[int, tuple[Optional[tuple[Ratio, bool]], str, Optional[float]]] = {}
        by_order: dict[int, list[int]] = {}
        for i, g in enumerate(chunk):
            n, delta = g.n, g.min_degree()
            least_order = least_orders.get(delta)
            if least_order is None:
                least_order = least_orders[delta] = min_order(kind, delta)
            applicable = _applicable(g, delta, least_order)
            if not applicable or delta == 2 and not recognize_extremal(g, 2):
                verdict = shared.get((n, delta, applicable))
                if verdict is None:
                    verdict = shared[n, delta, applicable] = _cell_verdict(
                        kind, n, delta, applicable)
                verdicts[i] = verdict
            elif delta == 2:
                verdicts[i] = _conclude(g, kind, delta, None, None)
            else:
                cutoffs = _cutoffs(kind, n, delta)
                bounded[i] = delta, cutoffs
                if q_side:
                    settled = _settle(q_side, cutoffs, upper=(2 * g.max_degree(), 1))
                else:
                    settled = _settle(q_side, cutoffs,
                                      lower=(2 * (n * (n - 1) - g.edge_count), n))
                if settled is None:
                    by_order.setdefault(n, []).append(i)
                else:
                    found[i] = settled, "row-sums", None
        for members in by_order.values():
            stack = build([chunk[i] for i in members])
            found.update(zip(members, _bracket_rungs(q_side, stack,
                                                     [bounded[i][1] for i in members])))
        for i, (delta, _) in bounded.items():
            settled, rung, rho = found[i]
            verdicts[i] = _conclude(chunk[i], kind, delta, rho, settled, rung)
        yield from verdicts


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


def extremal_table(delta_range: tuple[int, int], *, n_min: Optional[int] = None,
                   n_max: Optional[int] = None) -> list[ExtremalRow]:
    """Per-(n, delta) thresholds, the Q bracket, and even-factor status.

    The cells are ``order_bound_grid`` under the signless-Laplacian bound.
    ``bracket_ok`` records whether 2n - 2delta < rho_Q(extremal) < 2n - delta,
    which the paper claims only from that order bound on. ``even_factor``
    is the exact search's status on the extremal graph: FOUND at every cell
    with delta = 2..20 and even n = 2*delta..160, each by the oracle's
    parity repair with no search node.
    """
    rows = []
    for n, delta in order_bound_grid(TheoremKind.SIGNLESS_LAPLACIAN, delta_range,
                                     n_min=n_min, n_max=n_max):
        thr_q = threshold(TheoremKind.SIGNLESS_LAPLACIAN, n, delta)
        thr_d = threshold(TheoremKind.DISTANCE, n, delta)
        lo_m = thr_q - (2 * n - 2 * delta)
        hi_m = (2 * n - delta) - thr_q
        rows.append(ExtremalRow(
            n, delta, thr_q, thr_d,
            lo_m > 0 and hi_m > 0, min(lo_m, hi_m),
            even_factor_status(extremal_graph(n, delta)),
        ))
    return rows

