"""Vertex partitions, quotient matrices, and the 3x3 family cubics.

Quotient matrices of integer source matrices are computed in exact
rational arithmetic so equitability is never a floating-point judgment.
The coefficients of the join families' monic cubics (extremal, singleton
tail, uniform-block tail; Q and D) and of their gap quadratics run on ints
or on ``Poly``, an integer polynomial in (n, s, delta), on which ``lemmas``
proves their identities once for all parameters. ``largest_root``
certifies a cubic's largest real root to ROOT_TOL by the Fourier-Budan
test of ``_fourier_signs``, the exact sign test the lemmas' proofs use. A
cubic is the triple (c2, c1, c0) of the monic x^3 + c2 x^2 + c1 x + c0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


# absolute accuracy of every root largest_root returns
ROOT_TOL = 1e-10


class InvalidPartitionError(ValueError):
    """Blocks must be disjoint, nonempty, and cover the index set."""


class BracketingError(ValueError):
    """The largest real root of a cubic could not be certified simple."""


def validate_partition(order: int, blocks: Sequence[Sequence[int]]) -> None:
    seen: set[int] = set()
    for b in blocks:
        if len(b) == 0:
            raise InvalidPartitionError("empty block")
        for v in b:
            if not (0 <= v < order):
                raise InvalidPartitionError(f"index {v} out of range for order {order}")
            if v in seen:
                raise InvalidPartitionError(f"index {v} appears in two blocks")
            seen.add(v)
    if len(seen) != order:
        raise InvalidPartitionError("blocks do not cover the index set")


@dataclass(frozen=True)
class QuotientMatrix:
    """Average block row sums q_ij, with an exact equitability flag."""

    entries: tuple[tuple[Fraction, ...], ...]
    equitable: bool

    @property
    def order(self) -> int:
        return len(self.entries)


def _exact(value) -> Fraction:
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    return Fraction(*float(value).as_integer_ratio())


def quotient_matrix(m, blocks: Sequence[Sequence[int]]) -> QuotientMatrix:
    """Quotient of a square matrix with respect to an ordered partition.

    q_ij is the average row sum of the (i, j) block; the partition is
    equitable iff every block has constant row sums (tested exactly).
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    validate_partition(m.shape[0], blocks)
    r = len(blocks)
    entries = []
    equitable = True
    for bi in blocks:
        row = []
        for bj in blocks:
            sums = [sum(_exact(m[u, v]) for v in bj) for u in bi]
            if any(t != sums[0] for t in sums[1:]):
                equitable = False
            row.append(sum(sums, Fraction(0)) / len(bi))
        entries.append(tuple(row))
    return QuotientMatrix(tuple(entries), equitable)


def charpoly3(q: QuotientMatrix) -> tuple[Fraction, Fraction, Fraction]:
    """(c2, c1, c0) of the monic det(xI - Q) of a 3x3 quotient matrix Q."""
    if q.order != 3:
        raise ValueError(f"charpoly3 needs order 3, got {q.order}")
    a = q.entries
    trace = a[0][0] + a[1][1] + a[2][2]
    minors = (
        a[1][1] * a[2][2] - a[1][2] * a[2][1]
        + a[0][0] * a[2][2] - a[0][2] * a[2][0]
        + a[0][0] * a[1][1] - a[0][1] * a[1][0]
    )
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    return -trace, minors, -det


# -- closed-form cubics for the three-block join families -------------------
#
# Families: K_t joined to (one big clique + a tail of equal small cliques).
#   clique-star  K_t v (K_{n-2t+1} u (t-1) K_1): the extremal graph at
#                t = delta, the singleton family at t = s
#   blocks       K_s v (K_{n-s-(delta+1-s)(s-1)} u (s-1) K_{delta+1-s})
# _q_* use the signless Laplacian, _d_* the distance matrix; each returns
# (c2, c1, c0) of the monic cubic.


def _q_clique_star_coeffs(n: int, t: int) -> tuple[int, int, int]:
    # signless Laplacian of K_t v (K_{n-2t+1} u (t-1)K_1)
    c2 = t - 3 * n + 2
    c1 = -4 * t**2 + t * n + 4 * t + 2 * n**2 - 4 * n
    c0 = -2 * t**3 + 4 * t**2 * n - 2 * t**2 - 2 * t * n**2 + 2 * t * n
    return c2, c1, c0


def _d_clique_star_coeffs(n: int, t: int) -> tuple[int, int, int]:
    # distance matrix of K_t v (K_{n-2t+1} u (t-1)K_1)
    c2 = -t - n + 5
    c1 = 5 * t**2 - 2 * t * n - 8 * t - n + 8
    c0 = -2 * t**3 + t**2 * n + 8 * t**2 - 3 * t * n - 8 * t + 4
    return c2, c1, c0


def _q_blocks_coeffs(n: int, s: int, d: int) -> tuple[int, int, int]:
    c2 = 2 * d * s - 4 * d - 3 * n - 2 * s**2 + 5 * s + 2
    c1 = (
        -4 * d**2 * s + 4 * d**2 - 2 * d * n * s + 8 * d * n + 4 * d * s**2
        - 4 * d * s - 8 * d + 2 * n**2 + 2 * n * s**2 - 7 * n * s - 4 * n
        - 4 * s**2 + 12 * s
    )
    c0 = (
        4 * d**2 * n * s - 4 * d**2 * n - 2 * d**2 * s**3 + 6 * d**2 * s**2
        - 12 * d**2 * s + 8 * d**2 - 4 * d * n**2 - 4 * d * n * s**2
        + 8 * d * n * s + 8 * d * n + 4 * d * s**4 - 16 * d * s**3
        + 28 * d * s**2 - 24 * d * s + 2 * n**2 * s - 6 * n * s - 2 * s**5
        + 10 * s**4 - 18 * s**3 + 14 * s**2
    )
    return c2, c1, c0


def _d_blocks_coeffs(n: int, s: int, d: int) -> tuple[int, int, int]:
    c2 = -d * s + 2 * d - n + s**2 - 3 * s + 5
    c1 = (
        2 * d**2 * s**2 - 3 * d**2 * s + d**2 - 2 * d * n * s + d * n
        - 4 * d * s**3 + 13 * d * s**2 - 13 * d * s + 6 * d + 2 * n * s**2
        - 3 * n * s - n + 2 * s**4 - 10 * s**3 + 17 * s**2 - 14 * s + 8
    )
    c0 = (
        -(d**2) * s**3 + 4 * d**2 * s**2 - 4 * d**2 * s + d**2
        + d * n * s**2 - 3 * d * n * s + d * n + 2 * d * s**4
        - 11 * d * s**3 + 20 * d * s**2 - 14 * d * s + 4 * d - n * s**3
        + 4 * n * s**2 - 4 * n * s - s**5 + 7 * s**4 - 18 * s**3
        + 21 * s**2 - 12 * s + 4
    )
    return c2, c1, c0


# -- gap factors: family cubic minus extremal cubic factors as (s-delta)*gap


def q_singleton_gap_coeffs(n: int, s: int, delta: int) -> tuple[int, int, int]:
    """Quadratic with (s-delta)*gap = Q singleton cubic - Q extremal cubic."""
    d = delta
    return (
        1,
        n + 4 - 4 * s - 4 * d,
        -2 * n**2 + 2 * n + 4 * s * n + 4 * d * n - 2 * s**2 - 2 * d**2
        - 2 * s - 2 * d - 2 * s * d,
    )


def q_block_gap_coeffs(n: int, s: int, delta: int) -> tuple[int, int, int]:
    """Quadratic with (delta-s)*gap = Q block cubic - Q extremal cubic."""
    d = delta
    return (
        2 * s - 5,
        7 * n - 12 - 4 * d * s - 2 * n * s + 8 * d + 4 * s,
        2 * d**2 + 4 * d * s * n - 8 * d * n - 2 * n**2 + 6 * n + 2 * s**4
        - 2 * d * s**3 + 6 * d * s**2 - 10 * s**3 + 18 * s**2 - 10 * d * s
        - 14 * s + 10 * d,
    )


def d_singleton_gap_coeffs(n: int, s: int, delta: int) -> tuple[int, int, int]:
    """Quadratic with (delta-s)*gap = D singleton cubic - D extremal cubic."""
    d = delta
    return (
        1,
        2 * n + 8 - 5 * s - 5 * d,
        3 * n + 8 - s * n - d * n - 8 * s - 8 * d + 2 * s**2 + 2 * s * d
        + 2 * d**2,
    )


def d_block_gap_coeffs(n: int, s: int, delta: int) -> tuple[int, int, int]:
    """Quadratic with (s-delta)*gap = D block cubic - D extremal cubic."""
    d = delta
    return (
        s - 3,
        2 * s**3 - 2 * d * s**2 - 10 * s**2 + 2 * n * s + 17 * s + 3 * d * s
        + 4 * d - 14 - 3 * n,
        -(s**4) + 7 * s**3 + d * s**3 - 18 * s**2 - n * s**2 - 4 * d * s**2
        + 21 * s + 4 * n * s + 2 * d * s - 12 - 4 * n + d * n - 2 * d**2
        + 7 * d,
    )


def q_block_gap_s2_coeffs(n: int, delta: int) -> tuple[int, int, int]:
    """The s = 2 specialization of the Q block gap quadratic."""
    d = delta
    return (-1, 3 * n - 4, 2 * d**2 - 2 * d - 2 * n**2 + 6 * n - 4)


def q_block_gap_at_bracket_floor(n: int, s: int, delta: int) -> int:
    """Q block gap evaluated at x = 2n - 2*delta, as an expanded polynomial."""
    d = delta
    return (
        (4 * s - 8) * n**2
        + (34 * d + 8 * s - 16 * d * s - 18) * n
        + 2 * s**4 - 10 * s**3 - 2 * d * s**3 + 6 * d * s**2 + 18 * s**2
        + 16 * d**2 * s - 18 * d * s - 14 * s - 34 * d**2 + 34 * d
    )


def d_block_gap_at_wiener_floor(n: int, s: int, delta: int) -> int:
    """D block gap evaluated at x = n + delta - 3, as an expanded polynomial."""
    d = delta
    return (
        (3 * s - 6) * n**2
        + (2 * s**3 - 11 * s**2 - 2 * d * s**2 + 7 * d * s + 9 * s - 4 * d + 9) * n
        - s**4 + 3 * d * s**3 + s**3 - 2 * d**2 * s**2 - 8 * d * s**2
        + 12 * s**2 + 4 * d**2 * s + 4 * d * s - 21 * s - d**2 - d + 3
    )


class Poly:
    """Integer polynomial in (n, s, delta), {(i, j, k): c} for c n^i s^j delta^k.
    The coefficient functions here are plain integer arithmetic, so on N, S
    and DELTA they return Polys: an identity between Polys holds everywhere."""

    __hash__ = None

    def __init__(self, terms: dict[tuple[int, int, int], int]):
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other) -> Poly:
        terms = dict(self.terms)
        for e, c in _lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    def __mul__(self, other) -> Poly:
        terms: dict[tuple[int, int, int], int] = {}
        for (i, j, k), c in self.terms.items():
            for (u, v, w), d in _lift(other).terms.items():
                terms[i + u, j + v, k + w] = terms.get((i + u, j + v, k + w), 0) + c * d
        return Poly(terms)

    def __neg__(self) -> Poly:
        return self * -1

    def __sub__(self, other) -> Poly:
        return self + _lift(other) * -1

    def __rsub__(self, other) -> Poly:
        return self * -1 + other

    def __pow__(self, k: int) -> Poly:
        return math.prod((self,) * k, start=_lift(1))

    def __eq__(self, other) -> bool:
        return self.terms == _lift(other).terms

    __radd__ = __add__
    __rmul__ = __mul__


def _lift(x) -> Poly:
    return x if isinstance(x, Poly) else Poly({(0, 0, 0): operator.index(x)})


N, S, DELTA = Poly({(1, 0, 0): 1}), Poly({(0, 1, 0): 1}), Poly({(0, 0, 1): 1})


def eval_poly(coeffs: Sequence, x):
    """Horner evaluation, exact when coefficients and x are integers or Polys."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


# -- root finding ------------------------------------------------------------


def largest_root(cubic: tuple) -> float:
    """Largest real root, to ROOT_TOL, of a cubic (c2, c1, c0) with three real roots.

    The trigonometric form of the depressed cubic gives a float estimate
    x0; one exact Newton step, with f(x0) and f'(x0) from ``_fourier_signs``,
    refines it, rounded to a float x. The Fourier-Budan test certifies x:
    f(a) < 0 at a = x - ROOT_TOL, and all three signs at b = x + ROOT_TOL
    are positive, so the largest real root lies in (a, b). A simple largest
    root, such as a Perron root, always passes; a multiple one raises
    BracketingError.
    """
    f = tuple(map(Fraction, cubic))
    c2, c1, c0 = f
    # x = t - s turns f into the depressed cubic t^3 + p t + q
    s = c2 / 3
    p = c1 - 3 * s * s
    q = 2 * s**3 - s * c1 + c0
    if p == 0 or 4 * p**3 + 27 * q**2 > 0:
        raise BracketingError("the cubic has a complex pair or a triple root")
    r = math.sqrt(float(-p) / 3)
    cos3 = max(-1.0, min(1.0, float(-q) / (2 * r**3)))
    x0 = Fraction(2 * r * math.cos(math.acos(cos3) / 3) - float(s))
    # d^2 f'(x0) and d^3 f(x0), for d the denominator of x0
    _, slope, value = _fourier_signs(f, x0.numerator, x0.denominator)
    if slope == 0:
        raise BracketingError(f"the derivative vanishes at the estimate {float(x0)!r}")
    x = float(x0 - value / (slope * x0.denominator))
    a, b = Fraction(x) - Fraction(ROOT_TOL), Fraction(x) + Fraction(ROOT_TOL)
    if (_fourier_signs(f, a.numerator, a.denominator)[2] < 0
            and all(v > 0 for v in _fourier_signs(f, b.numerator, b.denominator))):
        return x
    raise BracketingError(f"no certified simple largest root near {x!r}")


def _fourier_signs(cubic: tuple, a, b) -> tuple:
    """b c''(a/b) / 2, b^2 c'(a/b) and b^3 c(a/b), signed as c'', c' and c
    at a/b when b > 0, for the monic cubic c with coefficients (c2, c1, c0):
    integers, Fractions when a coefficient is one (as ``charpoly3``'s are),
    or Polys when a, b or a coefficient is.

    For a monic cubic c with three real roots l3 <= l2 <= l1 and b > 0, all
    three are positive iff a/b > l1. If all three are, the signs of c, c',
    c'', c''' at a/b show no change, so by Fourier-Budan c has no root in
    [a/b, inf). Conversely, if a/b > l1, every factor a/b - li is positive,
    and by Rolle the roots of c' and c'' lie in [l3, l1], so c'(a/b) and
    c''(a/b) are positive too.
    """
    c2, c1, c0 = cubic
    return (3 * a + c2 * b,
            (3 * a + 2 * c2 * b) * a + c1 * b * b,
            ((a + c2 * b) * a + c1 * b * b) * a + c0 * b**3)
