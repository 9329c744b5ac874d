"""Quotient matrices, family cubics, root finding, and Poly arithmetic."""

import random
from fractions import Fraction

import pytest

from evenfactor.graphs import adjacency_stack, clique_join
from evenfactor import lemmas
from evenfactor.quotient import (
    DELTA,
    N,
    S,
    BracketingError,
    InvalidPartitionError,
    ROOT_TOL,
    _d_blocks_coeffs,
    _d_clique_star_coeffs,
    _fourier_signs,
    _q_blocks_coeffs,
    _q_clique_star_coeffs,
    charpoly3,
    d_block_gap_coeffs,
    d_singleton_gap_coeffs,
    eval_poly,
    largest_root,
    q_block_gap_at_bracket_floor,
    q_block_gap_coeffs,
    q_singleton_gap_coeffs,
    quotient_matrix,
)
from evenfactor.spectral import distance_matrix, signless_laplacian
from evenfactor.theorems import TheoremKind, extremal_cubic
from small_graphs import path


def blocks_of(sizes):
    out = []
    start = 0
    for s in sizes:
        out.append(tuple(range(start, start + s)))
        start += s
    return out


def test_quotient_of_k4_half_split():
    qm = quotient_matrix(signless_laplacian(clique_join(4, ())), blocks_of([2, 2]))
    assert qm.equitable
    assert qm.entries == ((Fraction(4), Fraction(2)), (Fraction(2), Fraction(4)))


def test_quotient_matrix_exactness_and_non_equitable():
    qm = quotient_matrix(adjacency_stack([path(3)])[0], blocks_of([2, 1]))
    assert not qm.equitable
    assert qm.entries[0][1] == Fraction(1, 2)  # average of rows 0 and 1 into {2}


def test_quotient_partition_validation():
    m = signless_laplacian(clique_join(3, ()))
    with pytest.raises(InvalidPartitionError):
        quotient_matrix(m, [(0, 1)])
    with pytest.raises(InvalidPartitionError):
        quotient_matrix(m, [(0, 1), (1, 2)])
    with pytest.raises(InvalidPartitionError):
        quotient_matrix(m, [(0, 1, 2), ()])


def extremal_q_quotient(n, delta):
    g = clique_join(delta, (n - 2 * delta + 1,) + (1,) * (delta - 1))
    blocks = blocks_of([delta, n - 2 * delta + 1, delta - 1])
    return quotient_matrix(signless_laplacian(g), blocks)


def extremal_d_quotient(n, delta):
    g = clique_join(delta, (n - 2 * delta + 1,) + (1,) * (delta - 1))
    join_b, big_b, single_b = blocks_of([delta, n - 2 * delta + 1, delta - 1])
    return quotient_matrix(distance_matrix(g), [big_b, join_b, single_b])


def test_extremal_quotient_templates_at_8_2():
    qm = extremal_q_quotient(8, 2)
    assert qm.equitable
    assert [[int(x) for x in row] for row in qm.entries] == [
        [8, 5, 1], [2, 10, 0], [2, 0, 2],
    ]
    dm = extremal_d_quotient(8, 2)
    assert dm.equitable
    assert [[int(x) for x in row] for row in dm.entries] == [
        [4, 2, 2], [5, 1, 1], [10, 2, 0],
    ]


def test_charpoly3_known_cases():
    qm = extremal_q_quotient(8, 2)
    assert charpoly3(qm) == (-20, 104, -120)
    dm = extremal_d_quotient(8, 2)
    assert charpoly3(dm) == (-5, -28, -12)
    ident = quotient_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], blocks_of([1, 1, 1]))
    assert charpoly3(ident) == (-3, 3, -1)
    with pytest.raises(ValueError):
        charpoly3(quotient_matrix([[1, 0], [0, 1]], blocks_of([1, 1])))


Q, D = TheoremKind.SIGNLESS_LAPLACIAN, TheoremKind.DISTANCE


def test_family_cubic_matches_spec_values():
    assert extremal_cubic(Q, 8, 2) == (-20, 104, -120)
    assert extremal_cubic(D, 8, 2) == (-5, -28, -12)


def test_family_cubic_parameter_validation():
    for kind, n, d in ((Q, 3, 2), (D, 3, 2), (Q, 8, 1), (D, 8, 1)):  # n < 2*delta, delta < 2
        with pytest.raises(ValueError):
            extremal_cubic(kind, n, d)


# the closed-form cubic of each family at (n, s, delta)
CLOSED_FORM = {
    "q-extremal": lambda n, s, d: extremal_cubic(Q, n, d),
    "d-extremal": lambda n, s, d: extremal_cubic(D, n, d),
    "q-singletons": lambda n, s, d: _q_clique_star_coeffs(n, s),
    "d-singletons": lambda n, s, d: _d_clique_star_coeffs(n, s),
    "q-blocks": lambda n, s, d: _q_blocks_coeffs(n, s, d),
    "d-blocks": lambda n, s, d: _d_blocks_coeffs(n, s, d),
}


def quotient_cubic_of_family(family, n, s, delta):
    """Independent route: build the graph, partition it, expand the charpoly."""
    if family.endswith("extremal"):
        s = delta
        parts = (n - 2 * delta + 1,) + (1,) * (delta - 1)
    elif family.endswith("singletons"):
        parts = (n - 2 * s + 1,) + (1,) * (s - 1)
    else:
        parts = (n - s - (delta + 1 - s) * (s - 1),) + (delta + 1 - s,) * (s - 1)
    g = clique_join(s, parts)
    join_b, big_b, tail_b = blocks_of([s, parts[0], sum(parts[1:])])
    if family.startswith("q"):
        qm = quotient_matrix(signless_laplacian(g), [join_b, big_b, tail_b])
    else:
        qm = quotient_matrix(distance_matrix(g), [big_b, join_b, tail_b])
    assert qm.equitable
    return charpoly3(qm)


# For the extremal families this grid is a proof, not a sample. The extremal
# graph has diameter <= 2, so its (join, big clique, singletons) partition is
# equitable for Q and D alike, and every quotient entry is affine in
# (n, delta) on the whole domain delta >= 2, n >= 2*delta. The coefficients
# of charpoly3 of that quotient, like those of extremal_cubic, are therefore
# polynomials of degree <= 3 in each of n and delta. At each delta of the
# grid, agreement at 4 distinct n makes the two polynomials in n identical;
# each of their n-coefficients is then a polynomial of degree <= 3 in delta
# that agrees at 4 distinct deltas. So the extremal cubic is the quotient's
# characteristic polynomial at every cell, and its largest root, the Perron
# root of an equitable quotient of a nonnegative irreducible matrix, is the
# extremal graph's spectral radius: the thresholds need no matrix. The
# extremal rows also hold (8, 2), (12, 3), (20, 4) and (30, 5).
EXTREMAL_CELLS = [(n, None, d) for d in (2, 3, 4, 5) for n in range(2 * d + 2, 41, 7)] + [
    (8, None, 2), (12, None, 3), (20, None, 4), (30, None, 5)]
GRID = [
    ("q-extremal", EXTREMAL_CELLS),
    ("d-extremal", EXTREMAL_CELLS),
    ("q-singletons", [(n, s, None) for s in (2, 3, 5) for n in range(2 * s + 1, 41, 6)]),
    ("d-singletons", [(n, s, None) for s in (2, 3, 5) for n in range(2 * s + 1, 41, 6)]),
    ("q-blocks", [(n, s, d) for d in (3, 4, 6) for s in range(2, d)
                  for n in range(s + (d + 1 - s) * (s - 1) + 1, 41, 5)]),
    ("d-blocks", [(n, s, d) for d in (3, 4, 6) for s in range(2, d)
                  for n in range(s + (d + 1 - s) * (s - 1) + 1, 41, 5)]),
]


def test_extremal_grid_determines_the_cubics():
    # the proof above needs 4 distinct deltas, each with 4 distinct orders
    for family, points in GRID:
        if family.endswith("extremal"):
            orders = {}
            for n, _, d in points:
                orders.setdefault(d, set()).add(n)
            assert len(orders) >= 4, family
            assert all(len(ns) >= 4 for ns in orders.values()), family


@pytest.mark.parametrize("family,points", GRID,
                         ids=lambda v: v if isinstance(v, str) else "grid")
def test_family_cubics_equal_constructed_quotients_exactly(family, points):
    for n, s, d in points:
        closed = CLOSED_FORM[family](n, s, d)
        built = quotient_cubic_of_family(family, n, s, d)
        assert closed == built, (family, n, s, d)


# -- integer polynomials and the difference identities ----------------------


def test_poly_arithmetic_matches_known_expansions():
    n, s, d = N, S, DELTA
    assert (n + s)**2 == n**2 + 2 * n * s + s**2
    assert (n - d) * (n + d) == n**2 - d**2 and (1 + n)**3 == 1 + 3 * n + 3 * n**2 + n**3
    # ints on either side of every operator
    assert 2 + n == n + 2 and 2 * n == n * 2 == n + n and 3 - n == -(n - 3)
    assert n - n == 0 and 0 == n - n and n**0 == 1 and eval_poly((1, -3), n) == n - 3


def test_poly_equality_is_not_vacuous():
    # unequal Polys compare unequal, so no proof passes by default
    n, s, d = N, S, DELTA
    assert n != s and s != d and n != 0 and 0 != n and (n + s)**2 != n**2 + s**2
    assert n * s * d != n * s * d + 1
    with pytest.raises(TypeError):
        n + 0.5
    with pytest.raises(TypeError):
        hash(n)


def test_identity_exact_zero_at_s_equal_delta():
    # at s = delta each family graph is the extremal one, so its cubic is
    # the extremal cubic: the block ones too, though they need s < delta
    d = DELTA
    assert _q_blocks_coeffs(N, d, d) == _q_clique_star_coeffs(N, d)
    assert _d_blocks_coeffs(N, d, d) == _d_clique_star_coeffs(N, d)


GAPS = (q_singleton_gap_coeffs, q_block_gap_coeffs, d_singleton_gap_coeffs, d_block_gap_coeffs)


def test_identity_check_rejects_a_wrong_gap(monkeypatch):
    # each identity, proved once for all (n, s, delta), fails alone when its
    # gap quadratic, as lemmas imports it, is off by one in its constant
    assert [o.passed for o in lemmas.check_difference_identities()] == [True] * 4
    for i, gap in enumerate(GAPS):
        with monkeypatch.context() as m:
            m.setattr(lemmas, gap.__name__, lambda *a: gap(*a)[:2] + (gap(*a)[2] + 1,))
            passed = [o.passed for o in lemmas.check_difference_identities()]
        assert passed == [j != i for j in range(4)]


def test_gap_expansions_match_direct_evaluation(monkeypatch):
    assert lemmas.check_gap_polynomial_expansions()[0].passed
    # an expanded polynomial off by one no longer equals the gap at its floor
    monkeypatch.setattr(lemmas, "q_block_gap_at_bracket_floor",
                        lambda n, s, d: q_block_gap_at_bracket_floor(n, s, d) + 1)
    assert not lemmas.check_gap_polynomial_expansions()[0].passed


def test_gap_factor_degrees():
    # leading coefficients as displayed: 1, 2s-5, 1, s-3
    assert [gap(N, S, DELTA)[0] for gap in GAPS] == [1, 2 * S - 5, 1, S - 3]


# -- root finding -------------------------------------------------------------


def test_largest_root_known_roots():
    c = (-20, 104, -120)
    root = largest_root(c)
    assert 12 < root < 13
    assert abs(eval_poly((1,) + c, root)) < 1e-7
    assert largest_root((-5, -28, -12)) == pytest.approx(4 + 20**0.5, abs=ROOT_TOL)
    # (x + 1)^2 (x - 2): a double root below a simple largest root
    assert largest_root((0, -3, -2)) == 2


def test_largest_root_matches_numpy():
    import numpy as np

    rng = random.Random(3)
    for _ in range(40):
        roots = sorted(rng.uniform(-10, 10) for _ in range(3))
        c2 = -(roots[0] + roots[1] + roots[2])
        c1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        c0 = -roots[0] * roots[1] * roots[2]
        if roots[2] - roots[1] < 1e-3:
            continue
        biggest = max(np.roots([1, c2, c1, c0]).real)
        assert largest_root((c2, c1, c0)) == pytest.approx(biggest, abs=ROOT_TOL)
    for _ in range(200):
        m = np.array([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        m = m + m.T
        qm = quotient_matrix(m, ([0], [1], [2]))
        expected = np.linalg.eigvalsh(m.astype(float))[-1]
        assert largest_root(charpoly3(qm)) == pytest.approx(expected, abs=ROOT_TOL)


def test_largest_root_rejects_uncertifiable_cubics():
    with pytest.raises(BracketingError):
        largest_root((-3, 3, -1))  # (x - 1)^3, a triple root
    with pytest.raises(BracketingError):
        largest_root((0, 0, 1))  # x^3 + 1, a complex pair
    with pytest.raises(BracketingError):
        largest_root((0, -3, 2))  # (x - 1)^2 (x + 2), a double largest root
    with pytest.raises(BracketingError):
        # x (x - 1)^2: the estimate lands on the double root, where f' = 0
        largest_root((-2, 1, 0))


def above_largest_root(cubic, r):
    """The sign criterion of ``_fourier_signs``: c'', c' and c all positive
    at the rational r, read exactly (a float included)."""
    r = Fraction(r)
    return all(v > 0 for v in _fourier_signs(cubic, r.numerator, r.denominator))


def test_above_largest_root_brackets_every_certified_family_root():
    # both family cubics at every cell with delta = 2..20 and n = 2*delta..160,
    # odd n included, at the cutoffs x -+ ROOT_TOL that verdicts compare with
    cells = 0
    for d in range(2, 21):
        for n in range(2 * d, 161):
            for kind in (Q, D):
                c = extremal_cubic(kind, n, d)
                x = Fraction(largest_root(c))
                assert above_largest_root(c, x + Fraction(ROOT_TOL)), (kind, n, d)
                assert not above_largest_root(c, x - Fraction(ROOT_TOL)), (kind, n, d)
            cells += 1
    assert cells == 2641


def test_above_largest_root_on_rational_roots():
    c = (-6, 11, -6)  # (x - 1)(x - 2)(x - 3)
    assert not above_largest_root(c, 3)  # the root itself is not above it
    assert above_largest_root(c, 3 + Fraction(1, 10**9))
    assert above_largest_root(c, 3 + 1e-9)  # a float is read exactly
    assert not above_largest_root(c, 3 - Fraction(1, 10**9))
    # c > 0 between the lower roots, but c' < 0 there
    assert eval_poly((1,) + c, Fraction(3, 2)) > 0 and not above_largest_root(c, Fraction(3, 2))
    assert not above_largest_root(c, 0) and above_largest_root(c, 10**6)


def test_above_largest_root_on_double_roots():
    c = (-9, 24, -20)  # (x - 2)^2 (x - 5)
    assert not above_largest_root(c, 2) and not above_largest_root(c, 5)
    assert above_largest_root(c, 5 + Fraction(1, 10**9))
    assert not above_largest_root(c, 5 - Fraction(1, 10**9))
    # (x - 1)(x - 3)^2: a double largest root, with c > 0 just below it
    c = (-7, 15, -9)
    below = 3 - Fraction(1, 10**9)
    assert eval_poly((1,) + c, below) > 0 and not above_largest_root(c, below)
    assert not above_largest_root(c, 3)
    assert above_largest_root(c, 3 + Fraction(1, 10**9))
