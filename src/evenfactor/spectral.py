"""Dense symmetric matrices of a graph and their Perron roots.

Matrices are built for a stack of same-order graphs at once, from the
adjacency stack that ``graphs.adjacency_stack`` reads off the neighbour
bitmasks: the signless Laplacian Q(G) = A(G) + D(G), and the distance
matrix by breadth-first search run as boolean powers of A. The one-graph
builders (``signless_laplacian``, ``distance_matrix``, ``wiener_index``) are
stacks of one.

``perron`` is the only eigensolver. It takes one symmetric matrix or a
(k, n, n) stack, calls LAPACK through ``np.linalg.eigh``, and returns the
largest eigenvalue, its eigenvector signed to a nonnegative sum, and the
residual max|Mx - lambda x|, which it checks against
RESIDUAL_TOL * (1 + ||M||_inf). ``rho_q_many`` and ``rho_d_many`` give the
spectral radii of a same-order stack in one call, and ``rho_q`` and
``rho_d`` are stacks of one. ``perron_brackets`` bounds the same radii
exactly, from integer matrix-vector products alone, starting from M^p 1
or from the eigenvectors ``perron`` returns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, adjacency_stack


class DisconnectedGraphError(ValueError):
    """Distance-based invariants need a connected graph."""


# eigen residual bound, scaled by 1 + ||M||_inf
RESIDUAL_TOL = 1e-10
# perron_brackets starts from x = M^BRACKET_POWER 1
BRACKET_POWER = 3
# every integer perron_brackets computes in int64 stays below this
_INT64_CEILING = 2**62
# an exact rational (numerator, denominator), denominator positive
Ratio = tuple[int, int]


def _signless_laplacian_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """Q(G) of same-order graphs as one int64 stack."""
    q = adjacency_stack(graphs).astype(np.int64)
    diag = np.arange(q.shape[1])
    q[:, diag, diag] = q.sum(axis=2)
    return q


def _distance_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """All-pairs distances by breadth-first search in boolean matrix powers.

    Row u of ``reached`` holds the vertices within distance t-1 of u,
    starting from I | A at t = 2; the product with A adds their
    neighbours, and each newly reached entry gets distance t. The products
    are taken in float32, where ``> 0`` on sums of 0/1 terms is exact, and
    stop as soon as every entry is reached, so a stack of diameter d takes
    d - 1 of them. The stack is int64. Measured on one core of a 2-vCPU
    Xeon (Python 3.11, numpy 2.4, best of 15): the 400 seed-1
    near-extremal graphs of orders 18 and 26, in stacks of up to 64, take
    2.8 ms in all; the (74, 10) extremal graph plus three edges takes
    0.045 ms.
    """
    adj = adjacency_stack(graphs)
    if adj.shape[1] == 0:
        raise ValueError("distance matrix undefined for the 0-vertex graph")
    a = adj.astype(np.float32)
    reached = adj | np.eye(adj.shape[1], dtype=bool)
    dist = adj.astype(np.int64)
    level = 1
    while not reached.all():
        level += 1
        new = (reached @ a > 0) & ~reached
        if not new.any():
            raise DisconnectedGraphError("graph is not connected")
        dist[new] = level
        reached |= new
    return dist


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q(G): degrees on the diagonal, adjacency off it."""
    return _signless_laplacian_stack([g])[0]


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distances; raises DisconnectedGraphError."""
    return _distance_stack([g])[0]


def wiener_index(g: Graph) -> int:
    """W(G) = sum of pairwise distances of a connected graph."""
    if g.n == 0:
        raise ValueError("Wiener index undefined for the 0-vertex graph")
    return int(distance_matrix(g).sum()) // 2


def perron(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, vector, residual) of the largest eigenvalue of each matrix.

    ``m`` is one real symmetric matrix, giving 0-d value and residual
    arrays, or a (k, n, n) stack, giving arrays of length k. Each vector
    has unit norm and is signed so its entries sum to a nonnegative number;
    for nonnegative irreducible M it is then the strictly positive Perron
    vector. Raises RuntimeError if a residual exceeds
    RESIDUAL_TOL * (1 + ||M||_inf).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise ValueError("matrix must have order >= 1")
    if not np.array_equal(m, m.swapaxes(-1, -2)):
        raise ValueError("matrix must be symmetric")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")

    eigenvalues, eigenvectors = np.linalg.eigh(m)
    values = eigenvalues[..., -1]
    vectors = eigenvectors[..., -1]
    vectors = np.where(vectors.sum(axis=-1, keepdims=True) < 0, -vectors, vectors)
    mx = (m @ vectors[..., None])[..., 0]
    residuals = np.max(np.abs(mx - values[..., None] * vectors), axis=-1)
    bounds = RESIDUAL_TOL * (1.0 + np.max(np.sum(np.abs(m), axis=-1), axis=-1))
    if np.any(residuals > bounds):
        raise RuntimeError(
            f"eigen residual {np.max(residuals):.3e} above bound {np.min(bounds):.3e}"
        )
    return values, vectors, residuals


def perron_brackets(m: np.ndarray, vectors: Optional[np.ndarray] = None
                    ) -> list[Optional[tuple[Ratio, Ratio]]]:
    """Exact bounds (lower, upper) on rho of each matrix of a (k, n, n) int64
    stack of symmetric nonnegative matrices with no zero row, each bound a
    (numerator, denominator) pair of ints; None for a matrix whose bounds
    int64 cannot hold.

    Each bound is read off a positive integer vector x (``_readout``). By
    default x = M^p 1, computed in int64: x > 0, as M has no zero row. With
    R the matrix's largest row sum, the entries of M^j 1 are at most R^j, so
    no product, partial sum or dot product here exceeds n R^(2p+1). Each
    matrix's p is BRACKET_POWER, lowered until that lies below 2^62, so a
    matrix's bounds do not depend on the rest of the stack; when not even
    p = 1 fits, its entry is None, and no bound is ever read from a wrapped
    int64. Given ``vectors``, a (k, n) stack of float eigenvectors such as
    ``perron`` returns, x is instead each vector scaled to largest entry
    2^52, rounded, and raised to at least 1, in Python ints, and no entry
    is None. Any x > 0 gives valid bounds; the closer x lies to the Perron
    vector, the closer they lie to rho.
    """
    if vectors is not None:
        x = np.maximum(np.rint(vectors / vectors.max(axis=1, keepdims=True) * 2.0**52), 1)
        return _readout(m, x.astype(np.int64).astype(object))
    n = m.shape[1]
    tops = m.sum(axis=2).max(axis=1).tolist()
    power_of = {top: next((p for p in range(BRACKET_POWER, 0, -1)
                           if n * top ** (2 * p + 1) < _INT64_CEILING), 0) for top in set(tops)}
    powers = np.array([power_of[top] for top in tops])
    brackets: list[Optional[tuple[Ratio, Ratio]]] = [None] * len(m)
    for power in set(powers.tolist()) - {0}:
        (which,) = np.nonzero(powers == power)
        sub = m if len(which) == len(m) else m[which]
        x = np.ones(sub.shape[:2], np.int64)
        for _ in range(power):
            x = np.einsum("kij,kj->ki", sub, x)
        for i, bracket in zip(which.tolist(), _readout(sub, x)):
            brackets[i] = bracket
    return brackets


def _readout(m: np.ndarray, x: np.ndarray) -> list[tuple[Ratio, Ratio]]:
    """(lower, upper) on rho of each matrix of a stack of symmetric
    nonnegative matrices, from a (k, n) stack of positive integer vectors,
    int64 or Python ints.

    With y = Mx, the Rayleigh quotient x'y / x'x is at most the largest
    eigenvalue of the symmetric M, which is rho as M is nonnegative. By
    Collatz-Wielandt, y <= c x entrywise gives rho <= c for nonnegative M
    and x > 0, so the largest ratio y_i / x_i is an upper bound; row i
    holds it iff y_i x_j >= y_j x_i for every j.
    """
    y = (m @ x[:, :, None])[:, :, 0]
    cross = y[:, :, None] * x[:, None, :]
    best = (cross >= cross.swapaxes(1, 2)).all(axis=2).argmax(axis=1)
    rows = np.arange(len(m))
    lower = zip((x * y).sum(axis=1).tolist(), (x * x).sum(axis=1).tolist())
    upper = zip(y[rows, best].tolist(), x[rows, best].tolist())
    return list(zip(lower, upper))


def rho_q(g: Graph) -> float:
    """Signless Laplacian spectral radius."""
    return float(rho_q_many((g,))[0])


def rho_d(g: Graph) -> float:
    """Distance spectral radius of a connected graph."""
    return float(rho_d_many((g,))[0])


def rho_q_many(graphs: Sequence[Graph]) -> np.ndarray:
    """rho_Q of same-order graphs from one stacked eigen-solve."""
    return perron(_signless_laplacian_stack(graphs))[0]


def rho_d_many(graphs: Sequence[Graph]) -> np.ndarray:
    """rho_D of same-order connected graphs from one stacked eigen-solve."""
    return perron(_distance_stack(graphs))[0]
