"""Dense symmetric matrices of a graph and their Perron roots.

Matrices are built for a stack of same-order graphs at once: the signless
Laplacian Q(G) = A(G) + D(G) from the neighbour bitmasks, and the distance
matrix by breadth-first search run as boolean powers of A. The one-graph
builders (``signless_laplacian``, ``distance_matrix``, ``wiener_index``) are
stacks of one.

``perron`` is the only eigensolver. It takes one symmetric matrix or a
(k, n, n) stack, calls LAPACK through ``np.linalg.eigh``, and returns the
largest eigenvalue, its eigenvector signed to a nonnegative sum, and the
residual max|Mx - lambda x|, which it checks against
RESIDUAL_TOL * (1 + ||M||_inf). ``rho_q_many`` and ``rho_d_many`` give the
spectral radii of a same-order stack in one call; their values equal the
one-graph ``rho_q`` and ``rho_d`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph


class DisconnectedGraphError(ValueError):
    """Distance-based invariants need a connected graph."""


# eigen residual bound, scaled by 1 + ||M||_inf
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class PerronResult:
    """Largest eigenvalue with unit eigenvector (nonnegative sum) and residual."""

    value: float
    vector: np.ndarray
    residual: float


def _adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """0/1 adjacency matrices of same-order graphs as a (k, n, n) stack."""
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError(f"need graphs of one order, got orders {sorted(orders)}")
    n = orders.pop()
    width = (n + 7) // 8
    masks = b"".join(
        g.neighbor_bits(v).to_bytes(width, "little") for g in graphs for v in range(n)
    )
    bits = np.unpackbits(np.frombuffer(masks, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(graphs), n, 8 * width)[:, :, :n].astype(float)


def _signless_laplacian_stack(graphs: Sequence[Graph]) -> np.ndarray:
    q = _adjacency_stack(graphs)
    diag = np.arange(q.shape[1])
    q[:, diag, diag] = q.sum(axis=2)
    return q


def _distance_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """All-pairs distances by breadth-first search in boolean matrix powers.

    Row u of ``reached`` holds the vertices within distance t-1 of u; the
    product with A adds their neighbours, and each newly reached entry gets
    distance t. Entries are exact small integers.
    """
    a = _adjacency_stack(graphs)
    if a.shape[1] == 0:
        raise ValueError("distance matrix undefined for the 0-vertex graph")
    reached = np.broadcast_to(np.eye(a.shape[1], dtype=bool), a.shape).copy()
    dist = np.zeros_like(a)
    level = 0
    while True:
        level += 1
        new = (reached @ a > 0) & ~reached
        if not new.any():
            break
        dist[new] = level
        reached |= new
    if not reached.all():
        raise DisconnectedGraphError("graph is not connected")
    return dist


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _adjacency_stack([g])[0]


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


def largest_eigenvalue(m: np.ndarray) -> PerronResult:
    """Largest eigenvalue of one real symmetric matrix, by ``perron``."""
    if np.ndim(m) != 2:
        raise ValueError(f"matrix must be square, got shape {np.shape(m)}")
    value, vector, residual = perron(m)
    return PerronResult(float(value), vector, float(residual))


def rho_q(g: Graph) -> float:
    """Signless Laplacian spectral radius."""
    if g.n == 0:
        raise ValueError("spectral radius undefined for the 0-vertex graph")
    return largest_eigenvalue(signless_laplacian(g)).value


def rho_d(g: Graph) -> float:
    """Distance spectral radius of a connected graph."""
    return largest_eigenvalue(distance_matrix(g)).value


def rho_q_many(graphs: Sequence[Graph]) -> np.ndarray:
    """rho_Q of same-order graphs from one stacked eigen-solve."""
    return perron(_signless_laplacian_stack(graphs))[0]


def rho_d_many(graphs: Sequence[Graph]) -> np.ndarray:
    """rho_D of same-order connected graphs from one stacked eigen-solve."""
    return perron(_distance_stack(graphs))[0]
