"""Seeded random graph sampling for verification sweeps.

Edge-probability model: each sample draws p uniformly from P_RANGE, then
includes each vertex pair independently with probability p. Samples that
are disconnected or have a vertex of degree below MIN_DEGREE are rejected
and redrawn, so runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from random import Random

from .graphs import Graph

P_RANGE = (0.25, 0.75)
# the theorems need minimum degree >= 2
MIN_DEGREE = 2


def sample_graph(rng: Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def sample_connected_graph(rng: Random, n: int) -> Graph:
    """Rejection-sample a connected graph of minimum degree >= MIN_DEGREE.

    Raises ValueError when n <= MIN_DEGREE, where no such graph exists.
    """
    if n <= MIN_DEGREE:
        raise ValueError(
            f"no connected graph on {n} vertices has minimum degree {MIN_DEGREE}"
        )
    while True:
        p = rng.uniform(*P_RANGE)
        g = sample_graph(rng, n, p)
        if g.is_connected() and g.min_degree() >= MIN_DEGREE:
            return g
