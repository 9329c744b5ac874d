"""Seeded random graph sampling for verification sweeps.

Edge-probability model: each attempt draws p uniformly from P_RANGE, then
includes each vertex pair independently with probability p. Attempts that
are disconnected or have a vertex of degree below MIN_DEGREE are rejected
and redrawn, so runs are deterministic for a fixed seed.

``sample_blocks`` makes its attempts a block at a time from the same
random stream that one ``rng.random()`` call per draw would read. An
attempt takes a fixed 1 + C(n, 2) doubles: ``rng.uniform(*P_RANGE)``, then
one ``rng.random()`` per pair (i, j), i < j, in row-major order, and the
pair is an edge iff its double is below p. CPython's ``random()`` builds a
double from the next two 32-bit Mersenne Twister words a, b as
``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and ``getrandbits(64 * d)``
returns the next 2d words as the little-endian 32-bit limbs of one int. So
one ``getrandbits`` call gives a block's doubles bit for bit, and numpy
then rejects a whole block in one pass. The graphs, their order and the
final state of ``rng`` are those of drawing the attempts one at a time: a
block never holds more attempts than graphs still owed, and each attempt
yields at most one graph, so no attempt is drawn that the one-at-a-time
sampler would not draw.

The block pass tests the minimum degree of every attempt and then floods,
in numpy, only the attempts that pass it. The attempts it keeps are handed
on as one ``graphs.RowBlock``: their minimum degrees and edge counts as
arrays, which is all the verdicts read of most of them, and a way to build
the Graphs of chosen rows, each handed its minimum degree and that it is
connected. ``sample_connected_graphs`` is the flatten of those blocks.

A block holds at most _BLOCK_PAIRS vertex pairs, or one attempt where an
attempt has more (n >= 92), so memory does not grow with the count: a
block and its graphs peak at about 200 KB at n = 10.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random
from typing import Iterator

import numpy as np

from .graphs import Graph, RowBlock, adjacency_masks

P_RANGE = (0.25, 0.75)
# the theorems need minimum degree >= 2
MIN_DEGREE = 2

# vertex pairs per block: 90 attempts at n = 10, one from n = 65 on
_BLOCK_PAIRS = 1 << 12


def sample_graph(rng: Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


@lru_cache(maxsize=16)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (n, n) positions of pair (i, j), i < j, and of (j, i), in the
    row-major pair order of the draws."""
    # built in Python, as graphs._bit_index is, to keep numpy's index
    # helpers out of peak memory
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (np.array([i * n + j for i, j in pairs], np.intp),
            np.array([j * n + i for i, j in pairs], np.intp))


def _doubles(rng: Random, count: int) -> np.ndarray:
    """The next count ``rng.random()`` values, bit for bit, in one draw."""
    # each little-endian 64-bit word holds the two 32-bit words of a double,
    # the first one low; (a >> 5) << 26 is (a with its low 5 bits cleared)
    # << 21, one shift fewer
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
    return ((words & 0xFFFFFFE0) << 21 | words >> 38) * 2.0 ** -53


def sample_blocks(rng: Random, n: int, count: int) -> Iterator[RowBlock]:
    """Rejection-sample count connected graphs of minimum degree >=
    MIN_DEGREE, as the row blocks of their attempt blocks (module notes).

    The graphs, flattened, are those of ``sample_connected_graphs``, and so
    is the final rng state once the blocks are exhausted. Raises
    ValueError, when iteration starts, if n <= MIN_DEGREE, where no such
    graph exists.
    """
    if n <= MIN_DEGREE:
        raise ValueError(
            f"no connected graph on {n} vertices has minimum degree {MIN_DEGREE}"
        )
    upper, lower = _pair_index(n)
    stride = 1 + len(upper)
    while count > 0:
        k = min(count, max(1, _BLOCK_PAIRS // stride))
        draws = _doubles(rng, k * stride).reshape(k, stride)
        p = P_RANGE[0] + (P_RANGE[1] - P_RANGE[0]) * draws[:, :1]
        hits = draws[:, 1:] < p
        adj = np.zeros((k, n * n), bool)
        adj[:, upper] = hits
        adj[:, lower] = hits
        adj = adj.reshape(k, n, n)
        deltas = adj.sum(axis=2).min(axis=1)
        keep = np.flatnonzero(deltas >= MIN_DEGREE)
        # connectivity of the attempts that pass the degree test: grow the
        # set reached from vertex 0 by the neighbours of what it holds until
        # it stops growing
        sub = adj[keep]
        reached = sub[:, :1, :] | (np.arange(n) == 0)
        while True:
            grown = reached | (reached @ sub)
            if np.array_equal(grown, reached):
                break
            reached = grown
        keep = keep[reached.all(axis=(1, 2))]
        yield RowBlock(n, deltas[keep], hits[keep].sum(axis=1),
                       lambda rows, kept=adj[keep]: adjacency_masks(kept[rows]))
        count -= len(keep)


def sample_connected_graphs(rng: Random, n: int, count: int) -> Iterator[Graph]:
    """Rejection-sample count connected graphs of minimum degree >= MIN_DEGREE.

    Each graph is the first attempt, ``p = rng.uniform(*P_RANGE)`` and then
    ``sample_graph(rng, n, p)``, that is connected with minimum degree >=
    MIN_DEGREE. Attempts are drawn a block at a time (see the module notes),
    with the graphs and the final rng state of drawing them one by one.
    Raises ValueError, when iteration starts, if n <= MIN_DEGREE, where no
    such graph exists.
    """
    for block in sample_blocks(rng, n, count):
        yield from block.graphs()
