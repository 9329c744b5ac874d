"""Seeded benchmark inputs and independent output checks.

Everything here is written against plain edge lists and bitmasks, not the
evenfactor package, so that inputs and checks do not move when the program
under test changes.
"""

from __future__ import annotations

from random import Random

Edges = list[tuple[int, int]]


# -- graph6 ---------------------------------------------------------------------


def to_graph6(n: int, edges: Edges) -> str:
    """graph6 line for a simple graph with n <= 62 vertices."""
    if n > 62:
        raise ValueError(f"graph6 writer handles n <= 62, got {n}")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (row, col) in adj else 0 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i:i + 6]:
            value = value << 1 | b
        chars.append(chr(63 + value))
    return "".join(chars)


def write_graph6(path, graphs: list[tuple[int, Edges]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for n, edges in graphs:
            fh.write(to_graph6(n, edges) + "\n")


# -- small graph helpers ----------------------------------------------------------


def _bits(n: int, edges: Edges) -> list[int]:
    bits = [0] * n
    for u, v in edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def min_degree(n: int, edges: Edges) -> int:
    return min(bin(b).count("1") for b in _bits(n, edges))


def is_connected(n: int, edges: Edges) -> bool:
    bits = _bits(n, edges)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= bits[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def is_even_factor(n: int, edges: Edges, factor) -> bool:
    """True iff ``factor`` is a set of distinct edges of the graph giving
    every vertex a nonzero even degree."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    chosen = {(min(u, v), max(u, v)) for u, v in factor}
    if len(chosen) != len(factor) or not chosen <= present:
        return False
    deg = [0] * n
    for u, v in chosen:
        deg[u] += 1
        deg[v] += 1
    return all(d >= 2 and d % 2 == 0 for d in deg)


def _relabel(rng: Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


# -- near-extremal family ---------------------------------------------------------

# (theorem, n, delta): the order bounds of the two conditions at delta = 3, 4
NEAR_EXTREMAL_CELLS = (("1", 14, 3), ("1", 22, 4), ("2", 18, 3), ("2", 26, 4))


def near_extremal_graph(rng: Random, n: int, delta: int) -> Edges:
    """A graph between K_delta v (K_{n-2delta+1} u (delta-1)K_1) and
    K_delta v (K_{n-delta-1} u K_1), then thinned by random deletions that
    keep the minimum degree at delta and the graph connected.

    Labels: join clique 0..delta-1, big clique next, then the delta-1
    singletons; the last singleton stays a singleton, so the minimum degree
    is exactly delta.
    """
    joins = range(delta)
    big = range(delta, n - delta + 1)
    singles = range(n - delta + 1, n)
    edges = {(u, v) for u in joins for v in range(u + 1, n)}
    edges |= {(u, v) for u in big for v in big if u < v}
    # edges of the upper graph missing from the extremal one: the singletons
    # other than the last join the big clique and each other
    movable = sorted({(u, s) for u in big for s in singles[:-1]}
                     | {(s, t) for s in singles[:-1] for t in singles[:-1] if s < t})
    edges |= set(rng.sample(movable, rng.randint(1, len(movable))))
    for _ in range(rng.randint(0, delta)):
        candidates = sorted(edges)
        rng.shuffle(candidates)
        for e in candidates:
            trial = sorted(edges - {e})
            if min_degree(n, trial) == delta and is_connected(n, trial):
                edges.discard(e)
                break
    return _relabel(rng, n, sorted(edges))


def near_extremal_inputs(seed: int, per_cell: int) -> dict[str, list[tuple[int, Edges]]]:
    """Graphs per theorem ("1" or "2"), per_cell of them for each cell."""
    rng = Random(f"near-extremal:{seed}")
    out: dict[str, list[tuple[int, Edges]]] = {"1": [], "2": []}
    for theorem, n, delta in NEAR_EXTREMAL_CELLS:
        out[theorem] += [(n, near_extremal_graph(rng, n, delta)) for _ in range(per_cell)]
    return out


# -- dense oracle family ------------------------------------------------------------

DENSE_FRACTION = 0.6


def _dense_block(rng: Random, vertices: list[int]) -> Edges:
    """Random graph on ``vertices`` with a Hamiltonian cycle and a fixed share
    DENSE_FRACTION of all pairs as edges.

    The edge count is fixed, not drawn, because the search cost grows
    exponentially with it and a drawn count would let a few instances set
    the time of a whole run.
    """
    order = vertices[:]
    rng.shuffle(order)
    k = len(order)
    edges = {(min(order[i], order[(i + 1) % k]), max(order[i], order[(i + 1) % k]))
             for i in range(k)}
    rest = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
            if (u, v) not in edges]
    target = max(len(edges), round(DENSE_FRACTION * k * (k - 1) / 2))
    return sorted(edges | set(rng.sample(rest, target - len(edges))))


def dense_with_factor(rng: Random, n: int) -> Edges:
    """Dense random graph with a planted Hamiltonian cycle: an even factor exists."""
    return _relabel(rng, n, _dense_block(rng, list(range(n))))


def dense_without_factor(rng: Random, n: int) -> Edges:
    """Two dense blocks of nearly equal order joined through one degree-2 vertex.

    Both edges at that vertex are bridges, and a bridge lies in no even
    subgraph, so no even factor exists although the minimum degree is 2.
    The backtracking oracle only finds the parity contradiction after
    exhausting the blocks' even subgraphs, so these instances are its
    expensive case.
    """
    a = (n - 1) // 2
    left = list(range(a))
    right = list(range(a, n - 1))
    hub = n - 1
    edges = _dense_block(rng, left) + _dense_block(rng, right)
    edges += [(rng.choice(left), hub), (rng.choice(right), hub)]
    return _relabel(rng, n, edges)


def oracle_dense_inputs(seed: int, count: int, n: int) -> list[tuple[int, Edges, bool]]:
    """(n, edges, has_factor) triples, alternating the two kinds."""
    rng = Random(f"oracle-dense:{seed}")
    return [(n, dense_with_factor(rng, n), True) if i % 2 == 0
            else (n, dense_without_factor(rng, n), False)
            for i in range(count)]
