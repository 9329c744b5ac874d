"""Ground-truth even-factor decisions by exact search.

An even factor is a spanning subgraph in which every vertex has nonzero
even degree. Vertices of degree < 2 rule one out immediately. An even
subgraph meets every edge cut in an even number of edges, so it uses no
bridge: the bridges are deleted first (one spanning-forest pass over the
neighbour bitmasks), and a vertex they leave with degree < 2 rules the
factor out with no search. The rest is a depth-first backtrack over edge
include/exclude decisions with parity pruning: a vertex dies as soon as
its decided degree plus its undecided incident edges cannot reach an even
value of at least 2, and the search accepts as soon as every vertex has
an even chosen degree of at least 2. Also provides the odd-component
counting condition o(G - S) < |S| for all |S| >= 2, which is sufficient
on even orders; it enumerates the subsets S and counts the components of
G - S by flood fills on the graph's neighbour bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional

from .graphs import Graph, _bridges, _component

DEFAULT_NODE_CAP = 100_000_000


class CertificateStatus(Enum):
    FOUND = "found"
    NONE_EXISTS = "none-exists"
    SEARCH_CAP_EXCEEDED = "cap-exceeded"


@dataclass(frozen=True)
class EvenFactorCertificate:
    status: CertificateStatus
    edges: Optional[tuple[tuple[int, int], ...]]
    nodes_explored: int


@dataclass(frozen=True)
class OddComponentReport:
    """Outcome of checking o(G - S) < |S| over all S with |S| >= 2.

    ``witness`` is the first S (smallest size, lexicographic) violating the
    condition, i.e. with o(G - S) >= |S|.
    """

    holds: bool
    witness: Optional[tuple[int, ...]]
    subsets_checked: int


def is_even_factor(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edge set gives every vertex of g an even degree >= 2."""
    deg = [0] * g.n
    seen = set()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not in graph")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return all(d >= 2 and d % 2 == 0 for d in deg)


def find_even_factor(g: Graph, *, node_cap: int = DEFAULT_NODE_CAP) -> EvenFactorCertificate:
    """Exact even-factor search: Found with a certificate, or exhaustion.

    Two exact rules cut the search. Cut parity: no even factor uses a
    bridge, so the bridges are deleted before the search, and a vertex
    left with degree < 2 gives NONE_EXISTS with ``nodes_explored == 0``.
    Early accept: once every vertex has an even chosen degree of at least
    2, the undecided edges are excluded and the search returns; the walk
    would have excluded them anyway, so this saves nodes without changing
    the certificate. ``nodes_explored`` counts include/exclude decisions;
    after ``node_cap`` of them the search gives up with
    SEARCH_CAP_EXCEEDED.

    Deterministic: edges are decided in a fixed order (edges touching
    low-degree vertices first), and the branch taken first at each edge
    depends only on the current parity state. Measured on one core of a
    2-vCPU Xeon (Python 3.11): 15-vertex graphs with about 63 edges and a
    factor take 0.2 ms (median 54 nodes); two dense blocks joined through
    a degree-2 vertex take 0.03 ms and no nodes; K_30 takes 1.3 ms. Search
    stays exponential where parity is forced across a cut of three or more
    edges: two 7-vertex blocks joined through three degree-2 vertices (17
    vertices, 37 edges, no bridge) take 832k nodes and 1.3 s. Beyond that
    rely on ``node_cap``.
    """
    n = g.n
    if n == 0:
        return EvenFactorCertificate(CertificateStatus.FOUND, (), 0)
    bits = [g.neighbor_bits(v) for v in range(n)]
    for u, v in _bridges(bits):
        bits[u] ^= 1 << v
        bits[v] ^= 1 << u
    g = Graph._from_bits(tuple(bits))
    if g.min_degree() < 2:
        return EvenFactorCertificate(CertificateStatus.NONE_EXISTS, None, 0)

    edges = sorted(
        g.edges(),
        key=lambda e: (min(g.degree(e[0]), g.degree(e[1])),
                       max(g.degree(e[0]), g.degree(e[1])), e),
    )
    m = len(edges)
    inc = [0] * n          # decided-included degree
    und = [0] * n          # undecided incident edges
    for u, v in edges:
        und[u] += 1
        und[v] += 1
    chosen = [False] * m
    unsettled = n          # vertices whose inc is not yet even and >= 2

    def dead(w: int) -> bool:
        k, u = inc[w], und[w]
        if k + u < 2:
            return True
        return u == 0 and (k < 2 or k % 2 == 1)

    def apply(idx: int, take: bool) -> bool:
        nonlocal unsettled
        u, v = edges[idx]
        und[u] -= 1
        und[v] -= 1
        if take:
            for w in (u, v):
                k = inc[w]
                # odd -> even settles w; even >= 2 -> odd unsettles it
                if k & 1:
                    unsettled -= 1
                elif k:
                    unsettled += 1
                inc[w] = k + 1
        chosen[idx] = take
        return not (dead(u) or dead(v))

    def undo(idx: int) -> None:
        nonlocal unsettled
        u, v = edges[idx]
        und[u] += 1
        und[v] += 1
        if chosen[idx]:
            for w in (u, v):
                k = inc[w] - 1
                if k & 1:
                    unsettled += 1
                elif k:
                    unsettled -= 1
                inc[w] = k

    nodes = 0
    # stack holds (edge index, branch order, next branch position)
    stack: list[tuple[int, tuple[bool, bool], int]] = []
    pos = 0
    while True:
        if unsettled == 0:
            found = tuple(e for i, e in enumerate(edges[:pos]) if chosen[i])
            return EvenFactorCertificate(CertificateStatus.FOUND, found, nodes)
        if pos == m:
            ok = False
        else:
            u, v = edges[pos]
            prefer_take = inc[u] < 2 or inc[v] < 2
            order = (True, False) if prefer_take else (False, True)
            if nodes >= node_cap:
                return EvenFactorCertificate(
                    CertificateStatus.SEARCH_CAP_EXCEEDED, None, nodes
                )
            nodes += 1
            ok = apply(pos, order[0])
            stack.append((pos, order, 1))
            pos += 1
        while not ok:
            if not stack:
                return EvenFactorCertificate(CertificateStatus.NONE_EXISTS, None, nodes)
            idx, order, nxt = stack.pop()
            undo(idx)
            pos = idx
            if nxt < 2:
                if nodes >= node_cap:
                    return EvenFactorCertificate(
                        CertificateStatus.SEARCH_CAP_EXCEEDED, None, nodes
                    )
                nodes += 1
                ok = apply(idx, order[nxt])
                stack.append((idx, order, nxt + 1))
                pos = idx + 1


def odd_component_condition(g: Graph) -> OddComponentReport:
    """Check o(G - S) < |S| for every S with |S| >= 2, witness on failure.

    Only sizes up to n/2 are enumerated: o(G - S) >= |S| needs at least |S|
    vertices outside S. Enumeration is in increasing size, lexicographic, so
    the reported witness is deterministic. For each S the components of
    G - S are peeled off one bitmask flood fill at a time, and the peeling
    stops as soon as the verdict is settled: once |S| of them are odd, or
    once the odd ones so far plus the vertices left (each remaining
    component adds at most one) fall short of |S|. Exponential in n: a
    graph on which the condition holds takes every subset, 154 at n = 8 and
    616645 at n = 20. On K_n that measured 0.2 ms at n = 8, 76 ms at n = 16
    and 1.9 s at n = 20 (one core of a 2-vCPU Xeon, Python 3.11), so n up
    to about 20 is practical; a violated condition usually ends far sooner.
    """
    n = g.n
    bits = [g.neighbor_bits(v) for v in range(n)]
    full = (1 << n) - 1
    checked = 0
    for size in range(2, n // 2 + 1):
        for subset in combinations(range(n), size):
            checked += 1
            alive = full
            for v in subset:
                alive ^= 1 << v
            odd = 0
            while odd < size <= odd + alive.bit_count():
                comp = _component(bits, alive & -alive, alive)
                odd += comp.bit_count() & 1
                alive ^= comp
            if odd >= size:
                return OddComponentReport(False, subset, checked)
    return OddComponentReport(True, None, checked)
