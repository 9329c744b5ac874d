"""Ground-truth even-factor decisions: a parity repair, then exact search.

An even factor is a spanning subgraph in which every vertex has nonzero
even degree. ``find_even_factor`` gives a certificate,
``even_factor_status`` its status alone. A vertex of degree < 2 rules
one out before anything is built, since deleting bridges never raises a
degree. Otherwise each call grows one spanning forest over the neighbour
bitmasks, breadth-first, until every vertex is claimed, kept as its
claims (v, the bitmask of v's children). The parity repair tries first:
the forest plus one extra edge per leaf gives minimum degree 2, and
deleting the forest's T-join of the odd-degree vertices, folded one
claim at a time, makes every degree even. Each vertex v still bare then
toggles the three edges of a triangle vab of g, lowest labels first.
Since v is bare, va and vb are absent, so v gets degree 2 and a and b
change by 0 or 2: every degree stays even, and no covered vertex is
bared. When every bare vertex lies in a triangle, that is an even
factor, found with no search. Otherwise an exact search decides. An even
subgraph meets every edge cut in an even number of edges, so it uses no
bridge: the bridges, folded over the same claims, are deleted first, and
a vertex they leave with degree < 2 rules the factor out with no search.
The rest is a depth-first backtrack over edge include/exclude decisions
with parity pruning: a vertex dies as soon as its decided degree plus
its undecided incident edges cannot reach an even value of at least 2,
and the search accepts as soon as every vertex has an even chosen degree
of at least 2. Only the bridge rule and the search answer NONE_EXISTS,
and only the search can give up, after the fixed NODE_CAP decisions; no
caller sets a cap of its own.

Also provides the odd-component counting condition o(G - S) < |S| for
all |S| >= 2, which is sufficient on even orders. By the Tutte-Berge
formula it holds iff every G - u - v has a maximum matching that misses
at most n mod 2 vertices (on even orders: G is bicritical). One table of
the vertex subsets that have a perfect matching decides a whole batch of
graphs of one order at once, on orders up to 8, every bundled order; a
larger order raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import _POPCOUNT, Graph

# include/exclude decisions after which the backtracking search gives up
NODE_CAP = 100_000_000
# the largest order whose odd-component condition is decided; the subset
# table reads uint8 neighbour bitmasks of the graph padded to even order,
# so it cannot exceed 8
TABLE_MAX_ORDER = 8
# graphs per subset table: 2^8 rows of at most this many bools
TABLE_CHUNK = 1024


class CertificateStatus(Enum):
    FOUND = "found"
    NONE_EXISTS = "none-exists"
    SEARCH_CAP_EXCEEDED = "cap-exceeded"


@dataclass(frozen=True)
class EvenFactorCertificate:
    status: CertificateStatus
    edges: Optional[tuple[tuple[int, int], ...]]
    nodes_explored: int


def is_even_factor(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edge set gives every vertex of g an even degree >= 2."""
    n = g.n
    deg = [0] * n
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not in graph")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return all(d >= 2 and d % 2 == 0 for d in deg)


def find_even_factor(g: Graph) -> EvenFactorCertificate:
    """FOUND with a certificate, or NONE_EXISTS, decided exactly.

    A vertex of degree < 2 gives NONE_EXISTS with ``nodes_explored == 0``
    before any forest is grown: deleting bridges never raises a degree.
    Otherwise one spanning forest serves the whole call. The parity repair
    grows it (``_parity_repair``); when the repair builds an even factor
    the answer is FOUND with ``nodes_explored == 0``, its edges (u, v),
    u < v, sorted. Otherwise the bridges are read off the same forest and
    deleted (``_delete_bridges``): a vertex they leave with degree < 2
    gives NONE_EXISTS with ``nodes_explored == 0``, and else the
    backtracking search decides on the bridge-free bitmasks (``_search``).
    Only the search can give up, with SEARCH_CAP_EXCEEDED after NODE_CAP
    include/exclude decisions. Deterministic.

    Measured on one core of a shared 2-vCPU Xeon (Python 3.11, best of
    31, in one process), per call, status then certificate: the 706
    near-extremal graphs on 14 to 26 vertices with about 180 edges that a
    seed-1 benchmark pass checks take 0.0086 and 0.017 ms, every one
    repaired with no flip; K_30 0.010 and 0.021 ms; 15-vertex graphs with
    about 63 edges 0.008 and 0.015 ms with a factor (all 200 repaired, 9
    of them by triangle flips) and 0.020 ms without one (all 200 settled
    by the bridges, with no search node, about 0.012 ms of it in the
    failed repair); the 2206 bundled graphs that meet the odd-component
    condition 0.0055 ms for the status. The repair settles every extremal
    graph with delta = 2..20 and even n = 2*delta..160, every one with
    delta = 2..15 and odd n = 2*delta + 1..8*delta + 9, and 2205 of those
    2206 graphs (264 of them by triangle flips).
    """
    status, factor, nodes = _decide(g)
    if factor is not None and not nodes:   # the repair's pairs and triangles
        pairs, triangles = factor
        edges = []
        for v, mask in pairs:
            while mask:
                low = mask & -mask
                mask ^= low
                u = low.bit_length() - 1
                edges.append((u, v) if u < v else (v, u))
        if triangles:
            edges = set(edges)
            for v, a, b in triangles:
                edges ^= {(min(v, a), max(v, a)), (min(v, b), max(v, b)), (a, b)}
            edges = list(edges)
        edges.sort()
        factor = tuple(edges)
    return EvenFactorCertificate(status, factor, nodes)


def even_factor_status(g: Graph) -> CertificateStatus:
    """``find_even_factor(g).status``, with no certificate built."""
    return _decide(g)[0]


def _decide(g: Graph) -> tuple[CertificateStatus, Optional[tuple], int]:
    """(status, factor, nodes explored). A FOUND factor is the repair's
    (pairs, triangles) when no node was explored, and else the search's
    edge tuple: the search explores a node per edge it takes."""
    if g.n and g.min_degree() < 2:
        return CertificateStatus.NONE_EXISTS, None, 0
    factor, claims = _parity_repair(g._bits)
    if factor is not None:
        return CertificateStatus.FOUND, factor, 0
    bits = _delete_bridges(g._bits, claims)
    if min(map(int.bit_count, bits)) < 2:
        return CertificateStatus.NONE_EXISTS, None, 0
    return _search(bits)


def _parity_repair(bits: Sequence[int]) -> tuple[
        Optional[tuple[list[tuple[int, int]], list[tuple[int, int, int]]]],
        list[tuple[int, int]]]:
    """An even factor built without search, or None, and the forest grown.

    ``bits`` are the neighbour bitmasks of a graph g. Grow a spanning
    forest breadth-first, each tree from an unseen vertex of largest
    degree, lowest label first (the vertices are sorted by degree only
    when a second tree is needed), as claims (v, the mask of v's children)
    in the order claimed: each vertex expanded claims all of its unseen
    neighbours, children are expanded in that order, and growth stops once
    every vertex is claimed. Give each leaf one edge off the forest, to
    another leaf still without one where it can (no parent is a leaf: only
    a leaf with no such neighbour looks its parent up), so that the
    subgraph H has minimum degree 2. The odd-degree vertices of H are even
    in number in each tree, so one pass from the leaves to the roots
    deletes a forest edge set J that meets each of them an odd number of
    times and every other vertex an even number: every degree of H - J is
    even. The pass folds one claim (v, kids) at a time, last first, so
    that each child's parity is final: the edges to v's odd children go
    into J, v's parity flips once per such edge, and the edges to its even
    children stay. Then each vertex v that H - J leaves bare, lowest
    first, flips a triangle vab: a is v's lowest neighbour with a
    neighbour in common with v, and b the lowest such common neighbour.
    Neither va nor vb is in the subgraph, since v is bare, so the flip
    gives v degree 2 and changes the degrees of a and b by 0 or 2; a and
    b are covered after it. The even factor is (pairs, triangles): the
    pairs (v, mask), an edge from v to each vertex of mask, are H - J, and
    each triangle (v, a, b), a < b, toggles its three edges in turn.
    It is None when g has a vertex of degree < 2 or a vertex left bare
    lies in no triangle; that says nothing about g. The claims come back
    in both cases.
    """
    n = len(bits)
    full = (1 << n) - 1
    deg = list(map(int.bit_count, bits))
    claims = []            # (v, the children v claimed), in the order claimed
    internal = 0           # vertices that claimed a child
    odd = 0                # odd-degree vertices of the subgraph built so far
    unseen = full
    roots = [deg.index(max(deg))] if n else []
    for root in roots:
        if not unseen >> root & 1:
            continue
        unseen ^= 1 << root
        queue = [1 << root]    # the vertices to expand, one mask per claim
        for batch in queue:
            while batch and unseen:
                low = batch & -batch
                batch ^= low
                v = low.bit_length() - 1
                kids = bits[v] & unseen
                if kids:
                    unseen ^= kids
                    odd ^= kids
                    if kids.bit_count() & 1:
                        odd ^= low
                    internal |= low
                    claims.append((v, kids))
                    queue.append(kids)
        if not unseen:         # every vertex is claimed: the rest are leaves
            break
        if len(roots) == 1:    # a second tree: the other roots by degree
            roots += sorted(range(n), key=deg.__getitem__, reverse=True)
    if min(deg, default=2) < 2:
        return None, claims
    leaves = full ^ internal
    covered = leaves       # vertices that an edge of H - J meets
    factor = []
    while leaves:
        low = leaves & -leaves
        v = low.bit_length() - 1
        w = bits[v] & leaves
        if w:
            w &= -w
            leaves ^= low | w
        else:              # no leaf neighbour left: any edge but the parent's
            w = bits[v] ^ next(1 << p for p, kids in claims if kids & low)
            w &= -w
            leaves ^= low
            covered |= w
        odd ^= low | w
        factor.append((v, w))
    for v, kids in reversed(claims):
        cut = kids & odd   # the odd children: their edges to v are in J
        odd ^= cut
        if cut.bit_count() & 1:
            odd ^= 1 << v
        kept = kids ^ cut
        if kept:
            covered |= kept | 1 << v
            factor.append((v, kept))
    triangles = []
    bare = full ^ covered
    while bare:            # flip a triangle vab at each vertex v still bare
        low = bare & -bare
        v = low.bit_length() - 1
        rest = near = bits[v]
        while rest:
            a = rest & -rest
            common = bits[a.bit_length() - 1] & near
            if common:
                break
            rest ^= a
        else:
            return None, claims
        b = common & -common
        triangles.append((v, a.bit_length() - 1, b.bit_length() - 1))
        bare &= ~(low | a | b)
    return (factor, triangles), claims


def _delete_bridges(bits: Sequence[int], claims: list[tuple[int, int]]) -> list[int]:
    """The neighbour bitmasks ``bits`` with every bridge deleted.

    ``claims`` are a spanning forest of the graph, pairs (p, the mask of
    p's children) with each vertex's claim after its parent's, in which
    each vertex claimed all of its unseen neighbours, such as
    ``_parity_repair`` grows. Last claim first, each parent p folds each
    child c's subtree S and the neighbourhood N(S) into its own. The tree
    edge pc is the only edge leaving S, so a bridge, iff N(S) - S is {p}.
    (p meets S in c alone: a neighbour of p in S would still have been
    unseen when p claimed its children, and so a child of p.) An edge off
    the forest lies on a cycle and is never a bridge.
    """
    sub = [1 << v for v in range(len(bits))]
    reach = list(bits)
    kept = list(bits)
    for p, kids in reversed(claims):
        while kids:
            low = kids & -kids
            kids ^= low
            c = low.bit_length() - 1
            if reach[c] & ~sub[c] == 1 << p:
                kept[p] ^= low
                kept[c] ^= 1 << p
            sub[p] |= sub[c]
            reach[p] |= reach[c]
    return kept


def _search(bits: list[int]) -> tuple[CertificateStatus, Optional[tuple], int]:
    """Exact backtracking search: (status, factor, nodes explored), FOUND
    with the factor's edges, or exhaustion.

    ``bits`` are neighbour bitmasks with the bridges already deleted (no
    even factor uses a bridge: an even subgraph meets every edge cut in an
    even number of edges); a vertex of degree < 2 gives NONE_EXISTS with
    ``nodes_explored == 0``. Early accept: once every vertex has an even
    chosen degree of at least 2, the undecided edges are excluded and the
    search returns; the walk would have excluded them anyway, so this
    saves nodes without changing the certificate. ``nodes_explored``
    counts include/exclude decisions; after NODE_CAP of them the search
    gives up with SEARCH_CAP_EXCEEDED.

    Deterministic: edges are decided in the order of (smaller endpoint
    degree, larger endpoint degree, u, v), degrees taken after the bridges
    are gone, and the branch taken first at each edge (include while an
    endpoint has fewer than 2 included edges) depends only on the current
    parity state. The search runs on flat lists: the sorted edge
    endpoints, and per vertex its included and undecided edge counts.
    Measured on one core of a 2-vCPU Xeon (Python 3.11, best of 15), the
    search alone on bridge-free bitmasks: 15-vertex graphs with about 63
    edges and a factor take 0.054 ms (median 54 nodes); near-extremal
    graphs on 14 to 26 vertices with about 170 edges take 0.12 ms (median
    90 nodes), of which ordering the edges is about two thirds; K_30 takes
    0.25 ms. In front of it ``_decide`` settles most graphs by the parity
    repair, its triangle flips or the bridges, so the search is a rare
    fallback: it decides none of the 400 seed-1 oracle-dense graphs, none
    of a seed-1 near-extremal pass's 706 guarantees, and 1 of the 2206
    bundled graphs that meet the odd-component condition (EhdW, whose bare
    vertex lies in no triangle). Search stays exponential
    where parity is forced across a cut of three or more edges: two
    7-vertex blocks joined through three degree-2 vertices (17 vertices,
    36 edges, no bridge) take 1.2M nodes and 0.6 s, about 0.5 us a node.
    Beyond that NODE_CAP bounds the search.
    """
    n = len(bits)
    cap = NODE_CAP
    und = [b.bit_count() for b in bits]   # degrees, then undecided incident edges
    if min(und, default=2) < 2:
        return CertificateStatus.NONE_EXISTS, None, 0

    edges = []             # (min degree, max degree, u, v) per edge u < v
    for u in range(n):
        du = und[u]
        rest = bits[u] >> (u + 1)     # neighbours above u
        while rest:
            low = rest & -rest
            rest ^= low
            v = u + low.bit_length()
            dv = und[v]
            edges.append((du, dv, u, v) if du <= dv else (dv, du, u, v))
    edges.sort()
    eu = [e[2] for e in edges]
    ev = [e[3] for e in edges]
    m = len(edges)

    inc = [0] * n          # decided-included degree
    # step[k]: change in the count of unsettled vertices (inc not yet even
    # and >= 2) when a vertex's inc goes from k to k + 1
    step = [0] + [-1, 1] * (n // 2)
    unsettled = n
    chosen = [False] * m   # branch taken at each decided position
    flipped = [False] * m  # whether that branch is the second one tried
    nodes = 0
    pos = 0                # edges 0..pos-1 are decided
    ok = True
    while True:
        if ok:
            if unsettled == 0:
                found = tuple((eu[i], ev[i]) for i in range(pos) if chosen[i])
                return CertificateStatus.FOUND, found, nodes
            # a live state with every edge decided is settled, so pos < m
            u, v = eu[pos], ev[pos]
            take = inc[u] < 2 or inc[v] < 2
            flipped[pos] = False
        else:
            while True:
                if pos == 0:
                    return CertificateStatus.NONE_EXISTS, None, nodes
                pos -= 1
                u, v = eu[pos], ev[pos]
                und[u] += 1
                und[v] += 1
                if chosen[pos]:
                    inc[u] -= 1
                    inc[v] -= 1
                    unsettled -= step[inc[u]] + step[inc[v]]
                if not flipped[pos]:
                    break
            take = not chosen[pos]
            flipped[pos] = True
        if nodes >= cap:
            return CertificateStatus.SEARCH_CAP_EXCEEDED, None, nodes
        nodes += 1
        und[u] -= 1
        und[v] -= 1
        if take:
            unsettled += step[inc[u]] + step[inc[v]]
            inc[u] += 1
            inc[v] += 1
        chosen[pos] = take
        pos += 1
        # u and v stay alive while inc can still end even and >= 2: with two
        # undecided edges left, with one and inc >= 1, or with none and inc
        # even and >= 2
        k = inc[u]
        r = und[u]
        ok = r > 1 or k and (r or not k & 1)
        if ok:
            k = inc[v]
            r = und[v]
            ok = r > 1 or k and (r or not k & 1)


def odd_component_conditions(graphs: Iterable[Graph]) -> list[bool]:
    """Whether o(G - S) < |S| for every S with |S| >= 2, per graph, in input order.

    By the Tutte-Berge formula, a maximum matching of H misses exactly
    max_T (o(H - T) - |T|) vertices. With H = G - u - v and S = T + {u, v}
    that is the largest o(G - S) - |S| + 2 over the S holding u and v.
    Since o(G - S) has the parity of n - |S|, o(G - S) < |S| says
    o(G - S) - |S| <= (n mod 2) - 2. Every S with |S| >= 2 holds a pair,
    so the condition holds iff every G - u - v has a maximum matching
    missing at most n mod 2 vertices. On even n >= 4 a vertex x of degree
    <= 2 fails it at once: deleting a two-vertex S that holds N(x) but not
    x leaves {x} as an odd component, and n - 2 is even, so another odd
    component remains. On odd n a vertex added adjacent to every other
    vertex takes the one vertex a matching of G - u - v may miss, so the
    padded graph, of even order N = n + (n mod 2), less u and v must have
    a perfect matching.

    Each chunk of TABLE_CHUNK graphs of one order is decided by one table
    of 2^N rows, one column per graph, whose row of S is True when the
    padded G[S] has a perfect matching (``_table_conditions``). A batch
    holding an order above TABLE_MAX_ORDER raises ValueError before any
    graph is decided. Measured on one core of a 2-vCPU Xeon (Python 3.11,
    best of 9): the 11235 bundled graphs of even order 4..8 take 0.016 s
    in one batch, and a batch of one graph of order 8 about 0.4 ms.
    """
    graphs = list(graphs)
    orders = [g.n for g in graphs]
    if max(orders, default=0) > TABLE_MAX_ORDER:
        raise ValueError(f"the odd-component condition is decided on orders up to "
                         f"{TABLE_MAX_ORDER}, got order {max(orders)}")
    holds = np.zeros(len(graphs), bool)
    for n in set(orders):
        indices = [i for i, order in enumerate(orders) if order == n]
        for start in range(0, len(indices), TABLE_CHUNK):
            chunk = indices[start:start + TABLE_CHUNK]
            masks = np.fromiter(chain.from_iterable(graphs[i]._bits for i in chunk), np.uint8,
                                len(chunk) * n).reshape(len(chunk), n)
            holds[chunk] = _table_conditions(n, masks)
    return holds.tolist()


def _table_conditions(n: int, masks: np.ndarray) -> np.ndarray:
    """The condition on k graphs of order n <= TABLE_MAX_ORDER, as k bools,
    from their (k, n) uint8 neighbour bitmasks."""
    if n % 2:
        # the added vertex n, adjacent to every other vertex
        masks = np.hstack((masks | np.uint8(1 << n),
                           np.full((len(masks), 1), (1 << n) - 1, np.uint8)))
        holds = np.ones(len(masks), bool)
    else:
        holds = (_POPCOUNT[masks].min(1, initial=n) > 2) | (n < 4)
    live = masks[holds]
    updates, queries = _table_plan(n)
    table = np.zeros((1 << masks.shape[1], len(live)), bool)
    table[0] = True
    for v, w, rest, rows in updates:
        table[rows] |= table[rest] & (live[:, v] >> w & 1).astype(bool)
    holds[holds] = table[queries].all(0)
    return holds


@lru_cache(maxsize=None)
def _table_plan(n: int) -> tuple[list[tuple[int, int, np.ndarray, np.ndarray]], list[int]]:
    """How ``_table_conditions`` fills and reads the subset table at order n.

    With N = n + (n mod 2), the updates are one (v, w, T rows, S rows) per
    pair v < w of the N vertices, highest v first: S = {v, w} + T for each
    even set T of vertices above v without w, so the row of S gains that
    of T, already final, when vw is an edge. Every nonempty S with a
    perfect matching gains it from its lowest vertex v and v's partner w:
    28 updates at N = 8. The queries are the rows of V - u - v for the
    pairs u < v of the n vertices.
    """
    size = n + (n & 1)
    updates = []
    for v in reversed(range(size)):
        for w in range(v + 1, size):
            rest = np.array([t for t in range(0, 1 << size, 2 << v)
                             if not t >> w & 1 and t.bit_count() % 2 == 0])
            updates.append((v, w, rest, rest | 1 << v | 1 << w))
    full = (1 << size) - 1
    return updates, [full ^ 1 << u ^ 1 << v for u, v in combinations(range(n), 2)]
