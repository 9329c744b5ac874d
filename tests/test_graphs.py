"""Graph model, family constructors, components, and graph6 codec."""

import random

import pytest

from evenfactor.corpus import BUNDLED_ORDERS, bundled_corpus_lines
from evenfactor.graphs import (
    ComponentReport,
    _bridges,
    Graph,
    Graph6Error,
    clique_join,
    complete,
    complete_bipartite,
    components,
    cycle,
    delete_vertices,
    disjoint_union,
    empty,
    from_graph6,
    join,
    path,
    to_graph6,
)


def test_complete_degenerate_and_k4():
    assert complete(0).n == 0 and complete(0).edge_count == 0
    assert complete(1).n == 1 and complete(1).edge_count == 0
    k4 = complete(4)
    assert k4.edge_count == 6
    assert all(k4.degree(v) == 3 for v in range(4))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_disjoint_union_relabels_and_counts():
    g = disjoint_union(complete(3), complete(1))
    assert (g.n, g.edge_count) == (4, 3)
    assert components(g).components == ((0, 1, 2), (3,))
    assert disjoint_union(empty(0), complete(2)) == complete(2)
    sizes = sorted(len(c) for c in components(disjoint_union(complete(5), complete(1))).components)
    assert sizes == [1, 5]


def test_join_edge_arithmetic():
    g = join(complete(2), disjoint_union(complete(1), complete(1)))
    assert (g.n, g.edge_count) == (4, 5)  # K_4 minus one edge
    assert join(empty(0), complete(3)) == complete(3)
    # e(G1 v G2) = e(G1) + e(G2) + n1*n2, counted from the definition
    g2 = join(complete(2), disjoint_union(complete(5), complete(1)))
    assert g2.edge_count == 1 + 10 + 0 + 2 * 6 == 23
    assert g2.n == 8


def test_join_union_arithmetic_randomized():
    rng = random.Random(4)
    for _ in range(30):
        n1, n2 = rng.randrange(0, 6), rng.randrange(0, 6)
        e1 = [(i, j) for i in range(n1) for j in range(i + 1, n1) if rng.random() < 0.5]
        e2 = [(i, j) for i in range(n2) for j in range(i + 1, n2) if rng.random() < 0.5]
        g1, g2 = Graph(n1, e1), Graph(n2, e2)
        u = disjoint_union(g1, g2)
        j = join(g1, g2)
        assert u.n == j.n == n1 + n2
        assert u.edge_count == len(e1) + len(e2)
        assert j.edge_count == len(e1) + len(e2) + n1 * n2


def test_cycle():
    assert cycle(3) == complete(3)
    c4 = cycle(4)
    assert c4.edge_count == 4
    c5 = cycle(5)
    assert all(c5.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def test_clique_join_labels():
    g = clique_join(2, (5, 1))
    assert g == join(complete(2), disjoint_union(complete(5), complete(1)))


def test_delete_vertices():
    g, kept = delete_vertices(complete(4), {0})
    assert g == complete(3)
    assert kept == (1, 2, 3)
    g2, _ = delete_vertices(cycle(6), {0, 3})
    assert sorted(len(c) for c in components(g2).components) == [2, 2]
    assert all(deg == 1 for v in range(g2.n) for deg in [g2.degree(v)])
    same, kept_all = delete_vertices(cycle(5), set())
    assert same == cycle(5) and kept_all == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        delete_vertices(complete(3), {5})


def test_delete_vertices_degree_identity():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        removed = {v for v in range(n) if rng.random() < 0.3}
        sub, kept = delete_vertices(g, removed)
        for new, old in enumerate(kept):
            lost = sum(1 for w in g.neighbors(old) if w in removed)
            assert sub.degree(new) == g.degree(old) - lost


def test_components_odd_count():
    rep = components(complete_bipartite(2, 3), (0, 1))
    assert rep == ComponentReport(((2,), (3,), (4,)), 3)
    rep2 = components(cycle(6), (0, 3))
    assert rep2.odd_count == 0 and len(rep2.components) == 2
    g = join(complete(2), disjoint_union(complete(5), complete(1)))
    rep3 = components(g, (0, 1))
    assert sorted(len(c) for c in rep3.components) == [1, 5]
    assert rep3.odd_count == 2
    # blocks partition V - S; odd + even = total
    total = sum(len(c) for c in rep3.components)
    assert total == g.n - 2


def test_min_degree_and_connectivity():
    assert complete_bipartite(2, 3).min_degree() == 2
    assert not disjoint_union(complete(3), complete(1)).is_connected()
    g = join(complete(2), disjoint_union(complete(5), complete(1)))
    assert g.min_degree() == 2
    assert empty(0).is_connected()
    assert empty(1).is_connected()
    assert not empty(2).is_connected()


# -- graph6 -----------------------------------------------------------------


def test_graph6_known_lines():
    k4 = from_graph6("C~")
    assert k4 == complete(4)
    p4 = from_graph6("Ch")
    # bits 101001 in order x(0,1) x(0,2) x(1,2) x(0,3) x(1,3) x(2,3)
    assert p4 == path(4)
    assert to_graph6(path(4)) == "Ch"
    assert from_graph6("?") == empty(0)
    assert to_graph6(empty(0)) == "?"


def test_graph6_header_stripped():
    assert from_graph6(">>graph6<<C~") == complete(4)


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("~??")  # truncated four-character size
    with pytest.raises(Graph6Error):
        from_graph6("~???")  # n = 0 takes the one-character size
    with pytest.raises(Graph6Error):
        from_graph6("~~??????")  # eight-character size, n > 258047
    with pytest.raises(Graph6Error):
        from_graph6("C")  # missing data characters
    with pytest.raises(Graph6Error):
        from_graph6("C~~")  # extra data characters
    with pytest.raises(Graph6Error):
        from_graph6("B\x20")  # character below 63
    with pytest.raises(Graph6Error):
        from_graph6("A~")  # nonzero padding bits for n=2
    with pytest.raises(Graph6Error):
        to_graph6(empty(258048))


def test_graph6_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(0, 13)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        line = to_graph6(g)
        assert from_graph6(line) == g
        assert to_graph6(from_graph6(line)) == line


@pytest.mark.parametrize("n, size", [(62, "}"), (63, "~??~"), (100, "~?@c")])
def test_graph6_roundtrip_four_character_sizes(n, size):
    rng = random.Random(n)
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3])
    line = to_graph6(g)
    assert line.startswith(size)
    assert len(line) == len(size) + (n * (n - 1) // 2 + 5) // 6
    assert from_graph6(line) == g
    assert to_graph6(from_graph6(line)) == line


def test_bundled_corpus_lines_are_canonical():
    for n in BUNDLED_ORDERS:
        for line in bundled_corpus_lines(n):
            assert to_graph6(from_graph6(line)) == line


def _reference_components(n, adj, removed):
    """Components of G - removed by DFS over adjacency sets, each sorted,
    in order of their smallest vertex."""
    seen = set(removed)
    comps = []
    for v in range(n):
        if v in seen:
            continue
        seen.add(v)
        stack, comp = [v], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u] - seen:
                seen.add(w)
                stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def test_bitmask_queries_match_edge_list_reference():
    rng = random.Random(2020)
    for _ in range(300):
        n = rng.randrange(0, 21)
        p = rng.random()
        edges = sorted((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert g.edges() == edges and g.edge_count == len(edges)
        for v in range(n):
            assert g.neighbors(v) == tuple(sorted(adj[v]))
            assert g.degree(v) == len(adj[v])
        assert g.min_degree() == min((len(a) for a in adj), default=0)
        assert g.is_connected() == (len(_reference_components(n, adj, ())) <= 1)
        removed = [v for v in range(n) if rng.random() < 0.25]
        ref = _reference_components(n, adj, removed)
        assert components(g, removed) == ComponentReport(ref, sum(len(c) % 2 for c in ref))
        h = from_graph6(to_graph6(g))
        assert h == g and hash(h) == hash(g)


def _reference_bridges(g):
    """Edges whose removal disconnects their two ends, by a plain DFS."""
    out = []
    for u, v in g.edges():
        seen, stack = {u}, [u]
        while stack:
            w = stack.pop()
            for x in g.neighbors(w):
                if {w, x} != {u, v} and x not in seen:
                    seen.add(x)
                    stack.append(x)
        if v not in seen:
            out.append((u, v))
    return out


def test_bridges_match_reference():
    def bridges(g):
        return _bridges([g.neighbor_bits(v) for v in range(g.n)])

    assert bridges(empty(0)) == [] and bridges(empty(1)) == []
    assert bridges(path(5)) == path(5).edges()
    assert bridges(cycle(6)) == []
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randrange(0, 15)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        assert bridges(g) == _reference_bridges(g), g.edges()
