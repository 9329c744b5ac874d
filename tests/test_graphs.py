"""Graph model, the clique join against its definition, components, the
bitmask/adjacency-stack codec, and the graph6 codec."""

import random
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest

from evenfactor.corpus import BUNDLED_ORDERS, bundled_corpus_lines
from evenfactor import corpus, graphs
from evenfactor.graphs import (
    Graph,
    Graph6Error,
    adjacency_masks,
    adjacency_stack,
    clique_join,
    from_graph6,
    read_graph6,
    to_graph6,
)
from small_graphs import ComponentReport, complete_bipartite, components, cycle, path


def test_complete_degenerate_and_k4():
    assert clique_join(0, ()).n == 0 and clique_join(0, ()).edge_count == 0
    assert clique_join(1, ()).n == 1 and clique_join(1, ()).edge_count == 0
    k4 = clique_join(4, ())
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
    # with s = 0 the clique join is the disjoint union of its parts, in order
    g = clique_join(0, (3, 1))
    assert (g.n, g.edge_count) == (4, 3)
    assert components(g).components == ((0, 1, 2), (3,))
    assert clique_join(0, (0, 2)) == path(2)
    sizes = sorted(len(c) for c in components(clique_join(0, (5, 1))).components)
    assert sizes == [1, 5]


def test_join_edge_arithmetic():
    g = clique_join(2, (1, 1))
    assert (g.n, g.edge_count) == (4, 5)  # K_4 minus one edge
    assert clique_join(0, (3,)) == clique_join(3, ()) == cycle(3)
    # e(G1 v G2) = e(G1) + e(G2) + n1*n2, counted from the definition
    g2 = clique_join(2, (5, 1))
    assert g2.edge_count == 1 + 10 + 0 + 2 * 6 == 23
    assert g2.n == 8


def test_cycle():
    assert cycle(3) == clique_join(3, ())
    c4 = cycle(4)
    assert c4.edge_count == 4
    c5 = cycle(5)
    assert all(c5.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def _clique_join_by_definition(s, parts):
    """K_s v (K_{parts[0]} u K_{parts[1]} u ...) from its edge list: every
    pair with a K_s end, and every pair inside one part."""
    n = s + sum(parts)
    edges = [(u, v) for u in range(s) for v in range(u + 1, n)]
    start = s
    for p in parts:
        edges += [(u, v) for u in range(start, start + p) for v in range(u + 1, start + p)]
        start += p
    return Graph(n, edges)


def test_clique_join_labels():
    # every extremal cell K_delta v (K_{n-2delta+1} u (delta-1)K_1) of the
    # threshold grid, then the degenerate shapes
    shapes = [(d, (n - 2 * d + 1,) + (1,) * (d - 1))
              for d in range(2, 13) for n in range(2 * d, 8 * d + 9, 2)]
    assert len(shapes) == 286
    shapes += [(0, ()), (3, ()), (0, (4,)), (0, (0, 0)), (2, (0, 3, 0)),
               (0, (1, 1)), (1, (1, 1)), (2, (1, 1))]
    for s, parts in shapes:
        g, reference = clique_join(s, parts), _clique_join_by_definition(s, parts)
        assert g == reference, (s, parts)
        assert g.edge_count == reference.edge_count, (s, parts)
    for s, parts in [(-1, ()), (-1, (2,)), (2, (3, -1)), (0, (-2,))]:
        with pytest.raises(ValueError):
            clique_join(s, parts)


def test_components_odd_count():
    rep = components(complete_bipartite(2, 3), (0, 1))
    assert rep == ComponentReport(((2,), (3,), (4,)), 3)
    rep2 = components(cycle(6), (0, 3))
    assert rep2.odd_count == 0 and len(rep2.components) == 2
    g = clique_join(2, (5, 1))
    rep3 = components(g, (0, 1))
    assert sorted(len(c) for c in rep3.components) == [1, 5]
    assert rep3.odd_count == 2
    # blocks partition V - S; odd + even = total
    total = sum(len(c) for c in rep3.components)
    assert total == g.n - 2


def test_min_degree_and_connectivity():
    assert complete_bipartite(2, 3).min_degree() == 2
    assert not clique_join(0, (3, 1)).is_connected()
    g = clique_join(2, (5, 1))
    assert g.min_degree() == 2
    assert Graph(0).is_connected()
    assert Graph(1).is_connected()
    assert not Graph(2).is_connected()


# -- graph6 -----------------------------------------------------------------


def test_graph6_known_lines():
    k4 = from_graph6("C~")
    assert k4 == clique_join(4, ())
    p4 = from_graph6("Ch")
    # bits 101001 in order x(0,1) x(0,2) x(1,2) x(0,3) x(1,3) x(2,3)
    assert p4 == path(4)
    assert to_graph6(path(4)) == "Ch"
    assert from_graph6("?") == Graph(0)
    assert to_graph6(Graph(0)) == "?"


def test_graph6_header_stripped():
    assert from_graph6(">>graph6<<C~") == clique_join(4, ())


# malformed lines and their errors; lines are stripped, so "B " lacks
# its data character
MALFORMED = {
    "": "empty graph6 line",
    ">>graph6<<": "empty graph6 line",
    "~??": "truncated four-character graph6 size",
    "~???": "size 0 written in four characters, not one",
    "~~??????": "graph6 sizes above 258047 are not supported",
    "~?!?": "size character '!' out of range 63..126",
    "\x01Bw": "size character '\\x01' out of range 63..126",
    "é": "size character 'é' out of range 63..126",
    "C": "expected 1 data characters for n=4, got 0",
    "C~~": "expected 1 data characters for n=4, got 2",
    "B\x20": "expected 1 data characters for n=3, got 0",
    "~?@????": "expected 336 data characters for n=64, got 3",
    "C>": "data character '>' out of range 63..126",
    "B\x7f": "data character '\\x7f' out of range 63..126",
    "Cé": "data character 'é' out of range 63..126",
    "D?é": "data character 'é' out of range 63..126",
    "A~": "nonzero padding bits",
    "D~~": "nonzero padding bits",
}


def test_graph6_errors():
    for line, error in MALFORMED.items():
        with pytest.raises(Graph6Error) as info:  # "Cé" too, not UnicodeEncodeError
            from_graph6(line)
        assert str(info.value) == error
    with pytest.raises(Graph6Error):
        to_graph6(Graph(258048))


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


def test_bundled_corpora_are_connected_under_a_fresh_flood():
    # the corpus vouches for connectivity, so that no verdict floods its
    # graphs; here each is rebuilt from its edges, with nothing vouched,
    # and flooded
    for n in BUNDLED_ORDERS:
        lines = bundled_corpus_lines(n)
        vouched = corpus.load_bundled_corpus(n)
        assert all(g._connected is True for g in vouched)
        assert all(Graph(n, g.edges()).is_connected() for g in vouched)
        # the same graphs, edge counts and minimum degrees as the reader's
        decoded = list(read_graph6(lines))
        assert [(g, g.edge_count, g.min_degree()) for g in vouched] == \
            [(g, g.edge_count, g.min_degree()) for g in decoded]
        # the row blocks scan -n reads: each graph's minimum degree and edge
        # count, and its Graph, vouched for, from any chosen rows
        blocks = list(corpus.bundled_blocks(n, lines))
        assert [(d, m) for b in blocks
                for d, m in zip(b.min_degrees.tolist(), b.edge_counts.tolist())] == [
            (g.min_degree(), g.edge_count) for g in vouched]
        offset = 0
        for b in blocks:
            odd = np.arange(1, len(b), 2)
            assert b.graphs(odd) == vouched[offset + 1:offset + len(b):2]
            offset += len(b)
        # the rows the lemma checks read: each graph's bitmasks and degrees
        packed, degrees = corpus.load_bundled_rows(n)
        assert packed.shape == (len(lines), n, 1) and degrees.shape == (len(lines), n)
        assert [tuple(row) for row in packed.reshape(-1, n).tolist()] == [g._bits for g in vouched]
        assert degrees.tolist() == [[g.degree(v) for v in range(n)] for g in vouched]


@pytest.mark.parametrize("n, bad, error", [
    (8, "GCZJd}", "nonzero padding bits"),
    (8, "GCZ!d{", "data character '!' out of range 63..126"),
    (8, "GCZJd", "expected 5 data characters for n=8, got 4"),
    (8, "GCZJd{?", "expected 5 data characters for n=8, got 6"),
    (8, "F?AZo", "not a graph6 line of order 8: 'F?AZo'"),
    (8, ">>graph6<<GCZJd{", "not a graph6 line of order 8: '>>graph6<<GCZJd{'"),
    # K_2, well-formed, and as long as a 3-vertex line
    (3, "A_", "not a graph6 line of order 3: 'A_'"),
])
def test_bundled_row_reader_raises_on_a_bad_line(monkeypatch, n, bad, error):
    # one bad line mid-batch, each but K_2 a change to the 8-vertex line
    # GCZJd{: every reader of the corpus raises its error, the first bad
    # line's when the batch holds a second one, such as a long line right
    # after a short one, which leaves the batch's length right
    lines = bundled_corpus_lines(n)
    assert from_graph6("GCZJd{").n == 8
    for second in (None, "A~", "GCZJd{?"):
        patched = lines[:len(lines) // 2] + [bad] + ([second] if second else []) + \
            lines[len(lines) // 2:]
        monkeypatch.setattr(corpus, "bundled_corpus_lines", lambda n: patched)
        for read in (corpus.load_bundled_corpus, corpus.load_bundled_rows,
                     lambda n: list(corpus.bundled_blocks(n, corpus.bundled_corpus_lines(n)))):
            with pytest.raises(Graph6Error) as info:
                read(n)
            assert str(info.value) == error
    if "order" not in error:
        with pytest.raises(Graph6Error, match=error):
            from_graph6(bad)


def _alone(line):
    """The graph, or the error text, of one line decoded by itself."""
    try:
        g = from_graph6(line)
    except Graph6Error as exc:
        return str(exc)
    return g.n, g.edge_count, g._bits


def _reference_decode(line):
    """The graph of a well-formed graph6 line, read bit by bit."""
    size, body = (line[1:4], line[4:]) if line[0] == "~" else (line[0], line[1:])
    n = int("".join(format(ord(c) - 63, "06b") for c in size), 2)
    bits = "".join(format(ord(c) - 63, "06b") for c in body)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])


def _batched(lines):
    return [str(r) if isinstance(r, Graph6Error) else (r.n, r.edge_count, r._bits)
            for r in read_graph6(lines)]


def _random_graph(rng, n):
    p = rng.random()
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_read_graph6_matches_lines_alone_on_the_corpora():
    for n in BUNDLED_ORDERS:
        lines = bundled_corpus_lines(n)
        assert _batched(lines) == [_alone(line) for line in lines]
        reference = [_reference_decode(line) for line in lines]
        assert _batched(lines) == [(g.n, g.edge_count, g._bits) for g in reference]


def test_read_graph6_random_orders_to_140():
    rng = random.Random(140)
    expected = [_random_graph(rng, n) for n in range(141) for _ in range(3)]
    rng.shuffle(expected)
    lines = [to_graph6(g) for g in expected]
    assert any(line.startswith("~") for line in lines)
    assert _batched(lines) == [_alone(line) for line in lines]
    assert _batched(lines) == [(g.n, g.edge_count, g._bits) for g in expected]
    assert [_reference_decode(line) for line in lines] == expected


def test_read_graph6_batches_cross_the_boundary():
    # one order whose lines straddle several batch boundaries, then lines
    # of alternating orders, so a group is cut at every boundary
    rng = random.Random(7)
    lines = [to_graph6(_random_graph(rng, 9)) for _ in range(3 * graphs._BATCH_CHARS // 10 + 1)]
    lines += [to_graph6(_random_graph(rng, rng.choice((5, 40, 70)))) for _ in range(300)]
    assert sum(map(len, lines)) > 4 * graphs._BATCH_CHARS
    assert _batched(lines) == [_alone(line) for line in lines]


def test_read_graph6_interleaves_orders_and_malformed_lines():
    rng = random.Random(3)
    good = [to_graph6(_random_graph(rng, n)) for n in range(2, 12)] * 2
    bad = list(MALFORMED) * 2
    lines = good + bad + ["  C~ ", ">>graph6<<Bw"]
    rng.shuffle(lines)
    assert _batched(lines) == [_alone(line) for line in lines]


def test_read_graph6_malformed_lines_inside_a_full_group():
    # one batch of 8-vertex lines, one group but for the lines below: a
    # line with nonzero padding, one with an out-of-range data character
    # mid-line and one behind a header stay in or beside that group, and
    # two "~"-sized lines of one length but different sizes form two groups
    lines = bundled_corpus_lines(8)[:graphs._BATCH_CHARS // 6]
    padded = lines[100][:-1] + chr((ord(lines[100][-1]) - 63 | 1) + 63)
    lines[100], lines[200] = padded, lines[200][:3] + "!" + lines[200][4:]
    lines[300] = ">>graph6<<" + lines[300]
    rng = random.Random(63)
    big = to_graph6(_random_graph(rng, 63))
    lines[400:400] = [big, "~?@?" + big[4:]]
    # cut where the batch ends: at the line that brings it to _BATCH_CHARS
    lines = lines[:bisect_left(list(accumulate(map(len, lines))), graphs._BATCH_CHARS) + 1]
    assert sum(map(len, lines[:-1])) < graphs._BATCH_CHARS <= sum(map(len, lines))
    decoded = _batched(lines)
    assert decoded == [_alone(line) for line in lines]
    assert (decoded[100], decoded[200]) == (
        "nonzero padding bits", "data character '!' out of range 63..126")
    assert decoded[300] == _alone(lines[300][len(">>graph6<<"):])
    assert decoded[400][:2] == (63, _reference_decode(big).edge_count)
    assert decoded[401] == "expected 336 data characters for n=64, got 326"


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 64])
def test_read_graph6_counts_at_byte_and_word_widths(n):
    # rows of n = 8, 16 and 64 fill whole bytes and a whole word; 7, 9 and
    # 17 sit one vertex off a byte boundary
    rng = random.Random(n)
    expected = [Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p]) for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
    expected += [_random_graph(rng, n) for _ in range(20)]
    for g, h in zip(expected, read_graph6(map(to_graph6, expected))):
        assert (h.n, h._bits) == (g.n, g._bits)
        assert (h.edge_count, h.min_degree()) == (g.edge_count, g.min_degree())


def test_read_graph6_is_lazy():
    pulled = []

    def lines():
        for i in range(100 * graphs._BATCH_CHARS):
            pulled.append(i)
            yield "C~"

    first = next(read_graph6(lines()))
    assert first == clique_join(4, ())
    assert len(pulled) * 2 <= graphs._BATCH_CHARS


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


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
def test_stack_codec_round_trip(n):
    # 63..65 and 130 sit at and past the one-word and whole-byte row widths
    rng = random.Random(n)
    graphs = [clique_join(n, ()), clique_join(0, (1,) * n)]
    for p in (0.1, 0.5, 0.9):
        graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p]))
    stack = adjacency_stack(graphs)
    assert stack.dtype == bool and stack.shape == (len(graphs), n, n)
    for g, a in zip(graphs, stack):
        assert a.tolist() == [[g.has_edge(u, v) for v in range(n)] for u in range(n)]
    assert adjacency_masks(stack) == [tuple(map(g.neighbor_bits, range(n))) for g in graphs]
    # padding columns past n, clear, leave the masks as they are
    padded = np.zeros((len(graphs), n, n + 11), bool)
    padded[:, :, :n] = stack
    assert adjacency_masks(padded) == adjacency_masks(stack)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_read_graph6_hands_over_the_min_degree(n):
    # "?" and "@" are n = 0 and n = 1; 63..65 and 130 sit at and past the
    # one-word and whole-byte row widths
    rng = random.Random(n)
    expected = [Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p]) for p in (0.0, 0.05, 0.5, 0.95, 1.0)]
    lines = [to_graph6(g) for g in expected]
    assert n > 1 or set(lines) == {"?@"[n]}
    for g, h in zip(expected, read_graph6(lines)):
        # the reader's stack gave the degree; the reference derives it
        assert h == g and h._min_degree is not None
        assert h.min_degree() == g.min_degree()


def test_stack_codec_needs_one_order():
    with pytest.raises(ValueError, match="one order"):
        adjacency_stack([path(4), path(5)])
    with pytest.raises(ValueError, match="one order"):
        adjacency_stack([])
