"""Exact even-factor search against brute force; odd-component condition."""

import hashlib
import importlib.util
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from evenfactor import oracle
from evenfactor.corpus import BUNDLED_ORDERS, load_bundled_corpus
from evenfactor.graphs import Graph, clique_join, from_graph6
from evenfactor.oracle import (
    TABLE_MAX_ORDER,
    CertificateStatus,
    EvenFactorCertificate,
    _delete_bridges,
    _parity_repair,
    _search,
    even_factor_status,
    find_even_factor,
    is_even_factor,
    odd_component_conditions,
)
from small_graphs import complete_bipartite, components, cycle, extremal_plus_edges, path


def _bridge_free(g):
    """g's neighbour bitmasks less its bridges, read off the parity
    repair's claims: what find_even_factor hands to _search."""
    return _delete_bridges(g._bits, _parity_repair(g._bits)[1])


def _searched(g):
    """The search alone on g's bridge-free bitmasks, as a certificate."""
    return EvenFactorCertificate(*_search(_bridge_free(g)))


def bowtie():
    return Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def brute_force_even_factor(g):
    """Independent oracle: try every edge subset (only for small m)."""
    edges = g.edges()
    m = len(edges)
    assert m <= 16, "brute force oracle is for tiny graphs"
    for mask in range(1 << m):
        deg = [0] * g.n
        for i in range(m):
            if mask >> i & 1:
                u, v = edges[i]
                deg[u] += 1
                deg[v] += 1
        if all(d >= 2 and d % 2 == 0 for d in deg):
            return True
    return g.n == 0


def test_is_even_factor_examples():
    c5 = cycle(5)
    assert is_even_factor(c5, c5.edges())
    assert not is_even_factor(c5, c5.edges()[:4])
    b = bowtie()
    assert is_even_factor(b, b.edges())  # degrees 2,2,4,2,2
    assert not is_even_factor(b, [])
    with pytest.raises(ValueError):
        is_even_factor(c5, [(0, 2)])
    with pytest.raises(ValueError):
        is_even_factor(c5, [(0, 1), (1, 0)])


def test_is_even_factor_rejects_labels_out_of_range():
    # a negative label must not wrap to the last vertex, and a label >= n
    # is a ValueError like any other edge not in the graph
    triangle = cycle(3)
    for edges in ([(0, 1), (1, 2), (-1, 0)], [(0, 1), (1, 2), (2, 3)], [(3, 0)]):
        with pytest.raises(ValueError):
            is_even_factor(triangle, edges)


def test_find_even_factor_examples():
    assert find_even_factor(cycle(7)).status is CertificateStatus.FOUND
    assert find_even_factor(complete_bipartite(1, 3)).status is CertificateStatus.NONE_EXISTS
    assert find_even_factor(complete_bipartite(2, 3)).status is CertificateStatus.NONE_EXISTS
    cert = find_even_factor(cycle(7))
    assert sorted(cert.edges) == sorted(cycle(7).edges())


def test_find_even_factor_degenerate_orders():
    assert find_even_factor(Graph(0)).status is CertificateStatus.FOUND
    assert find_even_factor(Graph(0)).edges == ()
    assert find_even_factor(Graph(1)).status is CertificateStatus.NONE_EXISTS


def _oracle_dense_graphs():
    """The benchmark's 400 seed-1 dense oracle inputs on 15 vertices, half
    with no even factor, read from its own generator in the checkout."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [Graph(k, edges) for k, edges, _ in gen.oracle_dense_inputs(1, 400, 15)]


def test_status_matches_the_certificate():
    # every bundled graph, the dense inputs with and without a factor, and
    # the extremal graph plus an edge or two, past 64 vertices too
    graphs = [g for n in BUNDLED_ORDERS for g in load_bundled_corpus(n)]
    graphs += _oracle_dense_graphs() + extremal_plus_edges("1") + extremal_plus_edges("2")
    statuses = Counter()
    for g in graphs:
        status = even_factor_status(g)
        assert status is find_even_factor(g).status, g.edges()
        statuses[status] += 1
    assert statuses[CertificateStatus.FOUND] and statuses[CertificateStatus.NONE_EXISTS]
    assert max(g.n for g in graphs) > 64


def test_min_degree_short_circuit(monkeypatch):
    # a vertex of degree < 2 rules the factor out before any forest is
    # grown: deleting bridges never raises a degree
    def no_repair(bits):
        raise AssertionError("the parity repair ran")

    monkeypatch.setattr("evenfactor.oracle._parity_repair", no_repair)
    # a leaf, an isolated vertex beside a triangle, and a pendant K_4
    pendant = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    for g in (path(6), Graph(4, [(0, 1), (1, 2), (0, 2)]), pendant, Graph(1)):
        cert = find_even_factor(g)
        assert cert == EvenFactorCertificate(CertificateStatus.NONE_EXISTS, None, 0)


def test_soundness_found_implies_valid():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(2, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        g = Graph(n, edges)
        cert = find_even_factor(g)
        if cert.status is CertificateStatus.FOUND:
            assert is_even_factor(g, cert.edges)


def test_matches_brute_force_on_all_small_connected_graphs():
    for n in (3, 4, 5):
        for g in load_bundled_corpus(n):
            expected = brute_force_even_factor(g)
            got = find_even_factor(g).status
            assert got is (
                CertificateStatus.FOUND if expected else CertificateStatus.NONE_EXISTS
            ), (n, g.edges())


def test_matches_brute_force_on_sparse_six_vertex_graphs():
    rng = random.Random(21)
    checked = 0
    while checked < 40:
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.45]
        if len(edges) > 12:
            continue
        g = Graph(6, edges)
        expected = brute_force_even_factor(g)
        got = find_even_factor(g).status
        assert got is (
            CertificateStatus.FOUND if expected else CertificateStatus.NONE_EXISTS
        )
        checked += 1


def test_certificates_valid_on_bundled_corpora():
    # the early accept must report only decided edges, after backtracking too
    for n in (6, 7, 8):
        for g in load_bundled_corpus(n):
            cert = _searched(g)
            if cert.status is CertificateStatus.FOUND:
                assert is_even_factor(g, cert.edges), g.edges()


def test_factor_survives_adding_edges():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(4, 9)
        base = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, base)
        cert = find_even_factor(g)
        if cert.status is not CertificateStatus.FOUND:
            continue
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        bigger = Graph(n, base + missing[: rng.randrange(0, len(missing) + 1)])
        assert is_even_factor(bigger, cert.edges)


def test_determinism():
    g = clique_join(2, (5, 1))
    a = find_even_factor(g)
    b = find_even_factor(g)
    assert a == b


def test_early_accept_stops_once_every_vertex_is_settled():
    # K_9: the first 15 edges taken give degrees 8, 8 and 2 elsewhere; the
    # remaining 21 edges would only be excluded, so none is decided
    cert = _searched(clique_join(9, ()))
    assert cert.status is CertificateStatus.FOUND
    assert cert.nodes_explored == len(cert.edges) == 15
    assert is_even_factor(clique_join(9, ()), cert.edges)


def test_search_cap(monkeypatch):
    monkeypatch.setattr("evenfactor.oracle.NODE_CAP", 3)
    cert = _searched(clique_join(8, ()))
    assert cert.status is CertificateStatus.SEARCH_CAP_EXCEEDED
    assert cert.nodes_explored == 3
    # the parity repair settles K_8 before any search node is spent
    cert = find_even_factor(clique_join(8, ()))
    assert cert.status is CertificateStatus.FOUND and cert.nodes_explored == 0


# -- cut parity: no even factor uses a bridge ---------------------------------


def _blocks(rng, sizes, p):
    """Random graphs on consecutive vertex ranges of the given sizes, each
    joined to the next by one edge; returns (n, edges)."""
    edges, start, prev = [], 0, 0
    for k in sizes:
        edges += [(start + i, start + j) for i in range(k) for j in range(i + 1, k)
                  if rng.random() < p]
        if start:
            edges.append((rng.randrange(prev, start), start + rng.randrange(k)))
        prev, start = start, start + k
    return start, edges


def _bridges(g):
    """The edges find_even_factor deletes as bridges, as (u, v), u < v."""
    kept = _bridge_free(g)
    return [(u, v) for u, v in g.edges() if not kept[u] >> v & 1]


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
    # the fold runs over the repair's breadth-first forest, on connected
    # and disconnected graphs, sparse ones with leaves and isolated
    # vertices, and multi-word bitmasks
    assert _bridges(Graph(0)) == [] and _bridges(Graph(1)) == []
    assert _bridges(path(5)) == path(5).edges()
    assert _bridges(cycle(6)) == []
    rng = random.Random(77)
    random_graphs = []
    for _ in range(300):
        n = rng.randrange(0, 15)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        random_graphs.append(
            Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    # blocks of 30 + 1 + 25 + 20 vertices, the K_30 and K_25 apart from
    # the rest, joined by the bridges (29, 30), (30, 31) and (40, 56)
    n, edges = 76, [(29, 30), (30, 31), (40, 56)]
    for lo, hi in ((0, 30), (31, 56), (56, 76)):
        edges += [(u, v) for u in range(lo, hi) for v in range(u + 1, hi)]
    wide = Graph(n, edges)
    assert _bridges(wide) == [(29, 30), (30, 31), (40, 56)]
    # wide, a K_20 and a 20-vertex path apart: three trees, two of them
    # past bit 64 of the bitmasks
    apart = Graph(n + 40, edges + [(n + 20 + i, n + 21 + i) for i in range(19)]
                  + [(n + i, n + j) for i in range(20) for j in range(i + 1, 20)])
    claims = _parity_repair(apart._bits)[1]
    children = sum(kids for _, kids in claims)
    assert len({v for v, _ in claims if not children >> v & 1}) == 3
    assert _bridges(apart) == _bridges(wide) + [(n + 20 + i, n + 21 + i) for i in range(19)]
    small = [g for k in BUNDLED_ORDERS if k < 3 for g in load_bundled_corpus(k)]
    for g in (*small, *_trace_graphs(), *random_graphs, wide, apart):
        assert _bridges(g) == _reference_bridges(g), g.edges()


def test_bridges_through_a_degree_two_vertex_need_no_search():
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        a, b = rng.randrange(5, 9), rng.randrange(5, 9)
        g = Graph(*_blocks(rng, (a, 1, b), 0.8))
        if g.min_degree() < 2:
            continue
        assert g.degree(a) == 2
        checked += 1
        cert = find_even_factor(g)
        assert cert.status is CertificateStatus.NONE_EXISTS
        assert cert.nodes_explored == 0


def test_stranded_vertex_answers_before_the_search(monkeypatch):
    # two K_4, on 0..3 and 5..8, joined through the degree-2 vertex 4:
    # the repair leaves 4 bare, and it lies in no triangle, so no flip
    # helps; both of its edges are bridges, so their deletion strands it
    # and the search never starts
    g = from_graph6("H~_GGKF")
    assert g.degree(4) == 2 and g.edge_count == 14
    assert _parity_repair(g._bits)[0] is None
    assert _bridges(g) == [(0, 4), (4, 5)]

    def no_search(bits):
        raise AssertionError("the search ran")

    monkeypatch.setattr("evenfactor.oracle._search", no_search)
    cert = find_even_factor(g)
    assert cert == EvenFactorCertificate(CertificateStatus.NONE_EXISTS, None, 0)


def test_factor_found_around_a_bridge():
    triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    cert = find_even_factor(triangles)
    assert cert.status is CertificateStatus.FOUND
    assert sorted(cert.edges) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    # a bowtie and a K_4 joined by the bridge (1, 5)
    g = Graph(9, bowtie().edges() + [(5 + i, 5 + j) for i in range(4) for j in range(i + 1, 4)]
              + [(1, 5)])
    cert = find_even_factor(g)
    assert cert.status is CertificateStatus.FOUND
    assert is_even_factor(g, cert.edges) and (1, 5) not in cert.edges
    # the parity repair settles both, with no bridge deletion in front: an
    # even subgraph uses no bridge
    assert cert.nodes_explored == find_even_factor(triangles).nodes_explored == 0


def test_matches_brute_force_with_planted_bridges():
    rng = random.Random(57)
    statuses = set()
    checked = 0
    while checked < 200:
        sizes = [rng.randrange(3, 6) for _ in range(rng.randrange(2, 4))]
        n, edges = _blocks(rng, sizes, rng.uniform(0.5, 1.0))
        g = Graph(n, edges)
        if n > 9 or g.edge_count > 14 or g.min_degree() < 2:
            continue
        assert _bridges(g)
        expected = brute_force_even_factor(g)
        cert = find_even_factor(g)
        assert cert.status is (
            CertificateStatus.FOUND if expected else CertificateStatus.NONE_EXISTS
        ), edges
        if expected:
            assert is_even_factor(g, cert.edges)
        statuses.add(cert.status)
        checked += 1
    assert statuses == {CertificateStatus.FOUND, CertificateStatus.NONE_EXISTS}


# -- the search trace is pinned -------------------------------------------------

# SHA-256 of (status, edges, nodes_explored) over _trace_graphs(), recorded
# from the search before it moved onto flat edge lists; a change to the edge
# order, the branch order or the accept/backtrack rules changes it
SEARCH_TRACE_DIGEST = "7d8bf503553c94c365dded7c929675ea69da068d6f9750e658d2884aed453565"
# the same over find_even_factor, recorded when the triangle flips went
# into the parity repair; a change to the forest, the leaf edges, the
# T-join or the flips, or to which graphs fall back to the search, changes it
FIND_TRACE_DIGEST = "d0a18e9775499744c2a41143b5e83e33e73ba02592e4b215fc21907714f75417"


def _trace_graphs():
    """The bundled corpora n = 3..8, then 500 seeded graphs up to n = 14,
    every fourth one a chain of blocks joined by bridges."""
    for n in range(3, 9):
        yield from load_bundled_corpus(n)
    rng = random.Random(5)
    for i in range(500):
        if i % 4 == 3:
            sizes = [rng.randrange(3, 8) for _ in range(rng.randrange(2, 4))]
            while sum(sizes) > 14:
                sizes.pop()
            yield Graph(*_blocks(rng, sizes, rng.uniform(0.5, 1.0)))
        else:
            n = rng.randrange(2, 15)
            p = rng.uniform(0.2, 0.9)
            yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p])


def _trace_digest(oracle):
    digest = hashlib.sha256()
    for g in _trace_graphs():
        cert = oracle(g)
        digest.update(f"{cert.status.value} {cert.edges} {cert.nodes_explored}\n".encode())
    return digest.hexdigest()


def test_search_trace_matches_golden_digest():
    assert _trace_digest(_searched) == SEARCH_TRACE_DIGEST


def test_find_trace_matches_golden_digest():
    assert _trace_digest(find_even_factor) == FIND_TRACE_DIGEST


# -- parity repair: an even factor without search ------------------------------


def test_repair_agrees_with_search_on_trace_graphs():
    # the bundled corpora n = 3..8 lead _trace_graphs(); every repaired
    # certificate is checked, those with triangle flips among them, and
    # the search alone answers the rest
    repaired = flipped = fell_back = 0
    for g in _trace_graphs():
        cert = find_even_factor(g)
        search = _searched(g)
        assert cert.status is search.status, g.edges()
        factor = _parity_repair(g._bits)[0]
        if factor is None:
            assert cert == search
            fell_back += search.status is CertificateStatus.FOUND
        else:
            assert cert.status is CertificateStatus.FOUND and cert.nodes_explored == 0
            assert is_even_factor(g, cert.edges), g.edges()
            repaired += 1
            flipped += bool(factor[1])
    assert repaired and flipped and fell_back


def test_repair_falls_back_to_the_search():
    # the forest from 1 claims 0, 2, 5, then 0 claims 4 and 2 claims 3; the
    # leaves take 34 and 53, and the T-join of the odd vertices 1 and 3 is
    # the path 3-2-1, which leaves 2 bare. 2's neighbours 1 and 3 have
    # no common neighbour with it, so no triangle flip covers it; there is
    # no bridge, and the search finds the 6-cycle 0-1-2-3-5-4.
    g = from_graph6("EhdW")
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)]
    assert _parity_repair(g._bits)[0] is None and _bridges(g) == []
    cert = find_even_factor(g)
    assert cert == _searched(g)
    assert cert == EvenFactorCertificate(
        CertificateStatus.FOUND, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 5), (4, 5)), 12)


def test_a_triangle_flip_covers_the_bare_vertex():
    # K_{2,3} on {0, 1} | {2, 3, 4} plus the edge 24. The forest from 0 is
    # 02, 03, 04, 21; the leaves 1, 3 and 4 take 13 and 14; the T-join of
    # the odd vertices 0 and 1 is the path 1-2-0, which leaves 2 bare. Its
    # lowest neighbour with a common neighbour is 0, through 4: flipping
    # the triangle 2-0-4 adds 20 and 24 and deletes 04, which leaves the
    # 5-cycle 0-2-4-1-3 with no search node.
    g = from_graph6("D]w")
    assert g.edges() == [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]
    assert _parity_repair(g._bits)[0][1] == [(2, 0, 4)]
    assert find_even_factor(g) == EvenFactorCertificate(
        CertificateStatus.FOUND, ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)), 0)


def test_one_triangle_flip_covers_two_bare_vertices():
    # the repair leaves 4 and 6 bare; the flip at 4 takes its lowest
    # neighbour 2 and their common neighbour 6, which covers 6 too
    g = from_graph6("GKL\\^_")
    factor, _ = _parity_repair(g._bits)
    pairs, triangles = factor
    covered = 0
    for v, mask in pairs:
        covered |= mask | 1 << v
    assert (1 << g.n) - 1 ^ covered == 1 << 4 | 1 << 6
    assert triangles == [(4, 2, 6)]
    cert = find_even_factor(g)
    assert cert.status is CertificateStatus.FOUND and cert.nodes_explored == 0
    assert is_even_factor(g, cert.edges) and (2, 6) in cert.edges


def test_flips_keep_every_status_of_the_search():
    # the search alone decides each graph; the repair, its flips and the
    # bridges in front of it must give the same status, and a valid factor
    graphs = [g for n in BUNDLED_ORDERS if n <= 8 for g in load_bundled_corpus(n)]
    graphs += _oracle_dense_graphs()
    rng = random.Random(36)
    for _ in range(300):
        n = rng.randrange(3, 13)
        p = rng.uniform(0.2, 0.8)
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    flipped = 0
    for g in graphs:
        status = even_factor_status(g)
        assert status is _searched(g).status, g.edges()
        if status is CertificateStatus.FOUND:
            assert is_even_factor(g, find_even_factor(g).edges), g.edges()
        factor = _parity_repair(g._bits)[0]
        flipped += bool(factor and factor[1])
    assert flipped


def test_a_leaf_with_no_leaf_left_pairs_with_a_forest_vertex():
    # the forest from 1 claims 0, 2, 4, then 0 claims 5 and 2 claims 3; the
    # leaf 3 pairs with the leaf 4, and the leaf 5, with no leaf left, looks
    # its parent 0 up in the second claim and takes the edge 52 instead
    g = from_graph6("EhUg")
    assert g.edges() == [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)]
    factor, claims = _parity_repair(g._bits)
    assert claims == [(1, 0b10101), (0, 0b100000), (2, 0b1000)]
    assert factor[0][:2] == [(3, 1 << 4), (5, 1 << 2)] and factor[1] == []
    # the 6-cycle 0-1-4-3-2-5
    assert find_even_factor(g) == EvenFactorCertificate(
        CertificateStatus.FOUND, ((0, 1), (0, 5), (1, 4), (2, 3), (2, 5), (3, 4)), 0)


def test_repair_on_disconnected_and_large_graphs():
    # one tree per component, each with its own T-join
    apart = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
    cert = find_even_factor(apart)
    assert cert.nodes_explored == 0 and cert.edges == tuple(apart.edges())
    # C_4 on 0..3, a triangle on 4..6 and K_4 on 7..10: the trees are rooted
    # by degree, lowest label first, at 7, then 0, then 4; the certificate
    # was recorded from the repair that sorted every root up front
    g = Graph(11, cycle(4).edges() + [(4, 5), (5, 6), (4, 6)]
              + [(7 + i, 7 + j) for i in range(4) for j in range(i + 1, 4)])
    claims = _parity_repair(g._bits)[1]
    children = sum(kids for _, kids in claims)
    assert [v for v, _ in claims if not children >> v & 1] == [7, 0, 4]
    assert find_even_factor(g) == EvenFactorCertificate(
        CertificateStatus.FOUND, ((0, 1), (0, 3), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6),
                                  (7, 9), (7, 10), (8, 9), (8, 10)), 0)
    # the extremal graph at (160, 20): bitmasks of three 64-bit words
    g = clique_join(20, (121,) + (1,) * 19)
    cert = find_even_factor(g)
    assert cert.status is CertificateStatus.FOUND and cert.nodes_explored == 0
    assert is_even_factor(g, cert.edges)


# -- odd-component condition ---------------------------------------------------


def brute_force_odd_component_condition(g):
    """Whether o(G-S) < |S| for every subset S of size >= 2, by
    enumeration: no pruning and no matching."""
    return all(components(g, subset).odd_count < size
               for size in range(2, g.n + 1) for subset in combinations(range(g.n), size))


# SHA-256 of the condition over _odd_component_graphs(), recorded from
# brute_force_odd_component_condition; the subset table must agree on
# every graph
ODD_COMPONENT_DIGEST = "93392361fed6e5ab481717fc92dad2d7ab0394363843823b01548e94c5f8088f"


def _odd_component_graphs():
    """The bundled corpora n = 3..8, then the graphs of order <= 8 among
    600 seeded graphs on 4..12 vertices: in turn sparse to dense, dense,
    and near-bipartite (dense between two random sides, sparse within
    them). The larger orders are still drawn, so the random stream, and
    each graph kept, is the one drawn when they were decided too."""
    for n in range(3, 9):
        yield from load_bundled_corpus(n)
    rng = random.Random(8)
    for i in range(600):
        n = rng.randrange(4, 13)
        if i % 3 == 2:
            side = [rng.random() < 0.5 for _ in range(n)]
            p = rng.uniform(0.6, 1.0)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < (p if side[u] != side[v] else 0.1)])
        else:
            p = rng.uniform(0.7, 1.0) if i % 3 else rng.uniform(0.2, 0.9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
        if n <= TABLE_MAX_ORDER:
            yield g


def test_odd_component_reports_match_golden_digest():
    digest = hashlib.sha256()
    dense = Counter()
    graphs = list(_odd_component_graphs())
    for g, holds in zip(graphs, odd_component_conditions(graphs)):
        digest.update(f"{holds}\n".encode())
        if g.n % 2 == 0 and g.min_degree() >= 3:
            dense[holds] += 1
    assert digest.hexdigest() == ODD_COMPONENT_DIGEST
    # even orders with minimum degree >= 3, both bicritical and not
    assert dense == {True: 2280, False: 408}


def test_odd_component_examples():
    graphs = [
        clique_join(6, ()), clique_join(7, ()), clique_join(8, ()),
        # deleting the side of two leaves three isolated vertices
        complete_bipartite(2, 3),
        # a degree-2 vertex on even order: decided before any pair
        clique_join(2, (5, 1)),
        # minimum degree 4 but not bicritical: deleting two vertices of
        # one side leaves unequal sides
        complete_bipartite(4, 4),
        *(clique_join(n, ()) for n in (0, 1, 2, 3)),
    ]
    assert odd_component_conditions(graphs) == [True] * 3 + [False] * 3 + [True] * 4


def test_odd_component_matches_unpruned_enumeration():
    # both parities, n = 2..8; odd orders have no degree rule, so every one
    # of them reaches the table with its added vertex
    rng = random.Random(44)
    graphs = []
    for _ in range(150):
        n = rng.randrange(2, 11)
        p = rng.uniform(0.3, 1.0)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if n <= TABLE_MAX_ORDER:
            graphs.append(g)
    verdicts = Counter()
    for g, holds in zip(graphs, odd_component_conditions(graphs)):
        assert holds is brute_force_odd_component_condition(g), g
        verdicts[g.n % 2, holds] += 1
    assert all(verdicts[parity, holds] >= 5 for parity in (0, 1) for holds in (True, False)), verdicts


def test_odd_component_on_dense_even_orders_matches_unpruned_enumeration():
    # even n with minimum degree >= 3, the graphs the degree rule leaves to
    # the table; every third one near-bipartite, so that many are not
    # bicritical
    rng = random.Random(46)
    graphs = []
    for i in range(600):
        n = rng.randrange(4, 9, 2)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.uniform(0.5, 1.0)
        within = 0.1 if i % 3 == 2 else p
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < (p if side[u] != side[v] else within)])
        if g.min_degree() >= 3:
            graphs.append(g)
    verdicts = Counter()
    for g, holds in zip(graphs, odd_component_conditions(graphs)):
        assert holds is brute_force_odd_component_condition(g), g
        verdicts[g.n, holds] += 1
    assert all(verdicts[n, True] for n in (4, 6, 8))
    assert sum(verdicts[n, False] for n in (4, 6, 8)) >= 10


def test_odd_component_batch_matches_unpruned_enumeration(monkeypatch):
    # one shuffled batch of orders 2..8, both parities, with an order-6
    # count that leaves the last byte of its packed table part full
    tables = []

    def recorded(n, masks):
        tables.append((n, len(masks)))
        return table_conditions(n, masks)

    table_conditions = oracle._table_conditions
    monkeypatch.setattr(oracle, "_table_conditions", recorded)
    rng = random.Random(47)
    orders = [6] * 101 + [n for n in range(2, 9) for _ in range(15)]
    rng.shuffle(orders)
    graphs = []
    for n in orders:
        p = rng.uniform(0.4, 1.0)
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p]))
    conditions = odd_component_conditions(graphs)
    assert len(conditions) == len(graphs)
    verdicts = Counter()
    for g, holds in zip(graphs, conditions):
        assert holds is brute_force_odd_component_condition(g), g
        verdicts[g.n % 2, holds] += 1
    assert len(verdicts) == 4, verdicts
    # one table per order, each holding every graph of its order
    assert sorted(tables) == [(n, orders.count(n)) for n in range(2, 9)]
    assert orders.count(6) % 8


def test_odd_component_domain_is_the_bundled_orders(monkeypatch):
    # every order that lemmas reads from the bundled corpora is decided by
    # the table, so --oracle-max-n never reaches the error below
    assert TABLE_MAX_ORDER >= max(BUNDLED_ORDERS)
    firsts = [load_bundled_corpus(n)[0] for n in BUNDLED_ORDERS]
    conditions = odd_component_conditions(firsts)
    assert len(conditions) == len(firsts) and all(type(h) is bool for h in conditions)
    # one order-9 graph makes the batch raise before any graph is decided
    decided = []
    monkeypatch.setattr(oracle, "_table_conditions", lambda n, masks: decided.append(n))
    with pytest.raises(ValueError, match=f"up to {TABLE_MAX_ORDER}, got order 9"):
        odd_component_conditions([cycle(6), clique_join(9, ()), cycle(7)])
    assert decided == []
