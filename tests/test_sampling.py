"""The block sampler against its one-attempt-at-a-time definition."""

from random import Random

import pytest

from evenfactor.sampling import (MIN_DEGREE, P_RANGE, sample_blocks, sample_connected_graphs,
                                 sample_graph)


def one_at_a_time(rng, n, count):
    """count rounds of drawing p, then a graph with that p, until one is
    connected with minimum degree >= MIN_DEGREE."""
    out = []
    while len(out) < count:
        p = rng.uniform(*P_RANGE)
        g = sample_graph(rng, n, p)
        if g.is_connected() and g.min_degree() >= MIN_DEGREE:
            out.append(g)
    return out


@pytest.mark.parametrize("seed, n, count", [
    (0, 10, 0),      # no graph, no draw
    (1, 3, 5),       # K_3 is the only graph accepted
    (2, 5, 40),
    (3, 10, 30),     # fewer graphs than one block's 90 attempts
    (4, 10, 700),    # many blocks
    (5, 13, 250),    # several blocks of 51 attempts
    (6, 70, 3),      # one attempt per block; rows wider than 64 bits
])
def test_block_sampler_is_the_one_at_a_time_sampler(seed, n, count):
    reference, blocked = Random(seed), Random(seed)
    expected = one_at_a_time(reference, n, count)
    got = list(sample_connected_graphs(blocked, n, count))
    assert [(g, g.edge_count) for g in got] == [(g, g.edge_count) for g in expected]
    # the minimum degree and connectivity handed to each graph are those
    # the reference, built from its edge list, derives from its bitmasks
    assert [(g.min_degree(), g.is_connected()) for g in got] == [
        (g.min_degree(), g.is_connected()) for g in expected]
    # the stream is left where the reference left it, so later draws agree
    assert blocked.getstate() == reference.getstate()
    # the graphs are the flatten of the row blocks, whose arrays hold each
    # one's minimum degree and edge count; so is the final stream state
    rng = Random(seed)
    blocks = list(sample_blocks(rng, n, count))
    assert rng.getstate() == reference.getstate()
    assert [g for b in blocks for g in b.graphs()] == got
    assert [(d, m) for b in blocks
            for d, m in zip(b.min_degrees.tolist(), b.edge_counts.tolist())] == [
        (g.min_degree(), g.edge_count) for g in expected]
    assert all(b.n == n and len(b) == len(b.graphs()) for b in blocks)
