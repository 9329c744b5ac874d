#!/usr/bin/env python3
"""Regenerate the bundled corpora of connected graphs (one per iso class).

Writes src/evenfactor/data/connected_<n>.g6 for n = 1..8. Small orders come
from the networkx atlas; order 8 is built by extending every order-7
connected graph with a new vertex joined to every nonempty subset, then
deduplicating by Weisfeiler-Lehman hash buckets plus exact isomorphism
tests. Known class counts are asserted so a silent generation bug cannot
ship. Each emitted line is checked against networkx's graph6 reader, and
each written file is read back through the package's batch reader, one
call per file, and compared with networkx graph by graph.

Usage: python scripts/generate_corpora.py
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evenfactor.graphs import Graph, Graph6Error, read_graph6, to_graph6  # noqa: E402

# Connected graphs up to isomorphism on n = 1..8 vertices.
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "evenfactor" / "data"


def to_package_graph(g: nx.Graph) -> Graph:
    relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Graph(g.number_of_nodes(), [(relabel[u], relabel[v]) for u, v in g.edges()])


def atlas_connected() -> dict[int, list[nx.Graph]]:
    by_n: dict[int, list[nx.Graph]] = defaultdict(list)
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() >= 1 and nx.is_connected(g):
            by_n[g.number_of_nodes()].append(g)
    return by_n


def extend_by_one_vertex(bases: list[nx.Graph]) -> list[nx.Graph]:
    """All connected (k+1)-vertex classes, from connected k-vertex classes.

    Every connected graph has a vertex whose removal keeps it connected
    (a leaf of any spanning tree), so attaching a new vertex to every
    nonempty subset of every k-vertex class reaches every class once
    duplicates are removed.
    """
    k = bases[0].number_of_nodes()
    buckets: dict[tuple, list[nx.Graph]] = defaultdict(list)
    kept: list[nx.Graph] = []
    for base in bases:
        nodes = sorted(base.nodes())
        for r in range(1, k + 1):
            for subset in itertools.combinations(nodes, r):
                g = base.copy()
                g.add_node(k)
                g.add_edges_from((k, v) for v in subset)
                key = (
                    g.number_of_edges(),
                    tuple(sorted(d for _, d in g.degree())),
                    nx.weisfeiler_lehman_graph_hash(g, iterations=3),
                )
                group = buckets[key]
                if any(nx.is_isomorphic(g, h) for h in group):
                    continue
                group.append(g)
                kept.append(g)
    return kept


def write_corpus(n: int, graphs: list[nx.Graph]) -> None:
    lines = []
    for g in graphs:
        line = to_graph6(to_package_graph(g))
        ref = nx.from_graph6_bytes(line.encode())
        assert nx.is_isomorphic(ref, g), f"codec mismatch vs networkx for {line}"
        lines.append(line)
    lines.sort()
    assert len(set(lines)) == len(lines), f"duplicate lines at n={n}"
    assert len(lines) == EXPECTED_COUNTS[n], (
        f"n={n}: got {len(lines)} classes, expected {EXPECTED_COUNTS[n]}"
    )
    out = DATA_DIR / f"connected_{n}.g6"
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    check_corpus(out)
    print(f"wrote {out} ({len(lines)} graphs)")


def check_corpus(path: Path) -> None:
    """Decode the file with one read_graph6 call, the reader the CLI runs,
    and compare each graph, labels included, with networkx's decoding."""
    lines = path.read_text(encoding="ascii").split()
    for line, g in zip(lines, read_graph6(lines), strict=True):
        assert not isinstance(g, Graph6Error), f"{path.name}: {line}: {g}"
        ref = nx.from_graph6_bytes(line.encode())
        assert g.n == ref.number_of_nodes() and sorted(g.edges()) == sorted(
            (min(u, v), max(u, v)) for u, v in ref.edges()
        ), f"{path.name}: package and networkx decode {line} differently"


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    by_n = atlas_connected()
    for n in range(1, 8):
        assert len(by_n[n]) == EXPECTED_COUNTS[n], (
            f"atlas gave {len(by_n[n])} connected graphs at n={n}"
        )
        write_corpus(n, by_n[n])
    print("extending to n=8 ...")
    eight = extend_by_one_vertex(by_n[7])
    write_corpus(8, eight)


if __name__ == "__main__":
    main()
