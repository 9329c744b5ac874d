"""Access to the bundled corpora of connected graphs (one per iso class)."""

from __future__ import annotations

from importlib import resources
from typing import Iterator

from .graphs import Graph, Graph6Error, read_graph6

BUNDLED_ORDERS = range(1, 9)

# connected graphs up to isomorphism, by order (standard enumeration)
BUNDLED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def bundled_corpus_text(n: int) -> str:
    if n not in BUNDLED_ORDERS:
        raise ValueError(f"no bundled corpus for n={n} (have n in 1..8)")
    return (
        resources.files("evenfactor.data")
        .joinpath(f"connected_{n}.g6")
        .read_text(encoding="ascii")
    )


def bundled_corpus_lines(n: int) -> list[str]:
    """The corpus's graph6 lines, each the canonical encoding of its graph."""
    lines = bundled_corpus_text(n).split()
    if len(lines) != BUNDLED_COUNTS[n]:
        raise RuntimeError(
            f"bundled corpus for n={n} has {len(lines)} graphs, "
            f"expected {BUNDLED_COUNTS[n]}"
        )
    return lines


def iter_bundled_corpus(n: int) -> Iterator[tuple[str, Graph]]:
    """(graph6 line, graph) for each corpus graph, decoded a batch at a time."""
    lines = bundled_corpus_lines(n)
    for line, g in zip(lines, read_graph6(lines)):
        if isinstance(g, Graph6Error):
            raise g
        yield line, g


def load_bundled_corpus(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one representative per class."""
    return [g for _, g in iter_bundled_corpus(n)]
