"""Access to the bundled corpora of connected graphs (one per iso class).

A corpus file holds the graphs of one order, one canonical graph6 line
each, so every line has one length and one size prefix. It is read a batch
of about 4,096 characters at a time (the reader's batch size) straight
through the graph6 reader's numpy stage, ``graphs._pack_rows``, with no
grouping by length, as packed rows and degrees (``load_bundled_rows``
gives them for a whole order). A line the stage flags, or one of another
length or order, raises ``Graph6Error``, as the reader would for it.

The corpora are connected by construction, and say so: ``bundled_blocks``
hands each batch on as one ``graphs.RowBlock``, whose minimum degrees and
edge counts, read off the degrees, are all the verdicts read of most
graphs (``scan -n``), and whose Graphs, built only for the rows a consumer
chooses, are each handed their minimum degree and connectivity, as the
sampler's are. ``load_bundled_corpus`` is the flatten of those blocks, so
no verdict floods a bundled graph.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterator, Optional

import numpy as np

from . import graphs
from .graphs import Graph, Graph6Error, RowBlock

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


def _line_error(line: str, n: int) -> Optional[Graph6Error]:
    """The error of one line of the order-n corpus, None for a good one:
    from_graph6's, or one for a line of another order or with a header."""
    try:
        g = graphs.from_graph6(line)
    except Graph6Error as exc:
        return exc
    if g.n != n or line.startswith(graphs.GRAPH6_HEADER):
        return Graph6Error(f"not a graph6 line of order {n}: {line!r}")
    return None


def _row_batches(n: int, lines: list[str]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(packed rows, degrees) of the lines of the order-n corpus, a batch at
    a time, as ``graphs._pack_rows`` gives them; the first bad line of a
    batch raises its Graph6Error."""
    # the size prefix and length of every line: those of the empty graph
    empty = graphs.to_graph6(Graph(n))
    length = len(empty)
    _, start = graphs._shape(empty)
    size = np.frombuffer(empty[:start].encode("ascii"), np.uint8)
    per_batch = max(1, graphs._BATCH_CHARS // length)
    for a in range(0, len(lines), per_batch):
        batch = lines[a:a + per_batch]
        # a newline after each line, k in all: in k rows of length + 1, a
        # line of another length leaves some row without its newline in the
        # last column, and so puts one, out of range, in another row's
        # checked columns
        codes = np.frombuffer(("\n".join(batch) + "\n").encode("ascii"), np.uint8)
        if codes.size == len(batch) * (length + 1):
            codes = codes.reshape(len(batch), length + 1)
            packed, degrees, flagged = graphs._pack_rows(codes[:, :length], n, start)
            flagged |= (codes[:, :start] != size).any(1)
            if not flagged.any():
                yield packed, degrees
                continue
        raise next(filter(None, (_line_error(line, n) for line in batch)))


def load_bundled_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed rows and degrees of all corpus graphs, in corpus order: a
    (k, n, (n + 7) // 8) uint8 stack of neighbour bitmasks, low byte first,
    and their (k, n) degrees, read a batch at a time."""
    packed, degrees = zip(*_row_batches(n, bundled_corpus_lines(n)))
    return np.concatenate(packed), np.concatenate(degrees)


def bundled_blocks(n: int, lines: list[str]) -> Iterator[RowBlock]:
    """The lines of the order-n corpus as row blocks, a batch at a time; the
    first bad line of a batch raises its Graph6Error."""
    for packed, degrees in _row_batches(n, lines):
        yield RowBlock(n, degrees.min(1, initial=n).astype(np.intp),
                       (degrees.sum(1) // 2).astype(np.intp),
                       lambda rows, packed=packed: graphs._row_masks(packed[rows]))


def load_bundled_corpus(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one representative per class."""
    return [g for block in bundled_blocks(n, bundled_corpus_lines(n)) for g in block.graphs()]
