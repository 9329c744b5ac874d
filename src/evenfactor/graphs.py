"""Immutable simple undirected graphs on vertex set {0..n-1}.

Vertices are dense integer labels. Adjacency is one bitmask per vertex
(bit w of ``_bits[v]`` is set iff vw is an edge), and every query reads
it: degrees are popcounts, membership is one shift, and the component
flood fill behind connectivity ORs whole neighbourhoods at a time. All
constructors document their labeling.

A graph keeps its minimum degree and its connectivity once computed, as
both theorems' hypotheses read them. A batch builder that has them already
hands them to ``Graph._from_bits``: the sampler both, from its numpy block
pass, and the graph6 reader the minimum degree, from the popcounts of its
packed rows, so neither is derived again from the bitmasks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class Graph6Error(ValueError):
    """Malformed graph6 input (bad length, bad character, nonzero padding)."""


GRAPH6_HEADER = ">>graph6<<"


class Graph:
    """Simple undirected graph, immutable after construction."""

    # _min_degree and _connected hold min_degree() and is_connected() once
    # known, None before
    __slots__ = ("n", "edge_count", "_bits", "_min_degree", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        bits = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if bits[u] >> v & 1:
                continue  # ignore a duplicate of an edge already present
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            count += 1
        self._bits = tuple(bits)
        self.edge_count = count
        self._min_degree = self._connected = None

    @classmethod
    def _from_bits(cls, bits: tuple[int, ...], edge_count: int,
                   min_degree: Optional[int] = None,
                   connected: Optional[bool] = None) -> Graph:
        """Graph on len(bits) vertices with edge_count edges from symmetric,
        loop-free bitmasks, all taken on trust: callers build them that way.
        So are min_degree and connected, when given: they are what
        min_degree() and is_connected() then return."""
        g = object.__new__(cls)
        g.n = len(bits)
        g._bits = bits
        g.edge_count = edge_count
        g._min_degree = min_degree
        g._connected = connected
        return g

    # -- basic queries ----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of v, ascending."""
        return _vertices(self._bits[v])

    def neighbor_bits(self, v: int) -> int:
        """Neighborhood of v as a bitmask."""
        return self._bits[v]

    def degree(self, v: int) -> int:
        return self._bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._bits[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u, b in enumerate(self._bits)
                for v in _vertices(b >> (u + 1) << (u + 1))]

    def min_degree(self) -> int:
        """delta(G); 0 for the empty graph."""
        if self._min_degree is None:
            self._min_degree = min(map(int.bit_count, self._bits), default=0)
        return self._min_degree

    def max_degree(self) -> int:
        """Delta(G); 0 for the empty graph."""
        return max(map(int.bit_count, self._bits), default=0)

    def is_connected(self) -> bool:
        """BFS connectivity; the 0-vertex graph counts as connected."""
        if self._connected is None:
            full = (1 << self.n) - 1
            self._connected = self.n <= 1 or _component(self._bits, 1, full) == full
        return self._connected

    # -- equality is labeled equality, not isomorphism --------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- constructors ---------------------------------------------------------


def clique_join(s: int, parts: Sequence[int]) -> Graph:
    """K_s joined to a disjoint union of cliques K_{parts[0]}, K_{parts[1]}, ...

    Labels: the K_s vertices are 0..s-1, then each part's clique in order.
    """
    if s < 0 or any(p < 0 for p in parts):
        raise ValueError("clique sizes must be nonnegative")
    n = s + sum(parts)
    hubs = (1 << s) - 1
    # a hub sees every other vertex; a part's vertex sees its part and the hubs
    bits = [((1 << n) - 1) ^ (1 << v) for v in range(s)]
    for p in parts:
        start = len(bits)
        part = hubs | ((1 << p) - 1) << start
        bits += [part ^ (1 << v) for v in range(start, start + p)]
    return Graph._from_bits(tuple(bits), sum(map(int.bit_count, bits)) // 2)


# -- components -----------------------------------------------------------


def _vertices(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _component(bits: Sequence[int], start: int, alive: int) -> int:
    """Bitmask of the component of G[alive] holding the vertices of start.

    ``bits`` are the neighbour bitmasks of G and ``start`` a nonempty
    bitmask inside ``alive``; each BFS round ORs the neighbourhoods of the
    whole frontier. An alive neighbour of the component is in it, so the
    flood returns ``alive`` as soon as the seen vertices and their
    neighbours cover it.
    """
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= bits[low.bit_length() - 1]
            frontier ^= low
        if (seen | nxt) & alive == alive:
            return alive
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


# -- adjacency stacks ------------------------------------------------------
#
# Row v of a graph's adjacency matrix is its neighbour bitmask of v, bit w
# at column w. A stack holds same-order graphs as a (k, n, n) bool array,
# and a bitmask is its row packed little-endian, low byte first, into
# whole bytes; both directions below go through that one layout.


def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The (k, n, n) bool adjacency matrices of same-order graphs."""
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError(f"need graphs of one order, got orders {sorted(orders)}")
    n = orders.pop()
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(
        b.to_bytes(width, "little") for g in graphs for b in g._bits), np.uint8)
    bits = np.unpackbits(rows, bitorder="little").view(bool)
    return bits.reshape(len(graphs), n, 8 * width)[:, :, :n]


def adjacency_masks(stack: np.ndarray) -> list[tuple[int, ...]]:
    """Neighbour bitmasks of a (k, n, w) bool adjacency stack, w >= n and
    columns from n on clear: one tuple of n ints per graph."""
    k, n, w = stack.shape
    width = -(-w // 8)
    if w % 8:
        # pad rows to whole bytes: one flat packbits is many times faster
        # than packing along the last axis
        padded = np.zeros((k, n, 8 * width), bool)
        padded[:, :, :w] = stack
        stack = padded
    return _row_masks(np.packbits(stack, bitorder="little").reshape(k, n, width))


def _row_masks(packed: np.ndarray) -> list[tuple[int, ...]]:
    """Neighbour bitmasks, one tuple per graph, from a (k, n, width) uint8
    stack of packed rows."""
    k, n, width = packed.shape
    if width <= 8:
        words = np.zeros((k, n, 8), np.uint8)
        words[:, :, :width] = packed
        masks = words.view("<u8").ravel().tolist()
    else:
        rows = packed.tobytes()
        masks = [int.from_bytes(rows[i:i + width], "little")
                 for i in range(0, len(rows), width)]
    # n at a time from one iterator: each graph's n masks as a tuple
    return list(zip(*[iter(masks)] * n)) if n else [()] * k


# popcounts of the bytes: degrees read off rows packed into bytes, and off
# neighbour bitmasks of at most 8 vertices
_POPCOUNT = np.array([b.bit_count() for b in range(256)], np.uint8)


# -- graph6 codec ----------------------------------------------------------
#
# A line is the size n, then the upper triangle. The size is one character
# 63 + n for n <= 62, else "~" and n as three 6-bit characters. Upper-
# triangle bits are read column-major: x(0,1), x(0,2), x(1,2), x(0,3),
# x(1,3), x(2,3), ... packed 6 bits per character MSB first, each
# character value = bits + 63, zero-padded to a 6-bit boundary.
#
# Lines are decoded a batch at a time. A batch ends with the line that
# brings it to _BATCH_CHARS characters. Its lines become one array of
# character codes (a non-ASCII character as DEL, out of range like it), and
# one stable sort of their keys, size prefix and length, groups them. The
# lines of a group share n, so _shape checks size and length once, on the
# first line, and padding and the character range are one numpy test each
# on the whole group; only the lines these flag are examined one by one,
# by _line_error. One numpy pass gathers the group's (k, n, n) bool
# adjacency stack, rows padded to whole bytes, packs the rows and reads
# the degrees off them by one byte-popcount table; building each Graph is
# all that runs per line. A well-formed line of order n is about n^2 / 12
# characters long, so a batch's stacks take at most 21 bytes per character
# read (under 16 from n = 20 on): under 90 KB, plus about n^2 bytes for
# the batch's last line.

# largest n with a four-character size; the eight-character form is not read
_MAX_GRAPH6_ORDER = 258047

_BATCH_CHARS = 1 << 12

_SEXTET_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}


def _sextet_chars(bits: str) -> str:
    """A '0'/'1' string, zero-padded to a 6-bit boundary, as graph6 characters."""
    bits += "0" * (-len(bits) % 6)
    return "".join(_SEXTET_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6))


def _char_error(chars: str, what: str) -> Graph6Error | None:
    """The error for the first character of chars outside 63..126, if any."""
    for ch in chars:
        if not "?" <= ch <= "~":
            return Graph6Error(f"{what} character {ch!r} out of range 63..126")
    return None


def _shape(line: str) -> tuple[int, int]:
    """(n, index of the first data character) of a stripped graph6 line.

    Makes every check that reads only the size prefix and the length, so
    its outcome holds for all lines with the same prefix and length.
    """
    if not line:
        raise Graph6Error("empty graph6 line")
    if line[0] != "~":
        size, start = line[:1], 1
    elif line[1:2] == "~":
        raise Graph6Error(
            f"graph6 sizes above {_MAX_GRAPH6_ORDER} are not supported"
        )
    elif len(line) < 4:
        raise Graph6Error("truncated four-character graph6 size")
    else:
        size, start = line[1:4], 4
    error = _char_error(size, "size")
    if error is not None:
        raise error
    n = 0
    for ch in size:
        n = n << 6 | ord(ch) - 63
    if start == 4 and n < 63:
        raise Graph6Error(f"size {n} written in four characters, not one")
    nchars = (n * (n - 1) // 2 + 5) // 6
    if len(line) - start != nchars:
        raise Graph6Error(
            f"expected {nchars} data characters for n={n}, got {len(line) - start}"
        )
    return n, start


@lru_cache(maxsize=16)
def _bit_index(n: int, start: int, width: int) -> np.ndarray:
    """Where each entry of the row-major (n, width) adjacency stack of an
    order-n line is read once each character is unpacked to 8 bits.

    Bit i of the upper triangle, in graph6's column-major order, is bit
    2 + i % 6 of character start + i // 6, and x(row, col) is read at
    (row, col) and at (col, row). Every other entry reads the top bit of
    the first character, which is clear once the size checks pass.
    """
    # built in Python: numpy's index helpers and integer ufuncs would cost
    # about 0.3 MB of peak memory on first use, more than this array
    index = [0] * (n * width)
    i = 0
    for col in range(n):
        for row in range(col):
            index[row * width + col] = index[col * width + row] = (start + i // 6) * 8 + 2 + i % 6
            i += 1
    return np.array(index, np.intp)


def _line_error(line: str) -> Graph6Error:
    """The error of a line that a batch check flagged, as from_graph6 gives
    it: size and length first, then data characters, then padding."""
    try:
        _, start = _shape(line)
    except Graph6Error as exc:
        return exc
    return _char_error(line[start:], "data") or Graph6Error("nonzero padding bits")


def _decode_group(rows: np.ndarray, n: int, start: int) -> tuple[list[Graph], np.ndarray]:
    """The graphs of k lines of order n and one length, in one numpy pass
    over their (k, length) character codes, and the positions of the lines
    whose data characters or padding are bad (their graphs are junk)."""
    k, length = rows.shape
    # a character outside 63..126 wraps to a code above 63
    codes = rows - np.uint8(63)
    # the padding bits are the low bits of the last character
    padding = (1 << 6 * (length - start) - n * (n - 1) // 2) - 1
    flagged = codes[:, -1] & padding != 0
    bad = codes[:, start:] > 63
    if bad.any():
        flagged |= bad.any(axis=1)
    # the (k, n, width) adjacency stack, rows padded to whole bytes, packed
    width = -(-n // 8) * 8
    stack = np.unpackbits(codes, axis=1)[:, _bit_index(n, start, width)]
    packed = np.packbits(stack, bitorder="little").reshape(k, n, width // 8)
    # (n, k): column j holds graph j's degrees
    degrees = _POPCOUNT.take(packed.T).sum(0)
    graphs = list(map(Graph._from_bits, _row_masks(packed), (degrees.sum(0) // 2).tolist(),
                      degrees.min(0, initial=n).tolist()))
    return graphs, np.flatnonzero(flagged)


def _decode_batch(texts: Sequence[str]) -> list[Graph | Graph6Error]:
    """Each line's graph or Graph6Error, one numpy pass per group of lines
    with the same size prefix and length."""
    if not texts:
        return []
    lines = list(map(str.strip, texts))
    text = "".join(lines)
    if GRAPH6_HEADER in text:
        lines = list(map(str.removeprefix, lines, repeat(GRAPH6_HEADER)))
        text = "".join(lines)
    if not text.isascii():
        # each non-ASCII character as DEL, which is out of range too
        text = text.translate(dict.fromkeys([ord(c) for c in set(text) if c > "\x7f"], 127))
    codes = np.frombuffer(text.encode("ascii") + bytes(4), np.uint8)
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    starts = lengths.cumsum() - lengths
    # the size prefix is a line's first character, or its first four after
    # "~"; read past the end of a shorter line, it still fails _shape
    head = codes[starts[:, None] + np.arange(4)]
    key = np.where(head[:, 0] == 126, head.view("<u4")[:, 0], head[:, 0]) | lengths << 32
    # groups: the runs of one key once the lines are stably sorted by it
    order = np.argsort(key, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), len(lines)]
    decoded: list = []
    flagged = []
    for a, b in zip(bounds, bounds[1:]):
        group = order[a:b]
        first = lines[group[0]]
        try:
            n, start = _shape(first)
        except Graph6Error:
            decoded += [None] * len(group)
            flagged += group.tolist()
            continue
        graphs, bad = _decode_group(codes[starts[group, None] + np.arange(len(first))], n, start)
        decoded += graphs
        flagged += group[bad].tolist()
    if len(bounds) > 2:
        decoded = list(map(decoded.__getitem__, np.argsort(order).tolist()))
    for i in flagged:
        decoded[i] = _line_error(lines[i])
    return decoded


def read_graph6(texts: Iterable[str]) -> Iterator[Graph | Graph6Error]:
    """Decode graph6 lines lazily, one batch at a time, in input order.

    Yields each line's Graph, or the Graph6Error that from_graph6 raises
    for it (a blank line is an error, so callers that allow blank lines
    drop them first). Memory stays bounded by the batch size; see the
    codec notes above.
    """
    batch: list[str] = []
    size = 0
    for text in texts:
        batch.append(text)
        size += len(text)
        if size >= _BATCH_CHARS:
            yield from _decode_batch(batch)
            batch, size = [], 0
    yield from _decode_batch(batch)


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (n <= 258047); a leading header is skipped.

    A batch of one for read_graph6, which takes many lines per numpy pass.
    """
    (g,) = _decode_batch([text])
    if isinstance(g, Graph6Error):
        raise g
    return g


def to_graph6(g: Graph) -> str:
    """Encode as a canonical graph6 line (n <= 258047)."""
    n = g.n
    if n > _MAX_GRAPH6_ORDER:
        raise Graph6Error(
            f"graph6 encoding limited to n <= {_MAX_GRAPH6_ORDER}, got {n}"
        )
    size = (_sextet_chars(format(n, "06b")) if n < 63
            else "~" + _sextet_chars(format(n, "018b")))
    # column col lists x(0,col) .. x(col-1,col): the low col bits of
    # _bits[col], reversed; bit col is set so that bin() prints all of them
    bits = g._bits
    upper = "".join([
        bin(bits[col] & ((1 << col) - 1) | 1 << col)[:2:-1] for col in range(1, n)
    ])
    return size + _sextet_chars(upper)

