"""Test graphs built from their edge lists (cycles, paths, complete bipartite
graphs), and the components of G - S that the brute-force odd-component
reference counts."""

from dataclasses import dataclass

from evenfactor.graphs import Graph, _component, _vertices


def cycle(k: int) -> Graph:
    """C_k, vertices in cyclic order 0-1-...-(k-1)-0."""
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> Graph:
    """P_k, the path 0-1-...-(k-1)."""
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; the a-side gets labels 0..a-1."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


@dataclass(frozen=True)
class ComponentReport:
    """Connected components of G - S and the count of odd-order ones."""

    components: tuple[tuple[int, ...], ...]
    odd_count: int


def components(g: Graph, removed=()) -> ComponentReport:
    """Connected components of G - S, by the package's flood fill, and the
    number of odd-order ones."""
    removed_mask = 0
    for v in removed:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        removed_mask |= 1 << v
    alive = ((1 << g.n) - 1) & ~removed_mask
    comps = []
    odd = 0
    while alive:
        comp = _component(g._bits, alive & -alive, alive)
        comps.append(_vertices(comp))
        odd += comp.bit_count() & 1
        alive ^= comp
    return ComponentReport(tuple(comps), odd)
