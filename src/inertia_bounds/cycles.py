"""Cycle structure: blocks, disjointness, contraction, frontier edges.

Most results here are only meaningful when the cycles of the graph are
pairwise vertex-disjoint; in that case every simple cycle is exactly one
biconnected block and the whole cycle inventory is explicit.  Frontier
and contraction take the :class:`CycleStructure` of :func:`analyze_cycles`
from their caller, and its ``disjoint`` flag gates them: on overlapping
cycles they raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Edge, Graph, _normalize_edge, cyclomatic_number

SIMPLE_CYCLE_VERTEX_BUDGET = 14


class CycleBudgetError(ValueError):
    """Simple-cycle enumeration was asked to exceed its vertex budget."""


def biconnected_blocks(g: Graph) -> list[frozenset[Edge]]:
    """Edge sets of the biconnected blocks (bridges are single-edge blocks).

    Iterative depth-first search; isolated vertices belong to no block.
    """
    n = g.n
    adj = [sorted(g.adj[v]) for v in range(n)]
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[Edge] = []
    blocks: list[frozenset[Edge]] = []

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int]] = [(root, -1)]
        iters = {root: iter(adj[root])}
        while stack:
            v, parent = stack[-1]
            descended = False
            for w in iters[v]:
                if w == parent:
                    continue
                if disc[w] == -1:
                    edge_stack.append(_normalize_edge(v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v))
                    iters[w] = iter(adj[w])
                    descended = True
                    break
                if disc[w] < disc[v]:
                    # back edge to a strict ancestor
                    edge_stack.append(_normalize_edge(v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if descended:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # u separates v's subtree: everything since the tree
                    # edge (u, v) is one block
                    tree_edge = _normalize_edge(u, v)
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == tree_edge:
                            break
                    blocks.append(frozenset(block))
    return blocks


@dataclass(frozen=True)
class CycleStructure:
    """Cycle inventory of a graph.

    ``disjoint`` is true when every block is a single edge or a chordless
    cycle and no vertex lies on two cycles; only then is ``cycles`` the
    explicit list of all simple cycles, each as its sorted vertex tuple,
    sorted by smallest vertex.  ``cyclic_vertices`` always holds every
    vertex lying on at least one simple cycle, and ``blocks_at[v]`` the
    number of biconnected blocks, bridges included, that hold v.
    """

    cycles: tuple[tuple[int, ...], ...]
    cyclic_vertices: frozenset[int]
    disjoint: bool
    blocks_at: tuple[int, ...]


def analyze_cycles(g: Graph) -> CycleStructure:
    """Classify the cycle layout of ``g``; see :class:`CycleStructure`."""
    cyclic: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    disjoint = True
    blocks_at = [0] * g.n
    for block in biconnected_blocks(g):
        if len(block) == 1:
            for v in next(iter(block)):  # a bridge
                blocks_at[v] += 1
            continue
        verts = {v for e in block for v in e}
        for v in verts:
            blocks_at[v] += 1
        # a plain cycle has as many edges as vertices (no chord) and meets
        # no earlier block
        disjoint = disjoint and len(block) == len(verts) and cyclic.isdisjoint(verts)
        cyclic.update(verts)
        cycles.append(tuple(sorted(verts)))
    if not disjoint:
        return CycleStructure((), frozenset(cyclic), False, tuple(blocks_at))
    return CycleStructure(tuple(sorted(cycles)), frozenset(cyclic), True, tuple(blocks_at))


def _require_disjoint(cs: CycleStructure) -> None:
    if not cs.disjoint:
        raise ValueError("operation requires pairwise vertex-disjoint cycles")


def frontier_edges(g: Graph, cs: CycleStructure) -> frozenset[Edge]:
    """Edges joining a cycle vertex to anything outside its own cycle.

    Includes edges from a cycle to a non-cyclic vertex and edges joining
    two distinct cycles.  Edges inside one cycle and edges between
    non-cyclic vertices are excluded.
    """
    _require_disjoint(cs)
    owner: dict[int, int] = {}
    for idx, cyc in enumerate(cs.cycles):
        for v in cyc:
            owner[v] = idx
    out = []
    for u, v in g.edges:
        cu, cv = owner.get(u), owner.get(v)
        if (cu is not None or cv is not None) and cu != cv:
            out.append((u, v))
    return frozenset(out)


def contract_cycles(g: Graph, cs: CycleStructure) -> Graph:
    """Contract every cycle to one vertex; the result must be a forest.

    New labels follow the order of the smallest original member of each
    unit (a unit is either one non-cyclic vertex or one whole cycle).
    A multi-edge or leftover cycle after contraction would contradict
    disjointness and is reported as an internal invariant violation.
    """
    _require_disjoint(cs)
    cycle_of = {v: cyc for cyc in cs.cycles for v in cyc}
    image: dict[int, int] = {}
    units = 0
    for v in range(g.n):
        if v not in image:
            image.update(dict.fromkeys(cycle_of.get(v, (v,)), units))
            units += 1
    forest_edges: set[Edge] = set()
    for u, v in g.edges:
        iu, iv = image[u], image[v]
        if iu == iv:
            continue  # edge inside one cycle
        e = (iu, iv) if iu < iv else (iv, iu)
        if e in forest_edges:
            raise RuntimeError(
                "internal invariant violated: cycle contraction produced a "
                f"multi-edge at {e}; cycle analysis and contraction disagree"
            )
        forest_edges.add(e)
    forest = Graph(units, forest_edges)
    if cyclomatic_number(forest) != 0:
        raise RuntimeError(
            "internal invariant violated: cycle contraction left a cycle; "
            "cycle analysis and contraction disagree"
        )
    return forest


class CycleCounts(NamedTuple):
    """Simple-cycle counts: odd, length 3 mod 4, length 1 mod 4, total."""

    c1: int
    c3: int
    c5: int
    total: int


def enumerate_simple_cycles(g: Graph) -> CycleCounts:
    """Count all simple cycles by backtracking.  Exponential; n <= 14.

    Each cycle is counted once: searches start only at the cycle's
    smallest vertex and only one of the two traversal directions is
    accepted.
    """
    if g.n > SIMPLE_CYCLE_VERTEX_BUDGET:
        raise CycleBudgetError(
            f"simple-cycle enumeration limited to "
            f"{SIMPLE_CYCLE_VERTEX_BUDGET} vertices, got {g.n}"
        )
    adj = [sorted(g.adj[v]) for v in range(g.n)]
    by_residue = [0, 0, 0, 0]
    in_path = [False] * g.n
    path: list[int] = []

    def extend(v: int, start: int) -> None:
        for w in adj[v]:
            if w == start:
                if len(path) >= 3 and path[1] < path[-1]:
                    by_residue[len(path) % 4] += 1
            elif w > start and not in_path[w]:
                path.append(w)
                in_path[w] = True
                extend(w, start)
                path.pop()
                in_path[w] = False

    for s in range(g.n):
        path = [s]
        in_path[s] = True
        extend(s, s)
        in_path[s] = False

    total = sum(by_residue)
    return CycleCounts(
        c1=by_residue[1] + by_residue[3],
        c3=by_residue[3],
        c5=by_residue[1],
        total=total,
    )
