"""Cycle structure: blocks, disjointness, contraction, frontier edges.

Most results here are only meaningful when the cycles of the graph are
pairwise vertex-disjoint; in that case every simple cycle is exactly one
biconnected block and the whole cycle inventory is explicit.  The
``disjoint`` flag of :class:`CycleStructure` gates the downstream
operations that need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import (
    Edge,
    Graph,
    _normalize_edge,
    cyclomatic_number,
    delete_vertices,
)

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


def _block_vertices(block: frozenset[Edge]) -> frozenset[int]:
    return frozenset(v for e in block for v in e)


@dataclass(frozen=True)
class CycleStructure:
    """Cycle inventory of a graph.

    ``disjoint`` is true when every block is a single edge or a chordless
    cycle and no vertex lies on two cycles; only then is ``cycles`` the
    explicit list of all simple cycles (vertex orders, each starting at
    its smallest vertex), sorted by smallest vertex.  ``cyclic_vertices``
    always holds every vertex lying on at least one simple cycle.
    """

    cycles: tuple[tuple[int, ...], ...]
    cyclic_vertices: frozenset[int]
    disjoint: bool


def _cycle_order(block: frozenset[Edge]) -> tuple[int, ...]:
    # walk a block known to be a simple cycle, deterministically
    nbrs: dict[int, list[int]] = {}
    for u, v in block:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    start = min(nbrs)
    order = [start]
    prev, cur = -1, start
    while True:
        nxt = min(w for w in nbrs[cur] if w != prev) if prev == -1 else next(
            w for w in nbrs[cur] if w != prev
        )
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def analyze_cycles(g: Graph) -> CycleStructure:
    """Classify the cycle layout of ``g``; see :class:`CycleStructure`."""
    cyclic: set[int] = set()
    cycle_blocks: list[frozenset[Edge]] = []
    disjoint = True
    for block in biconnected_blocks(g):
        if len(block) == 1:
            continue
        verts = _block_vertices(block)
        cyclic.update(verts)
        if len(block) != len(verts):
            # block carries a chord or shares structure: not a plain cycle
            disjoint = False
        else:
            cycle_blocks.append(block)
    if disjoint:
        seen: set[int] = set()
        for block in cycle_blocks:
            verts = _block_vertices(block)
            if seen & verts:
                disjoint = False
                break
            seen.update(verts)
    if not disjoint:
        return CycleStructure((), frozenset(cyclic), False)
    cycles = tuple(sorted((_cycle_order(b) for b in cycle_blocks)))
    return CycleStructure(cycles, frozenset(cyclic), True)


def _require_disjoint(cs: CycleStructure) -> None:
    if not cs.disjoint:
        raise ValueError("operation requires pairwise vertex-disjoint cycles")


def frontier_edges(g: Graph, cs: CycleStructure | None = None) -> frozenset[Edge]:
    """Edges joining a cycle vertex to anything outside its own cycle.

    Includes edges from a cycle to a non-cyclic vertex and edges joining
    two distinct cycles.  Edges inside one cycle and edges between
    non-cyclic vertices are excluded.
    """
    if cs is None:
        cs = analyze_cycles(g)
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


@dataclass(frozen=True)
class Contraction:
    """Result of shrinking each cycle to a single vertex.

    ``image`` maps every original vertex to its vertex in ``forest``;
    all vertices of one cycle share an image.  ``cyclic_images`` are the
    forest vertices that stand for contracted cycles.
    """

    forest: Graph
    image: dict[int, int]
    cyclic_images: frozenset[int]


def contract_cycles(g: Graph, cs: CycleStructure | None = None) -> Contraction:
    """Contract every cycle to one vertex; the result must be a forest.

    New labels follow the order of the smallest original member of each
    unit (a unit is either one non-cyclic vertex or one whole cycle).
    A multi-edge or leftover cycle after contraction would contradict
    disjointness and is reported as an internal invariant violation.
    """
    if cs is None:
        cs = analyze_cycles(g)
    _require_disjoint(cs)
    cycle_of: dict[int, tuple[int, ...]] = {}
    for cyc in cs.cycles:
        for v in cyc:
            cycle_of[v] = cyc
    image: dict[int, int] = {}
    cyclic_images = []
    next_id = 0
    for v in range(g.n):
        if v in image:
            continue
        if v in cycle_of:
            for w in cycle_of[v]:
                image[w] = next_id
            cyclic_images.append(next_id)
        else:
            image[v] = next_id
        next_id += 1
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
    forest = Graph(next_id, forest_edges)
    if cyclomatic_number(forest) != 0:
        raise RuntimeError(
            "internal invariant violated: cycle contraction left a cycle; "
            "cycle analysis and contraction disagree"
        )
    return Contraction(forest, image, frozenset(cyclic_images))


def non_cyclic_forest(contraction: Contraction) -> Graph:
    """Forest induced on the non-cycle vertices of the contraction."""
    return delete_vertices(contraction.forest, contraction.cyclic_images).graph


class PendantCycle(NamedTuple):
    cycle: tuple[int, ...]
    gateway: int  # the unique cycle vertex with outside neighbors
    outside: int  # one (the smallest) such outside neighbor


def pendant_cycles(g: Graph, cs: CycleStructure | None = None) -> list[PendantCycle]:
    """Cycles attached to the rest of the graph through a single vertex."""
    if cs is None:
        cs = analyze_cycles(g)
    _require_disjoint(cs)
    out = []
    for cyc in cs.cycles:
        members = set(cyc)
        gateways = [v for v in cyc if g.adj[v] - members]
        if len(gateways) == 1:
            u = gateways[0]
            out.append(PendantCycle(cyc, u, min(g.adj[u] - members)))
    return out


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
