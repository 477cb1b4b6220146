"""Maximum matchings and matching-number queries.

:func:`_mates` is the one solver (blossom contraction, deterministic
tie-breaking): :func:`matching_number`, the production path, counts its
matched pairs and :func:`maximum_matching` lists them as edges.
:func:`matching_bruteforce` exists only as a test oracle and is
intentionally the dumbest correct algorithm.

The quantified questions (does some or every maximum matching use an
edge, cover a vertex, avoid an edge set) are answered through matching
numbers of deleted graphs, so they inherit the exactness of the solver
instead of enumerating matchings.  Vertex deletions are asked through
:meth:`~.theorems.GraphFacts.m_without`, which solves each vertex set
once per graph; :func:`exists_max_matching_avoiding`, which deletes
edges, is the one query left here; it takes m(G) from its caller.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .graphs import Edge, Graph, delete_edges

# branch-on-edge recursion is fine up to this many edges (or few vertices)
BRUTE_FORCE_EDGE_BUDGET = 24
BRUTE_FORCE_VERTEX_BUDGET = 12


class BudgetExceededError(ValueError):
    """A brute-force oracle was asked to exceed its stated budget."""


def maximum_matching(g: Graph) -> frozenset[Edge]:
    """One maximum matching, as a frozenset of (u, v) pairs with u < v.

    Augmenting-path search with blossom contraction (see :func:`_mates`,
    which :func:`matching_number` counts without building this set).
    Only the SIZE of the result is canonical; which matching is returned
    is deterministic (ascending vertex and neighbor order) but otherwise
    arbitrary, and callers must not rely on the particular edges chosen.
    """
    match = _mates(g)
    return frozenset((v, u) for v, u in enumerate(match) if u > v)


def _mates(g: Graph) -> list[int]:
    """The partner of each vertex in one maximum matching, -1 if exposed.

    A greedy matching in ascending vertex and neighbour order, then one
    augmenting search from each exposed vertex that has an edge.  The
    search arrays are reset by slice assignment.
    """
    n = g.n
    adj = [sorted(s) for s in g.adj]
    match = [-1] * n

    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    unset, identity, clear = [-1] * n, list(range(n)), [False] * n
    parent, base, in_queue = unset[:], identity[:], clear[:]

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        x = a
        while True:
            x = base[x]
            on_path[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if on_path[y]:
                return y
            y = parent[match[y]]

    def mark_blossom(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def augment_from(root: int) -> bool:
        parent[:], base[:], in_queue[:] = unset, identity, clear
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom to its stem
                    stem = lca(v, to)
                    in_blossom = [False] * n
                    mark_blossom(v, stem, to, in_blossom)
                    mark_blossom(to, stem, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment: flip matched/unmatched along the path
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    in_queue[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1 and adj[v]:
            augment_from(v)
    return match


def matching_number(g: Graph) -> int:
    """Size of a maximum matching: half the number of matched vertices."""
    return (g.n - _mates(g).count(-1)) // 2


def matching_bruteforce(g: Graph) -> int:
    """Maximum matching size by recursive branch-on-edge.  Test oracle only.

    Budget: at most 24 edges or at most 12 vertices; beyond that the
    recursion is unreasonable and the call is rejected.
    """
    if g.num_edges > BRUTE_FORCE_EDGE_BUDGET and g.n > BRUTE_FORCE_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"brute-force matching limited to {BRUTE_FORCE_EDGE_BUDGET} edges "
            f"or {BRUTE_FORCE_VERTEX_BUDGET} vertices; "
            f"got {g.num_edges} edges on {g.n} vertices"
        )

    def best(edges: tuple[Edge, ...]) -> int:
        if not edges:
            return 0
        u, v = edges[0]
        skip = best(edges[1:])
        rest = tuple(e for e in edges[1:] if u not in e and v not in e)
        return max(skip, 1 + best(rest))

    return best(tuple(sorted(g.edges)))


# ---------------------------------------------------------------------------
# quantified query by edge deletion (vertex deletions: GraphFacts.m_without)


def exists_max_matching_avoiding(g: Graph, edges: Iterable[tuple[int, int]], m: int) -> bool:
    """Is there a maximum matching using none of ``edges``?  ``m`` is m(G).

    True iff deleting the edges leaves the matching number at ``m``;
    avoiding no edges at all is vacuous.
    """
    f = list(edges)
    return not f or matching_number(delete_edges(g, f)) == m
