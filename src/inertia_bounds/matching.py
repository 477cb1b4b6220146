"""Maximum matchings and the matching number.

:func:`_mates` is the one solver (blossom contraction, deterministic
tie-breaking); :func:`matching_number` counts its matched pairs.  The
tests check it against the brute-force oracle in ``tests/matching_oracle.py``.
:func:`matching_number_without` answers m(G - S) for a vertex set S
from a maximum matching of G, without building G - S: it drops S's
vertices from the matching one at a time, and each drop costs at most
one augmenting search, from the vertex's former mate.
:func:`matching_number_without_edges` drops matched edges the same way,
with at most one search from each end.  Both rest on Berge's theorem:
after a drop, every augmenting path ends at a vertex that lost its
mate.  They and :func:`_mates` share that search (:func:`_augment`).

The quantified questions (does some or every maximum matching use an
edge, cover a vertex, avoid the frontier edges) are answered on the
row's :class:`~.theorems.GraphFacts` through matching numbers of
deleted graphs, each dropped from the row's one maximum matching, so
they inherit the exactness of the solver instead of enumerating
matchings.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graphs import Edge, Graph


def _augment(adj: Sequence[Iterable[int]], match: list[int], root: int, dead: Iterable[int] = ()) -> bool:
    """Search for an augmenting path from the exposed ``root``; flip it into ``match`` if found.

    Edmonds' search: a BFS over alternating paths that contracts each odd
    cycle it closes (a blossom) to its stem.  A single search from one
    root finds an augmenting path that starts there whenever one exists.
    ``dead`` holds vertices that nothing is matched to; they are marked
    as reached before the search starts, so no edge to them is followed
    and the search runs on the graph without them.
    """
    n = len(adj)
    parent, base, in_queue = [-1] * n, list(range(n)), [False] * n
    for d in dead:
        parent[d] = d

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


def _mates(g: Graph) -> list[int]:
    """The partner of each vertex in one maximum matching, -1 if exposed.

    A greedy matching in ascending vertex and neighbour order, then one
    augmenting search (:func:`_augment`) from each exposed vertex that
    has an edge.
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

    for v in range(n):
        if match[v] == -1 and adj[v]:
            _augment(adj, match, v)
    return match


def matching_number(g: Graph) -> int:
    """Size of a maximum matching: half the number of matched vertices."""
    return (g.n - _mates(g).count(-1)) // 2


def matching_number_without(g: Graph, mates: Sequence[int], vs: Iterable[int]) -> int:
    """m(G - vs), given ``mates``, a maximum matching M of g as :func:`_mates` returns it.

    The vertices are dropped one at a time, in ascending order, from a
    copy of M, which stays a maximum matching of G minus the vertices
    dropped so far; those are dead to every search.  Dropping a vertex v
    that the matching leaves exposed keeps it maximum.  Otherwise the
    matching minus v's edge uv has one edge fewer, and by Berge's
    theorem an augmenting path for it ends at u, the vertex that lost
    its mate: a path that avoided u would end at two vertices that the
    matching left exposed before the drop, and would augment it then.
    So one search from u decides whether the size comes back, and flips
    the path in if it does.  If u is in ``vs`` too, both go at once with
    no search: a path that avoided both would augment the matching
    before the drop.  No G - vs is built, and ``vs`` is not checked here.
    """
    drop = set(vs)
    match = list(mates)
    m = (g.n - match.count(-1)) // 2
    dead: set[int] = set()
    for v in sorted(drop):
        if v in dead:  # dropped with its mate
            continue
        dead.add(v)
        u = match[v]
        if u == -1:
            continue
        match[u] = match[v] = -1
        if u in drop:
            dead.add(u)
            m -= 1
        elif not _augment(g.adj, match, u, dead):
            m -= 1
    return m


def matching_number_without_edges(g: Graph, mates: Sequence[int], edges: Iterable[Edge]) -> int:
    """m(G - edges), given ``mates``, a maximum matching M of g as :func:`_mates` returns it.

    The searches run on G minus every edge in ``edges``, from a copy of
    M.  An edge of ``edges`` that the matching holds is still followed,
    as a matched edge, until it is dropped, so the matching stays a
    maximum matching of G minus the edges of ``edges`` that it does not
    hold.  The matched edges xy of ``edges`` are dropped in ascending
    order.  By Berge's theorem an augmenting path for the matching minus
    xy ends at x or at y, the vertices that lost their mates, as in
    :func:`matching_number_without`.  A failed search changes nothing,
    so one search from x and, if that finds none, one from y decide
    whether the size comes back.  A search only matches edges of
    G - edges, so an edge of ``edges`` that a found path unmatches is
    dropped by that path.  No G - edges is built.
    """
    edges = sorted(edges)
    adj = list(g.adj)
    for x, y in edges:
        adj[x] = adj[x] - {y}
        adj[y] = adj[y] - {x}
    match = list(mates)
    m = (g.n - match.count(-1)) // 2
    for x, y in edges:
        if match[x] != y:
            continue
        match[x] = match[y] = -1
        if not (_augment(adj, match, x) or _augment(adj, match, y)):
            m -= 1
    return m
