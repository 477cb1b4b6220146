"""Maximum matchings and the matching number.

:func:`_mates` is the one solver (blossom contraction, deterministic
tie-breaking); :func:`matching_number` counts its matched pairs.  The
tests check it against the brute-force oracle in ``tests/matching_oracle.py``.
:func:`matching_number` answers each graph on at most ``MEMO_VERTICES``
vertices once per process, from a memo (:func:`.graphs._memoised`).
:func:`matching_number_without` answers m(G - v) from a maximum matching
of G by one augmenting search; it and :func:`_mates` share that search
(:func:`_augment`).

The quantified questions (does some or every maximum matching use an
edge, cover a vertex, avoid the frontier edges) are answered on the
row's :class:`~.theorems.GraphFacts` through matching numbers of
deleted graphs, so they inherit the exactness of the solver instead of
enumerating matchings.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graphs import Graph, _memoised


def _augment(adj: Sequence[Iterable[int]], match: list[int], root: int, dead: int = -1) -> bool:
    """Search for an augmenting path from the exposed ``root``; flip it into ``match`` if found.

    Edmonds' search: a BFS over alternating paths that contracts each odd
    cycle it closes (a blossom) to its stem.  A single search from one
    root finds an augmenting path that starts there whenever one exists.
    ``dead``, if given, is a vertex that nothing is matched to; it is
    marked as reached before the search starts, so no edge to it is
    followed and the search runs on the graph without it.
    """
    n = len(adj)
    parent, base, in_queue = [-1] * n, list(range(n)), [False] * n
    if dead >= 0:
        parent[dead] = dead

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


@_memoised
def matching_number(g: Graph) -> int:
    """Size of a maximum matching: half the number of matched vertices."""
    return (g.n - _mates(g).count(-1)) // 2


def matching_number_without(g: Graph, mates: Sequence[int], v: int) -> int:
    """m(G - v), given ``mates``, a maximum matching M of g as :func:`_mates` returns it.

    If M leaves v exposed, M is a matching of G - v and m(G - v) = m.
    Otherwise M minus v's edge uv is a matching of G - v of size m - 1.
    By Berge's theorem an augmenting path for it in G - v ends at u: one
    that avoided u would end at two vertices that M leaves exposed, and
    would augment M in G.  So one search from u in G - v decides
    m(G - v) = m - 1 + [the search finds a path]; G - v is never built.
    """
    m = (g.n - mates.count(-1)) // 2
    u = mates[v]
    if u == -1:
        return m
    match = list(mates)
    match[u] = match[v] = -1
    return m - 1 + _augment(g.adj, match, u, dead=v)
