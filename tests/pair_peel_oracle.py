"""The per-pair pendant check, kept as a test oracle.

For each pendant pair {u, w} of a row, :func:`pendant_reduction_by_pairs`
derives the peel terms of G - u - w from G's own (:func:`pair_peel_terms`)
and checks them on top of the core that G's accepted certificate proves
(:func:`peel_part_inertia`), in O(row entries) per pair.  The package's
``pendant_reduction`` lemma reads the same verdict off the certificate in
O(pendants + peel terms); its docstring argues why the two agree on any
certificate that ``certificate_inertia`` accepts, and the tests check it.
:func:`peel_without` is a fresh peel of G less some vertices, which the
derived terms are checked against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from inertia_bounds import Graph, GraphFacts, Inertia
from inertia_bounds.inertia import Term, _peel, _pendant_shaped


def peel_without(g: Graph, drop: Iterable[int], terms: list[Term] | None = None) -> tuple[Inertia, list[bool], list[int]]:
    """Peel g with the vertices ``drop`` removed, in place on g's adjacency.

    Returns the inertia the peel removes and the live vertices and their
    degrees; ``drop`` is not checked here.
    """
    adj = g.adj
    degree = list(map(len, adj))
    alive = [True] * g.n
    for v in drop:
        alive[v] = False
        for w in adj[v]:
            degree[w] -= 1
    return _peel(adj, degree, alive, terms), alive, degree


def pair_peel_terms(g: Graph, peel: Sequence[Term], term_of: dict[int, int], pair: tuple[int, int]) -> list[Term]:
    """G - u - w's peel terms, read off G's: ``peel`` less the term that removes w, with u and w struck from the rows.

    ``pair`` is a pendant u and its neighbour w, in either order;
    ``peel`` is G's peel terms and ``term_of`` maps each of their block
    indices to its term.  G's peel removes w in one pair term, which
    holds u too unless u is left isolated by it.  Only the rows that
    hold u or w are copied, and only the terms of their neighbours can.
    """
    a, b = pair
    t = term_of.get(a, term_of.get(b))
    terms = list(peel)
    for x in g.adj[a] | g.adj[b]:
        s = term_of.get(x)
        if s is not None and s != t:
            block, (head, row), det = terms[s]
            if a in row or b in row:
                terms[s] = block, (head, {y: e for y, e in row.items() if y != a and y != b}), det
    if t is not None:
        del terms[t]
    return terms


def core_degree_sum(g: Graph, core: frozenset[int]) -> int | None:
    """The sum over the core S of |N(v) & S|, which is 2 |E(S)|, or None if a vertex of S has no neighbour in S.

    This is the half of :func:`peel_part_inertia`'s check that does not
    depend on the vertices dropped, so a caller that checks several
    peels on one core computes it once.
    """
    adj = g.adj
    inner = [len(adj[v] & core) for v in core]
    return None if 0 in inner else sum(inner)


def peel_part_inertia(
    g: Graph,
    drop: Sequence[int],
    terms: Sequence[Term],
    core: frozenset[int],
    core_inertia: Inertia,
    core_degrees: int | None,
) -> Inertia | None:
    """In(A(G - drop)) from its peel terms and a proven core, or None if a check fails.

    ``core`` is a vertex set S of g and ``core_inertia`` the inertia
    that g's certificate proves for A[S, S] (``_certified_core``);
    ``core_degrees`` is ``core_degree_sum(g, core)``, None if a vertex
    of S has no neighbour in S, which fails the check.  Only ``terms``
    are checked, against A(G - drop) - A[S, S], in O(row entries):
    each must be pendant-shaped, the certificate of ``terms`` followed
    by S's core terms must be echelon (no block index used twice, in S
    or in ``drop``, no row entry on an earlier block index or in
    ``drop``), every claimed (v, x) must be an edge of G, each vertex of
    S must have a neighbour in S, and the claims plus |E(S)| must be
    |E(G - drop)|.  The echelon rule claims no edge twice and no claim
    lies in S, so the claims and E(S) then make up E(G - drop) exactly:
    the terms and S's core terms sum to A(G - drop), and S is the core
    that the peel leaves.  A 2x2 term counts once each way, as in
    ``certificate_inertia``.
    """
    adj = g.adj
    barred = set(drop)  # no block index or row entry may fall here
    if core_degrees is None or not barred.isdisjoint(core):
        return None
    # twice |E(G - drop)|: each edge inside ``drop`` is subtracted at both ends
    twice = 2 * g.num_edges
    for v in drop:
        twice -= 2 * len(adj[v]) - len(adj[v] & barred)
    size = g.n - len(barred)
    claims = 0
    for block, rows, det in terms:
        if not _pendant_shaped(block, rows, det):
            return None
        v = block[1]
        row = rows[1]
        if v in barred or not (core.isdisjoint(block) and barred.isdisjoint(row) and row.keys() <= adj[v]):
            return None
        barred.update(block)
        claims += len(row)
    if 2 * claims + core_degrees != twice:
        return None
    k = len(terms)
    p, n, eta = core_inertia
    return Inertia(k + p, k + n, size - 2 * k - len(core) + eta)


def pendant_reduction_by_pairs(f: GraphFacts) -> bool | None:
    """The ``pendant_reduction`` verdict, one check of G - u - w's derived peel terms per pendant pair."""
    if not f.pendants:
        return None
    if f._proven_core is None:
        return False
    g = f.graph
    core, core_inertia, k = f._proven_core
    core_degrees = core_degree_sum(g, core)
    peel = f._terms[:k]
    term_of = {x: t for t, (block, _, _) in enumerate(peel) for x in block}
    # the two pendants of a K2 component make one pair
    for pair in sorted({(u, w) if u < w else (w, u) for u in f.pendants for w in g.adj[u]}):
        terms = pair_peel_terms(g, peel, term_of, pair)
        sub = peel_part_inertia(g, pair, terms, core, core_inertia, core_degrees)
        # In(G) = In(G - u - w) + (1, 1, 0)
        if sub is None or (sub.p + 1, sub.n + 1, sub.eta) != f.inertia:
            return False
    return True
