"""Exact inertia of graph adjacency matrices, with a certificate and its checker.

* :func:`graph_inertia` (production) peels the graph first.  Each
  isolated vertex is one zero eigenvalue, and deleting a pendant vertex
  together with its neighbour removes exactly one positive and one
  negative eigenvalue (the pendant lemma; on trees this amounts to
  Jacobs and Trevisan's linear-time diagonalisation at zero).  Peeling
  is O(n + |E|); only the core that remains, with minimum degree 2, is
  eliminated.  :func:`unreduced_graph_inertia` (the unreduced kernel)
  eliminates the whole graph without peeling.  Both diagonalise the
  adjacency matrix by symmetric congruence (:func:`_eliminate`),
  storing only the nonzero entries of each row; by Sylvester's law of
  inertia the signs of the pivots count positive and negative
  eigenvalues.  The elimination is fraction-free integer arithmetic
  (Bareiss 1968): every stored entry is an integer minor of the matrix
  (Sylvester's determinant identity), so each division is exact.  Both
  first renumber the vertices by ascending degree, so that low-degree
  rows are pivoted first and fill in less; a relabelling leaves the
  inertia as it is.
* Handed a list, :func:`graph_inertia` also records the congruence it
  applied, A = W^T E W, as one term per peeled pair or pivot, on the
  graph's own labels.  :func:`certificate_inertia` checks such a
  certificate exactly and reads the inertia off E, in the manner of
  certifying algorithms (McConnell, Mehlhorn, Näher and Schweitzer,
  Computer Science Review 5, 2011).  It costs about as much as summing
  the terms, far less than recomputing the inertia another way.
* :func:`graph_inertia` without ``terms`` and :func:`unreduced_graph_inertia`
  answer each graph on at most ``MEMO_VERTICES`` vertices once per
  process, from a memo (:func:`.graphs._memoised`): in a sweep the
  small subgraphs of one row recur in the next.  A call with ``terms``
  always eliminates, so every certificate is built anew.
  :func:`deletion_inertia` gives In(G - v) on G's own adjacency, without
  building G - v: it peels G with v removed, as :func:`graph_inertia`
  peels G - v, and takes the core's inertia from a dict that the caller
  keeps for one graph, keyed by the core's vertex set, so that each
  distinct core of the G - v of one graph is eliminated once.

The lemmas ``pendant_reduction`` and ``component_additivity`` in
:mod:`.theorems` test the very rules the peeling applies, so they take
their subgraph inertias from :func:`unreduced_graph_inertia`; with the
peeled route they would check the peeling against itself.  The
congruence routes and the checker share no code, not the pendant rule
and not the construction of the adjacency matrix; only the
:class:`Inertia` record is common, which a test checks on this module's
syntax tree.  A certificate that the checker accepts proves its inertia
whatever code produced it, so a wrong count in the congruence route
shows as a disagreement with the checker.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Sequence

from .graphs import Graph, _memoised


class Inertia(NamedTuple):
    """Counts of positive, negative, and zero adjacency eigenvalues."""

    p: int
    n: int
    eta: int

    def __add__(self, other):  # type: ignore[override]
        if not isinstance(other, tuple) or len(other) != 3:
            return NotImplemented
        return Inertia(self.p + other[0], self.n + other[1], self.eta + other[2])


# ---------------------------------------------------------------------------
# congruence route

# Sparse symmetric integer matrix: row i maps column j to the nonzero entry (i, j).
Rows = list[dict[int, int]]
# One step of a congruence: its block (one or two indices), one sparse row
# per block index, and the scalar det (see certificate_inertia).
Term = tuple[tuple[int, ...], tuple[dict[int, int], ...], int]


def _eliminate(rows: Rows, terms: list[Term] | None = None, labels: Sequence[int] = ()) -> Inertia:
    """Inertia of a symmetric sparse integer matrix; consumes ``rows``.

    Pivot policy (deterministic): take the first nonzero diagonal entry in
    index order; if the remaining diagonal is entirely zero, take the
    lexicographically smallest nonzero off-diagonal pair {i, j} and apply
    a 2x2 block pivot.  The block [[0, a], [a, 0]] has eigenvalues +-a and
    contributes exactly one positive and one negative count.  Whatever
    remains when no pivot exists is the null space.

    Fraction-free (Bareiss 1968).  ``det`` is the leading minor
    det(A[P, P]) of the eliminated index set P, and row i holds
    ``stamp[i] * S[i, j]``, where S = A/P is the Schur complement and
    ``stamp[i]`` the value of ``det`` when row i was last updated.  By
    Sylvester's identity det * S[i, j] is a minor of A for every det
    that P has reached, so converting an entry from its stamp to det,
    and each division below, is exact.  Nonzero scaling keeps the zero
    pattern, so the pivot sequence is the one described above.

    A pivot rebuilds only the rows it touches, those with an entry in a
    block column, each in one pass over its entries: on a touched column
    the entry is brought from its stamp to det and updated, elsewhere it
    is rescaled from its stamp to the new det, and the entries that fill
    in are added.  A row reads only the block rows and itself, so the
    rows may be rebuilt in any order.  Other rows keep their stamp until
    a later pivot touches them.  A 2x2 pivot whose block row i or j has
    no entry outside the block changes no entry of S: each update term
    pairs an entry of row i with one of row j, so it is zero.  Such a
    pivot only drops the block columns and moves det; every row keeps
    its stamp and stays exact by the identity above.

    The pivot search does not rescan the rows: ``diag`` holds the live
    rows with a nonzero diagonal, updated on the rows a pivot touches,
    and ``first`` only moves forward, because a row that is eliminated
    or all zero never gets an entry again (an empty row is in no other
    row either, by symmetry, so no pivot touches it).

    Given ``terms``, each pivot appends the term it removes, with index i
    written as ``labels[i]``: its block, the block's rows det * S[b, :]
    as they stand before the pivot, and det.  A 1x1 pivot d = S[k, k]
    det removes r r^T / (det d); a 2x2 pivot a = S[i, j] det removes
    (r_i r_j^T + r_j r_i^T) / (det a).
    """
    size = len(rows)
    stamp = [1] * size
    live = [True] * size
    diag = {i for i in range(size) if i in rows[i]}
    first = 0
    det = 1
    p = n = 0
    while True:
        if diag:
            pivot = min(diag)
            block = (pivot,)
        else:
            pivot = None
            # no diagonal left: the smallest row with an entry holds the
            # lexicographically smallest nonzero pair, at its smallest column
            while first < size and not (live[first] and rows[first]):
                first += 1
            if first == size:
                break
            bi = first
            block = (bi, min(rows[bi]))
        for b in block:
            if stamp[b] != det:
                s, rb = stamp[b], rows[b]
                for j, x in rb.items():
                    rb[j] = x * det // s
            live[b] = False
            diag.discard(b)
        if pivot is not None:
            prow = rows[pivot]
            if terms is not None:
                terms.append(((labels[pivot],), ({labels[j]: x for j, x in prow.items()},), det))
            d = prow.pop(pivot)
            if (d > 0) == (det > 0):  # S[pivot, pivot] = d / det
                p += 1
            else:
                n += 1
            # (i, j) <- (d (i, j) - (i, pivot) (pivot, j)) / det
            for i, ci in prow.items():
                ri = rows[i]
                del ri[pivot]
                s = stamp[i]
                new = {}
                for j, x in ri.items():
                    cj = prow.get(j)
                    if cj is None:
                        new[j] = x * d // s
                    else:
                        if s != det:
                            x = x * det // s
                        w = (d * x - ci * cj) // det
                        if w:
                            new[j] = w
                for j, cj in prow.items():
                    if j not in ri:
                        new[j] = -ci * cj // det
                rows[i] = new
                stamp[i] = d
                if i in new:
                    diag.add(i)
                else:
                    diag.discard(i)
            det = d
            continue
        bj = block[1]
        row_i, row_j = rows[bi], rows[bj]
        if terms is not None:
            terms.append((
                (labels[bi], labels[bj]),
                ({labels[j]: x for j, x in row_i.items()}, {labels[j]: x for j, x in row_j.items()}),
                det,
            ))
        a = row_i.pop(bj)
        del row_j[bi]
        p += 1
        n += 1
        new_det = -a * a // det
        if not row_i or not row_j:
            # no change to S: drop the block column from the touched rows
            for k in row_i:
                del rows[k][bi]
            for k in row_j:
                del rows[k][bj]
            det = new_det
            continue
        # (i, j) <- a ((i, bi) (bj, j) + (i, bj) (bi, j) - a (i, j)) / det^2
        sq = det * det
        touched = row_i.keys() | row_j.keys()
        for i in touched:
            ui, vi = row_i.get(i, 0), row_j.get(i, 0)
            ri = rows[i]
            ri.pop(bi, None)
            ri.pop(bj, None)
            s = stamp[i]
            new = {}
            for j, x in ri.items():
                if j in touched:
                    if s != det:
                        x = x * det // s
                    w = a * (ui * row_j.get(j, 0) + vi * row_i.get(j, 0) - a * x) // sq
                    if w:
                        new[j] = w
                else:
                    new[j] = x * new_det // s
            for j in touched:
                if j not in ri:
                    t = ui * row_j.get(j, 0) + vi * row_i.get(j, 0)
                    if t:
                        new[j] = a * t // sq
            rows[i] = new
            stamp[i] = new_det
            if i in new:
                diag.add(i)
            else:
                diag.discard(i)
        det = new_det
    return Inertia(p, n, live.count(True))


# Deleting a pendant vertex and its neighbour removes one positive and one
# negative eigenvalue (the pendant lemma).
_PENDANT_PAIR = Inertia(1, 1, 0)


def _degree_ordered_rows(
    adj: Sequence[frozenset[int]], vertices: Sequence[int], degree: Sequence[int]
) -> tuple[list[int], Rows]:
    """``vertices`` by ascending ``degree``, ties by index, and their unit rows so renumbered.

    Low-degree rows come first, so the pivots :func:`_eliminate` takes
    in index order fill in less.  Entries to vertices outside
    ``vertices`` are dropped.
    """
    order = sorted(vertices, key=degree.__getitem__)
    index = {v: i for i, v in enumerate(order)}
    return order, [{index[w]: 1 for w in adj[v] if w in index} for v in order]


def _peel(
    adj: Sequence[frozenset[int]], degree: list[int], alive: list[bool], terms: list[Term] | None = None
) -> Inertia:
    """Peel isolated vertices and pendant pairs off the live vertices, in place; the inertia they remove.

    ``degree`` counts each vertex's live neighbours.  A pendant u peeled
    with its neighbour v removes the 2x2 term on (u, v) with rows e_v and
    A[v, alive] and det 1, appended to ``terms`` if given; isolated
    vertices remove nothing.  What is left alive is the core, with
    minimum degree 2, and ``degree`` holds the degrees within it.
    """
    work = [v for v in range(len(adj)) if alive[v] and degree[v] <= 1]
    pairs = isolated = 0
    while work:
        u = work.pop()
        if not alive[u]:
            continue
        alive[u] = False
        if not degree[u]:
            isolated += 1
            continue
        for v in adj[u]:  # u's one live neighbour
            if alive[v]:
                break
        alive[v] = False
        pairs += 1
        for w in adj[v]:
            if alive[w]:
                degree[w] -= 1
                if degree[w] <= 1:
                    work.append(w)
        if terms is not None:
            row = {w: 1 for w in adj[v] if alive[w]}
            row[u] = 1
            terms.append(((u, v), ({v: 1}, row), 1))
    dp, dn, deta = _PENDANT_PAIR
    return Inertia(pairs * dp, pairs * dn, isolated + pairs * deta)


@_memoised
def graph_inertia(g: Graph, terms: list[Term] | None = None) -> Inertia:
    """Inertia of the adjacency matrix: peel pendants, then eliminate the core.

    Given ``terms``, it appends the congruence it applied, one term per
    step on g's labels, for :func:`certificate_inertia` to check.
    """
    adj = g.adj
    degree = list(map(len, adj))  # neighbours still alive
    alive = [True] * g.n
    peeled = _peel(adj, degree, alive, terms)
    core = list(compress(range(g.n), alive))
    if not core:
        return peeled
    order, rows = _degree_ordered_rows(adj, core, degree)
    return peeled + _eliminate(rows, terms, order)


def deletion_inertia(g: Graph, v: int, cores: dict[tuple[int, ...], Inertia]) -> Inertia:
    """In(G - v) on g's own adjacency, equal to ``graph_inertia(delete_vertices(g, (v,)))``.

    v is removed in place and the rest peeled as :func:`graph_inertia`
    peels G - v.  The core's inertia is read from ``cores``, keyed by the
    core's vertices in g's labels, and eliminated and stored there only
    if it is missing.  Equal vertex sets S give the same principal
    submatrix A[S, S], so a hit is the congruence of A - v's own core,
    not an interlacing bound.  The caller keeps ``cores`` for one graph
    and lets go of it with the graph.  ``v`` is not checked here.
    """
    adj = g.adj
    degree = list(map(len, adj))
    alive = [True] * g.n
    alive[v] = False
    for w in adj[v]:
        degree[w] -= 1
    peeled = _peel(adj, degree, alive)
    core = list(compress(range(g.n), alive))
    if not core:
        return peeled
    # the key is a tuple of a list: a tuple grown from an iterator
    # reallocates, and over many rows that fragments the heap
    key = tuple(core)
    inertia = cores.get(key)
    if inertia is None:
        inertia = cores[key] = _eliminate(_degree_ordered_rows(adj, core, degree)[1])
    return peeled + inertia


@_memoised
def unreduced_graph_inertia(g: Graph) -> Inertia:
    """Inertia of the adjacency matrix by elimination alone, without peeling."""
    return _eliminate(_degree_ordered_rows(g.adj, range(g.n), list(map(len, g.adj)))[1])


# ---------------------------------------------------------------------------
# certificate checker


def certificate_inertia(g: Graph, terms: Sequence[Term]) -> Inertia | str:
    """The inertia that ``terms`` prove for g's adjacency matrix A, or the first condition they fail.

    A term is (block, rows, det): one or two block indices, one sparse
    row (column -> int) per index, and a scalar det.  A 1x1 term on k
    stands for r r^T / (det d) with d = r[k]; a 2x2 term on (i, j) for
    (r_i r_j^T + r_j r_i^T) / (det a) with a = r_i[j].  The checks:

    * each block has one or two indices with a row each, no block index
      is used twice, and every scalar (det, and d or a) is nonzero;
    * each row has no entry on an earlier term's block index;
    * each 2x2 block's own matrix [[r_i[i], r_i[j]], [r_j[i], r_j[j]]]
      is symmetric with a nonzero minor (a 1x1 block's is d);
    * the terms sum to A exactly.

    Stack the rows as W.  The middle two make W echelon with nonsingular
    diagonal blocks, so W has full row rank K, and the last gives
    A = W^T E W with E block diagonal: 1 / (det d) per 1x1 term and
    [[0, 1], [1, 0]] / (det a) per 2x2 term.  By Sylvester's law
    In(A) = In(E) + (0, 0, n - K): a 1x1 term counts by the sign of
    det d, a 2x2 term once each way.  The sums keep one unreduced
    numerator/denominator pair of ints per entry.  Symmetry pins the
    scale of a 2x2 term's rows, which its sum alone would not: scaling
    r_i leaves (r_i r_j^T + r_j r_i^T) / (det a) as it is.
    """
    used: set[int] = set()
    total: dict[tuple[int, int], list[int]] = {}  # (i, j), i <= j -> [num, den]
    p = n = size = 0
    for t, (block, rows, det) in enumerate(terms):
        own = [[r.get(b, 0) for b in block] for r in rows]
        if not 1 <= len(block) == len(rows) <= 2:
            fault = "its block is not one or two indices with a row each"
        elif len(set(block)) < len(block) or not used.isdisjoint(block):
            fault = "a block index is used twice"
        elif not det or not own[0][-1]:
            fault = "a scalar is zero"
        elif not all(used.isdisjoint(r) for r in rows):
            fault = "a row has an entry on an earlier block index"
        elif len(block) == 2 and (own[0][1] != own[1][0] or own[0][0] * own[1][1] == own[0][1] ** 2):
            fault = "its own block is not symmetric and nonsingular"
        else:
            fault = ""
        if fault:
            return f"term {t} on {block}: {fault}"
        used.update(block)
        size += len(block)
        den = det * own[0][-1]
        if len(block) == 1:
            if den > 0:
                p += 1
            else:
                n += 1
            entries = sorted(rows[0].items())
            products = [(i, j, x * y) for k, (i, x) in enumerate(entries) for j, y in entries[k:]]
        else:
            p += 1
            n += 1
            ri, rj = rows
            keys = sorted(ri.keys() | rj.keys())
            products = [
                (i, j, ri.get(i, 0) * rj.get(j, 0) + rj.get(i, 0) * ri.get(j, 0))
                for k, i in enumerate(keys)
                for j in keys[k:]
            ]
        for i, j, x in products:
            if not x:
                continue
            entry = total.get((i, j))
            if entry is None or not entry[0]:
                total[i, j] = [x, den]
            elif entry[1] == den:
                entry[0] += x
            else:
                entry[0] = entry[0] * den + x * entry[1]
                entry[1] *= den
    edges = g.edges
    if not edges <= total.keys() or any(num != ((i, j) in edges) * den for (i, j), (num, den) in total.items()):
        return "the terms do not sum to A"
    return Inertia(p, n, g.n - size)


