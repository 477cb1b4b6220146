"""Exact inertia of graph adjacency matrices, with a certificate and its checker.

* :func:`graph_inertia` (production) peels the graph first.  Each
  isolated vertex is one zero eigenvalue, and deleting a pendant vertex
  together with its neighbour removes exactly one positive and one
  negative eigenvalue (the pendant lemma; on trees this amounts to
  Jacobs and Trevisan's linear-time diagonalisation at zero).  Peeling
  is O(n + |E|); only the core that remains, with minimum degree 2, is
  eliminated, by symmetric congruence (:func:`_eliminate`), storing
  only the nonzero entries of each row; by Sylvester's law of inertia
  the signs of the pivots count positive and negative eigenvalues.  The
  elimination is fraction-free integer arithmetic (Bareiss 1968): every
  stored entry is an integer minor of the matrix (Sylvester's
  determinant identity), so each division is exact.  The core's
  vertices are first renumbered by ascending degree, so that low-degree
  rows are pivoted first and fill in less; a relabelling leaves the
  inertia as it is.
* Handed a list, :func:`graph_inertia` also records the congruence it
  applied, A = W^T E W, as one term per peeled pair or pivot, on the
  graph's own labels.  :func:`certificate_inertia` checks such a
  certificate exactly and reads the inertia off E, in the manner of
  certifying algorithms (McConnell, Mehlhorn, Näher and Schweitzer,
  Computer Science Review 5, 2011).  It costs about as much as summing
  the terms, far less than recomputing the inertia another way.
* :func:`graph_inertia` without ``terms`` answers each graph on at most
  ``MEMO_VERTICES`` vertices once per process, from a memo
  (:func:`.graphs._memoised`): in a sweep the small subgraphs of one row
  recur in the next.  A call with ``terms`` always eliminates, so every
  certificate is built anew.  :func:`deletion_inertias` gives In(G - v)
  for every v on G's own adjacency, without building any G - v, by one
  walk of G's peel: just before a step removes a vertex d, the walk
  branches off a copy of the peel's state with d deleted and finishes
  that peel, which is G - d's own.  Each core it ends in takes its
  inertia from a dict that the caller keeps for one graph, keyed by the
  core's vertex set, so that each distinct core of the G - v of one
  graph is eliminated once.

The lemmas ``pendant_reduction`` and ``component_additivity`` in
:mod:`.theorems` test the very rules the peeling applies, so they read
only subgraph inertias that a checked certificate proves, and no
elimination runs for them.  Once :func:`certificate_inertia` has
accepted a graph's certificate, the sub-checks below read more off it
without summing it again: :func:`_component_inertias` proves In(A[C, C])
of each component C from C's share of the terms, and
:func:`_certified_core` proves In(A[S, S]) of the core S from the terms
after the peel.  Leaf removal leaves the same core whatever the order of
removal (Bauer and Golinelli, Eur. Phys. J. B 24, 2001), so G - u - w
for a pendant pair peels to S as well: :func:`_peel_part_inertia`
checks only that peel's terms, in O(row entries), against
A(G - u - w) - A[S, S], and adds S's proven inertia.  A peel that
leaves another core fails the check.  The congruence routes and the
checker, its sub-checks included, share no code, not the pendant rule
and not the construction of the adjacency matrix; only the
:class:`Inertia` record is common, which a test checks on this module's
syntax tree.  A certificate that the checker accepts proves its inertia
whatever code produced it, so a wrong count in the congruence route
shows as a disagreement with the checker.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, compress
from typing import Callable, Iterable, NamedTuple, Sequence

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


def _peeled(pairs: int, isolated: int) -> Inertia:
    """The inertia that ``pairs`` pendant pairs and ``isolated`` isolated vertices remove."""
    dp, dn, deta = _PENDANT_PAIR
    return Inertia(pairs * dp, pairs * dn, isolated + pairs * deta)


def _peel(
    adj: Sequence[frozenset[int]],
    degree: list[int],
    alive: list[bool],
    terms: list[Term] | None = None,
    work: list[int] | None = None,
    branch: Callable[[int, list[int], Inertia], None] | None = None,
) -> Inertia:
    """Peel isolated vertices and pendant pairs off the live vertices, in place; the inertia they remove.

    ``degree`` counts each vertex's live neighbours.  A pendant u peeled
    with its neighbour v removes the 2x2 term on (u, v) with rows e_v and
    A[v, alive] and det 1, appended to ``terms`` if given; isolated
    vertices remove nothing.  What is left alive is the core, with
    minimum degree 2, and ``degree`` holds the degrees within it.

    ``work`` is the pending worklist, every live vertex of degree at
    most 1 if not given; it is consumed.  ``branch``, if given, is called
    as ``branch(d, work, peeled)`` just before a step removes the vertex
    d, with the worklist and the inertia peeled so far as they stand
    before the step; a pair step calls it for u, then for v.
    """
    if work is None:
        work = [v for v in range(len(adj)) if alive[v] and degree[v] <= 1]
    pairs = isolated = 0
    while work:
        u = work.pop()
        if not alive[u]:
            continue
        if not degree[u]:
            if branch is not None:
                branch(u, work, _peeled(pairs, isolated))
            alive[u] = False
            isolated += 1
            continue
        for v in adj[u]:  # u's one live neighbour
            if alive[v]:
                break
        if branch is not None:
            peeled = _peeled(pairs, isolated)
            branch(u, work, peeled)
            branch(v, work, peeled)
        alive[u] = alive[v] = False
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
    return _peeled(pairs, isolated)


def _peel_without(
    g: Graph, drop: Iterable[int], terms: list[Term] | None = None
) -> tuple[Inertia, list[bool], list[int]]:
    """Peel g with the vertices ``drop`` removed, in place on g's adjacency.

    Returns what :func:`_peel` returns and the live vertices and their
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


@_memoised
def graph_inertia(g: Graph, terms: list[Term] | None = None) -> Inertia:
    """Inertia of the adjacency matrix: peel pendants, then eliminate the core.

    Given ``terms``, it appends the congruence it applied, one term per
    step on g's labels, for :func:`certificate_inertia` to check.
    """
    peeled, alive, degree = _peel_without(g, (), terms)
    core = list(compress(range(g.n), alive))
    if not core:
        return peeled
    order, rows = _degree_ordered_rows(g.adj, core, degree)
    return peeled + _eliminate(rows, terms, order)


def deletion_inertias(g: Graph, cores: dict[tuple[int, ...], Inertia]) -> list[Inertia]:
    """In(G - v) for every vertex v, by one walk of g's peel; entry v equals ``graph_inertia(delete_vertices(g, (v,)))``.

    No G - v is built.  Just before a step of g's peel removes a vertex
    d, the walk copies the live vertices, their degrees and the pending
    worklist, deletes d there, queues d's neighbours that drop to degree
    at most 1, and finishes that peel with :func:`_peel`.  Each vertex of
    g's core branches the same way from the state the peel ends in.

    This is a peel of G - d.  A step of g's peel stays legal in G - d
    until it removes d: it removes an isolated vertex, or a pendant u
    with its one live neighbour, neither of them d, and deleting d only
    takes neighbours away, so u is isolated or pendant on the same
    neighbour in G - d too and the step removes the same inertia.  The
    branch peels the rest of G - d from there, and leaf removal leaves
    one core whatever the order (Bauer and Golinelli, Eur. Phys. J. B 24,
    2001), so the core that the branch ends in is G - d's.

    The core's inertia is read from ``cores``, keyed by the core's
    vertices in g's labels, and eliminated and stored there only if it
    is missing.  Equal vertex sets S give the same principal submatrix
    A[S, S], so a hit is the congruence of G - d's own core, not an
    interlacing bound.  The caller keeps ``cores`` for one graph and
    lets go of it with the graph.
    """
    adj = g.adj
    degree = list(map(len, adj))
    alive = [True] * g.n
    answers = [Inertia(0, 0, 0)] * g.n

    def branch(d: int, work: list[int], peeled: Inertia) -> None:
        live, deg, todo = alive.copy(), degree.copy(), work.copy()
        live[d] = False
        for w in adj[d]:
            if live[w]:
                deg[w] -= 1
                if deg[w] <= 1:
                    todo.append(w)
        peeled += _peel(adj, deg, live, work=todo)
        core = list(compress(range(g.n), live))
        if core:
            # the key is a tuple of a list: a tuple grown from an iterator
            # reallocates, and over many rows that fragments the heap
            key = tuple(core)
            inertia = cores.get(key)
            if inertia is None:
                inertia = cores[key] = _eliminate(_degree_ordered_rows(adj, core, deg)[1])
            peeled += inertia
        answers[d] = peeled

    peeled = _peel(adj, degree, alive, branch=branch)
    for v in compress(range(g.n), alive):
        branch(v, [], peeled)
    return answers


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
    for t, (block, rows, det) in enumerate(terms):
        if not 1 <= len(block) == len(rows) <= 2:
            fault = "its block is not one or two indices with a row each"
        elif len(set(block)) < len(block) or not used.isdisjoint(block):
            fault = "a block index is used twice"
        # the scalar: d = r[k] of a 1x1 term on k, a = r_i[j] of a 2x2 term on (i, j)
        elif not det or not (scalar := rows[0].get(block[-1], 0)):
            fault = "a scalar is zero"
        elif not all(map(used.isdisjoint, rows)):
            fault = "a row has an entry on an earlier block index"
        elif len(block) == 2 and (
            rows[1].get(block[0], 0) != scalar or rows[0].get(block[0], 0) * rows[1].get(block[1], 0) == scalar**2
        ):
            fault = "its own block is not symmetric and nonsingular"
        else:
            fault = ""
        if fault:
            return f"term {t} on {block}: {fault}"
        used.update(block)
        den = det * scalar
        if len(block) == 1:
            pairs = combinations_with_replacement(sorted(rows[0].items()), 2)
            products = [(i, j, x * y) for (i, x), (j, y) in pairs]
        else:
            # r_i r_j^T + r_j r_i^T, one product per pair of entries: a pair
            # (i, j) adds to (i, j) and (j, i), a shared column k twice to (k, k)
            ri, rj = rows
            products = [
                (i, j, x * y) if i < j else (j, i, x * y) if j < i else (i, i, 2 * x * y)
                for i, x in ri.items()
                for j, y in rj.items()
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
    return _read_inertia(terms, g.n)


def _read_inertia(terms: Sequence[Term], size: int) -> Inertia:
    """The inertia that checked ``terms`` prove for a matrix on ``size`` indices.

    A 1x1 term counts by the sign of det d, a 2x2 term once each way;
    ``size`` less the number of block indices is the nullity.
    """
    p = n = rank = 0
    for block, rows, det in terms:
        rank += len(block)
        if len(block) == 2:
            p += 1
            n += 1
        elif det * rows[0][block[0]] > 0:
            p += 1
        else:
            n += 1
    return Inertia(p, n, size - rank)


def _pendant_shaped(block: tuple[int, ...], rows: tuple[dict[int, int], ...], det: int) -> bool:
    """Is the term a pair (u, v) with det 1, rows e_v and r, r all ones, holding u but not v?

    Such a term is e_v r^T + r e_v^T: it sets the entries (v, x) and
    (x, v) to 1 for each x in r, and nothing else.
    """
    if len(block) != 2 or len(rows) != 2 or det != 1:
        return False
    u, v = block
    head, row = rows
    return (
        len(head) == 1
        and head.get(v) == 1
        and row.get(u) == 1
        and v not in row
        and list(row.values()).count(1) == len(row)
    )


def _certified_core(terms: Sequence[Term]) -> tuple[frozenset[int], Inertia]:
    """G's core S and In(A[S, S]), from a certificate that :func:`certificate_inertia` accepted for G.

    The peel terms are the longest prefix of pendant-shaped terms (see
    :func:`_pendant_shaped`), and S is every index that a later term's
    block or rows hold.  No term is summed again.  Why the later terms
    prove In(A[S, S]): the terms sum to A, and W is echelon.  A peel term
    on (u, v) sets the entries (v, x), x in its row, to 1; its block
    comes before every core term, so no core row holds u or v, and
    neither is in S.  The core terms sum to a matrix on S x S, and the
    peel terms, which add and never cancel, to one off S x S: each
    claimed (v, x) is an edge of G, claimed once, and the core terms sum
    to A[S, S], a certificate of its own.
    """
    k = 0
    while k < len(terms) and _pendant_shaped(*terms[k]):
        k += 1
    core_terms = terms[k:]
    core: set[int] = set()
    for block, rows, _ in core_terms:
        core.update(block)
        for r in rows:
            core.update(r)
    return frozenset(core), _read_inertia(core_terms, len(core))


def _component_inertias(g: Graph, terms: Sequence[Term], parts: Sequence[frozenset[int]]) -> list[Inertia] | None:
    """In(A[C, C]) for each part C of a partition of g's vertices, from a certificate accepted for g.

    Each term must lie inside one part, block and rows; None if one does
    not.  Then the terms of C sum to A[C, C], since all of them sum to A,
    and they are a certificate of their own: C's peel terms and C's
    share of the core's.
    """
    part_of = [0] * g.n
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    split: list[list[Term]] = [[] for _ in parts]
    for term in terms:
        block, rows, _ = term
        c = part_of[block[0]]
        if not (parts[c].issuperset(block) and all(map(parts[c].issuperset, rows))):
            return None
        split[c].append(term)
    return [_read_inertia(own, len(part)) for own, part in zip(split, parts)]


def _peel_part_inertia(
    g: Graph, drop: Sequence[int], terms: Sequence[Term], core: frozenset[int], core_inertia: Inertia
) -> Inertia | None:
    """In(A(G - drop)) from its peel terms and a proven core, or None if a check fails.

    ``core`` is a vertex set S of g and ``core_inertia`` the inertia
    that g's certificate proves for A[S, S] (:func:`_certified_core`).
    Only ``terms`` are checked, against A(G - drop) - A[S, S], in
    O(row entries) plus O(|E(S)|): each must be pendant-shaped, the
    certificate of ``terms`` followed by S's core terms must be echelon
    (no block index used twice, in S or in ``drop``, no row entry on an
    earlier block index or in ``drop``), every claimed (v, x) must be an
    edge of G, each vertex of S must have a neighbour in S, and the
    claims plus |E(S)| must be |E(G - drop)|.  The echelon rule claims
    no edge twice and no claim lies in S, so the claims and E(S) then
    make up E(G - drop) exactly: the terms and S's core terms sum to
    A(G - drop), and S is the core that the peel leaves.  A 2x2 term
    counts once each way, as in :func:`certificate_inertia`.
    """
    adj = g.adj
    barred = set(drop)  # no block index or row entry may fall here
    if not barred.isdisjoint(core):
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
    inner = [len(adj[v] & core) for v in core]
    if 0 in inner or 2 * claims + sum(inner) != twice:
        return None
    k = len(terms)
    p, n, eta = core_inertia
    return Inertia(k + p, k + n, size - 2 * k - len(core) + eta)
