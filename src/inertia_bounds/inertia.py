"""Exact inertia of graph adjacency matrices.

Two routes, kept deliberately separate:

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
* :func:`graph_inertia_oracle` computes the integer characteristic
  polynomial by a Hessenberg reduction modulo a prime above twice a
  Hadamard bound on its coefficients, and reads the inertia off the
  coefficient signs; for a real symmetric matrix all roots are real, so
  Descartes' rule of signs is exact, not a bound.  The reduction touches
  only nonzero entries, so it costs O(k^3) only when the reduced matrix
  fills; a sparse graph whose reduction stays sparse costs far less.

The lemmas ``pendant_reduction`` and ``component_additivity`` in
:mod:`.theorems` test the very rules the peeling applies, so they take
their subgraph inertias from :func:`unreduced_graph_inertia`; with the
peeled route they would check the peeling against itself.  The
congruence routes and the char-poly route share no code, not even the
construction of the adjacency matrix; only the :class:`Inertia` record
they return is common, which a test checks on this module's syntax
tree.  Their agreement is a correctness check used throughout the test
suite.
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from typing import NamedTuple, Sequence

from .graphs import Graph


class Inertia(NamedTuple):
    """Counts of positive, negative, and zero adjacency eigenvalues."""

    p: int
    n: int
    eta: int

    def __add__(self, other):  # type: ignore[override]
        if not isinstance(other, tuple) or len(other) != 3:
            return NotImplemented
        return Inertia(self.p + other[0], self.n + other[1], self.eta + other[2])

    @property
    def rank(self) -> int:
        return self.p + self.n


# ---------------------------------------------------------------------------
# congruence route

# Sparse symmetric integer matrix: row i maps column j to the nonzero entry (i, j).
Rows = list[dict[int, int]]


def _eliminate(rows: Rows) -> Inertia:
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
    Sylvester's identity every such value is a minor of A, so each
    division below is exact.  A pivot updates only the rows it touches,
    bringing them from their stamp to the new ``det``; the others keep
    their stamp until a later pivot touches them.  Nonzero scaling keeps
    the zero pattern, so the pivot sequence is the one described above.

    The pivot search does not rescan the rows: ``diag`` holds the live
    rows with a nonzero diagonal, updated on the rows a pivot touches,
    and ``first`` only moves forward, because a row that is eliminated
    or all zero never gets an entry again (an empty row is in no other
    row either, by symmetry, so no pivot touches it).
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
        if pivot is not None:
            prow = rows[pivot]
            d = prow.pop(pivot)
            if (d > 0) == (det > 0):  # S[pivot, pivot] = d / det
                p += 1
            else:
                n += 1
            new_det = d
            touched = sorted(prow)
        else:
            bj = block[1]
            row_i, row_j = rows[bi], rows[bj]
            a = row_i.pop(bj)
            del row_j[bi]
            p += 1
            n += 1
            new_det = -a * a // det
            touched = sorted(row_i.keys() | row_j.keys())
        # bring every touched row to det on the touched columns, where the
        # update below reads it, and to new_det on all others
        cols = set(touched)
        for i in touched:
            ri = rows[i]
            for b in block:
                ri.pop(b, None)
            s = stamp[i]
            if s != det or new_det != det:
                for j, x in ri.items():
                    ri[j] = x * (det if j in cols else new_det) // s
            stamp[i] = new_det
        if pivot is not None:
            # (i, j) <- (d (i, j) - (i, pivot) (pivot, j)) / det
            col = [(i, prow[i]) for i in touched]
            for k, (i, ci) in enumerate(col):
                ri = rows[i]
                for j, cj in col[k:]:
                    w = (d * ri.get(j, 0) - ci * cj) // det
                    if w:
                        ri[j] = rows[j][i] = w
                    else:
                        ri.pop(j, None)
                        rows[j].pop(i, None)
        else:
            # (i, j) <- a ((i, bi) (bj, j) + (i, bj) (bi, j) - a (i, j)) / det^2
            sq = det * det
            col = [(i, row_i.get(i, 0), row_j.get(i, 0)) for i in touched]
            for k, (i, ui, vi) in enumerate(col):
                ri = rows[i]
                for j, uj, vj in col[k:]:
                    x = ri.get(j, 0)
                    t = ui * vj + vi * uj
                    if x or t:
                        w = a * (t - a * x) // sq
                        if w:
                            ri[j] = rows[j][i] = w
                        else:
                            ri.pop(j, None)
                            rows[j].pop(i, None)
        for i in touched:
            if i in rows[i]:
                diag.add(i)
            else:
                diag.discard(i)
        for b in block:
            live[b] = False
            diag.discard(b)
        det = new_det
    return Inertia(p, n, live.count(True))


# Deleting a pendant vertex and its neighbour removes one positive and one
# negative eigenvalue (the pendant lemma).
_PENDANT_PAIR = Inertia(1, 1, 0)


def _degree_ordered_rows(adj: Sequence[frozenset[int]], vertices: Sequence[int], degree: Sequence[int]) -> Rows:
    """Unit rows of ``vertices`` renumbered by ascending ``degree``, ties by index.

    Low-degree rows come first, so the pivots :func:`_eliminate` takes
    in index order fill in less.  Entries to vertices outside
    ``vertices`` are dropped.
    """
    order = sorted(vertices, key=degree.__getitem__)
    index = {v: i for i, v in enumerate(order)}
    return [{index[w]: 1 for w in adj[v] if w in index} for v in order]


def graph_inertia(g: Graph) -> Inertia:
    """Inertia of the adjacency matrix: peel pendants, then eliminate the core."""
    adj = g.adj
    degree = list(map(len, adj))  # neighbours still alive
    alive = [True] * g.n
    work = [v for v in range(g.n) if degree[v] <= 1]
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
    dp, dn, deta = _PENDANT_PAIR
    peeled = Inertia(pairs * dp, pairs * dn, isolated + pairs * deta)
    core = list(compress(range(g.n), alive))
    if not core:
        return peeled
    return peeled + _eliminate(_degree_ordered_rows(adj, core, degree))


def unreduced_graph_inertia(g: Graph) -> Inertia:
    """Inertia of the adjacency matrix by elimination alone, without peeling."""
    return _eliminate(_degree_ordered_rows(g.adj, range(g.n), list(map(len, g.adj))))


# ---------------------------------------------------------------------------
# characteristic-polynomial route

IntPolynomial = list[int]  # coefficients, lowest degree first


def _modulus(a: list[list[int]]) -> int:
    """A proven prime P with P > 2B, sized to the bit length of 2B.

    B = prod_i (1 + ceil(||row_i||_2)).  The coefficient of x^(k-j) in
    det(xI - A) is a signed sum of the j x j principal minors, each at
    most the product of its rows' norms (Hadamard), so its magnitude is
    at most the j-th elementary symmetric function of the row norms,
    which B bounds.  Residues modulo P then lift to the coefficients.
    """
    bound = 1
    for row in a:
        sq = sum(x * x for x in row)
        norm = math.isqrt(sq)
        if norm * norm < sq:
            norm += 1
        bound *= 1 + norm
    return _proth_prime((2 * bound).bit_length())


@functools.cache
def _proth_prime(bits: int) -> int:
    """A prime N = k 2^e + 1 > 2^bits, k odd, k < 2^e, e = bits // 2 + 1.

    Proth (1878): such an N is prime iff some a has a^((N-1)/2) = -1
    (mod N); any residue but +-1 proves N composite.
    """
    e = bits // 2 + 1
    for k in range((1 << bits >> e) | 1, 1 << e, 2):
        n = k << e | 1
        for a in (3, 5, 7, 11, 13):
            r = pow(a, n >> 1, n)
            if r == n - 1:
                return n
            if r != 1:
                break
    raise AssertionError(f"no Proth prime found above 2^{bits}")


def _hessenberg_mod(a: list[list[int]], prime: int) -> list[list[int]]:
    """Upper Hessenberg H similar to A modulo ``prime`` (Cohen, Alg. 2.2.9).

    Each step touches only nonzero entries: the rows below m with a
    nonzero in the pivot column, the nonzero entries of row m, and the
    nonzero products of the column update.  Skipping a zero term leaves
    every residue as it was, so H is the same as with dense loops; the
    cost follows the fill of the reduction, k^3 only when H fills.
    """
    k = len(a)
    h = [[x % prime for x in row] for row in a]
    for m in range(1, k - 1):
        col = m - 1
        piv = next((i for i in range(m, k) if h[i][col]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        hm = h[m]
        inv = pow(hm[col], -1, prime)
        us = [(r, h[r][col] * inv % prime) for r in range(m + 1, k) if h[r][col]]
        if not us:
            continue
        # H <- L H L^-1 with L = I - sum_r u_r e_r e_m^T: row r -= u_r * row m
        # (columns left of col are zero in both), then column m += sum_r
        # u_r * column r
        support = [(j, y) for j in range(col, k) if (y := hm[j])]
        for r, u in us:
            hr = h[r]
            for j, y in support:
                hr[j] = (hr[j] - u * y) % prime
        for row in h:
            s = 0
            for r, u in us:
                x = row[r]
                if x:
                    s += u * x
            if s:
                row[m] = (row[m] + s) % prime
    return h


def _char_poly_mod(a: list[list[int]], prime: int) -> IntPolynomial:
    """det(xI - A) modulo ``prime``, lowest degree first (Cohen, Alg. 2.2.9).

    The recurrence p_m = (x - h_mm) p_{m-1} - sum_i h_im (h_{i+1,i} ...
    h_{m,m-1}) p_{i-1} over the leading principal blocks of the Hessenberg
    form H of A.
    """
    k = len(a)
    h = _hessenberg_mod(a, prime)
    polys: list[IntPolynomial] = [[1]]
    for m in range(1, k + 1):
        prev = polys[-1]
        diag = h[m - 1][m - 1]
        cur = [x - diag * y for x, y in zip([0] + prev, prev + [0])]
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % prime
            if not t:
                break
            c = t * h[m - i - 1][m - 1]
            if c:
                q = polys[m - i - 1]
                cur[: len(q)] = [x - c * y for x, y in zip(cur, q)]
        polys.append([x % prime for x in cur])
    return polys[k]


def _lifted_char_poly(a: list[list[int]]) -> IntPolynomial:
    if not a:
        return [1]
    prime = _modulus(a)
    half = prime // 2
    return [c - prime if c > half else c for c in _char_poly_mod(a, prime)]


def _sign_changes(coeffs: Sequence[int]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _descartes_inertia(coeffs: IntPolynomial) -> Inertia:
    eta = 0
    while eta < len(coeffs) and coeffs[eta] == 0:
        eta += 1
    q = coeffs[eta:]
    p = _sign_changes(q)
    n = _sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(q)])
    return Inertia(p, n, eta)


def _integer_adjacency(g: Graph) -> list[list[int]]:
    a = [[0] * g.n for _ in range(g.n)]
    for row, nbrs in zip(a, g.adj):
        for v in nbrs:
            row[v] = 1
    return a


def graph_inertia_oracle(g: Graph) -> Inertia:
    """Inertia of the adjacency matrix (characteristic-polynomial route).

    det(xI - A) comes from a Hessenberg reduction modulo a Proth-certified
    prime P > 2B, where B bounds every coefficient (see :func:`_modulus`),
    and the symmetric lift of each residue into (-P/2, P/2).  Strip x^eta
    (eta = multiplicity of the zero eigenvalue), then count sign changes
    of q(x) for the positive eigenvalues and of q(-x) for the negative
    ones.  Descartes' rule is exact here because the symmetric matrix A
    has only real eigenvalues.
    """
    return _descartes_inertia(_lifted_char_poly(_integer_adjacency(g)))


def graph_char_poly(g: Graph) -> IntPolynomial:
    """Coefficients of det(xI - A), lowest degree first, exact integers."""
    return _lifted_char_poly(_integer_adjacency(g))
