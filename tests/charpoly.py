"""The characteristic-polynomial inertia route, kept as a test oracle.

It computes det(xI - A) by a Hessenberg reduction modulo a prime above
twice a Hadamard bound on its coefficients and reads the inertia off the
coefficient signs; for a real symmetric matrix all roots are real, so
Descartes' rule of signs is exact, not a bound.  It shares no code with
the package's congruence route or its certificate checker, only the
:class:`~inertia_bounds.inertia.Inertia` record, so the tests use it as a
second, independent spectral route.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from inertia_bounds import Graph, Inertia

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
