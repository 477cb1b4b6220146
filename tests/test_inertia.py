"""Exact inertia of graphs: the peeled congruence route, the certificate
checker, and the char-poly oracle of ``charpoly.py``.

The congruence routes and the certificate checker share no code (checked
below on the module's syntax tree), and the characteristic-polynomial
route lives in the test suite, so their agreement on random and
exhaustive corpora is the core correctness argument for all of them.
The checker must also reject mutated certificates.  The kernels under
the routes, the fraction-free elimination and the lifted characteristic
polynomial, are also tested directly on integer matrices that are not
adjacency matrices.
"""

import ast
import random

import pytest

from inertia_bounds import (
    GeneratorParams,
    Graph,
    GraphFacts,
    Inertia,
    components,
    cycle_graph,
    analyze_graph,
    certificate_inertia,
    delete_vertices,
    generate_extremal,
    graph_inertia,
    matching_number,
    path_graph,
    star_graph,
)
from inertia_bounds.corpus import enumerate_labeled, sample_random
import inertia_bounds.inertia as inertia_mod
from inertia_bounds.graphs import _INTERNED, _MEMOS, MEMO_VERTICES, _memo_key
from inertia_bounds.inertia import _component_inertias, _eliminate, _peel_part_inertia, _peel_without
from charpoly import (
    _descartes_inertia,
    _hessenberg_mod,
    _lifted_char_poly,
    _modulus,
    _proth_prime,
    graph_char_poly,
    graph_inertia_oracle,
)
from conftest import all_trees, complete_graph, cycle_with_tail, disjoint_union, random_tree
from matching_oracle import matching_bruteforce


def kernel_inertia(m: list[list[int]]) -> Inertia:
    """In(m) by the congruence kernel, pivoting in the index order of ``m``.

    The rows are built afresh on every call because ``_eliminate``
    consumes them.
    """
    return _eliminate([{j: x for j, x in enumerate(r) if x} for r in m])


def oracle_inertia(m: list[list[int]]) -> Inertia:
    """In(m) by Descartes' rule on the lifted characteristic polynomial."""
    return _descartes_inertia(_lifted_char_poly(m))


def expected_cycle_inertia(q: int) -> Inertia:
    # the four residue cases for a bare cycle
    if q % 4 == 0:
        return Inertia(q // 2 - 1, q // 2 - 1, 2)
    if q % 4 == 1:
        return Inertia((q + 1) // 2, (q - 1) // 2, 0)
    if q % 4 == 2:
        return Inertia(q // 2, q // 2, 0)
    return Inertia((q - 1) // 2, (q + 1) // 2, 0)


def test_inertia_tuple_arithmetic():
    a = Inertia(2, 1, 0)
    b = Inertia(1, 1, 3)
    assert a + b == Inertia(3, 2, 3)


@pytest.mark.parametrize("q", range(3, 13))
def test_cycle_inertia_table(q):
    got = graph_inertia(cycle_graph(q))
    assert got == expected_cycle_inertia(q)
    assert graph_inertia_oracle(cycle_graph(q)) == got


@pytest.mark.parametrize("n", range(1, 9))
def test_path_inertia(n):
    # paths: half the eigenvalues positive, half negative, middle zero if odd
    assert graph_inertia(path_graph(n)) == Inertia(n // 2, n // 2, n % 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_graph_inertia(n):
    assert graph_inertia(complete_graph(n)) == Inertia(1, n - 1, 0)


def test_star_and_empty_inertia():
    assert graph_inertia(star_graph(5)) == Inertia(1, 1, 4)
    assert graph_inertia(Graph(6)) == Inertia(0, 0, 6)
    assert graph_inertia(Graph(0)) == Inertia(0, 0, 0)


def test_inertia_is_additive_over_components():
    g = disjoint_union(cycle_graph(5), path_graph(4))
    assert graph_inertia(g) == graph_inertia(cycle_graph(5)) + graph_inertia(
        path_graph(4)
    )


def test_char_poly_frozen_values():
    # coefficients are listed from the constant term up
    assert graph_char_poly(cycle_graph(3)) == [-2, -3, 0, 1]
    assert graph_char_poly(path_graph(2)) == [-1, 0, 1]
    assert graph_char_poly(Graph(3)) == [0, 0, 0, 1]
    assert graph_char_poly(Graph(0)) == [1]
    # triangle with one pendant vertex
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert graph_char_poly(g) == [1, -2, -4, 0, 1]


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        mat = sympy.Matrix(n, n, lambda i, j: 1 if j in g.adj[i] else 0)
        lam = sympy.symbols("lam")
        want = sympy.Poly(mat.charpoly(lam), lam).all_coeffs()[::-1]
        assert graph_char_poly(g) == [int(x) for x in want]


def test_congruence_accepts_general_symmetric_input():
    # not an adjacency matrix: nonzero diagonal and negative entries
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert kernel_inertia(m) == Inertia(3, 0, 0)  # positive definite
    assert kernel_inertia([[0, 0], [0, 0]]) == Inertia(0, 0, 2)


def test_inertia_sums_to_vertex_count():
    for item in sample_random(n=9, edge_probability=0.5, count=60, seed=5):
        ine = graph_inertia(item.graph)
        assert ine.p + ine.n + ine.eta == item.graph.n


# ---------------------------------------------------------------------------
# the routes against each other


def all_routes(g: Graph) -> Inertia:
    """Peeled, certified and oracle inertia of ``g``; fails unless they agree."""
    terms = []
    peeled = graph_inertia(g, terms)
    assert graph_inertia(g) == peeled
    assert certificate_inertia(g, terms) == peeled
    assert graph_inertia_oracle(g) == peeled
    return peeled


def test_three_routes_agree_exhaustively_n_le_5():
    for n in range(6):
        for item in enumerate_labeled(n):
            all_routes(item.graph)


@pytest.mark.parametrize("n,p,seed", [(10, 0.35, 41), (12, 0.2, 4), (12, 0.5, 5)])
def test_three_routes_agree_on_random_graphs(n, p, seed):
    for item in sample_random(n=n, edge_probability=p, count=150, seed=seed):
        all_routes(item.graph)


def test_trees_and_forests_have_inertia_m_m():
    # a forest's nullity is n - 2m, and p = n = m
    for t in all_trees(9):
        m = matching_number(t)
        assert all_routes(t) == Inertia(m, m, t.n - 2 * m)
    rng = random.Random(8)
    for _ in range(20):
        f = disjoint_union(random_tree(rng.randint(1, 12), rng), random_tree(rng.randint(1, 12), rng))
        m = matching_number(f)
        assert all_routes(f) == Inertia(m, m, f.n - 2 * m)
    assert all_routes(Graph(0)) == Inertia(0, 0, 0)
    assert all_routes(Graph(5)) == Inertia(0, 0, 5)


def test_bare_disjoint_cycles_go_to_the_kernel_whole():
    lengths = (3, 4, 5, 6, 7, 8, 12)
    g = disjoint_union(*(cycle_graph(q) for q in lengths))
    want = Inertia(0, 0, 0)
    for q in lengths:
        want = want + expected_cycle_inertia(q)
    assert all_routes(g) == want


@pytest.mark.parametrize("residue", [0, 1, 3])
def test_generator_outputs_with_isolated_seeds(residue):
    for seed in range(6):
        params = GeneratorParams(residue, 1 + seed % 3, 2, 4 + seed, seed)
        all_routes(generate_extremal(params))


@pytest.mark.parametrize("q", range(3, 9))
@pytest.mark.parametrize("tail", range(1, 6))
def test_pendant_chain_cascades_into_the_cycle(q, tail):
    # peeling the tail from its end reaches the cycle; an odd tail takes a
    # cycle vertex with its last pair, opening the cycle into a path
    g = cycle_with_tail(q, tail)
    got = all_routes(g)
    if tail % 2 == 0:
        assert got == expected_cycle_inertia(q) + (tail // 2, tail // 2, 0)


def test_congruence_agrees_with_oracle_on_general_symmetric_matrices():
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(1, 7)
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                m[i][j] = m[j][i] = rng.choice((-2, -1, 0, 0, 0, 1, 3))
        assert kernel_inertia(m) == oracle_inertia(m)


# ---------------------------------------------------------------------------
# the lifted characteristic polynomial on non-symmetric integer matrices
# and near the modulus bound


def sympy_char_poly(sympy, m):
    lam = sympy.symbols("lam")
    poly = sympy.Poly(sympy.Matrix(m).charpoly(lam), lam)
    return [int(x) for x in poly.all_coeffs()[::-1]]


def test_char_poly_matches_sympy_on_non_symmetric_matrices_with_negative_entries():
    # det(xI - M) needs no symmetry, only sign counting does
    assert _lifted_char_poly([[0, 1], [0, 0]]) == [0, 0, 1]
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        assert _lifted_char_poly(m) == sympy_char_poly(sympy, m)


def sparse_integer_matrix(rng: random.Random, k: int, density: float) -> list[list[int]]:
    """Non-symmetric, entries in -9..9 with about ``density`` of them nonzero."""
    return [
        [rng.choice((-9, -4, -2, -1, 1, 2, 3, 7)) if rng.random() < density else 0 for _ in range(k)]
        for _ in range(k)
    ]


@pytest.mark.parametrize("density", [0.1, 0.2, 0.3])
def test_char_poly_matches_sympy_on_sparse_non_symmetric_matrices(density):
    # the reduction skips zero multipliers, zero entries of the pivot row and
    # zero products of the column update; sparse input exercises all three
    sympy = pytest.importorskip("sympy")
    rng = random.Random(int(density * 100))
    for _ in range(25):
        m = sparse_integer_matrix(rng, rng.randint(3, 11), density)
        assert _lifted_char_poly(m) == sympy_char_poly(sympy, m), m


def test_char_poly_when_the_pivot_column_is_zero_below_the_subdiagonal():
    # column 0 is zero from row 1 down, so the first step finds no pivot
    sympy = pytest.importorskip("sympy")
    m = [
        [2, -1, 3, 0],
        [0, 1, 0, 4],
        [0, -5, 0, 1],
        [0, 2, -3, 0],
    ]
    assert _lifted_char_poly(m) == sympy_char_poly(sympy, m)
    rng = random.Random(61)
    for _ in range(20):
        k = rng.randint(3, 9)
        m = sparse_integer_matrix(rng, k, 0.3)
        for i in range(1, k):
            m[i][0] = 0
        assert _lifted_char_poly(m) == sympy_char_poly(sympy, m), m


def test_char_poly_when_a_zero_subdiagonal_splits_h_into_blocks():
    # already upper Hessenberg with h[2][1] = 0: the recurrence's running
    # product of subdiagonal entries turns zero, and the entries above the
    # split still count through the diagonal blocks
    sympy = pytest.importorskip("sympy")
    m = [
        [1, 2, 3, 4, -1],
        [5, 6, 7, 8, 2],
        [0, 0, 9, 1, -3],
        [0, 0, 2, 3, 4],
        [0, 0, 0, -6, 1],
    ]
    assert _lifted_char_poly(m) == sympy_char_poly(sympy, m)
    # the same split reached by the reduction: a block-triangular matrix
    rng = random.Random(67)
    for _ in range(20):
        k = rng.randint(4, 10)
        cut = rng.randint(1, k - 2)
        m = sparse_integer_matrix(rng, k, 0.5)
        for i in range(cut + 1, k):
            for j in range(cut + 1):
                m[i][j] = 0
        assert _lifted_char_poly(m) == sympy_char_poly(sympy, m), m


def test_char_poly_when_the_pivot_needs_a_row_and_column_swap():
    # h[1][0] = 0 but h[2][0] != 0: rows and columns 1 and 2 trade places
    sympy = pytest.importorskip("sympy")
    m = [
        [1, 2, 3, -2],
        [0, 4, 5, 1],
        [6, 7, 8, 0],
        [-3, 0, 1, 2],
    ]
    assert _lifted_char_poly(m) == sympy_char_poly(sympy, m)
    rng = random.Random(71)
    for _ in range(20):
        k = rng.randint(3, 9)
        m = sparse_integer_matrix(rng, k, 0.3)
        m[1][0] = 0
        m[rng.randint(2, k - 1)][0] = rng.choice((-3, 5))
        assert _lifted_char_poly(m) == sympy_char_poly(sympy, m), m


def test_hessenberg_reduction_clears_everything_below_the_subdiagonal():
    # the recurrence never reads below the subdiagonal, so only the shape of
    # H itself shows whether the reduction really zeroed the pivot column
    rng = random.Random(73)
    for _ in range(60):
        k = rng.randint(3, 10)
        m = sparse_integer_matrix(rng, k, rng.choice((0.1, 0.2, 0.3)))
        h = _hessenberg_mod(m, _modulus(m))
        assert all(h[i][j] == 0 for i in range(k) for j in range(i - 1)), m


def test_three_routes_agree_on_generator_outputs_with_3_to_5_components():
    checked = 0
    for seed in range(40):
        params = GeneratorParams((0, 1, 3)[seed % 3], 1 + seed % 3, 2 + seed % 3, seed % 5, seed)
        g = generate_extremal(params)
        if 3 <= len(components(g)) <= 5:
            all_routes(g)
            checked += 1
    assert checked >= 10


def test_proth_prime_is_a_certified_prime_just_above_its_bit_length():
    sympy = pytest.importorskip("sympy")
    for bits in range(2, 401):
        prime = _proth_prime(bits)
        assert prime > 1 << bits, bits
        assert sympy.isprime(prime), bits
        # Proth's certificate: a small a with a^((N-1)/2) = -1 (mod N)
        assert any(pow(a, prime >> 1, prime) == prime - 1 for a in (3, 5, 7, 11, 13)), bits
        e = bits // 2 + 1
        k, rest = divmod(prime - 1, 1 << e)
        assert rest == 0 and k % 2 == 1 and k < 1 << e, bits


def test_modulus_steps_up_across_a_bit_boundary():
    # B = 1 + |a| for a 1x1 matrix, so 2B = 2 + 2|a|
    for below, above in (([[2**63 - 2]], [[2**63 - 1]]), ([[2**126 - 2]], [[-(2**126 - 1)]])):
        low, high = _modulus(below), _modulus(above)
        assert low > 2 + 2 * abs(below[0][0]) and high > 2 + 2 * abs(above[0][0])
        assert high.bit_length() > low.bit_length()
    assert _lifted_char_poly([[2**126 - 1]]) == [-(2**126 - 1), 1]
    # (x - 2^63)^2: 2B lies just above 2^127, and the constant 2^126
    # would lift to a wrong, negative value modulo a prime below 2^127
    big = 2**63
    assert _modulus([[big, 0], [0, big]]) > 2**128
    assert _lifted_char_poly([[big, 0], [0, big]]) == [2**126, -(2**64), 1]
    assert _lifted_char_poly([[-big, big], [big, -big]]) == [0, 2**64, 1]


def test_char_poly_matches_sympy_on_200_bit_entries():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(79)
    for k in (2, 3):
        m = [[rng.randrange(-(2**200), 2**200) for _ in range(k)] for _ in range(k)]
        assert _lifted_char_poly(m) == sympy_char_poly(sympy, m), k
        sym = [[m[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
        assert _lifted_char_poly(sym) == sympy_char_poly(sympy, sym), k


# ---------------------------------------------------------------------------
# floating-point differential check


def sparse_random_graph(n: int, rng: random.Random, degree: float = 3.0) -> Graph:
    p = degree / (n - 1)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@pytest.mark.parametrize("n", [20, 50, 100, 200])
def test_engine_matches_numpy_eigvalsh(n):
    np = pytest.importorskip("numpy")
    rng = random.Random(n)
    checked = 0
    for _ in range(3):
        g = sparse_random_graph(n, rng)
        a = np.zeros((n, n))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        ev = np.linalg.eigvalsh(a)
        if np.any((np.abs(ev) > 1e-9) & (np.abs(ev) < 1e-6)):
            continue  # too close to zero to classify in floating point
        want = Inertia(int(np.sum(ev > 1e-6)), int(np.sum(ev < -1e-6)), int(np.sum(np.abs(ev) <= 1e-9)))
        assert graph_inertia(g) == want
        if n <= 50:
            assert graph_inertia_oracle(g) == want
        checked += 1
    assert checked


# ---------------------------------------------------------------------------
# the fraction-free integer kernel


def random_symmetric(rng: random.Random, k: int, lo: int, hi: int, density: float) -> list[list[int]]:
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if rng.random() < density:
                m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def test_integer_kernel_agrees_with_oracle_on_3000_symmetric_matrices():
    rng = random.Random(2024)
    for _ in range(3000):
        m = random_symmetric(rng, rng.randint(1, 9), -3, 3, 0.4)
        assert kernel_inertia(m) == oracle_inertia(m), m


def test_two_by_two_pivot_turns_the_leading_minor_negative():
    # The diagonal starts at zero, so the first pivot is the 2x2 block on
    # (0, 1) with a = 3, and the leading minor becomes -9.  The Schur
    # complement on {2, 3} is [[-4/3, 1], [1, 0]]: its 1x1 pivot -4/3 is
    # stored as 12 = -9 * (-4/3) and must count as negative, and the last
    # entry 3/4 as positive.
    m = [
        [0, 3, 1, 0],
        [3, 0, 2, 0],
        [1, 2, 0, 1],
        [0, 0, 1, 0],
    ]
    assert kernel_inertia(m) == Inertia(2, 2, 0)
    assert oracle_inertia(m) == Inertia(2, 2, 0)
    triangle = [row[:3] for row in m[:3]]
    assert kernel_inertia(triangle) == Inertia(1, 2, 0)


@pytest.mark.parametrize(
    "m, want",
    [
        # row 0 is zero from the start; the 2x2 pivot search must skip it
        ([[0, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 1], [0, 0, 1, 0]], Inertia(1, 1, 2)),
        # the pivot on row 0 cancels row 1 to zero; the 2x2 pivot that
        # follows must skip the cancelled row and take (2, 3)
        ([[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 0]], Inertia(2, 1, 1)),
        # the 2x2 pivot on (0, 1) fills in (3, 3), the only diagonal, and
        # cancels (3, 4); row 3 is the next pivot although row 2 comes first
        (
            [[0, 1, 0, 1, 0], [1, 0, 0, 1, 1], [0, 0, 0, 1, 1], [1, 1, 1, 0, 1], [0, 1, 1, 1, 0]],
            Inertia(2, 3, 0),
        ),
    ],
)
def test_pivot_search_edge_cases(m, want):
    assert kernel_inertia(m) == oracle_inertia(m) == want


def test_integer_kernel_handles_minors_beyond_64_bits():
    np = pytest.importorskip("numpy")
    rng = random.Random(30)
    k = 30
    m = random_symmetric(rng, k, -9, 9, 1.0)
    # the full determinant is the last leading minor the kernel divides by
    assert abs(_lifted_char_poly(m)[0]) > 2**64
    ev = np.linalg.eigvalsh(np.array(m, dtype=float))
    assert np.min(np.abs(ev)) > 1e-6
    want = Inertia(int(np.sum(ev > 0)), int(np.sum(ev < 0)), 0)
    assert kernel_inertia(m) == want
    assert oracle_inertia(m) == want


def pendant_rich_matrix(rng: random.Random) -> tuple[list[list[int]], frozenset[tuple[int, int]]]:
    """A weighted symmetric matrix on a random tree with one to three more pairs joined, and its edge set.

    Off-diagonal entries are +-1 to +-3 and up to two vertices get a
    nonzero diagonal; the vertices are shuffled, so leaves come anywhere
    in the pivot order.
    """
    k = rng.randint(2, 12)
    edges = set(random_tree(k, rng).edges)
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(range(k), 2)
        edges.add((min(u, v), max(u, v)))
    label = list(range(k))
    rng.shuffle(label)
    edges = frozenset((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)
    m = [[0] * k for _ in range(k)]
    for u, v in edges:
        m[u][v] = m[v][u] = rng.choice((-3, -2, -1, 1, 2, 3))
    for v in rng.sample(range(k), rng.randint(0, min(2, k))):
        m[v][v] = rng.choice((-3, -2, -1, 1, 2, 3))
    return m, edges


def test_integer_kernel_on_2000_pendant_rich_matrices():
    # Leaves make 2x2 pivots whose block row has no other entry, which change
    # no entry of the Schur complement and leave the rows they touch at an
    # old stamp; the weights and the diagonal make the other pivots rescale
    # those rows later.  The adjacency matrix of the same graph, eliminated
    # in the same order, must also record a certificate that the checker
    # accepts.
    rng = random.Random(1968)
    for _ in range(2000):
        m, edges = pendant_rich_matrix(rng)
        assert kernel_inertia(m) == oracle_inertia(m), m
        k = len(m)
        adjacency = [[int((min(i, j), max(i, j)) in edges) for j in range(k)] for i in range(k)]
        terms = []
        got = _eliminate([{j: 1 for j, x in enumerate(r) if x} for r in adjacency], terms, range(k))
        assert got == oracle_inertia(adjacency) == certificate_inertia(Graph(k, edges), terms), edges


def test_a_row_left_at_an_old_stamp_is_brought_to_det_when_touched_again():
    # Pivots, in order:
    # 1. 2x2 on (0, 1), a = 2: row 0 has no other entry, so the Schur
    #    complement does not change; rows 2 and 3 drop column 1 and stay at
    #    stamp 1 while det becomes -4.
    # 2. 2x2 on (2, 4), a = -4 * 3 = -12: it touches row 3 at stamp 1, whose
    #    (3, 5) = 2 must become -4 * 2 before the update; det becomes 36.
    # 3. 1x1 on 5, S[5, 5] = -2/3 stored as -24: one negative; det -24.
    # 4. 1x1 on 3, S[3, 3] = 25/6 stored as -100: one positive.
    m = [
        [0, 2, 0, 0, 0, 0],
        [2, 0, 1, 1, 0, 0],
        [0, 1, 0, 0, 3, 1],
        [0, 1, 0, 0, 1, 2],
        [0, 0, 3, 1, 0, 1],
        [0, 0, 1, 2, 1, 0],
    ]
    terms = []
    assert _eliminate([{j: x for j, x in enumerate(r) if x} for r in m], terms, range(6)) == Inertia(3, 3, 0)
    assert terms == [
        ((0, 1), ({1: 2}, {0: 2, 2: 1, 3: 1}), 1),
        ((2, 4), ({4: -12, 5: -4}, {2: -12, 3: -4, 5: -4}), -4),
        ((5,), ({3: 60, 5: -24},), 36),
        ((3,), ({3: -100},), -24),
    ]
    assert oracle_inertia(m) == Inertia(3, 3, 0)


# ---------------------------------------------------------------------------
# the certificate checker against mutated certificates


def copied(terms):
    return [(block, tuple(dict(r) for r in rows), det) for block, rows, det in terms]


def add_one_to_an_entry(terms, rng):
    row = rng.choice(rng.choice(terms)[1])
    row[rng.choice(sorted(row))] += 1


def flip_a_scalar(terms, rng):
    t = rng.randrange(len(terms))
    block, rows, det = terms[t]
    terms[t] = (block, rows, -det)


def drop_a_term(terms, rng):
    del terms[rng.randrange(len(terms))]


def reuse_a_block_index(terms, rng):
    t = rng.randrange(1, len(terms))
    block, rows, det = terms[t]
    terms[t] = (rng.choice(terms[rng.randrange(t)][0]), *block[1:]), rows, det


def enter_an_earlier_block_index(terms, rng):
    t = rng.randrange(1, len(terms))
    rng.choice(terms[t][1])[rng.choice(terms[rng.randrange(t)][0])] = 1


CONDITIONS = ("used twice", "scalar is zero", "earlier block index", "symmetric and nonsingular", "do not sum to A")
MUTATIONS = (
    (add_one_to_an_entry, CONDITIONS),
    (flip_a_scalar, ("do not sum to A",)),
    (drop_a_term, ("do not sum to A",)),
    (reuse_a_block_index, ("used twice",)),
    (enter_an_earlier_block_index, ("earlier block index",)),
)


def test_certificate_checker_rejects_every_mutated_certificate():
    rng = random.Random(2011)
    rejected = {mutate.__name__: 0 for mutate, _ in MUTATIONS}
    for _ in range(300):
        n = rng.randint(2, 10)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        terms = []
        want = graph_inertia(g, terms)
        assert certificate_inertia(g, terms) == want
        for mutate, named in MUTATIONS:
            if len(terms) < (2 if mutate in (reuse_a_block_index, enter_an_earlier_block_index) else 1):
                continue
            bad = copied(terms)
            mutate(bad, rng)
            reason = certificate_inertia(g, bad)
            assert isinstance(reason, str), (mutate.__name__, g, bad)
            assert any(condition in reason for condition in named), (mutate.__name__, reason)
            rejected[mutate.__name__] += 1
        assert certificate_inertia(g, terms) == want  # the mutations worked on copies
    assert min(rejected.values()) >= 200, rejected


def test_certificate_checker_refuses_a_block_without_one_row_per_index():
    # an index without a row would count a zero eigenvalue that no row proves
    g = cycle_graph(5)
    terms = []
    graph_inertia(g, terms)
    (i, j), rows, det = terms[0]
    for block, shape in (((i, j, 3), rows), ((i, j), rows[:1]), ((), ())):
        reason = certificate_inertia(g, [(block, shape, det)] + terms[1:])
        assert reason == f"term 0 on {block}: its block is not one or two indices with a row each"


def test_a_miscounting_elimination_is_caught_by_the_certificate_it_records(monkeypatch):
    # the terms stay those of a correct congruence; only the count returned is wrong
    import inertia_bounds.inertia as inertia_mod

    eliminate = inertia_mod._eliminate

    def swapped(*args):
        p, n, eta = eliminate(*args)
        return Inertia(n, p, eta)

    assert analyze_graph(cycle_graph(5)).oracle_ok is True
    monkeypatch.setattr(inertia_mod, "_eliminate", swapped)
    row = analyze_graph(cycle_graph(5))
    assert row.oracle_ok is False and row.certificate_ok and row.counterexample
    assert "oracle mismatch: congruence (2, 3, 0) vs certificate (3, 2, 0)" in row.notes


def test_a_rejected_certificate_is_an_oracle_mismatch_that_names_its_condition(monkeypatch):
    import inertia_bounds.verify as verify_mod

    peel = verify_mod.graph_inertia

    def dropping(g, terms=None):
        got = peel(g, terms)
        if terms:
            terms.pop()
        return got

    monkeypatch.setattr(verify_mod, "graph_inertia", dropping)
    row = analyze_graph(cycle_graph(5))
    assert row.oracle_ok is False and row.certificate_ok is False and row.counterexample
    assert "oracle mismatch: certificate rejected: the terms do not sum to A" in row.notes


def test_a_2x2_term_whose_rows_share_a_column_adds_twice_their_product_there():
    # K3 has no diagonal, so its first pivot is the 2x2 block on (0, 1), and both
    # block rows hold column 2: the term puts 2 * 1 * 1 on (2, 2), which the 1x1
    # term on 2 cancels
    g = complete_graph(3)
    terms = []
    assert graph_inertia(g, terms) == certificate_inertia(g, terms) == Inertia(1, 2, 0)
    (block, (ri, rj), det), (last, (rk,), d) = terms
    assert block == (0, 1) and ri == {1: 1, 2: 1} and rj == {0: 1, 2: 1} and det == 1
    assert last == (2,) and rk == {2: 2} and d == -1
    # the product counted once on the diagonal leaves 1 - 2 on (2, 2)
    halved = [((0, 1), ({1: 1, 2: 1}, {0: 1, 2: 1}), 1), ((2,), ({2: 1},), -1)]
    assert certificate_inertia(g, halved) == "the terms do not sum to A"


# ---------------------------------------------------------------------------
# pendant pairs and components proven on the row's own certificate


def pendant_rich_graphs() -> list[Graph]:
    """Seeded sparse graphs on 4 to 30 vertices and generator outputs: pendants, and most with a core."""
    rng = random.Random(2001)
    graphs = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for n in range(4, 31)
        for p in (1.5 / n, 2.5 / n, 4 / n)
    ]
    graphs += [generate_extremal(GeneratorParams(residue, 2, 1, 5, seed)) for residue in (0, 1, 3) for seed in range(6)]
    return graphs


def peel_parts() -> list[tuple[Graph, tuple[int, int], list, frozenset[int], Inertia]]:
    """(g, pendant pair, the pair's peel terms, g's proven core, its inertia) over :func:`pendant_rich_graphs`."""
    out = []
    for g in pendant_rich_graphs():
        f = GraphFacts(g)
        for pair in sorted({tuple(sorted((u, *g.adj[u]))) for u in f.pendants}):
            terms: list = []
            _peel_without(g, pair, terms)
            out.append((g, pair, terms, *f._proven_core))
    return out


def drop_a_claim(terms, rng, keep=()):
    """Delete one row entry other than its term's pendant, none in ``keep``; False if there is none."""
    entries = [
        (t, x) for t, ((u, _), (_, row), _) in enumerate(terms) for x in sorted(row) if x != u and (t, x) not in keep
    ]
    if not entries:
        return False
    t, x = rng.choice(entries)
    del terms[t][1][1][x]
    return True


def drop_a_row_entry(g, pair, terms, core, rng):
    return (terms, core) if drop_a_claim(terms, rng) else None


def set_a_row_entry_to_two(g, pair, terms, core, rng):
    entries = [(t, x) for t, ((u, _), (_, row), _) in enumerate(terms) for x in sorted(row) if x != u]
    if not entries:
        return None
    t, x = rng.choice(entries)
    terms[t][1][1][x] = 2
    return terms, core


def enter_a_deleted_vertex(g, pair, terms, core, rng):
    if terms:
        rng.choice(terms)[1][1][rng.choice(pair)] = 1
        return terms, core
    return None


# The mutants below keep the number of claims: each adds one and drops one
# elsewhere, so only the condition they aim at can catch them.


def put_a_block_on_a_core_vertex(g, pair, terms, core, rng):
    # a pair (t, s) inside the core claims the core edge {s, t} a second time
    edges = [(s, t) for s in sorted(core) for t in sorted(g.adj[s] & core)]
    if edges and drop_a_claim(terms, rng):
        s, t = rng.choice(edges)
        terms.append(((t, s), ({s: 1}, {t: 1}), 1))
        return terms, core
    return None


def claim_an_edge_from_both_ends(g, pair, terms, core, rng):
    # a claims {v_a, v_b} from v_a's side; b claims it again from v_b's
    both = [
        (a, b)
        for a, ((_, va), (_, row_a), _) in enumerate(terms)
        for b, ((_, vb), _, _) in enumerate(terms)
        if vb in row_a
    ]
    if both:
        a, b = rng.choice(both)
        va, vb = terms[a][0][1], terms[b][0][1]
        if drop_a_claim(terms, rng, keep={(a, vb)}):
            terms[b][1][1][va] = 1
            return terms, core
    return None


def claim_a_non_edge(g, pair, terms, core, rng):
    # the new claim {v, x} is no edge of G, and x is no earlier block index
    blocks = set(pair)
    options = []
    for t, ((u, v), _, _) in enumerate(terms):
        options += [(t, x) for x in range(g.n) if x != v and x not in blocks and x not in g.adj[v]]
        blocks.update((u, v))
    if options and drop_a_claim(terms, rng):
        t, x = rng.choice(options)
        terms[t][1][1][x] = 1
        return terms, core
    return None


def move_a_vertex_into_the_core(g, pair, terms, core, rng):
    outside = sorted(set(range(g.n)) - core)
    return (terms, core | {rng.choice(outside)}) if core and outside else None


def move_a_vertex_out_of_the_core(g, pair, terms, core, rng):
    return (terms, core - {rng.choice(sorted(core))}) if core else None


PEEL_MUTATIONS = (
    drop_a_row_entry,
    set_a_row_entry_to_two,
    enter_a_deleted_vertex,
    put_a_block_on_a_core_vertex,
    claim_an_edge_from_both_ends,
    claim_a_non_edge,
    move_a_vertex_into_the_core,
    move_a_vertex_out_of_the_core,
)


def test_the_peel_part_check_rejects_every_mutated_peel():
    rng = random.Random(2011)
    rejected = {mutate.__name__: 0 for mutate in PEEL_MUTATIONS}
    for g, pair, terms, core, core_inertia in peel_parts():
        want = graph_inertia(delete_vertices(g, pair))
        assert _peel_part_inertia(g, pair, terms, core, core_inertia) == want, (g, pair)
        for mutate in PEEL_MUTATIONS:
            mutated = mutate(g, pair, copied(terms), core, rng)
            if mutated is not None:
                assert _peel_part_inertia(g, pair, *mutated, core_inertia) is None, (mutate.__name__, g, pair)
                rejected[mutate.__name__] += 1
        assert _peel_part_inertia(g, pair, terms, core, core_inertia) == want  # the mutations worked on copies
    assert min(rejected.values()) >= 100, rejected


def test_a_component_inertia_needs_every_term_inside_its_part():
    # P2 split into {0} and {1}: its one term, the pair (0, 1), spans both parts
    g = disjoint_union(path_graph(2), cycle_graph(5))
    terms = []
    graph_inertia(g, terms)
    parts = components(g)
    assert _component_inertias(g, terms, parts) == [Inertia(1, 1, 0), Inertia(3, 2, 0)]
    assert _component_inertias(g, terms, [frozenset({0}), frozenset({1}), parts[1]]) is None


# ---------------------------------------------------------------------------
# the per-process memo of the graph-only kernels on small graphs


def small_graphs() -> list[Graph]:
    """Every labelled graph on at most MEMO_VERTICES vertices."""
    return [item.graph for n in range(MEMO_VERTICES + 1) for item in enumerate_labeled(n)]


def sparse_400() -> Graph:
    """The 400-vertex sparse graph of CI: each pair with probability 3/(n - 1), random.Random(1)."""
    n, rng = 400, random.Random(1)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 3 / (n - 1)])


def test_the_memo_answers_every_small_graph_as_the_oracles_do():
    graphs = small_graphs()
    assert len(graphs) == 1100
    want = [(graph_inertia_oracle(g), matching_bruteforce(g)) for g in graphs]
    for _ in ("cold", "warm"):
        for g, (inertia, m) in zip(graphs, want):
            assert graph_inertia(g) == inertia, g
            assert matching_number(g) == m, g
    # graph_inertia's memo, the only one, holds one entry per labelled graph:
    # the int keys of distinct graphs differ
    assert [len(memo) for memo in _MEMOS] == [1100]
    for g in (cycle_graph(6), sparse_400()):
        graph_inertia(g), matching_number(g)
    assert [len(memo) for memo in _MEMOS] == [1100]


def test_a_warm_memo_still_hands_over_a_checked_certificate():
    for g in small_graphs():
        warm = graph_inertia(g)
        terms: list = []
        assert graph_inertia(g, terms) == warm
        assert certificate_inertia(g, terms) == warm
        assert terms or not g.num_edges, g
    first, second = analyze_graph(cycle_graph(5)), analyze_graph(cycle_graph(5))
    assert first.certificate_ok and first.oracle_ok
    assert first == second


def test_an_interned_graph_is_keyed_as_its_edges_walk():
    # the memo reads a shared graph's key by its id; it must be the key its edges give
    for g in small_graphs():
        shared = delete_vertices(g, ())
        assert shared == g and _INTERNED[id(shared)] == (shared, _memo_key(g)), g
    assert len({key for _, key in _INTERNED.values()}) == len(_INTERNED) == 1100


def test_a_call_with_terms_certifies_even_when_a_record_holds_its_core():
    # G - 7 leaves the 7-cycle core, and so does G once its tail peels off as one pendant pair
    g = cycle_with_tail(7, 2)
    f = GraphFacts(g)
    assert f.inertia_without(7) == graph_inertia_oracle(cycle_graph(7)) + (0, 0, 1)
    kept = dict(f._cores)
    assert list(kept) == [tuple(range(7))]
    for h in (g, cycle_graph(9)):
        terms: list = []
        want = graph_inertia_oracle(h)
        assert graph_inertia(h, terms) == want
        assert certificate_inertia(h, terms) == want
        # a term per pivot over the whole rank, the recorded core's included
        assert sum(len(block) for block, _, _ in terms) == h.n - want.eta
    assert f._cores == kept


def test_a_core_answer_from_a_patched_kernel_ends_with_its_row(monkeypatch):
    # G - 7 and G - 8 open the 4-cycle into a path that peels away, so both peel to
    # the 7-cycle core, which is not G's core: the second reads the first's answer
    g = disjoint_union(cycle_graph(7), cycle_graph(4))
    f = GraphFacts(g)
    with monkeypatch.context() as patched:
        patched.setattr(inertia_mod, "_eliminate", lambda rows, *args: Inertia(0, 0, len(rows)))
        assert f.inertia_without(7) == (1, 1, 8)
    # undoing the patch leaves the wrong answer in the record's cores, and only there
    assert f.inertia_without(8) == (1, 1, 8)
    want = graph_inertia_oracle(cycle_graph(7)) + (1, 1, 1)
    assert want == (4, 5, 1)
    assert GraphFacts(g).inertia_without(8) == graph_inertia(delete_vertices(g, (8,))) == want


# ---------------------------------------------------------------------------
# route independence, read off the syntax tree of the inertia module

CONGRUENCE_ROOTS = {"graph_inertia", "deletion_inertias"}
CHECKER_ROOTS = {"certificate_inertia"}


def names_read(node: ast.AST) -> set[str]:
    """Every name ``node`` loads, outside annotations (they are never evaluated)."""
    skip = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation:
            skip.add(id(n.annotation))
        elif isinstance(n, ast.FunctionDef) and n.returns:
            skip.add(id(n.returns))
    names, todo = set(), [node]
    while todo:
        n = todo.pop()
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        todo.extend(ast.iter_child_nodes(n))
    return names


def module_reads(tree: ast.Module) -> dict[str, set[str]]:
    """Each module-level name mapped to the module-level names its definition reads."""
    reads: dict[str, set[str]] = {}
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            reads[stmt.name] = names_read(stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                assert isinstance(target, ast.Name), ast.dump(target)
                reads[target.id] = names_read(stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            assert isinstance(stmt.target, ast.Name), ast.dump(stmt.target)
            reads[stmt.target.id] = names_read(stmt.value)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                reads[(alias.asname or alias.name).split(".")[0]] = set()
        else:
            # only the docstring may be anything else; a new kind of
            # statement needs the walk taught what it binds
            assert i == 0 and isinstance(stmt, ast.Expr), ast.dump(stmt)
    return {name: used & reads.keys() for name, used in reads.items()}


def reachable(reads: dict[str, set[str]], roots: set[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(reads[name])
    return seen


def inertia_module_tree() -> ast.Module:
    import inertia_bounds.inertia as inertia_mod

    with open(inertia_mod.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_module_reads_takes_an_annotated_assignment_as_a_plain_one():
    tree = ast.parse(
        '"""Doc."""\nimport os\nRows = list\nLIMIT: int = os.cpu_count()\ntable: Rows = [LIMIT]\nplain = LIMIT\n'
    )
    # the annotation is never evaluated, so ``table`` does not read ``Rows``
    assert module_reads(tree) == {"os": set(), "Rows": set(), "LIMIT": {"os"}, "table": {"LIMIT"}, "plain": {"LIMIT"}}


def test_congruence_routes_and_the_certificate_checker_share_only_the_inertia_record():
    reads = module_reads(inertia_module_tree())
    congruence = reachable(reads, CONGRUENCE_ROOTS)
    checker = reachable(reads, CHECKER_ROOTS)
    # the walk is transitive: the routes reach their kernels through helpers
    assert {"_eliminate", "_degree_ordered_rows", "compress", "_PENDANT_PAIR"} <= congruence
    assert "_PENDANT_PAIR" not in checker
    assert congruence & checker == reachable(reads, {"Inertia"}) == {"Inertia", "NamedTuple"}


def test_the_sub_checks_share_only_the_inertia_record_with_the_routes():
    # the pendant-pair and component lemmas read subgraph inertias that these prove
    reads = module_reads(inertia_module_tree())
    sub_checks = reachable(reads, {"_certified_core", "_component_inertias", "_peel_part_inertia"})
    assert "_pendant_shaped" in sub_checks and "_PENDANT_PAIR" not in sub_checks
    assert sub_checks & reachable(reads, CONGRUENCE_ROOTS) == {"Inertia", "NamedTuple"}


def test_every_public_function_of_the_inertia_module_is_a_route_root():
    # a new entry point has to join one route's roots, and so the check above
    tree = inertia_module_tree()
    public = {s.name for s in tree.body if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")}
    assert public == CONGRUENCE_ROOTS | CHECKER_ROOTS
