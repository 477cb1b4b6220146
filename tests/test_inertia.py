"""Exact inertia of graphs: peeled route, unreduced congruence kernel, char-poly oracle.

The congruence routes and the characteristic-polynomial route share no
code (checked below on the module's syntax tree), so their agreement on
random and exhaustive corpora is the core correctness argument for all
three.  The kernels under them, the fraction-free elimination and the
lifted characteristic polynomial, are also tested directly on integer
matrices that are not adjacency matrices.
"""

import ast
import random

import pytest

from inertia_bounds import (
    GeneratorParams,
    Graph,
    Inertia,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    generate_extremal,
    graph_char_poly,
    graph_inertia,
    graph_inertia_oracle,
    matching_number,
    path_graph,
    star_graph,
    unreduced_graph_inertia,
)
from inertia_bounds.corpus import enumerate_labeled, sample_random
from inertia_bounds.inertia import (
    _descartes_inertia,
    _eliminate,
    _hessenberg_mod,
    _lifted_char_poly,
    _modulus,
    _proth_prime,
)
from conftest import all_trees, cycle_with_tail, random_tree


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
    assert a.rank == 3
    assert b.rank == 2


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
    assert graph_inertia(empty_graph(6)) == Inertia(0, 0, 6)
    assert graph_inertia(empty_graph(0)) == Inertia(0, 0, 0)


def test_inertia_is_additive_over_components():
    g = disjoint_union(cycle_graph(5), path_graph(4))
    assert graph_inertia(g) == graph_inertia(cycle_graph(5)) + graph_inertia(
        path_graph(4)
    )


def test_char_poly_frozen_values():
    # coefficients are listed from the constant term up
    assert graph_char_poly(cycle_graph(3)) == [-2, -3, 0, 1]
    assert graph_char_poly(path_graph(2)) == [-1, 0, 1]
    assert graph_char_poly(empty_graph(3)) == [0, 0, 0, 1]
    assert graph_char_poly(empty_graph(0)) == [1]
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
# the three routes against each other


def all_routes(g: Graph) -> Inertia:
    """Peeled, unreduced and oracle inertia of ``g``; fails unless they agree."""
    peeled = graph_inertia(g)
    assert unreduced_graph_inertia(g) == peeled
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
    assert all_routes(empty_graph(0)) == Inertia(0, 0, 0)
    assert all_routes(empty_graph(5)) == Inertia(0, 0, 5)


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
        assert unreduced_graph_inertia(g) == want
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


def test_unreduced_graph_inertia_ignores_the_pendant_rule(monkeypatch):
    # the unreduced route must not share the peeling's pendant rule, or the
    # lemmas that use it would check the peeling against itself
    import inertia_bounds.inertia as inertia_mod

    g = disjoint_union(cycle_with_tail(5, 2), star_graph(3), path_graph(4))
    want = graph_inertia_oracle(g)
    assert unreduced_graph_inertia(g) == graph_inertia(g) == want
    monkeypatch.setattr(inertia_mod, "_PENDANT_PAIR", Inertia(1, 0, 1))
    assert graph_inertia(g) != want
    assert unreduced_graph_inertia(g) == want


def test_unreduced_graph_inertia_agrees_with_the_other_routes():
    for item in sample_random(n=11, edge_probability=0.3, count=100, seed=12):
        assert unreduced_graph_inertia(item.graph) == all_routes(item.graph)
    assert unreduced_graph_inertia(empty_graph(0)) == Inertia(0, 0, 0)


# ---------------------------------------------------------------------------
# route independence, read off the syntax tree of the inertia module

CONGRUENCE_ROOTS = {"graph_inertia", "unreduced_graph_inertia"}
ORACLE_ROOTS = {"graph_inertia_oracle", "graph_char_poly"}


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


def test_congruence_and_char_poly_routes_share_only_the_inertia_record():
    reads = module_reads(inertia_module_tree())
    congruence = reachable(reads, CONGRUENCE_ROOTS)
    oracle = reachable(reads, ORACLE_ROOTS)
    # the walk is transitive: each side reaches its kernels through helpers
    assert {"_eliminate", "_degree_ordered_rows", "compress"} <= congruence
    assert {"_hessenberg_mod", "_proth_prime", "math", "functools"} <= oracle
    assert congruence & oracle == reachable(reads, {"Inertia"}) == {"Inertia", "NamedTuple"}


def test_every_public_function_of_the_inertia_module_is_a_route_root():
    # a new entry point has to join one route's roots, and so the check above
    tree = inertia_module_tree()
    public = {s.name for s in tree.body if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")}
    assert public == CONGRUENCE_ROOTS | ORACLE_ROOTS
