"""Shared builders and patching helpers for the test suite.

Everything here is deterministic: random constructions take an explicit
``random.Random`` instance or a seed, never the global RNG.
"""

import random
import sys

import pytest

from inertia_bounds import Graph
from inertia_bounds.graphs import _MEMOS


def empty_memos() -> None:
    """Empty ``graph_inertia``'s small-graph memo, the only answers kept across rows.

    The shared small graphs of ``graphs._small_graph`` stay: they hold
    graphs and their keys, no answer.
    """
    for memo in _MEMOS:
        memo.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty every kept answer (:func:`empty_memos`) before and after each test.

    A warm memo skips the kernel, so a test that counts kernel runs or
    patches a kernel's helpers would see what earlier tests left, and a
    patched run would store its wrong answer past the patch.
    """
    empty_memos()
    yield
    empty_memos()


def patch_function(monkeypatch, fn, replacement) -> None:
    """Replace package function ``fn`` in its home module and in every package module bound to it.

    A call reaches the replacement whichever module makes it, so a test
    does not depend on which module imports the function by name.
    """
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "inertia_bounds":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex blocks are laid out in argument order."""
    offset = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def cycle_with_tail(q: int, tail: int) -> Graph:
    """A q-cycle with a path of ``tail`` extra vertices hanging off vertex 0."""
    edges = [(i, (i + 1) % q) for i in range(q)]
    prev = 0
    for k in range(tail):
        edges.append((prev, q + k))
        prev = q + k
    return Graph(q + tail, edges)


def lower_bound_near_miss() -> Graph:
    """Two 4-cycles joined by a bridge: the lower-bound near-miss witness."""
    return Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)],
    )


def random_tree(n: int, rng: random.Random) -> Graph:
    # attach each new vertex to a uniformly random earlier one
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def random_unicyclic(rng: random.Random, lo: int = 7, hi: int = 10) -> Graph:
    """Connected graph with exactly one cycle: random tree plus one extra edge."""
    n = rng.randint(lo, hi)
    t = random_tree(n, rng)
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if v not in t.adj[u]
    ]
    extra = rng.choice(non_edges)
    return Graph(n, list(t.edges) + [extra])


def all_trees(max_n: int):
    """Yield one representative of every tree isomorphism class, 2 <= n <= max_n."""
    nx = pytest.importorskip("networkx")
    for n in range(2, max_n + 1):
        for t in nx.nonisomorphic_trees(n):
            yield Graph(n, list(t.edges()))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)
