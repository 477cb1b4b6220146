"""Maximum matching: blossom implementation, brute-force oracle, queries."""

import random

import pytest

from inertia_bounds import (
    BudgetExceededError,
    Graph,
    complete_graph,
    cycle_graph,
    edge_in_some_maximum_matching,
    empty_graph,
    every_max_matching_avoids,
    every_max_matching_covers,
    exists_max_matching_avoiding,
    matching_bruteforce,
    matching_number,
    maximum_matching,
    path_graph,
    star_graph,
)
from inertia_bounds.corpus import enumerate_labeled, sample_random
from conftest import petersen


@pytest.mark.parametrize(
    "g,m",
    [
        (empty_graph(5), 0),
        (path_graph(2), 1),
        (path_graph(5), 2),
        (path_graph(6), 3),
        (cycle_graph(5), 2),
        (cycle_graph(6), 3),
        (complete_graph(7), 3),
        (star_graph(5), 1),
    ],
)
def test_known_matching_numbers(g, m):
    assert matching_number(g) == m
    assert matching_bruteforce(g) == m


def test_matching_is_valid_and_maximal():
    g = petersen()
    matched = maximum_matching(g)
    assert len(matched) == 5  # perfect matching
    used = [v for e in matched for v in e]
    assert len(used) == len(set(used))  # pairwise disjoint
    assert set(matched) <= g.edges


def test_blossom_handles_odd_structures():
    # two triangles joined by a bridge: needs blossom handling, m = 3
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert matching_number(g) == 3
    assert matching_bruteforce(g) == 3


def test_matching_deterministic():
    g = petersen()
    assert maximum_matching(g) == maximum_matching(g)


@pytest.mark.parametrize(
    "g, m",
    [
        # P4 labelled so that greedy in index order takes the middle edge (0, 1)
        (Graph(4, [(0, 1), (0, 2), (1, 3)]), 2),
        # C5 with a leaf on each cycle vertex, the leaves labelled 5..9: greedy
        # in index order matches 0-1, 2-3, 4-9 and leaves two augmentations
        (Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]), 5),
    ],
)
def test_matching_is_maximum_when_greedy_in_index_order_is_not(g, m):
    assert maximum_matching(g) == maximum_matching(g)
    assert len(maximum_matching(g)) == matching_number(g) == matching_bruteforce(g) == m


def test_blossom_agrees_with_bruteforce_exhaustively():
    for n in range(6):
        for item in enumerate_labeled(n):
            assert matching_number(item.graph) == matching_bruteforce(item.graph)


def test_blossom_agrees_with_bruteforce_random():
    for item in sample_random(n=10, edge_probability=0.4, count=200, seed=13):
        assert matching_number(item.graph) == matching_bruteforce(item.graph)


def test_blossom_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 14)
        h = nx.gnp_random_graph(n, 0.35, seed=rng.randrange(2**30))
        g = Graph(n, [tuple(sorted(e)) for e in h.edges()])
        assert matching_number(g) == len(nx.max_weight_matching(h, maxcardinality=True))


def test_bruteforce_budget():
    # 13 vertices and 78 edges: over both limits
    with pytest.raises(BudgetExceededError):
        matching_bruteforce(complete_graph(13))
    # 28 edges but only 8 vertices: allowed, vertex bound caps the work
    assert matching_bruteforce(complete_graph(8)) == 4
    # 24 edges on 25 vertices: allowed, edge bound caps the work
    assert matching_bruteforce(path_graph(25)) == 12


def test_edge_in_some_maximum_matching():
    g = path_graph(4)  # unique maximum matching {01, 23}
    assert edge_in_some_maximum_matching(g, (0, 1))
    assert edge_in_some_maximum_matching(g, (2, 3))
    assert not edge_in_some_maximum_matching(g, (1, 2))
    # every edge of an odd cycle appears in some maximum matching
    c = cycle_graph(5)
    assert all(edge_in_some_maximum_matching(c, e) for e in c.edges)
    with pytest.raises(ValueError):
        edge_in_some_maximum_matching(g, (0, 3))  # not an edge
    for e in [(2, -1), (3, 4)]:  # out of range; -1 must not wrap round to vertex 3
        with pytest.raises(ValueError, match="not present in graph"):
            edge_in_some_maximum_matching(g, e)


def test_avoidance_queries():
    g = path_graph(4)
    assert exists_max_matching_avoiding(g, [(1, 2)])
    assert every_max_matching_avoids(g, [(1, 2)])
    assert not exists_max_matching_avoiding(g, [(0, 1)])
    assert not every_max_matching_avoids(g, [(0, 1)])
    # avoiding the empty set is vacuous
    assert exists_max_matching_avoiding(g, [])
    assert every_max_matching_avoids(g, [])
    c = cycle_graph(5)
    assert exists_max_matching_avoiding(c, [(0, 1)])
    assert not every_max_matching_avoids(c, [(0, 1)])


def test_coverage_queries():
    # C4 has a perfect matching and every maximum matching is perfect
    c4 = cycle_graph(4)
    assert all(every_max_matching_covers(c4, v) for v in range(4))
    # the center of a star is always covered, leaves are not
    s = star_graph(4)
    assert every_max_matching_covers(s, 0)
    assert not every_max_matching_covers(s, 1)
    # P3: the middle vertex is forced, the ends are interchangeable
    p = path_graph(3)
    assert every_max_matching_covers(p, 1)
    assert not every_max_matching_covers(p, 0)
    with pytest.raises(ValueError, match="vertex 3 out of range for n=3"):
        every_max_matching_covers(p, 3)


def test_queries_with_a_known_m_answer_as_without_it(monkeypatch):
    import inertia_bounds.matching as matching_mod

    items = list(sample_random(n=7, edge_probability=0.4, count=40, seed=3))
    for g in (item.graph for item in items):
        m = matching_number(g)
        edges = sorted(g.edges)
        for e in edges:
            assert edge_in_some_maximum_matching(g, e, m=m) == edge_in_some_maximum_matching(g, e)
        for k in range(len(edges) + 1):
            part = edges[:k]
            assert exists_max_matching_avoiding(g, part, m=m) == exists_max_matching_avoiding(g, part)
            assert every_max_matching_avoids(g, part, m=m) == every_max_matching_avoids(g, part)
        for v in range(g.n):
            assert every_max_matching_covers(g, v, m=m) == every_max_matching_covers(g, v)
    # with m given, no query solves G itself again
    original = matching_mod._mates
    g = petersen()
    m = matching_number(g)

    def solve(h):
        assert h != g
        return original(h)

    monkeypatch.setattr(matching_mod, "_mates", solve)
    edges = sorted(g.edges)
    edge_in_some_maximum_matching(g, edges[0], m=m)
    exists_max_matching_avoiding(g, edges[:3], m=m)
    every_max_matching_avoids(g, edges[:3], m=m)
    every_max_matching_covers(g, 0, m=m)
