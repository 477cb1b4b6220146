"""Maximum matching: the blossom solver against the brute-force oracle
of ``tests/matching_oracle.py`` and networkx, the oracle's budget, and
the matching queries.

The solver is read through ``_mates``, the partner of each vertex, and
``matching_number_without`` through the maximum matching it returns.  The
queries are asked through ``GraphFacts``: ``m_without`` and the frontier
properties; ``tests/test_properties.py`` checks them against every
maximum matching.
"""

import random
from itertools import combinations

import pytest

from inertia_bounds import (
    Graph,
    cycle_graph,
    GraphFacts,
    delete_vertices,
    matching_number,
    path_graph,
    star_graph,
)
from inertia_bounds.corpus import enumerate_labeled, sample_random
from inertia_bounds.matching import _mates, matching_number_without, matching_number_without_edges
from conftest import complete_graph, petersen
from matching_oracle import BudgetExceededError, matching_bruteforce


def maximum_matching(g: Graph) -> frozenset[tuple[int, int]]:
    """The solver's maximum matching, as (u, v) pairs with u < v."""
    return frozenset((v, u) for v, u in enumerate(_mates(g)) if u > v)


@pytest.mark.parametrize(
    "g,m",
    [
        (Graph(5), 0),
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


def test_one_search_from_the_former_mate_gives_m_of_g_minus_v():
    # every graph on 5 vertices, odd cycles and blossoms included, and G(10, 0.4)
    graphs = [item.graph for item in enumerate_labeled(5)]
    graphs += [item.graph for item in sample_random(n=10, edge_probability=0.4, count=60, seed=17)]
    for g in graphs:
        mates = _mates(g)
        for v in range(g.n):
            want = matching_bruteforce(delete_vertices(g, (v,)))
            assert matching_number_without(g, mates, (v,)) == want, (g, v)


def test_dropping_vertices_or_edges_from_a_maximum_matching_gives_m_of_the_subgraph():
    # the set versions against the brute-force oracle, which shares no code with
    # the searches: on every graph on 5 vertices each 2- and 3-vertex set, each
    # set of one or two edges and the whole edge set; on G(10, 0.4) seeded sets
    rng = random.Random(32)
    graphs = [item.graph for item in enumerate_labeled(5)]
    graphs += [item.graph for item in sample_random(n=10, edge_probability=0.4, count=60, seed=17)]
    for g in graphs:
        mates, edges = _mates(g), sorted(g.edges)
        if g.n == 5:
            vertex_sets = [vs for k in (2, 3) for vs in combinations(range(g.n), k)]
            edge_sets = [es for k in (1, 2) for es in combinations(edges, k)]
        else:
            vertex_sets = [rng.sample(range(g.n), k) for k in (2, 3, 4, 6)]
            edge_sets = [rng.sample(edges, min(k, len(edges))) for k in (2, 4, 8)]
        for vs in vertex_sets:
            want = matching_bruteforce(delete_vertices(g, vs))
            assert matching_number_without(g, mates, vs) == want, (g, vs)
        for es in edge_sets + [edges]:
            want = matching_bruteforce(Graph(g.n, g.edges - set(es)))
            assert matching_number_without_edges(g, mates, es) == want, (g, es)


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
    # uv lies in some maximum matching iff m(G - u - v) = m - 1
    f = GraphFacts(path_graph(4))  # unique maximum matching {01, 23}
    assert f.m_without((0, 1)) == f.m - 1
    assert f.m_without((2, 3)) == f.m - 1
    assert f.m_without((1, 2)) == f.m - 2
    # every edge of an odd cycle appears in some maximum matching
    c = GraphFacts(cycle_graph(5))
    assert all(c.m_without(e) == c.m - 1 for e in c.graph.edges)
    for vs in [(2, -1), (3, 4)]:  # out of range; -1 must not wrap round to vertex 3
        with pytest.raises(ValueError, match="out of range for n=4"):
            f.m_without(vs)


def test_avoidance_queries():
    g = path_graph(4)
    f = GraphFacts(g)
    assert f.m_without((1, 2)) != f.m - 1  # so every maximum matching avoids 12
    assert f.m_without((0, 1)) == f.m - 1
    # a graph without cycles has no frontier, and avoiding it is vacuous
    assert f.frontier == frozenset() and f.frontier_avoidable and f.frontier_always_avoided
    c = GraphFacts(cycle_graph(5))
    assert c.m_without((0, 1)) == 1  # so some maximum matching uses 01
    # C4 plus the pendant edge 04: {01, 23} misses the frontier, {04, 12} does not
    f = GraphFacts(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]))
    assert f.frontier == {(0, 4)}
    assert f.frontier_avoidable and not f.frontier_always_avoided


def test_coverage_queries():
    # v is matched in every maximum matching iff m(G - v) = m - 1
    # C4 has a perfect matching and every maximum matching is perfect
    c4 = GraphFacts(cycle_graph(4))
    assert all(c4.m_without((v,)) == c4.m - 1 for v in range(4))
    # the center of a star is always covered, leaves are not
    s = GraphFacts(star_graph(4))
    assert s.m_without((0,)) == s.m - 1
    assert s.m_without((1,)) == s.m
    # P3: the middle vertex is forced, the ends are interchangeable
    p = GraphFacts(path_graph(3))
    assert p.m_without((1,)) == p.m - 1
    assert p.m_without((0,)) == p.m
    with pytest.raises(ValueError, match=r"vertices \[3\] out of range for n=3"):
        p.m_without((3,))


def test_frontier_avoidable_never_solves_the_row_graph(monkeypatch):
    # the record holds G's maximum matching, so the frontier question drops the
    # matched frontier edge from it and runs no blossom, on G or on G minus its frontier
    import inertia_bounds.matching as matching_mod

    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])  # C4 plus the pendant edge 01
    f = GraphFacts(g)
    assert f.frontier == {(0, 1)} and f._mates[0] == 1  # a matched edge is dropped
    original, solved = matching_mod._mates, []

    def solve(h):
        solved.append(h)
        return original(h)

    monkeypatch.setattr(matching_mod, "_mates", solve)
    assert f.frontier_avoidable
    assert not solved
