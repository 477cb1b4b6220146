"""Cycle structure: blocks, disjointness, contraction, frontier, counting."""

import random

import pytest

from inertia_bounds import (
    CycleBudgetError,
    Graph,
    analyze_cycles,
    biconnected_blocks,
    complete_graph,
    contract_cycles,
    cycle_graph,
    cyclomatic_number,
    disjoint_union,
    enumerate_simple_cycles,
    frontier_edges,
    lemma_suite,
    non_cyclic_forest,
    path_graph,
    pendant_cycles,
    star_graph,
)
from conftest import cycle_with_tail, lower_bound_near_miss


def bowtie() -> Graph:
    # two triangles sharing vertex 0
    return Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def test_biconnected_blocks_on_path():
    blocks = biconnected_blocks(path_graph(4))
    assert sorted(sorted(b) for b in blocks) == [[(0, 1)], [(1, 2)], [(2, 3)]]


def test_biconnected_blocks_on_bowtie():
    blocks = biconnected_blocks(bowtie())
    assert len(blocks) == 2
    assert all(len(b) == 3 for b in blocks)


def test_biconnected_blocks_on_k4():
    blocks = biconnected_blocks(complete_graph(4))
    assert len(blocks) == 1
    assert len(blocks[0]) == 6


def test_biconnected_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 14)
        h = nx.gnp_random_graph(n, 0.3, seed=rng.randrange(2**30))
        g = Graph(n, [tuple(sorted(e)) for e in h.edges()])
        ours = {frozenset(b) for b in biconnected_blocks(g)}
        theirs = {
            frozenset(tuple(sorted(e)) for e in comp)
            for comp in nx.biconnected_component_edges(h)
        }
        assert ours == theirs


def test_analyze_cycles_single_cycle():
    cs = analyze_cycles(cycle_graph(5))
    assert cs.disjoint
    assert cs.cycles == ((0, 1, 2, 3, 4),)
    assert cs.cyclic_vertices == frozenset(range(5))


def test_analyze_cycles_cycle_order_is_canonical():
    # same cycle, edges given in scrambled order
    g = Graph(4, [(2, 3), (0, 3), (1, 2), (0, 1)])
    cs = analyze_cycles(g)
    assert cs.cycles == ((0, 1, 2, 3),)


def test_analyze_cycles_forest():
    cs = analyze_cycles(disjoint_union(path_graph(3), star_graph(3)))
    assert cs.disjoint
    assert cs.cycles == ()
    assert cs.cyclic_vertices == frozenset()


def test_analyze_cycles_bowtie_not_disjoint():
    cs = analyze_cycles(bowtie())
    assert not cs.disjoint
    assert cs.cycles == ()  # inventory withheld when cycles overlap
    assert cs.cyclic_vertices == frozenset(range(5))


def test_analyze_cycles_chorded_cycle_not_disjoint():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    cs = analyze_cycles(g)
    assert not cs.disjoint
    assert cs.cyclic_vertices == frozenset(range(4))


def test_two_vertex_disjoint_cycles_connected_by_edge():
    g = lower_bound_near_miss()
    cs = analyze_cycles(g)
    assert cs.disjoint  # vertex-disjoint even though an edge links them
    assert len(cs.cycles) == 2
    assert sorted(len(cyc) % 4 for cyc in cs.cycles) == [0, 0]
    assert frontier_edges(g, cs) == frozenset({(0, 4)})


def test_frontier_edges():
    g = cycle_with_tail(5, 2)
    assert frontier_edges(g) == frozenset({(0, 5)})
    assert frontier_edges(cycle_graph(6)) == frozenset()
    assert frontier_edges(path_graph(4)) == frozenset()


def test_contract_cycles():
    g = cycle_with_tail(3, 2)  # triangle at {0,1,2}, tail 0-3-4
    con = contract_cycles(g)
    assert con.forest.n == 3
    assert cyclomatic_number(con.forest) == 0
    assert con.cyclic_images == frozenset({0})
    assert con.image[0] == con.image[1] == con.image[2] == 0
    assert con.image[3] == 1 and con.image[4] == 2
    assert con.forest.edges == frozenset({(0, 1), (1, 2)})
    assert non_cyclic_forest(con) == path_graph(2)


def test_contract_cycles_on_forest_is_identity_shape():
    g = path_graph(5)
    con = contract_cycles(g)
    assert con.forest == g
    assert con.cyclic_images == frozenset()


def test_contract_rejects_overlapping_cycles():
    with pytest.raises(ValueError):
        contract_cycles(bowtie())


def test_pendant_cycles():
    g = cycle_with_tail(5, 2)
    pcs = pendant_cycles(g)
    assert len(pcs) == 1
    assert pcs[0].cycle == (0, 1, 2, 3, 4)
    assert pcs[0].gateway == 0
    assert pcs[0].outside == 5
    # a bare cycle has no outside vertex, so no pendant cycle
    assert pendant_cycles(cycle_graph(4)) == []
    # near-miss graph: both cycles hang off the bridge
    assert len(pendant_cycles(lower_bound_near_miss())) == 2


def test_cycle_counts_frozen():
    assert enumerate_simple_cycles(complete_graph(4)) == (4, 4, 0, 7)
    assert enumerate_simple_cycles(cycle_graph(5)) == (1, 0, 1, 1)
    assert enumerate_simple_cycles(cycle_graph(7)) == (1, 1, 0, 1)
    assert enumerate_simple_cycles(path_graph(6)) == (0, 0, 0, 0)
    # K5: 10 triangles + 15 C4 + 12 C5 = 37 total, 22 odd, 10 of them 3 mod 4
    assert enumerate_simple_cycles(complete_graph(5)) == (22, 10, 12, 37)


def test_cycle_count_budget():
    with pytest.raises(CycleBudgetError):
        enumerate_simple_cycles(cycle_graph(15))
    assert enumerate_simple_cycles(cycle_graph(14)) == (0, 0, 0, 1)


def test_cycle_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 8)
        h = nx.gnp_random_graph(n, 0.4, seed=rng.randrange(2**30))
        g = Graph(n, [tuple(sorted(e)) for e in h.edges()])
        lengths = [len(c) for c in nx.simple_cycles(h)]
        want = (
            sum(1 for q in lengths if q % 2 == 1),
            sum(1 for q in lengths if q % 4 == 3),
            sum(1 for q in lengths if q % 4 == 1),
            len(lengths),
        )
        assert enumerate_simple_cycles(g) == want


CONTRACTION_LEMMAS = (
    "pendant_existence",
    "matching_decomposition",
    "odd_cycles_matching_equivalence",
    "attached_even_cycle",
    "lower_bound_forces_avoidance",
)


def test_has_attached_disjoint_cycles():
    """The contraction lemmas apply only to at least one cycle, all cycles
    vertex-disjoint, and some cycle attached to the rest of the graph."""

    def verdicts(g):
        report = lemma_suite(g)
        return [report[name] for name in CONTRACTION_LEMMAS]

    assert any(v is not None for v in verdicts(cycle_with_tail(5, 1)))
    assert any(v is not None for v in verdicts(lower_bound_near_miss()))
    assert verdicts(cycle_graph(5)) == [None] * 5  # nothing attached
    assert verdicts(path_graph(4)) == [None] * 5  # no cycle
    assert verdicts(bowtie()) == [None] * 5  # cycles overlap
    # disjoint union of a cycle and a tree: no frontier, so not in the class
    assert verdicts(disjoint_union(cycle_graph(4), path_graph(3))) == [None] * 5
