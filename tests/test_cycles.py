"""Cycle structure: blocks, disjointness, contraction, frontier, counting."""

import random

import pytest

from inertia_bounds import (
    CycleBudgetError,
    Graph,
    GeneratorParams,
    GraphFacts,
    analyze_cycles,
    biconnected_blocks,
    contract_cycles,
    cycle_graph,
    cyclomatic_number,
    enumerate_simple_cycles,
    frontier_edges,
    lemma_suite,
    path_graph,
    star_graph,
)
from inertia_bounds.corpus import generated_corpus, sample_random
from conftest import complete_graph, cycle_with_tail, disjoint_union, lower_bound_near_miss


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


def test_the_cycle_structure_counts_the_blocks_at_each_vertex():
    # bridges are blocks too; an isolated vertex is in none
    graphs = [bowtie(), path_graph(4), Graph(3), cycle_with_tail(5, 2)]
    graphs += [item.graph for item in sample_random(n=10, edge_probability=0.25, count=60, seed=19)]
    for g in graphs:
        want = [0] * g.n
        for block in biconnected_blocks(g):
            for v in {x for edge in block for x in edge}:
                want[v] += 1
        assert analyze_cycles(g).blocks_at == tuple(want), g
    assert analyze_cycles(bowtie()).blocks_at == (2, 1, 1, 1, 1)
    assert analyze_cycles(path_graph(4)).blocks_at == (1, 2, 2, 1)


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


def test_analyze_cycles_holds_each_cycle_as_its_sorted_vertex_tuple():
    # the walk around this 4-cycle from 0 is 0, 2, 1, 3
    g = Graph(4, [(0, 2), (1, 2), (1, 3), (0, 3)])
    assert analyze_cycles(g).cycles == ((0, 1, 2, 3),)


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
    assert frontier_edges(g, analyze_cycles(g)) == frozenset({(0, 5)})
    for h in (cycle_graph(6), path_graph(4)):
        assert frontier_edges(h, analyze_cycles(h)) == frozenset()


def test_contract_cycles():
    g = cycle_with_tail(3, 2)  # triangle at {0,1,2}, tail 0-3-4
    forest = contract_cycles(g, analyze_cycles(g))
    assert forest.n == 3
    assert cyclomatic_number(forest) == 0
    assert forest.edges == frozenset({(0, 1), (1, 2)})


def test_contract_cycles_on_forest_is_identity_shape():
    g = path_graph(5)
    assert contract_cycles(g, analyze_cycles(g)) == g


def test_contract_cycles_matches_networkx_quotient():
    nx = pytest.importorskip("networkx")
    # generator output with cycles of residue 0, 1 and 3, four seeds each
    graphs = [lower_bound_near_miss()]
    for residue in (0, 1, 3):
        params = GeneratorParams(
            cycle_residue=residue, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=0
        )
        graphs += [item.graph for item in generated_corpus(params, 4)]
    for g in graphs:
        cs = analyze_cycles(g)
        assert cs.cycles and cs.disjoint
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        units = [frozenset(cyc) for cyc in cs.cycles]
        units += [frozenset({v}) for v in range(g.n) if v not in cs.cyclic_vertices]
        quotient = nx.quotient_graph(h, units)
        rank = {unit: i for i, unit in enumerate(sorted(quotient, key=min))}
        quotient = nx.relabel_nodes(quotient, rank)
        assert nx.is_forest(quotient)
        forest = contract_cycles(g, cs)
        assert forest.n == quotient.number_of_nodes()
        assert forest.edges == frozenset(tuple(sorted(e)) for e in quotient.edges())


def test_frontier_edges_match_networkx_cycle_basis():
    nx = pytest.importorskip("networkx")
    graphs = []
    for residue in (0, 1, 3):
        params = GeneratorParams(
            cycle_residue=residue, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=0
        )
        graphs += [item.graph for item in generated_corpus(params, 20)]
    graphs += [item.graph for item in sample_random(9, 0.2, 400, 5)]
    checked = nonempty = joining = 0
    for g in graphs:
        cs = analyze_cycles(g)
        if not cs.disjoint:
            continue
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        # with disjoint cycles the cycle basis is the set of cycles
        owner = {v: i for i, cyc in enumerate(nx.cycle_basis(h)) for v in cyc}
        expected = frozenset((u, v) for u, v in g.edges if owner.get(u) != owner.get(v))
        assert frontier_edges(g, cs) == expected, g
        checked += 1
        nonempty += bool(expected)
        joining += any(u in owner and v in owner for u, v in expected)
    assert (checked, nonempty, joining) == (344, 174, 3)


def test_contract_rejects_overlapping_cycles():
    g = bowtie()
    with pytest.raises(ValueError):
        contract_cycles(g, analyze_cycles(g))


def test_graph_facts_refuse_forest_matchings_when_cycles_overlap():
    for g in (bowtie(), complete_graph(4)):
        facts = GraphFacts(g)
        with pytest.raises(ValueError, match="disjoint"):
            facts.m_forest
        for _ in range(2):  # a cached property caches no exception: every read raises
            with pytest.raises(ValueError, match="disjoint"):
                facts.contraction_keeps_matching


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
        report = lemma_suite(GraphFacts(g))
        return [report[name] for name in CONTRACTION_LEMMAS]

    assert any(v is not None for v in verdicts(cycle_with_tail(5, 1)))
    assert any(v is not None for v in verdicts(lower_bound_near_miss()))
    assert verdicts(cycle_graph(5)) == [None] * 5  # nothing attached
    assert verdicts(path_graph(4)) == [None] * 5  # no cycle
    assert verdicts(bowtie()) == [None] * 5  # cycles overlap
    # disjoint union of a cycle and a tree: no frontier, so not in the class
    assert verdicts(disjoint_union(cycle_graph(4), path_graph(3))) == [None] * 5
