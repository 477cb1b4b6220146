"""Bounds, extremal classifiers, unicyclic table, corollaries, lemma suite."""

import random

import pytest

from inertia_bounds import (
    GeneratorParams,
    Graph,
    GraphFacts,
    Inertia,
    LEMMA_NAMES,
    check_bounds,
    check_deletion_corollaries,
    check_difference_bounds,
    check_tree_nullity,
    classify_n_lower,
    classify_n_upper,
    classify_p_lower,
    classify_p_upper,
    classify_unicyclic,
    cycle_graph,
    cyclomatic_number,
    delete_vertices,
    generate_extremal,
    graph_inertia,
    lemma_suite,
    matching_number,
    parse_graph6,
    path_graph,
    star_graph,
)
from inertia_bounds.cli import parse_corpus_spec
from inertia_bounds.corpus import enumerate_labeled, generated_corpus
from inertia_bounds.graphs import MEMO_VERTICES, _deletion_keys, _memo_key
from inertia_bounds.inertia import _component_inertias, _peel_part_inertia, _peel_without
from inertia_bounds.theorems import GENERATOR_RECIPES, LEMMAS
from inertia_bounds.verify import analyze_graph
from charpoly import graph_inertia_oracle
from conftest import complete_graph, cycle_with_tail, disjoint_union, lower_bound_near_miss, patch_function


def test_bounds_hold_on_small_samples():
    for g in [
        path_graph(6),
        cycle_graph(7),
        complete_graph(5),
        cycle_with_tail(4, 3),
        lower_bound_near_miss(),
    ]:
        assert check_bounds(GraphFacts(g))


def test_bounds_hold_exhaustively_n4():
    for item in enumerate_labeled(4):
        assert check_bounds(GraphFacts(item.graph))


# frozen extremal examples: a cycle with a two-vertex tail in each residue class


def test_p_upper_attained_for_residue_one_tail():
    g = cycle_with_tail(5, 2)  # p = 4 = m + c = 3 + 1
    assert graph_inertia(g) == (4, 3, 0)
    assert matching_number(g) == 3 and cyclomatic_number(g) == 1
    f = GraphFacts(g)
    res = classify_p_upper(f)
    assert res.attained and res.cond_contraction and res.cond_frontier
    neg = classify_n_upper(f)
    assert not neg.attained and not neg.cond_contraction and not neg.cond_frontier


def test_n_upper_attained_for_residue_three_tail():
    g = cycle_with_tail(3, 2)  # n = 3 = m + c = 2 + 1
    assert graph_inertia(g) == (2, 3, 0)
    f = GraphFacts(g)
    res = classify_n_upper(f)
    assert res.attained and res.cond_contraction and res.cond_frontier
    pos = classify_p_upper(f)
    assert not pos.attained and not pos.cond_contraction and not pos.cond_frontier


def test_lower_attained_for_residue_zero_tail():
    g = cycle_with_tail(4, 2)  # p = n = 2 = m - c = 3 - 1
    assert graph_inertia(g) == (2, 2, 2)
    f = GraphFacts(g)
    p_res = classify_p_lower(f)
    n_res = classify_n_lower(f)
    assert p_res.attained and p_res.conditions
    assert n_res.attained and n_res.conditions


def test_classifiers_on_bare_cycles():
    # a bare cycle has no frontier, so every avoidance condition is vacuous
    res = classify_p_upper(GraphFacts(cycle_graph(5)))  # p = 3 = m + c = 2 + 1
    assert res.attained and res.cond_contraction and res.cond_frontier
    res = classify_n_upper(GraphFacts(cycle_graph(3)))  # n = 2 = m + c = 1 + 1
    assert res.attained and res.cond_contraction and res.cond_frontier
    res = classify_p_lower(GraphFacts(cycle_graph(4)))  # p = 1 = m - c = 2 - 1
    assert res.attained and res.conditions


def test_near_miss_lower_bound():
    # residues are 0 and every maximum matching avoids the frontier, yet
    # p = 3 > m - c = 2: the frontier-style condition alone would lie here
    g = lower_bound_near_miss()
    assert graph_inertia(g) == (3, 3, 2)
    assert matching_number(g) == 4 and cyclomatic_number(g) == 2
    f = GraphFacts(g)
    assert f.frontier_always_avoided
    res = classify_p_lower(f)
    assert not res.attained and not res.conditions
    res = classify_n_lower(f)
    assert not res.attained and not res.conditions


def test_classifier_attained_matches_conditions_n4():
    for item in enumerate_labeled(4):
        f = GraphFacts(item.graph)
        for classify in (classify_p_upper, classify_n_upper):
            r = classify(f)
            assert r.attained == r.cond_contraction == r.cond_frontier
        rp, rn = classify_p_lower(f), classify_n_lower(f)
        assert rp.attained == rp.conditions
        assert rn.attained == rn.conditions
        assert rp.attained == rn.attained  # p and n hit the floor together


# unicyclic classification


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(3), (2, 1)),
        (cycle_graph(4), (1, 1)),
        (cycle_graph(5), (2, 3)),
        (cycle_graph(6), (3, 3)),
        (cycle_with_tail(3, 2), (3, 2)),
        (cycle_with_tail(4, 2), (2, 2)),
        (cycle_with_tail(5, 2), (3, 4)),
        (cycle_with_tail(4, 1), (2, 2)),
    ],
)
def test_unicyclic_predictions(g, expected):
    assert classify_unicyclic(GraphFacts(g)) == expected
    ine = graph_inertia(g)
    assert (ine.n, ine.p) == expected


def test_unicyclic_rejects_bad_input():
    assert classify_unicyclic(GraphFacts(path_graph(4))) is None  # no cycle
    assert classify_unicyclic(GraphFacts(disjoint_union(cycle_graph(3), path_graph(2)))) is None
    assert classify_unicyclic(GraphFacts(complete_graph(4))) is None  # c = 3


# deletion corollaries


def test_deletion_corollaries_upper():
    g = cycle_with_tail(5, 2)  # p = m + c
    assert check_deletion_corollaries(GraphFacts(g))


@pytest.mark.parametrize(
    "g, bound",
    [
        # C4 with a pendant on vertex 0: cycle vertex 0 is quasi-pendant
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]), "upper"),
        # bowtie, two triangles sharing vertex 0: deleting 0 drops c by 2
        (Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]), "upper"),
        # C4 at p = 3: p(G - 0) = 1, not p - 1
        (cycle_graph(4), "upper"),
        # C5 at p = 1: p(G - 0) = 2, not p
        (cycle_graph(5), "lower"),
    ],
)
def test_deletion_corollaries_refuse_a_bound_the_graph_misses(g, bound):
    # the record claims p = m + c or m - c; each graph misses it, so one of
    # the four corollaries fails
    m, c = matching_number(g), cyclomatic_number(g)
    p = m + c if bound == "upper" else m - c
    terms: list = []
    claimed = graph_inertia(g, terms)._replace(p=p)
    assert not check_deletion_corollaries(GraphFacts(g, claimed, terms))


def test_a_record_takes_the_inertia_and_its_terms_together():
    # without its terms a given inertia would fail its certificate, and the
    # certified lemmas would read False on a correct graph
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)])
    terms: list = []
    inertia = graph_inertia(g, terms)
    for args in ((inertia,), (None, terms)):
        with pytest.raises(ValueError, match="together with the terms"):
            GraphFacts(g, *args)
    given = GraphFacts(g, inertia, terms)
    assert given.certified == inertia
    verdicts = lemma_suite(given)
    assert verdicts == lemma_suite(GraphFacts(g))
    assert verdicts["pendant_reduction"] is verdicts["component_additivity"] is True
    # an edgeless graph's terms are empty, and still given
    empty: list = []
    assert GraphFacts(Graph(3), graph_inertia(Graph(3), empty), empty).certified == (0, 0, 3)


def test_deletion_corollaries_lower():
    g = cycle_with_tail(4, 2)  # p = m - c
    assert check_deletion_corollaries(GraphFacts(g))


def test_deletion_corollaries_preconditions():
    assert check_deletion_corollaries(GraphFacts(path_graph(5))) is None  # no cycle
    # p strictly inside bounds
    assert check_deletion_corollaries(GraphFacts(cycle_graph(6))) is None


# tree facts


def test_tree_nullity_bound():
    assert check_tree_nullity(GraphFacts(star_graph(5)))  # eta = 4, leaves = 5
    assert check_tree_nullity(GraphFacts(path_graph(7)))
    assert check_tree_nullity(GraphFacts(cycle_graph(4))) is None
    assert check_tree_nullity(GraphFacts(Graph(1, []))) is None


def test_tree_nullity_is_tight_for_stars():
    # eta = leaves - 1, so the bound cannot be improved
    g = star_graph(6)
    assert graph_inertia(g).eta == 5


# difference bounds


def test_difference_bounds_frozen_values():
    d = check_difference_bounds(GraphFacts(complete_graph(4)))
    assert (d.c1, d.c3, d.c5) == (4, 4, 0)
    assert d.diff == -2  # p - n = 1 - 3
    assert d.c1_ok
    assert d.conjecture_ok  # -4 <= -2 <= 0

    d = check_difference_bounds(GraphFacts(cycle_graph(5)))
    assert (d.diff, d.c1, d.c3, d.c5) == (1, 1, 0, 1)
    assert d.c1_ok and d.conjecture_ok

    d = check_difference_bounds(GraphFacts(path_graph(5)))
    assert (d.diff, d.c1, d.c3, d.c5) == (0, 0, 0, 0)
    assert d.c1_ok and d.conjecture_ok


# lemma suite


def test_lemma_suite_keys_are_stable():
    report = lemma_suite(GraphFacts(cycle_with_tail(5, 2)))
    assert tuple(report) == LEMMA_NAMES


def test_lemma_suite_values():
    report = lemma_suite(GraphFacts(cycle_with_tail(5, 2)))
    # connected graph: additivity does not apply
    assert report["component_additivity"] is None
    # not a tree: tree lemmas do not apply
    assert report["tree_nullity_bound"] is None
    assert report["leaf_stripping_drop"] is None
    # has a pendant and a quasi-pendant, cycles are attached and disjoint
    assert report["pendant_reduction"] is True
    assert report["quasipendant_matching_drop"] is True
    assert report["pendant_existence"] is True
    assert report["deletion_interlacing"] is True

    tree_report = lemma_suite(GraphFacts(star_graph(4)))
    assert tree_report["tree_nullity_bound"] is True
    assert tree_report["leaf_stripping_drop"] is True
    assert tree_report["pendant_existence"] is None  # no cycle at all


@pytest.mark.parametrize(
    "g6, expected",
    [
        ("El_G", True),  # C4 plus the path 0-4-5: one edge leaves the cycle
        ("Gl_K?C", None),  # two paths leave C4 at vertex 0
        ("Gl_H?C", None),  # paths leave C4 at vertices 0 and 2
    ],
)
def test_attached_even_cycle_needs_exactly_one_leaving_edge(g6, expected):
    facts = GraphFacts(parse_graph6(g6))
    assert facts.inertia.p == facts.m - facts.c  # every graph here attains the lower bound
    assert lemma_suite(facts)["attached_even_cycle"] is expected


# name: (True, False, None) row counts on two 0 mod 4 cycles grown three steps,
# where the attached-even-cycle and lower-bound lemmas apply on nearly every row
TWO_CYCLE_LOWER_BOUND_SPEC = "generated:residue=0,cycles=2,steps=3,seed=0,count=40"
TWO_CYCLE_LOWER_BOUND_VERDICTS = {
    "pendant_reduction": (40, 0, 0),
    "component_additivity": (20, 0, 20),
    "deletion_interlacing": (40, 0, 0),
    "quasipendant_matching_drop": (40, 0, 0),
    "tree_nullity_bound": (0, 0, 40),
    "leaf_stripping_drop": (0, 0, 40),
    "pendant_existence": (40, 0, 0),
    "matching_decomposition": (40, 0, 0),
    "odd_cycles_matching_equivalence": (0, 0, 40),
    "attached_even_cycle": (35, 0, 5),
    "lower_bound_forces_avoidance": (40, 0, 0),
    "tight_bound_disjoint_cycles": (40, 0, 0),
}


def test_lemma_verdicts_where_the_matching_lemmas_fire():
    corpus = parse_corpus_spec(TWO_CYCLE_LOWER_BOUND_SPEC)
    rows = [lemma_suite(GraphFacts(item.graph)) for item in corpus]
    verdicts = {
        name: tuple(sum(r[name] is v for r in rows) for v in (True, False, None))
        for name in LEMMA_NAMES
    }
    assert verdicts == TWO_CYCLE_LOWER_BOUND_VERDICTS


def test_m_without_solves_each_vertex_set_once(monkeypatch):
    # a row whose G - v fits the memo takes the same path as a larger one: G's
    # one blossom run, then one matching_number_without call per vertex set
    import inertia_bounds.matching as matching_mod

    blossoms, solved = [], []
    mates, without = matching_mod._mates, matching_mod.matching_number_without

    def counted_mates(h):
        blossoms.append(h)
        return mates(h)

    def counted_without(h, row_mates, vs):
        solved.append(frozenset(vs))
        return without(h, row_mates, vs)

    patch_function(monkeypatch, mates, counted_mates)
    patch_function(monkeypatch, without, counted_without)
    g = cycle_with_tail(4, 2)  # m = 3
    f = GraphFacts(g)
    assert g.n - 1 <= MEMO_VERTICES and blossoms == [g]
    assert f.m_without(()) == f.m == 3 and not solved
    assert f.m_without((0, 4)) == f.m_without([4, 0]) == f.m_without({0, 4}) == 1
    assert f.m_without((1,)) == 2
    assert f.m_without((1,)) == 2
    assert solved == [{0, 4}, {1}]
    assert blossoms == [g]


def deletion_corpus() -> list[Graph]:
    """Seeded sparse and dense graphs on 2 to 30 vertices, and generator outputs of every residue.

    Up to 6 vertices the record takes In(G - v) from the shared small graphs, above from G itself.
    """
    rng = random.Random(30)
    graphs = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for n in range(2, 31)
        for p in (2.5 / n, 0.5)
    ]
    for residue in sorted(GENERATOR_RECIPES):
        base = GeneratorParams(cycle_residue=residue, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=residue)
        graphs += [item.graph for item in generated_corpus(base, 6)]
    # the first step of the peel removes the pendant 6 and its neighbour 5
    graphs.append(Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]))
    # the first step removes the pendant 6 and its neighbour 4, which leaves 5 isolated
    graphs.append(Graph(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)]))
    # isolated vertices, first and last, and K2 components beside a triangle
    graphs.append(Graph(10, [(1, 2), (3, 4), (5, 6), (6, 7), (5, 7), (7, 8)]))
    # G peels to nothing, but G - 7 keeps the triangle: a deletion that creates a core
    graphs.append(Graph(8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7)]))
    return graphs


def test_the_record_answers_every_g_minus_v_as_the_built_g_minus_v_does():
    # m(G - v) comes from one search from v's former mate, c(G - v) from G's
    # blocks, and above the memo size In(G - v) from one walk of G's peel and
    # the row's cores, so no G - v is built there.  Each of these wrong variants fails
    # here: m(G - v) taken as m - 1 without the search, the search left free to
    # use v, cores keyed by their size alone, block counts that skip bridges,
    # and the walk branching after a step of the peel instead of before it.
    checked = 0
    for g in deletion_corpus():
        f = GraphFacts(g)
        for v in range(g.n):
            h = delete_vertices(g, (v,))
            want = (graph_inertia(h), matching_number(h), cyclomatic_number(h))
            assert (f.inertia_without(v), f.m_without((v,)), f.c_without(v)) == want, (g, v)
            checked += 1
    assert checked > 1000


def test_every_small_g_minus_v_is_keyed_off_g_as_the_built_g_minus_v_is():
    # on every labelled graph up to MEMO_VERTICES + 1 vertices, each G - v's memo key,
    # read off G, is the key of the G - v that delete_vertices builds; on every graph
    # up to MEMO_VERTICES vertices and a seeded eighth of the larger ones, the record's
    # In(G - v) is that G - v's inertia
    rng = random.Random(34)
    keyed = inertias = 0
    for n in range(MEMO_VERTICES + 2):
        for item in enumerate_labeled(n):
            g = item.graph
            built = [delete_vertices(g, (v,)) for v in range(n)]
            assert _deletion_keys(g) == [_memo_key(h) for h in built], g
            keyed += 1
            if n <= MEMO_VERTICES or rng.random() < 1 / 8:
                f = GraphFacts(g)
                assert [f.inertia_without(v) for v in range(n)] == [graph_inertia(h) for h in built], g
                inertias += 1
    assert keyed == 1100 + 2**15 and inertias > 1100 + 2**12 * 0.9


def certified_pair_inertia(f: GraphFacts, pair: tuple[int, int]) -> Inertia | None:
    """In(G - u - w) as pendant_reduction proves it: the pair's peel terms checked on G's proven core."""
    terms: list = []
    _peel_without(f.graph, pair, terms)
    return _peel_part_inertia(f.graph, pair, terms, *f._proven_core)


def certified_subgraph_corpus() -> list[Graph]:
    """Seeded graphs on 3 to 30 vertices, most with pendants, and generator outputs of every residue."""
    rng = random.Random(18)
    graphs = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for n in range(3, 31)
        for p in (1 / n, 2 / n, 3 / n, 0.3)
        for _ in range(6)
    ]
    for residue in sorted(GENERATOR_RECIPES):
        base = GeneratorParams(cycle_residue=residue, num_cycles=2, num_isolated_seeds=2, num_steps=6, rng_seed=residue)
        graphs += [item.graph for item in generated_corpus(base, 8)]
    return graphs


def test_the_record_answers_every_m_of_g_minus_s_as_the_built_subgraph_does():
    # No G - S is built, on a row of any size: m(G - S) comes from dropping S's
    # vertices one at a time from G's maximum matching, and frontier_avoidable
    # from dropping the matched frontier edges the same way on G minus the
    # frontier.  Each of these wrong variants fails here: a search only from the
    # first former mate, and a search from only one end of a dropped matched edge.
    rng = random.Random(32)
    sets = frontiers = 0
    for g in deletion_corpus() + certified_subgraph_corpus():
        f = GraphFacts(g)
        asked = [f.cycles.cyclic_vertices]
        if f.cycles.disjoint:
            asked += f.frontier
            want = matching_number(Graph(g.n, g.edges - f.frontier)) == f.m
            assert f.frontier_avoidable is want, g
            frontiers += any(f._mates[x] == y for x, y in f.frontier)  # a matched edge is dropped
        asked += [rng.sample(range(g.n), min(k, g.n)) for k in (2, 2, 3, 3)]
        for vs in asked:
            assert f.m_without(vs) == matching_number(delete_vertices(g, vs)), (g, vs)
            sets += 1
        for vs in [(g.n,), (0, -1), (True, 2), (0, 1.0, 3)]:
            assert _error(lambda: f.m_without(vs)) == _error(lambda: delete_vertices(g, vs)), (g, vs)
    assert sets > 3000 and frontiers > 30


def test_pendant_pairs_and_components_are_certified_as_the_built_subgraphs_are():
    # The lemmas read In(G - u - w) and each In(G[C]) off the row's certificate,
    # with no elimination: every pair must peel to G's own core, and every
    # component's share of the terms must prove its inertia.
    pairs = parts = 0
    for g in certified_subgraph_corpus():
        f = GraphFacts(g)
        for pair in sorted({tuple(sorted((u, *g.adj[u]))) for u in f.pendants}):
            h = delete_vertices(g, pair)
            want = graph_inertia(h)
            assert certified_pair_inertia(f, pair) == want, (g, pair)
            assert h.n > 12 or graph_inertia_oracle(h) == want
            pairs += 1
        inertias = _component_inertias(g, f._terms, f.components)
        assert len(inertias) == len(f.components)
        for comp, got in zip(f.components, inertias):
            h = delete_vertices(g, set(range(g.n)) - comp)
            assert got == graph_inertia(h), (g, comp)
            assert h.n > 12 or graph_inertia_oracle(h) == got
            parts += 1
    assert pairs > 2000 and parts > 2000


def test_the_pendant_and_component_lemmas_eliminate_nothing(monkeypatch):
    # a row over the memo size with pendant pairs, a core and four components
    import inertia_bounds.inertia as inertia_mod

    g = disjoint_union(generate_extremal(GeneratorParams(1, 2, 0, 6, 5)), cycle_with_tail(7, 3))
    f = GraphFacts(g)
    assert g.n > MEMO_VERTICES + 1 and len(f.components) == 4 and f._proven_core[0]
    eliminated = []
    eliminate = inertia_mod._eliminate

    def counted(rows, *args):
        eliminated.append(rows)
        return eliminate(rows, *args)

    monkeypatch.setattr(inertia_mod, "_eliminate", counted)
    rules = dict(LEMMAS)
    assert rules["pendant_reduction"](f) is True and rules["component_additivity"](f) is True
    assert not eliminated


def _error(ask):
    with pytest.raises(ValueError) as err:
        ask()
    return str(err.value)


@pytest.mark.parametrize("vertex", [True, 1.0], ids=["bool", "float"])
def test_a_warmed_record_refuses_a_vertex_that_only_equals_an_int(vertex):
    # True == 1.0 == 1, so a memo that looked up before checking would
    # answer for vertex 1 once it held it; P8's G - v are over the memo size,
    # so its record answers them on P8 itself
    for g in (path_graph(4), path_graph(8)):
        fresh, warmed = GraphFacts(g), GraphFacts(g)
        warmed.inertia_without(1)
        warmed.m_without((1,))
        warmed.m_without((1, 2))
        warmed.c_without(1)
        for ask in (
            lambda f: f.inertia_without(vertex),
            lambda f: f.m_without((vertex,)),
            lambda f: f.m_without((vertex, 2)),
            lambda f: f.c_without(vertex),
        ):
            message = _error(lambda: ask(fresh))
            assert "are not all ints" in message
            assert _error(lambda: ask(warmed)) == message


def test_lemma_suite_never_false_on_small_corpus():
    for item in enumerate_labeled(4):
        report = lemma_suite(GraphFacts(item.graph))
        bad = [k for k, v in report.items() if v is False]
        assert not bad, (item.graph_id, bad)


def test_pendant_lemmas_do_not_check_the_peeling_against_itself(monkeypatch):
    # A wrong pendant rule in the peeled route must be caught by the oracle
    # and by both lemmas, which read their subgraph inertias off the row's
    # checked certificate, not off the pendant rule.
    import inertia_bounds.inertia as inertia_mod

    g = disjoint_union(cycle_with_tail(5, 2), star_graph(3), path_graph(4))
    assert analyze_graph(g).oracle_ok is True
    report = lemma_suite(GraphFacts(g))
    assert report["pendant_reduction"] is True
    assert report["component_additivity"] is True

    monkeypatch.setattr(inertia_mod, "_PENDANT_PAIR", Inertia(1, 0, 1))
    assert analyze_graph(g).oracle_ok is False
    report = lemma_suite(GraphFacts(g))
    assert report["pendant_reduction"] is False
    assert report["component_additivity"] is False


def test_pendant_reduction_eliminates_each_pendant_pair_once(monkeypatch):
    # the two pendants of a K2 component are one pair {u, v}, so one G - u - v,
    # whose peel terms are checked once and which eliminates nothing
    import inertia_bounds.inertia as inertia_mod
    import inertia_bounds.theorems as theorems_mod

    checked, eliminated = [], []
    check, eliminate = inertia_mod._peel_part_inertia, inertia_mod._eliminate

    def counted(g, drop, *args):
        checked.append(drop)
        return check(g, drop, *args)

    def counted_eliminate(rows, *args):
        eliminated.append(rows)
        return eliminate(rows, *args)

    f = GraphFacts(disjoint_union(path_graph(2), path_graph(2), star_graph(3)))
    patch_function(monkeypatch, check, counted)
    monkeypatch.setattr(inertia_mod, "_eliminate", counted_eliminate)
    assert dict(theorems_mod.LEMMAS)["pendant_reduction"](f) is True
    # {0, 1}, {2, 3} and the star's three leaves with its centre
    assert sorted(checked) == [(0, 1), (2, 3), (4, 5), (4, 6), (4, 7)]
    assert not eliminated


# extremal generator


def test_generator_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(cycle_residue=2, num_cycles=1, num_isolated_seeds=0, num_steps=1, rng_seed=0)
    with pytest.raises(ValueError):
        GeneratorParams(cycle_residue=1, num_cycles=-1, num_isolated_seeds=0, num_steps=1, rng_seed=0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 1, 0, 0, 0), "cycle_residue must be 0, 1 or 3, got True"),
        ((1.0, 1, 0, 0, 0), "cycle_residue must be 0, 1 or 3, got 1.0"),
        ((1, 1.5, 0, 0, 0), "num_cycles must be an int, got 1.5"),
        ((1, 1, False, 0, 0), "num_isolated_seeds must be an int, got False"),
        ((1, 1, 0, 2.0, 0), "num_steps must be an int, got 2.0"),
        ((1, 1, 0, 0, 0.5), "rng_seed must be an int, got 0.5"),
    ],
    ids=["bool-residue", "float-residue", "float-cycles", "bool-isolated", "float-steps", "float-seed"],
)
def test_generator_params_are_exactly_ints(args, message):
    with pytest.raises(ValueError) as err:
        GeneratorParams(*args)
    assert str(err.value) == message


def test_generator_params_default_to_one_seed_cycle_and_nothing_else():
    assert GeneratorParams(3) == GeneratorParams(3, 1, 0, 0, 0)
    assert GeneratorParams(0, rng_seed=-4).rng_seed == -4  # any int seeds the RNG


def test_each_recipe_seeds_cycles_of_its_residue_and_names_real_classifiers():
    from inertia_bounds.verify import _CLASSIFICATIONS

    assert sorted(GENERATOR_RECIPES) == [0, 1, 3]
    for residue, recipe in GENERATOR_RECIPES.items():
        assert recipe.seed_cycle_lengths and all(q % 4 == residue for q in recipe.seed_cycle_lengths)
        assert recipe.classifiers and set(recipe.classifiers) <= dict(_CLASSIFICATIONS).keys()


def test_generator_is_deterministic():
    params = GeneratorParams(
        cycle_residue=3, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=99
    )
    assert generate_extremal(params) == generate_extremal(params)


@pytest.mark.parametrize("residue", [0, 1, 3])
def test_generator_outputs_satisfy_their_identity(residue):
    for seed in range(25):
        params = GeneratorParams(
            cycle_residue=residue,
            num_cycles=1 + seed % 3,
            num_isolated_seeds=seed % 2,
            num_steps=seed % 5,
            rng_seed=seed,
        )
        g = generate_extremal(params)
        ine = graph_inertia(g)
        m = matching_number(g)
        c = cyclomatic_number(g)
        if residue == 1:
            assert ine.p == m + c
        elif residue == 3:
            assert ine.n == m + c
        else:
            assert ine.p == m - c and ine.n == m - c
