"""Property tests: independent routes agree on arbitrary small graphs,
and neither a shortcut constructor nor a vertex order changes a result.

One strategy draws a vertex count n <= 9 and any subset of the n(n-1)/2
possible edges; the matching-answer property draws sparser graphs, whose
maximum matchings it can list one by one, and so does the premise
property, which reads each verdict's premise off networkx instead.
Runs are derandomized and keep no example database, so every run tries
the same graphs.
"""

import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_bounds import (
    Graph,
    GraphFacts,
    certificate_inertia,
    check_deletion_corollaries,
    check_difference_bounds,
    check_tree_nullity,
    classify_unicyclic,
    delete_vertices,
    graph_inertia,
    matching_number,
    parse_edge_list,
    parse_graph6,
    path_graph,
    to_graph6,
)
from charpoly import graph_inertia_oracle
from matching_oracle import every_maximum_matching, matching_bruteforce

repeatable = settings(derandomize=True, database=None)


@st.composite
def graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@repeatable
@given(graphs())
def test_the_three_inertia_routes_agree(g):
    expected = graph_inertia_oracle(g)
    assert graph_inertia(g) == expected
    terms: list = []
    assert graph_inertia(g, terms) == expected
    assert certificate_inertia(g, terms) == expected
    assert sum(expected) == g.n


@repeatable
@given(graphs())
def test_blossom_matching_agrees_with_brute_force(g):
    assert matching_number(g) == matching_bruteforce(g)


@st.composite
def sparse_graphs(draw, max_n: int = 8, max_edges: int = 14) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    k = draw(st.integers(min_value=0, max_value=min(max_edges, len(pairs))))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), min_size=k, max_size=k, unique=True)) if k else [])


@settings(derandomize=True, database=None, max_examples=400)
@given(sparse_graphs())
def test_matching_answers_agree_with_every_maximum_matching(g):
    f = GraphFacts(g)
    best = every_maximum_matching(g)
    assert {len(mm) for mm in best} == {f.m}
    for e in g.edges:  # some maximum matching uses uv iff m(G - u - v) = m - 1
        assert (f.m_without(e) == f.m - 1) == any(e in mm for mm in best)
    for v in range(g.n):  # every maximum matching covers v iff m(G - v) = m - 1
        assert (f.m_without((v,)) == f.m - 1) == all(any(v in e for e in mm) for mm in best)
    if f.cycles.disjoint:
        misses = [not (mm & f.frontier) for mm in best]
        assert f.frontier_avoidable == any(misses)
        assert f.frontier_always_avoided == all(misses)


@settings(derandomize=True, database=None, max_examples=300)
@given(sparse_graphs())
def test_a_verdict_answers_none_exactly_outside_its_premise(g):
    # the premises, read off networkx and the char-poly oracle instead of the record
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    connected = g.n > 0 and nx.is_connected(h)
    c = h.number_of_edges() - g.n + nx.number_connected_components(h)
    m = len(nx.max_weight_matching(h, maxcardinality=True))
    p = graph_inertia_oracle(g).p
    f = GraphFacts(g)
    unicyclic = connected and h.number_of_edges() == g.n
    assert (classify_unicyclic(f) is None) == (not unicyclic)
    tree = g.n >= 2 and nx.is_tree(h)
    assert (check_tree_nullity(f) is None) == (not tree)
    assert (check_deletion_corollaries(f) is None) == (c == 0 or p not in (m - c, m + c))


def test_difference_bounds_answer_none_above_fourteen_vertices():
    assert check_difference_bounds(GraphFacts(path_graph(15))) is None
    assert check_difference_bounds(GraphFacts(path_graph(14))) is not None


@repeatable
@given(graphs())
def test_graph6_and_edge_list_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g
    text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    assert parse_edge_list(text) == g


@repeatable
@given(st.data())
def test_delete_vertices_equals_the_graph_built_from_its_edges(data):
    g = data.draw(graphs())
    drop = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0)), max_size=g.n))
    h = delete_vertices(g, drop)
    label = {v: i for i, v in enumerate(v for v in range(g.n) if v not in drop)}
    want = Graph(len(label), [(label[u], label[v]) for u, v in g.edges if u not in drop and v not in drop])
    assert h == want and hash(h) == hash(want) and h.n == want.n
    assert h.edges == want.edges
    assert pickle.loads(pickle.dumps(h)) == want


@repeatable
@given(st.data())
def test_peeled_inertia_ignores_the_vertex_labels(data):
    # the core is eliminated in degree order, which must not leak into a result
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert graph_inertia(h) == graph_inertia(g)
