"""Graph type, constructors, graph6 codec, edge-list parsing."""

import pickle
import random

import pytest

from inertia_bounds import (
    Graph,
    GraphParseError,
    complete_graph,
    components,
    cycle_graph,
    cyclomatic_number,
    delete_edges,
    delete_vertex,
    delete_vertices,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_graph6,
    path_graph,
    pendant_vertices,
    quasi_pendant_vertices,
    to_graph6,
)
from inertia_bounds.corpus import enumerate_labeled, sample_random


def test_basic_construction():
    g = Graph(4, [(0, 1), (2, 1), (1, 0)])  # duplicates and flips collapse
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.adj[1] == frozenset({0, 2})
    assert g.adj[3] == frozenset()
    assert len(g.adj[1]) == 2


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_constructor_error_messages():
    with pytest.raises(ValueError) as err:
        Graph(-1)
    assert str(err.value) == "vertex count must be non-negative, got -1"
    with pytest.raises(ValueError) as err:
        Graph(3, [(0, 1), (2, 2)])
    assert str(err.value) == "self-loop at vertex 2 is not allowed"
    # the message names the normalised edge, smaller endpoint first
    with pytest.raises(ValueError) as err:
        Graph(3, [(3, 0)])
    assert str(err.value) == "edge (0, 3) out of range for n=3"
    with pytest.raises(ValueError) as err:
        Graph(3, [(1, -1)])
    assert str(err.value) == "edge (-1, 1) out of range for n=3"


def test_graphs_are_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        g.edges = frozenset()


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = path_graph(3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
    assert a != Graph(4, [(0, 1), (1, 2)])


def test_pickle_round_trip():
    g = cycle_graph(5)
    assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize(
    "builder,n,expected_edges",
    [
        (empty_graph, 4, 0),
        (path_graph, 5, 4),
        (cycle_graph, 5, 5),
        (complete_graph, 5, 10),
    ],
)
def test_constructor_sizes(builder, n, expected_edges):
    g = builder(n)
    assert g.n == n
    assert len(g.edges) == expected_edges


def test_star_is_a_tree():
    from inertia_bounds import star_graph

    g = star_graph(6)  # one hub, six leaves
    assert g.n == 7
    assert is_tree(g)
    assert pendant_vertices(g) == {1, 2, 3, 4, 5, 6}
    assert quasi_pendant_vertices(g) == {0}


def test_k2_has_no_quasi_pendant():
    # both endpoints are pendant, so neither qualifies
    g = path_graph(2)
    assert pendant_vertices(g) == {0, 1}
    assert quasi_pendant_vertices(g) == set()


def test_disjoint_union():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert g.n == 5
    assert (3, 4) in g.edges
    assert len(components(g)) == 2
    assert components(g)[0] == {0, 1, 2}


def test_components_and_forest_predicates():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert components(g) == [{0, 1}, {2, 3, 4}, {5}]
    assert not is_tree(g)
    assert not is_connected(g)
    assert cyclomatic_number(g) == 0
    assert cyclomatic_number(cycle_graph(4)) == 1


def test_delete_vertices_index_map():
    g = cycle_graph(5)
    sub = delete_vertices(g, [1, 3])
    assert sub.graph.n == 3
    assert sub.index_map == {0: 0, 2: 1, 4: 2}
    # only the 4-0 edge survives among kept vertices
    assert sub.graph.edges == frozenset({(0, 2)})
    assert delete_vertex(g, 0) == delete_vertices(g, [0]).graph


def test_delete_edges():
    g = cycle_graph(4)
    h = delete_edges(g, [(0, 1)])
    assert h.n == 4 and len(h.edges) == 3
    with pytest.raises(ValueError):
        delete_edges(g, [(0, 2)])  # not present


def test_induced_subgraph():
    g = complete_graph(5)
    sub = induced_subgraph(g, [0, 2, 4])
    assert sub.graph == complete_graph(3)


# graph6 codec


def test_graph6_frozen_strings():
    assert to_graph6(cycle_graph(5)) == "Dhc"
    assert to_graph6(path_graph(2)) == "A_"
    assert to_graph6(empty_graph(1)) == "@"
    assert parse_graph6("Dhc") == cycle_graph(5)
    assert parse_graph6("A_") == path_graph(2)


def test_graph6_header_and_whitespace():
    assert parse_graph6(">>graph6<<A_") == path_graph(2)
    assert parse_graph6("A_\n") == path_graph(2)


def test_graph6_round_trip_exhaustive_n4():
    for item in enumerate_labeled(4):
        assert parse_graph6(to_graph6(item.graph)) == item.graph


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 30)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.2
        ]
        g = Graph(n, edges)
        assert parse_graph6(to_graph6(g)) == g
    for item in sample_random(n=12, edge_probability=0.4, count=30, seed=7):
        assert parse_graph6(to_graph6(item.graph)) == item.graph


def test_graph6_long_form_boundary():
    # n = 63 switches to the 4-byte size prefix
    g = Graph(63, [(0, 62)])
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_errors_carry_byte_offsets():
    with pytest.raises(GraphParseError, match="offset 1"):
        parse_graph6("A!")  # 0x21 is below the graph6 alphabet
    with pytest.raises(GraphParseError, match="empty"):
        parse_graph6("")
    with pytest.raises(GraphParseError, match="expected 2 payload bytes"):
        parse_graph6("D")  # needs 2 data bytes for n=5
    with pytest.raises(GraphParseError, match="padding"):
        parse_graph6("A" + chr(63 + 0b011111))  # nonzero pad bits


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 20)
        h = nx.gnp_random_graph(n, 0.3, seed=rng.randrange(2**30))
        ours = parse_graph6(nx.to_graph6_bytes(h, header=False).decode().strip())
        assert ours.n == h.number_of_nodes()
        assert ours.edges == frozenset(tuple(sorted(e)) for e in h.edges())
        # and the reverse direction
        back = nx.from_graph6_bytes(to_graph6(ours).encode())
        assert frozenset(tuple(sorted(e)) for e in back.edges()) == ours.edges


# edge list format


def test_parse_edge_list_basic():
    text = "4\n# a comment\n0 1\n1 2\n\n1 0\n"
    g = parse_edge_list(text)
    assert g == Graph(4, [(0, 1), (1, 2)])


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("3\n0 1\n0 9\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("3\n0 0\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("not a number\n")
