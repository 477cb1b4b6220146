"""Graph type, constructors, graph6 codec, edge-list parsing."""

import itertools
import pickle
import random
import re

import pytest

from inertia_bounds import (
    Graph,
    GraphFacts,
    GraphParseError,
    components,
    cycle_graph,
    cyclomatic_number,
    delete_vertices,
    parse_edge_list,
    parse_graph6,
    path_graph,
    pendant_vertices,
    to_graph6,
)
from inertia_bounds.corpus import enumerate_labeled, sample_random
from inertia_bounds.graphs import MAX_GRAPH6_VERTICES
from conftest import complete_graph, disjoint_union


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
    # endpoints must be exactly int: bool, float and str are refused by name
    for edge, shown in (((True, 0), "(True, 0)"), ((0.5, 1), "(0.5, 1)"), (("1", 0), "('1', 0)")):
        with pytest.raises(ValueError) as err:
            Graph(3, [edge])
        assert str(err.value) == f"edge {shown} has an endpoint that is not an int"
    with pytest.raises(ValueError) as err:
        cycle_graph(2)
    assert str(err.value) == "a cycle needs at least 3 vertices, got 2"


@pytest.mark.parametrize("n", [True, 2.0])
def test_the_vertex_count_is_exactly_an_int(n):
    with pytest.raises(ValueError) as err:
        Graph(n)
    assert str(err.value) == f"vertex count must be an int, got {n!r}"


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
        (Graph, 4, 0),
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
    facts = GraphFacts(g)
    assert facts.tree
    assert pendant_vertices(g) == {1, 2, 3, 4, 5, 6}
    assert facts.quasi_pendants == {0}


def test_k2_has_no_quasi_pendant():
    # both endpoints are pendant, so neither qualifies
    g = path_graph(2)
    assert pendant_vertices(g) == {0, 1}
    assert GraphFacts(g).quasi_pendants == set()


def test_disjoint_union():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert g.n == 5
    assert (3, 4) in g.edges
    assert len(components(g)) == 2
    assert components(g)[0] == {0, 1, 2}


def test_components_and_forest_predicates():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert components(g) == [{0, 1}, {2, 3, 4}, {5}]
    assert not GraphFacts(g).tree
    assert len(components(g)) == 3
    assert cyclomatic_number(g) == 0
    assert cyclomatic_number(cycle_graph(4)) == 1


def test_delete_vertices_relabels_survivors_in_order():
    # 0, 2, 4 become 0, 1, 2; only the 4-0 edge survives among them
    sub = delete_vertices(cycle_graph(5), [1, 3])
    assert sub.n == 3
    assert sub.edges == frozenset({(0, 2)})


def test_delete_vertices_rejects_out_of_range_vertices():
    with pytest.raises(ValueError, match=r"vertices \[-1, 5\] out of range for n=5"):
        delete_vertices(cycle_graph(5), [5, 0, -1])
    # like Graph's endpoints, a vertex equal to an int is not one
    with pytest.raises(ValueError, match=r"vertices \[1.0, 3\] are not all ints"):
        delete_vertices(cycle_graph(5), [3, 1.0])
    with pytest.raises(ValueError, match=r"vertices \[True\] are not all ints"):
        delete_vertices(cycle_graph(5), [True])


def test_induced_subgraph():
    assert delete_vertices(complete_graph(5), [1, 3]) == complete_graph(3)


def relabelled_deletion(g: Graph, drop: set[int]) -> Graph:
    """G - drop built through ``Graph(...)``, the survivors numbered in their order."""
    label = {v: i for i, v in enumerate(v for v in range(g.n) if v not in drop)}
    return Graph(len(label), [(label[u], label[v]) for u, v in g.edges if u in label and v in label])


def test_every_vertex_deletion_is_the_relabelled_graph():
    # every result is relabelled straight off g's neighbour sets; it must equal the
    # plain relabel, neighbour sets and all
    rng = random.Random(29)
    graphs = [item.graph for n in range(6) for item in enumerate_labeled(n)]
    graphs += [item.graph for n in (6, 7, 8) for item in sample_random(n, 0.5, 10, rng.randrange(1000))]
    for g in graphs:
        for k in range(g.n + 1):
            for drop in itertools.combinations(range(g.n), k):
                sub = delete_vertices(g, drop)
                want = relabelled_deletion(g, set(drop))
                assert sub.adj == want.adj, (g, drop)


def test_equal_small_deletions_are_one_graph():
    # C6 and P6 minus either end vertex are all the path 0-1-2-3-4; graphs are
    # compared with ==, so no caller may rely on equal results being one object
    paths = [delete_vertices(g, (v,)) for g in (cycle_graph(6), path_graph(6)) for v in (0, 5)]
    assert all(p == path_graph(5) for p in paths)
    big = cycle_graph(7)
    assert delete_vertices(big, (0,)) == delete_vertices(big, (6,)) == path_graph(6)


# graph6 codec


def test_graph6_frozen_strings():
    assert to_graph6(cycle_graph(5)) == "Dhc"
    assert to_graph6(path_graph(2)) == "A_"
    assert to_graph6(Graph(1)) == "@"
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
    with pytest.raises(GraphParseError, match="truncated 4-byte size header at offset 0"):
        parse_graph6("~??")
    with pytest.raises(GraphParseError, match="non-ASCII character '\u00ac' at offset 2"):
        parse_graph6("G?\u00ac")  # no longer escaped into graph6 bytes


@pytest.mark.parametrize("header", ["", ">>graph6<<"], ids=["bare", "header"])
def test_graph6_padding_errors_name_the_final_byte(header):
    # every n below 63 whose bit count leaves padding, and the 4-byte size form
    widths = set()
    for n in (*range(63), 63, 64, 65, 71, 100):
        pad = -(n * (n - 1) // 2) % 6
        if not pad:
            continue
        widths.add(pad)
        s = header + to_graph6(path_graph(n))
        last = ord(s[-1]) - 63
        assert last & ((1 << pad) - 1) == 0
        assert parse_graph6(s) == path_graph(n)
        offset = len(s) - 1
        for value in range(1, 1 << pad):
            with pytest.raises(GraphParseError, match=f"padding bit in final byte at offset {offset}$"):
                parse_graph6(s[:-1] + chr(63 + (last | value)))
    assert widths == {2, 3, 5}


def test_graph6_rejects_vertex_counts_above_the_cap():
    n = MAX_GRAPH6_VERTICES + 1
    header = "".join(map(chr, (126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63))))
    with pytest.raises(GraphParseError, match=f"vertex count {n} exceeds the supported maximum of 64000"):
        parse_graph6(header)
    with pytest.raises(GraphParseError, match="8-byte size header at offset 0 exceeds"):
        parse_graph6("~~" + "?" * 6)


def test_graph6_encoding_refuses_vertex_counts_above_the_cap():
    with pytest.raises(ValueError) as err:
        to_graph6(Graph(MAX_GRAPH6_VERTICES + 1))
    assert str(err.value) == f"graph6 encoding capped at {MAX_GRAPH6_VERTICES} vertices"


def test_graph6_matches_networkx():
    # every n up to 70 crosses the switch from the 1-byte to the 4-byte size
    # header at 62/63; dense payloads set most bits of every byte
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for p, n in itertools.product((0.05, 0.5, 0.95), (*range(71), 100, 200)):
        h = nx.gnp_random_graph(n, p, seed=rng.randrange(2**30))
        want = frozenset(tuple(sorted(e)) for e in h.edges())
        text = nx.to_graph6_bytes(h, header=False).decode().strip()
        ours = parse_graph6(text)
        assert ours.n == n
        assert ours.edges == want
        # and the reverse direction
        assert to_graph6(ours) == text
        back = nx.from_graph6_bytes(to_graph6(ours).encode())
        assert back.number_of_nodes() == n
        assert frozenset(tuple(sorted(e)) for e in back.edges()) == want


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
    with pytest.raises(GraphParseError, match="line 1: vertex count is not an integer: 'x'"):
        parse_edge_list("x\n")
    with pytest.raises(GraphParseError, match="line 2: endpoints must be integers: '0 a'"):
        parse_edge_list("3\n0 a\n")
    # only an optional '-' and ASCII digits make a number, not everything int() accepts
    for count in ("1_0", "+3", "\u0663"):
        with pytest.raises(GraphParseError, match=re.escape(f"line 1: vertex count is not an integer: '{count}'")):
            parse_edge_list(f"{count}\n0 1\n")
    with pytest.raises(GraphParseError, match="line 2: endpoints must be integers: '0 1_0'"):
        parse_edge_list("11\n0 1_0\n")


def test_parse_edge_list_caps_the_vertex_count():
    # the count is the only thing on the line, yet it would allocate one adjacency set per vertex
    assert parse_edge_list(f"{MAX_GRAPH6_VERTICES}\n").n == MAX_GRAPH6_VERTICES
    with pytest.raises(GraphParseError, match=r"line 2: vertex count 64001 is outside the supported range 0\.\.64000"):
        parse_edge_list("# header\n64001\n")
    with pytest.raises(GraphParseError, match="line 1: vertex count -1 is outside"):
        parse_edge_list("-1\n")
