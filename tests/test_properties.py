"""Property tests: independent routes agree on arbitrary small graphs,
and neither a shortcut constructor nor a vertex order changes a result.

One strategy draws a vertex count n <= 9 and any subset of the n(n-1)/2
possible edges.  Runs are derandomized and keep no example database, so
every run tries the same graphs.
"""

import pickle
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_bounds import (
    Graph,
    delete_vertices,
    graph_inertia,
    graph_inertia_oracle,
    matching_bruteforce,
    matching_number,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    unreduced_graph_inertia,
)

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
    assert unreduced_graph_inertia(g) == expected
    assert sum(expected) == g.n


@repeatable
@given(graphs())
def test_blossom_matching_agrees_with_brute_force(g):
    assert matching_number(g) == matching_bruteforce(g)


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
def test_peeled_and_unreduced_inertia_ignore_the_vertex_labels(data):
    # both eliminate in degree order, which must not leak into a result
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert graph_inertia(h) == graph_inertia(g)
    assert unreduced_graph_inertia(h) == unreduced_graph_inertia(g)
