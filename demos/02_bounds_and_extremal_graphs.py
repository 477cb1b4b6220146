"""The matching/cyclomatic bounds on inertia, and who attains them.

For any simple graph, both inertia indices are pinned to the matching
number m and cyclomatic number c:

    m - c  <=  p  <=  m + c      and      m - c  <=  n  <=  m + c

Equality cases are completely understood when the graph's cycles are
pairwise vertex-disjoint, and this demo walks through one graph per
case, plus the near-miss graph that keeps the lower bound subtle.
"""

from inertia_bounds import (
    Graph,
    GraphFacts,
    classify_n_upper,
    classify_p_lower,
    classify_p_upper,
)


def cycle_with_tail(q, tail):
    edges = [(i, (i + 1) % q) for i in range(q)]
    prev = 0
    for k in range(tail):
        edges.append((prev, q + k))
        prev = q + k
    return Graph(q + tail, edges)


def report(name, g):
    """Print the graph's invariants and return the record every verdict reads."""
    f = GraphFacts(g)
    ine, m, c = f.inertia, f.m, f.c
    print(f"{name}: p={ine.p} n={ine.n} m={m} c={c}  window [{m-c}, {m+c}]")
    return f


# p hits the ceiling m + c exactly when every cycle has length 1 mod 4
# (and a matching condition on the cycle-contracted forest holds).
f = report("C5 plus 2-tail", cycle_with_tail(5, 2))
print("  p = m + c?", classify_p_upper(f))

# n hits the ceiling when the residues are 3 mod 4 instead.
f = report("C3 plus 2-tail", cycle_with_tail(3, 2))
print("  n = m + c?", classify_n_upper(f))

# The floor m - c is hit by p and n together, never separately, and
# needs residue 0 cycles.
f = report("C4 plus 2-tail", cycle_with_tail(4, 2))
print("  p = n = m - c?", classify_p_lower(f))

# The near-miss: two 4-cycles joined by a bridge.  Residues are all 0
# and every maximum matching avoids the bridge, which is the whole
# frontier.  A naive "frontier avoidance" characterization would call
# this graph extremal, but p = 3 > m - c = 2.  Only the condition on
# the contracted forest tells the truth.
g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
              (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
f = report("two C4 plus bridge", g)
print("  frontier:", sorted(f.frontier))
print("  every max matching avoids the frontier?", f.frontier_always_avoided)
print("  p = n = m - c?", classify_p_lower(f))
