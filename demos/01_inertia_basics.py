"""Exact inertia of adjacency matrices, computed two independent ways.

The inertia of a graph is the triple (p, n, eta): how many adjacency
eigenvalues are positive, negative, and zero.  Everything here is exact
integer arithmetic; no floating point, no tolerance knobs.
"""

from inertia_bounds import (
    cycle_graph,
    graph_char_poly,
    graph_inertia,
    graph_inertia_oracle,
    path_graph,
    star_graph,
)

# Cycles are the heart of the subject: the inertia of C_q depends only
# on q mod 4.  Residue 0 contributes two zero eigenvalues, residue 1
# one extra positive, residue 3 one extra negative, residue 2 neither.
print("cycle inertia by length:")
print(" q   p  n  eta   q mod 4")
for q in range(3, 13):
    ine = graph_inertia(cycle_graph(q))
    print(f"{q:2d}   {ine.p}  {ine.n}   {ine.eta}      {q % 4}")

# A path on an even number of vertices splits half/half; an odd path
# keeps one zero eigenvalue in the middle.
print()
for k in (6, 7):
    print(f"P_{k}:", graph_inertia(path_graph(k)))

# Stars are the extreme nullity case among trees: eta = leaves - 1.
print("star with 5 leaves:", graph_inertia(star_graph(5)))

# Two fully independent routes to the same answer.  The main route is
# a fraction-free integer congruence (Sylvester's law); the oracle builds
# the characteristic polynomial and counts sign changes.  They share
# no code, so agreement is strong evidence both are right.
g = cycle_graph(5)
print()
print("congruence route :", graph_inertia(g))
print("char-poly route  :", graph_inertia_oracle(g))
print("char poly of C_5 (constant term first):", graph_char_poly(g))
