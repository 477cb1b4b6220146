"""Exact inertia of adjacency matrices, computed and then certified.

The inertia of a graph is the triple (p, n, eta): how many adjacency
eigenvalues are positive, negative, and zero.  Everything here is exact
integer arithmetic; no floating point, no tolerance knobs.
"""

from inertia_bounds import (
    certificate_inertia,
    cycle_graph,
    graph_inertia,
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

# The main route is a fraction-free integer congruence A = W^T E W
# (Sylvester's law).  Handed a list, it records that congruence, one
# term per peeled pendant pair or pivot; a separate checker, sharing no
# code with it, verifies the terms exactly and reads the inertia off E.
# Agreement means the answer is proved, not merely computed twice.
g = cycle_graph(5)
terms = []
print()
print("congruence route :", graph_inertia(g, terms))
print("checked by       :", certificate_inertia(g, terms))
print(f"certificate of C_5: {len(terms)} terms, for example {terms[0]}")
# A tampered certificate is refused, and the checker names the condition.
block, rows, det = terms[0]
print("det negated      :", certificate_inertia(g, [(block, rows, -det)] + terms[1:]))
