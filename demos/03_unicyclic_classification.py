"""Predicting the exact inertia of unicyclic graphs from matchings alone.

A connected graph with exactly one cycle lands in one of four cases,
decided by the cycle length q mod 4 and two matching computations.  No
eigenvalue work is needed to state the answer; here we do the spectral
computation anyway to show the prediction is exact.
"""

import random

from inertia_bounds import Graph, GraphFacts, classify_unicyclic

rng = random.Random(7)


def random_unicyclic(n):
    # random tree plus one extra edge
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = {tuple(sorted(e)) for e in edges}
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    edges.append(rng.choice(non_edges))
    return Graph(n, edges)


print("   predicted      computed")
print("   (n, p)         (n, p)")
agreements = 0
for trial in range(12):
    # one record per graph: the exact inertia and the matchings behind the prediction
    f = GraphFacts(random_unicyclic(rng.randint(6, 10)))
    predicted = classify_unicyclic(f)
    computed = (f.inertia.n, f.inertia.p)
    mark = "ok" if predicted == computed else "MISMATCH"
    agreements += predicted == computed
    print(f"   {predicted}         {computed}    {mark}")

print(f"\n{agreements}/12 exact, as the theorem demands")

# The four cases on bare cycles, where they are easiest to see:
from inertia_bounds import cycle_graph

print("\nbare cycles:")
for q in (4, 5, 6, 7):
    print(f"  C_{q}: predicted {classify_unicyclic(GraphFacts(cycle_graph(q)))},"
          f" q mod 4 = {q % 4}")
