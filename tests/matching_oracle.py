"""The brute-force matching route, kept as a test oracle.

It lists every matching of a graph by branching on each edge in sorted
order (leave it out, or take it if both ends are free), which is the
dumbest correct algorithm and shares no code with the package's blossom
solver.  :func:`every_maximum_matching` answers the quantified matching
questions directly; :func:`matching_bruteforce` is the size of its
first maximum matching.

Budget: the listing grows with the number of matchings, so
:func:`matching_bruteforce` refuses graphs with more than 24 edges and
more than 12 vertices (:class:`BudgetExceededError`).
"""

from inertia_bounds import Graph

# listing every matching is fine up to this many edges (or few vertices)
BRUTE_FORCE_EDGE_BUDGET = 24
BRUTE_FORCE_VERTEX_BUDGET = 12


class BudgetExceededError(ValueError):
    """A brute-force oracle was asked to exceed its stated budget."""


def every_maximum_matching(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Every maximum matching of ``g``, by listing all of its matchings."""
    edges = sorted(g.edges)
    matchings = []

    def grow(i: int, chosen: tuple, used: frozenset) -> None:
        if i == len(edges):
            matchings.append(frozenset(chosen))
            return
        grow(i + 1, chosen, used)
        u, v = edges[i]
        if u not in used and v not in used:
            grow(i + 1, chosen + (edges[i],), used | {u, v})

    grow(0, (), frozenset())
    top = max(map(len, matchings))
    return [mm for mm in matchings if len(mm) == top]


def matching_bruteforce(g: Graph) -> int:
    """Maximum matching size, read off :func:`every_maximum_matching`."""
    if g.num_edges > BRUTE_FORCE_EDGE_BUDGET and g.n > BRUTE_FORCE_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"brute-force matching limited to {BRUTE_FORCE_EDGE_BUDGET} edges "
            f"or {BRUTE_FORCE_VERTEX_BUDGET} vertices; "
            f"got {g.num_edges} edges on {g.n} vertices"
        )
    return len(every_maximum_matching(g)[0])
