"""Verdict functions: bounds, extremal classification, structural lemmas.

Every function here cross-validates two independent computation routes:
the spectral side (exact inertia of the adjacency matrix) against the
combinatorial side (matching numbers, cycle layout).  Equality of the
two sides on every graph is the point of the package, so none of these
functions ever "fix up" a mismatch; they report it.

The verdicts share a handful of invariants of one graph, kept in a
:class:`GraphFacts` record that computes each of them at most once.
Every public verdict function takes either a :class:`~.graphs.Graph`
or a ``GraphFacts``; given a bare graph it builds a fresh record, so a
caller that runs several verdicts on one graph passes one record to all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .cycles import (
    CycleStructure,
    analyze_cycles,
    contract_cycles,
    enumerate_simple_cycles,
    frontier_edges,
    non_cyclic_forest,
    pendant_cycles,
)
from .graphs import (
    Edge,
    Graph,
    components,
    cyclomatic_number,
    delete_vertex,
    delete_vertices,
    induced_subgraph,
    is_connected,
    is_tree,
    pendant_vertices,
    quasi_pendant_vertices,
)
from .inertia import Inertia, graph_inertia, unreduced_graph_inertia
from .matching import (
    edge_in_some_maximum_matching,
    every_max_matching_avoids,
    every_max_matching_covers,
    exists_max_matching_avoiding,
    matching_number,
)


class GraphFacts:
    """The invariants of one graph that the verdicts share.

    ``inertia``, ``m`` (matching number), ``c`` (cyclomatic number) and
    ``cycles`` (the :class:`CycleStructure`) are computed on creation,
    unless the caller passes in the inertia it already holds.  The rest
    is computed on first use, at most once, and needs pairwise disjoint
    cycles: the matching numbers of the contracted forest and of the
    graph minus its cycles, the frontier edges, and whether some maximum
    matching avoids them.  Each vertex deletion and its inertia are kept
    per vertex (see :meth:`deleted`).  A record belongs to one graph;
    nothing is cached across graphs.
    """

    def __init__(self, graph: Graph, inertia: Inertia | None = None) -> None:
        self.graph = graph
        self.inertia = graph_inertia(graph) if inertia is None else inertia
        self.m = matching_number(graph)
        self.c = cyclomatic_number(graph)
        self.cycles = analyze_cycles(graph)
        self._deleted: dict[int, tuple[Graph, Inertia]] = {}

    def deleted(self, v: int) -> tuple[Graph, Inertia]:
        """G - v and its inertia, computed on first use."""
        if v not in self._deleted:
            h = delete_vertex(self.graph, v)
            self._deleted[v] = (h, graph_inertia(h))
        return self._deleted[v]

    @cached_property
    def forest_matchings(self) -> tuple[int, int]:
        """(m of the contracted forest, m of its non-cyclic part, i.e. of G minus its cycles)."""
        if not self.cycles.cycles:  # nothing to contract: both forests are the graph
            return self.m, self.m
        contraction = contract_cycles(self.graph, self.cycles)
        return matching_number(contraction.forest), matching_number(non_cyclic_forest(contraction))

    @property
    def contraction_keeps_matching(self) -> bool:
        m_forest, m_off_cycles = self.forest_matchings
        return m_forest == m_off_cycles

    @cached_property
    def frontier(self) -> frozenset[Edge]:
        return frontier_edges(self.graph, self.cycles)

    @cached_property
    def frontier_avoidable(self) -> bool:
        return exists_max_matching_avoiding(self.graph, self.frontier, m=self.m)


def _facts(g: Graph | GraphFacts) -> GraphFacts:
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


def check_bounds(g: Graph | GraphFacts) -> bool:
    """Do matching number and cyclomatic number bound both inertia indices?

    True iff m - c <= p <= m + c and m - c <= n <= m + c.
    """
    f = _facts(g)
    m, c = f.m, f.c
    return (m - c <= f.inertia.p <= m + c) and (m - c <= f.inertia.n <= m + c)


class UpperClassification(NamedTuple):
    """Verdict for one of the upper-bound characterizations.

    ``cond_contraction``: cycles pairwise disjoint, all in the right
    length class, and contracting them preserves the forest matching
    number (m(T) = m of the forest minus the contracted vertices).
    ``cond_frontier``: same cycle layout, witnessed instead by a maximum
    matching avoiding all frontier edges.  The two condition forms must
    agree with ``attained`` on every graph; disagreement is a
    counterexample.
    """

    attained: bool
    cond_contraction: bool
    cond_frontier: bool


class LowerClassification(NamedTuple):
    attained: bool
    conditions: bool


def _cycles_in_class(f: GraphFacts, residue: int) -> bool:
    """Are the cycles pairwise vertex-disjoint, every length ``residue`` mod 4?"""
    return f.cycles.disjoint and all(len(cyc) % 4 == residue for cyc in f.cycles.cycles)


def _classify_upper(g: Graph | GraphFacts, index: str, residue: int) -> UpperClassification:
    f = _facts(g)
    fits = _cycles_in_class(f, residue)
    return UpperClassification(
        getattr(f.inertia, index) == f.m + f.c,
        fits and f.contraction_keeps_matching,
        fits and f.frontier_avoidable,
    )


def _classify_lower(g: Graph | GraphFacts, index: str) -> LowerClassification:
    f = _facts(g)
    conditions = _cycles_in_class(f, 0) and f.contraction_keeps_matching
    return LowerClassification(getattr(f.inertia, index) == f.m - f.c, conditions)


def classify_p_upper(g: Graph | GraphFacts) -> UpperClassification:
    """Is p = m + c, and do the structural conditions predict it?

    Structural side: disjoint cycles, every length 1 mod 4, plus either
    witness form.  Trees and forests attain the bound vacuously (c = 0).
    """
    return _classify_upper(g, "p", residue=1)


def classify_n_upper(g: Graph | GraphFacts) -> UpperClassification:
    """Is n = m + c; structural conditions with cycle lengths 3 mod 4."""
    return _classify_upper(g, "n", residue=3)


def classify_p_lower(g: Graph | GraphFacts) -> LowerClassification:
    """Is p = m - c; structural conditions with cycle lengths 0 mod 4.

    Only the contraction form characterizes the lower bound: a matching
    avoiding the frontier can exist even when the bound is missed (two
    4-cycles joined by a bridge are the canonical example).
    """
    return _classify_lower(g, "p")


def classify_n_lower(g: Graph | GraphFacts) -> LowerClassification:
    """Is n = m - c; shares its conditions with :func:`classify_p_lower`."""
    return _classify_lower(g, "n")


def classify_unicyclic(g: Graph | GraphFacts) -> tuple[int, int]:
    """Predicted (n, p) of a connected unicyclic graph from matchings alone.

    Four cases on the cycle length q mod 4 and matching structure:
    (m-1, m-1) when q = 0 mod 4 and every maximum matching avoids the
    frontier; (m, m+1) when q = 1 mod 4 and m(G) = m(G - C) + (q-1)/2;
    (m+1, m) when q = 3 mod 4 under the same equation; (m, m) otherwise.
    """
    f = _facts(g)
    if not is_connected(f.graph) or f.c != 1:
        raise ValueError("unicyclic classification needs a connected graph with exactly one cycle")
    q = len(f.cycles.cycles[0])
    m = f.m
    if q % 4 == 0:
        return (m - 1, m - 1) if every_max_matching_avoids(f.graph, f.frontier, m=m) else (m, m)
    # forest_matchings[1] is m(G - C)
    if q % 2 == 1 and m == f.forest_matchings[1] + (q - 1) // 2:
        return (m, m + 1) if q % 4 == 1 else (m + 1, m)
    return (m, m)


def check_deletion_corollaries(g: Graph | GraphFacts) -> bool:
    """Check the vertex-deletion consequences of a tight bound on p.

    Precondition: the graph has a cycle and p equals m + c or m - c.
    For every vertex v on a cycle the deleted graph must satisfy, for
    the upper case: p drops by 1, stays tight (p = m + c on G - v),
    m is unchanged, c drops by 1, and v is not a quasi-pendant; for the
    lower case: p unchanged, tight below, m drops by 1, c drops by 1,
    and v is not a quasi-pendant.
    """
    f = _facts(g)
    g = f.graph
    if not f.cycles.cyclic_vertices:
        raise ValueError("deletion corollaries need at least one cycle")
    p, m, c = f.inertia.p, f.m, f.c
    upper = p == m + c
    lower = p == m - c
    if not (upper or lower):
        raise ValueError("deletion corollaries apply only when p = m + c or p = m - c")
    quasi = quasi_pendant_vertices(g)
    for v in sorted(f.cycles.cyclic_vertices):
        if v in quasi:
            return False
        h, inert_h = f.deleted(v)
        ph = inert_h.p
        mh = matching_number(h)
        ch = cyclomatic_number(h)
        if ch != c - 1:
            return False
        if upper and not (ph == p - 1 and ph == mh + ch and mh == m):
            return False
        if lower and not (ph == p and ph == mh - ch and mh == m - 1):
            return False
    return True


def check_tree_nullity(t: Graph | GraphFacts) -> bool:
    """Is the nullity of a tree at most (number of leaves) - 1?"""
    f = _facts(t)
    if not is_tree(f.graph) or f.graph.n < 2:
        raise ValueError("tree nullity bound needs a tree with at least 2 vertices")
    return f.inertia.eta <= len(pendant_vertices(f.graph)) - 1


class DifferenceBounds(NamedTuple):
    """|p - n| against the odd-cycle count, and the conjectured refinement.

    ``c1_ok`` (|p - n| <= number of odd cycles) is a proven statement and
    a violation is a counterexample.  ``conjecture_ok``
    (-c3 <= p - n <= c5) is an open conjecture: report it, never assert it.
    """

    diff: int
    c1: int
    c3: int
    c5: int
    c1_ok: bool
    conjecture_ok: bool


def check_difference_bounds(g: Graph | GraphFacts) -> DifferenceBounds:
    f = _facts(g)
    counts = enumerate_simple_cycles(f.graph)
    diff = f.inertia.p - f.inertia.n
    return DifferenceBounds(
        diff=diff,
        c1=counts.c1,
        c3=counts.c3,
        c5=counts.c5,
        c1_ok=abs(diff) <= counts.c1,
        conjecture_ok=-counts.c3 <= diff <= counts.c5,
    )


# ---------------------------------------------------------------------------
# structural lemma suite
#
# Each entry verifies one reduction or decomposition law on one graph.
# Verdicts: True (holds), False (counterexample!), None (premise absent).

LEMMA_NAMES = (
    "pendant_reduction",
    "component_additivity",
    "deletion_interlacing",
    "quasipendant_matching_drop",
    "tree_nullity_bound",
    "leaf_stripping_drop",
    "pendant_existence",
    "matching_decomposition",
    "odd_cycles_matching_equivalence",
    "attached_even_cycle",
    "lower_bound_forces_avoidance",
    "tight_bound_disjoint_cycles",
)


# graph_inertia peels pendants and isolated vertices, which applies the
# pendant and additivity rules; the lemmas that test those rules take their
# subgraph inertias from unreduced_graph_inertia instead.


def _pendant_reduction_holds(g: Graph, inert: Inertia) -> bool | None:
    pend = pendant_vertices(g)
    if not pend:
        return None
    for u in sorted(pend):
        v = next(iter(g.adj[u]))
        rest = delete_vertices(g, (u, v)).graph
        if unreduced_graph_inertia(rest) + (1, 1, 0) != inert:
            return False
    return True


def _component_additivity_holds(g: Graph, inert: Inertia) -> bool | None:
    comps = components(g)
    if len(comps) < 2:
        return None
    total = Inertia(0, 0, 0)
    for comp in comps:
        total = total + unreduced_graph_inertia(induced_subgraph(g, comp).graph)
    return total == inert


def _interlacing_holds(f: GraphFacts) -> bool | None:
    inert = f.inertia
    if f.graph.n == 0:
        return None
    for v in range(f.graph.n):
        sub = f.deleted(v)[1]
        if not (inert.p - 1 <= sub.p <= inert.p and inert.n - 1 <= sub.n <= inert.n):
            return False
    return True


def _quasipendant_matching_drop_holds(f: GraphFacts) -> bool | None:
    quasi = quasi_pendant_vertices(f.graph)
    if not quasi:
        return None
    return all(matching_number(f.deleted(v)[0]) == f.m - 1 for v in sorted(quasi))


def _contraction_lemmas(f: GraphFacts) -> dict[str, bool | None]:
    """Lemmas about graphs whose disjoint cycles attach to a forest rest (applicable ones only)."""
    out: dict[str, bool | None] = {}
    g, cs, m = f.graph, f.cycles, f.m
    # premise: a cycle, all cycles pairwise disjoint, one attached (nonempty frontier)
    if not (cs.disjoint and cs.cycles and f.frontier):
        return out
    keeps_m = f.contraction_keeps_matching
    avoidable = f.frontier_avoidable
    all_odd = all(len(cyc) % 2 == 1 for cyc in cs.cycles)

    if keeps_m:
        pend_ok = bool(pendant_vertices(g))
        quasi_off_cycle = not (quasi_pendant_vertices(g) & cs.cyclic_vertices)
        out["pendant_existence"] = pend_ok and quasi_off_cycle

    if avoidable:
        m_off_cycles = f.forest_matchings[1]
        decomposition = m == m_off_cycles + sum(len(cyc) // 2 for cyc in cs.cycles)
        if all_odd:
            decomposition = decomposition and keeps_m
        out["matching_decomposition"] = decomposition

    if all_odd:
        out["odd_cycles_matching_equivalence"] = keeps_m == avoidable

    if f.inertia.p == m - f.c:
        out["lower_bound_forces_avoidance"] = every_max_matching_avoids(g, f.frontier, m=m)
        out["attached_even_cycle"] = _attached_even_cycle_holds(g, cs, m)
    return out


def _attached_even_cycle_holds(g: Graph, cs: CycleStructure, m: int) -> bool | None:
    """Properties forced on a cycle hanging by one bridge when p = m - c.

    Premise: some cycle C meets the rest of the graph in exactly one
    vertex x with exactly one outside edge xy, and the rest K has
    pairwise disjoint cycles.  Conclusions checked: |C| = 0 mod 4, the
    bridge lies in no maximum matching, every maximum matching of K
    covers y, adding x to K does not raise its matching number, and
    m(G) = m(C) + m(K).
    """
    verdicts = []
    for cand in pendant_cycles(g, cs):
        cyc = set(cand.cycle)
        outside = g.adj[cand.gateway] - cyc
        if len(outside) != 1:
            continue
        x, y = cand.gateway, cand.outside
        k_sub, k_map = delete_vertices(g, cand.cycle)
        if not analyze_cycles(k_sub).disjoint:
            continue
        m_k = matching_number(k_sub)
        k_plus_x = delete_vertices(g, cyc - {x}).graph
        checks = (
            len(cand.cycle) % 4 == 0
            and not edge_in_some_maximum_matching(g, (x, y), m=m)
            and every_max_matching_covers(k_sub, k_map[y], m=m_k)
            and matching_number(k_plus_x) == m_k
            and m == len(cand.cycle) // 2 + m_k
        )
        verdicts.append(checks)
    if not verdicts:
        return None
    return all(verdicts)


def lemma_suite(g: Graph | GraphFacts) -> dict[str, bool | None]:
    """Run every structural lemma check applicable to ``g``.

    Returns a dict keyed by :data:`LEMMA_NAMES`, in that order; values
    are True (verified), False (counterexample), or None (the lemma's
    premise does not apply).
    """
    f = _facts(g)
    g, inert, m, c, cs = f.graph, f.inertia, f.m, f.c, f.cycles
    tree = is_tree(g) and g.n >= 2
    report: dict[str, bool | None] = dict.fromkeys(LEMMA_NAMES)
    report.update(
        pendant_reduction=_pendant_reduction_holds(g, inert),
        component_additivity=_component_additivity_holds(g, inert),
        deletion_interlacing=_interlacing_holds(f),
        # after interlacing, which has put every G - v in the memo
        quasipendant_matching_drop=_quasipendant_matching_drop_holds(f),
        tree_nullity_bound=check_tree_nullity(f) if tree else None,
        leaf_stripping_drop=(
            matching_number(delete_vertices(g, pendant_vertices(g)).graph) < m if tree else None
        ),
    )
    report.update(_contraction_lemmas(f))
    # tight bounds force vertex-disjoint cycles
    attains_any = inert.p in (m - c, m + c) or inert.n in (m - c, m + c)
    report["tight_bound_disjoint_cycles"] = (
        (cs.disjoint if attains_any else None) if cs.cyclic_vertices else None
    )
    return report


# ---------------------------------------------------------------------------
# extremal-graph generator

_SEED_CYCLE_LENGTHS = {1: (5, 9), 3: (3, 7), 0: (4, 8)}


@dataclass(frozen=True)
class GeneratorParams:
    """Seeded recipe for an extremal graph.

    ``cycle_residue`` selects the length class of the seed cycles
    (lengths 1, 3, or 0 mod 4); the identity the output satisfies
    depends on it: p = m + c for residue 1, n = m + c for residue 3,
    p = n = m - c for residue 0.
    """

    cycle_residue: int
    num_cycles: int
    num_isolated_seeds: int
    num_steps: int
    rng_seed: int

    def __post_init__(self) -> None:
        if self.cycle_residue not in (0, 1, 3):
            raise ValueError(f"cycle_residue must be 0, 1 or 3, got {self.cycle_residue}")
        for field in ("num_cycles", "num_isolated_seeds", "num_steps"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")


def generate_extremal(params: GeneratorParams) -> Graph:
    """Grow an extremal graph from cycles and isolated vertices.

    Start with the seeds; each step adds a new vertex v joined to at
    most 3 existing vertices picked from pairwise-distinct components
    (so no step can close a cycle) plus a fresh pendant vertex u joined
    to v.  Every quantity is drawn from one seeded RNG, so equal params
    give equal graphs.
    """
    rng = random.Random(params.rng_seed)
    lengths = _SEED_CYCLE_LENGTHS[params.cycle_residue]
    n = 0
    edges: list[tuple[int, int]] = []
    comps: list[list[int]] = []
    for _ in range(params.num_isolated_seeds):
        comps.append([n])
        n += 1
    for _ in range(params.num_cycles):
        length = rng.choice(lengths)
        ring = list(range(n, n + length))
        edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
        comps.append(ring)
        n += length
    for _ in range(params.num_steps):
        k = rng.randint(0, min(3, len(comps)))
        picked = rng.sample(range(len(comps)), k)
        anchors = [rng.choice(comps[i]) for i in picked]
        v, u = n, n + 1
        n += 2
        edges.append((v, u))
        edges.extend((v, a) for a in anchors)
        merged = [v, u]
        for i in sorted(picked, reverse=True):
            merged.extend(comps.pop(i))
        comps.append(merged)
    return Graph(n, edges)
