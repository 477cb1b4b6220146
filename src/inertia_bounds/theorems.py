"""Verdict functions: bounds, extremal classification, structural lemmas.

Every function here cross-validates two independent computation routes:
the spectral side (exact inertia of the adjacency matrix) against the
combinatorial side (matching numbers, cycle layout).  Equality of the
two sides on every graph is the point of the package, so none of these
functions ever "fix up" a mismatch; they report it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .cycles import (
    CycleStructure,
    analyze_cycles,
    contract_cycles,
    cycle_lengths_mod4,
    enumerate_simple_cycles,
    frontier_edges,
    has_attached_disjoint_cycles,
    non_cyclic_forest,
    pendant_cycles,
)
from .graphs import (
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
from .inertia import Inertia, adjacency_matrix, graph_inertia, inertia_congruence
from .matching import (
    edge_in_some_maximum_matching,
    every_max_matching_avoids,
    every_max_matching_covers,
    exists_max_matching_avoiding,
    matching_number,
)


def check_bounds(g: Graph) -> bool:
    """Do matching number and cyclomatic number bound both inertia indices?

    True iff m - c <= p <= m + c and m - c <= n <= m + c.
    """
    inert = graph_inertia(g)
    m = matching_number(g)
    c = cyclomatic_number(g)
    return (m - c <= inert.p <= m + c) and (m - c <= inert.n <= m + c)


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


def _extremal_conditions(g: Graph, cs: CycleStructure, residue: int) -> tuple[bool, bool]:
    """(contraction form, frontier form) of the extremal conditions.

    Both are False unless the cycles are pairwise vertex-disjoint and all
    cycle lengths fall in the given residue class mod 4.
    """
    if not cs.disjoint:
        return False, False
    if any(r != residue for r in cycle_lengths_mod4(cs)):
        return False, False
    contraction = contract_cycles(g, cs)
    cond_contraction = matching_number(contraction.forest) == matching_number(
        non_cyclic_forest(contraction)
    )
    cond_frontier = exists_max_matching_avoiding(g, frontier_edges(g, cs))
    return cond_contraction, cond_frontier


def classify_p_upper(g: Graph) -> UpperClassification:
    """Is p = m + c, and do the structural conditions predict it?

    Structural side: disjoint cycles, every length 1 mod 4, plus either
    witness form.  Trees and forests attain the bound vacuously (c = 0).
    """
    attained = graph_inertia(g).p == matching_number(g) + cyclomatic_number(g)
    cond_c, cond_f = _extremal_conditions(g, analyze_cycles(g), residue=1)
    return UpperClassification(attained, cond_c, cond_f)


def classify_n_upper(g: Graph) -> UpperClassification:
    """Is n = m + c; structural conditions with cycle lengths 3 mod 4."""
    attained = graph_inertia(g).n == matching_number(g) + cyclomatic_number(g)
    cond_c, cond_f = _extremal_conditions(g, analyze_cycles(g), residue=3)
    return UpperClassification(attained, cond_c, cond_f)


def classify_p_lower(g: Graph) -> LowerClassification:
    """Is p = m - c; structural conditions with cycle lengths 0 mod 4.

    Only the contraction form characterizes the lower bound: a matching
    avoiding the frontier can exist even when the bound is missed (two
    4-cycles joined by a bridge are the canonical example).
    """
    attained = graph_inertia(g).p == matching_number(g) - cyclomatic_number(g)
    cond_c, _ = _extremal_conditions(g, analyze_cycles(g), residue=0)
    return LowerClassification(attained, cond_c)


def classify_n_lower(g: Graph) -> LowerClassification:
    """Is n = m - c; shares its conditions with :func:`classify_p_lower`."""
    attained = graph_inertia(g).n == matching_number(g) - cyclomatic_number(g)
    cond_c, _ = _extremal_conditions(g, analyze_cycles(g), residue=0)
    return LowerClassification(attained, cond_c)


def classify_unicyclic(g: Graph) -> tuple[int, int]:
    """Predicted (n, p) of a connected unicyclic graph from matchings alone.

    Four cases on the cycle length q mod 4 and matching structure:
    (m-1, m-1) when q = 0 mod 4 and every maximum matching avoids the
    frontier; (m, m+1) when q = 1 mod 4 and m(G) = m(G - C) + (q-1)/2;
    (m+1, m) when q = 3 mod 4 under the same equation; (m, m) otherwise.
    """
    if not is_connected(g) or cyclomatic_number(g) != 1:
        raise ValueError("unicyclic classification needs a connected graph with exactly one cycle")
    cs = analyze_cycles(g)
    cycle = cs.cycles[0]
    q = len(cycle)
    m = matching_number(g)
    if q % 4 == 0:
        if every_max_matching_avoids(g, frontier_edges(g, cs)):
            return (m - 1, m - 1)
        return (m, m)
    if q % 2 == 1:
        off_cycle = delete_vertices(g, cycle).graph
        if m == matching_number(off_cycle) + (q - 1) // 2:
            return (m, m + 1) if q % 4 == 1 else (m + 1, m)
    return (m, m)


def check_deletion_corollaries(g: Graph) -> bool:
    """Check the vertex-deletion consequences of a tight bound on p.

    Precondition: the graph has a cycle and p equals m + c or m - c.
    For every vertex v on a cycle the deleted graph must satisfy, for
    the upper case: p drops by 1, stays tight (p = m + c on G - v),
    m is unchanged, c drops by 1, and v is not a quasi-pendant; for the
    lower case: p unchanged, tight below, m drops by 1, c drops by 1,
    and v is not a quasi-pendant.
    """
    cs = analyze_cycles(g)
    if not cs.cyclic_vertices:
        raise ValueError("deletion corollaries need at least one cycle")
    p = graph_inertia(g).p
    m = matching_number(g)
    c = cyclomatic_number(g)
    upper = p == m + c
    lower = p == m - c
    if not (upper or lower):
        raise ValueError("deletion corollaries apply only when p = m + c or p = m - c")
    quasi = quasi_pendant_vertices(g)
    for v in sorted(cs.cyclic_vertices):
        if v in quasi:
            return False
        h = delete_vertex(g, v)
        ph = graph_inertia(h).p
        mh = matching_number(h)
        ch = cyclomatic_number(h)
        if ch != c - 1:
            return False
        if upper and not (ph == p - 1 and ph == mh + ch and mh == m):
            return False
        if lower and not (ph == p and ph == mh - ch and mh == m - 1):
            return False
    return True


def check_tree_nullity(t: Graph) -> bool:
    """Is the nullity of a tree at most (number of leaves) - 1?"""
    if not is_tree(t) or t.n < 2:
        raise ValueError("tree nullity bound needs a tree with at least 2 vertices")
    return graph_inertia(t).eta <= len(pendant_vertices(t)) - 1


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


def check_difference_bounds(g: Graph) -> DifferenceBounds:
    inert = graph_inertia(g)
    counts = enumerate_simple_cycles(g)
    diff = inert.p - inert.n
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


def _unreduced_inertia(h: Graph) -> Inertia:
    # graph_inertia peels pendants and isolated vertices, which applies the
    # pendant and additivity rules; the lemmas that test those rules take
    # their subgraph inertias from the unreduced kernel instead.
    return inertia_congruence(adjacency_matrix(h))


def _pendant_reduction_holds(g: Graph, inert: Inertia) -> bool | None:
    pend = pendant_vertices(g)
    if not pend:
        return None
    for u in sorted(pend):
        v = next(iter(g.adj[u]))
        rest = delete_vertices(g, (u, v)).graph
        if _unreduced_inertia(rest) + (1, 1, 0) != inert:
            return False
    return True


def _component_additivity_holds(g: Graph, inert: Inertia) -> bool | None:
    comps = components(g)
    if len(comps) < 2:
        return None
    total = Inertia(0, 0, 0)
    for comp in comps:
        total = total + _unreduced_inertia(induced_subgraph(g, comp).graph)
    return total == inert


def _interlacing_holds(g: Graph, inert: Inertia) -> bool | None:
    if g.n == 0:
        return None
    for v in range(g.n):
        sub = graph_inertia(delete_vertex(g, v))
        if not (inert.p - 1 <= sub.p <= inert.p and inert.n - 1 <= sub.n <= inert.n):
            return False
    return True


def _quasipendant_matching_drop_holds(g: Graph, m: int) -> bool | None:
    quasi = quasi_pendant_vertices(g)
    if not quasi:
        return None
    return all(matching_number(delete_vertex(g, v)) == m - 1 for v in sorted(quasi))


def _tree_checks(g: Graph, inert: Inertia, m: int) -> tuple[bool | None, bool | None]:
    if not (is_tree(g) and g.n >= 2):
        return None, None
    nullity_ok = inert.eta <= len(pendant_vertices(g)) - 1
    stripped = delete_vertices(g, pendant_vertices(g)).graph
    strip_ok = matching_number(stripped) < m
    return nullity_ok, strip_ok


def _contraction_lemmas(
    g: Graph, cs: CycleStructure, inert: Inertia, m: int, c: int
) -> dict[str, bool | None]:
    """Lemmas about graphs whose disjoint cycles attach to a forest rest."""
    out: dict[str, bool | None] = {
        "pendant_existence": None,
        "matching_decomposition": None,
        "odd_cycles_matching_equivalence": None,
        "attached_even_cycle": None,
        "lower_bound_forces_avoidance": None,
    }
    if not has_attached_disjoint_cycles(g, cs):
        return out
    contraction = contract_cycles(g, cs)
    m_contracted = matching_number(contraction.forest)
    m_off_cycles = matching_number(non_cyclic_forest(contraction))
    frontier = frontier_edges(g, cs)
    avoidable = exists_max_matching_avoiding(g, frontier)
    all_odd = all(len(cyc) % 2 == 1 for cyc in cs.cycles)

    if m_contracted == m_off_cycles:
        pend_ok = bool(pendant_vertices(g))
        quasi_off_cycle = not (quasi_pendant_vertices(g) & cs.cyclic_vertices)
        out["pendant_existence"] = pend_ok and quasi_off_cycle

    if avoidable:
        decomposition = m == m_off_cycles + sum(len(cyc) // 2 for cyc in cs.cycles)
        if all_odd:
            decomposition = decomposition and (m_contracted == m_off_cycles)
        out["matching_decomposition"] = decomposition

    if all_odd:
        out["odd_cycles_matching_equivalence"] = (
            (m_contracted == m_off_cycles) == avoidable
        )

    if inert.p == m - c:
        out["lower_bound_forces_avoidance"] = every_max_matching_avoids(g, frontier)
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
            and not edge_in_some_maximum_matching(g, (x, y))
            and every_max_matching_covers(k_sub, k_map[y])
            and matching_number(k_plus_x) == m_k
            and m == len(cand.cycle) // 2 + m_k
        )
        verdicts.append(checks)
    if not verdicts:
        return None
    return all(verdicts)


def lemma_suite(g: Graph) -> dict[str, bool | None]:
    """Run every structural lemma check applicable to ``g``.

    Returns a fixed-key dict; values are True (verified), False
    (counterexample), or None (the lemma's premise does not apply).
    """
    inert = graph_inertia(g)
    m = matching_number(g)
    c = cyclomatic_number(g)
    cs = analyze_cycles(g)
    nullity_ok, strip_ok = _tree_checks(g, inert, m)
    report: dict[str, bool | None] = {
        "pendant_reduction": _pendant_reduction_holds(g, inert),
        "component_additivity": _component_additivity_holds(g, inert),
        "deletion_interlacing": _interlacing_holds(g, inert),
        "quasipendant_matching_drop": _quasipendant_matching_drop_holds(g, m),
        "tree_nullity_bound": nullity_ok,
        "leaf_stripping_drop": strip_ok,
    }
    report.update(_contraction_lemmas(g, cs, inert, m, c))
    # tight bounds force vertex-disjoint cycles
    attains_any = inert.p in (m - c, m + c) or inert.n in (m - c, m + c)
    report["tight_bound_disjoint_cycles"] = (
        (cs.disjoint if attains_any else None) if cs.cyclic_vertices else None
    )
    return report


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
