"""Verdict functions: bounds, extremal classification, structural lemmas.

Every function here cross-validates two independent computation routes:
the spectral side (exact inertia of the adjacency matrix) against the
combinatorial side (matching numbers, cycle layout).  Equality of the
two sides on every graph is the point of the package, so none of these
functions ever "fix up" a mismatch; they report it.

The verdicts share a handful of invariants of one graph, kept in a
:class:`GraphFacts` record that computes each of them at most once.
Every public verdict function takes that record, so several verdicts on
one graph share one record; a verdict that holds only under a premise
tests it here, once, and answers ``None`` on a graph outside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .cycles import (
    SIMPLE_CYCLE_VERTEX_BUDGET,
    analyze_cycles,
    contract_cycles,
    enumerate_simple_cycles,
    frontier_edges,
)
from .graphs import (
    MEMO_VERTICES,
    Edge,
    Graph,
    _checked_vertices,
    _deletion_keys,
    _small_graph,
    components,
    pendant_vertices,
)
from .inertia import (
    Inertia,
    Term,
    _certified_core,
    _component_inertias,
    _peel_part_inertia,
    _peel_without,
    certificate_inertia,
    deletion_inertias,
    graph_inertia,
)
from .matching import _mates, matching_number, matching_number_without, matching_number_without_edges


class GraphFacts:
    """The invariants of one graph that the verdicts share.

    On creation the record checks the graph's certified inertia:
    ``inertia`` is what ``graph_inertia(graph, terms)`` computes, and
    ``certified`` what :func:`.inertia.certificate_inertia` proves from
    the terms of that run, or the first condition they fail; the two
    differ only on a counterexample.  The record runs the congruence
    itself unless the caller passes the answer and the terms of its own
    run, as :func:`.verify.analyze_graph` does; it passes both or
    neither, or raises ``ValueError``.  ``m`` (matching number), with the
    maximum matching it counts, ``c`` (cyclomatic number), ``cycles``
    (the :class:`CycleStructure`), ``components`` and the ``pendants`` and
    ``quasi_pendants`` vertex sets are computed on creation too.  The rest
    is computed on first use, at most once: the four extremal verdicts
    (:attr:`classifications`) and, on pairwise disjoint cycles, the
    contracted forest's matching number, the frontier edges, and whether
    some or every maximum matching avoids them.

    A question about a vertex-deleted subgraph is asked through
    :meth:`inertia_without`, :meth:`m_without` or :meth:`c_without`, and
    builds no G - S.  m(G - S) comes from the record's maximum matching,
    solved once per vertex set: S's vertices are dropped from it one at
    a time, each at most one augmenting search from its former mate
    (:func:`.matching.matching_number_without`), and the frontier's
    matched edges are dropped the same way for
    :attr:`frontier_avoidable`.  c(G - v) and In(G - v) are each one
    per-vertex list, filled for every vertex on first use; the verdicts
    of this module index those lists, and the two methods check their
    vertex first.  c(G - v) is read off the block counts of ``cycles``.
    When G - v has more than ``MEMO_VERTICES`` vertices its inertia
    comes from one walk of G's peel (:func:`.inertia.deletion_inertias`),
    which branches off G - v's own peel just before G's peel removes v
    and eliminates each distinct core of the row once through a dict on
    the record.  A smaller G - v's memo key is read straight off G's
    neighbour sets, every vertex in one pass
    (:func:`.graphs._deletion_keys`), and ``graph_inertia`` answers the
    process's shared graph for that key from its memo.

    The pendant-pair and component lemmas read their subgraph inertias
    off the accepted certificate, without eliminating: G's core S and
    In(A[S, S]) (:func:`.inertia._certified_core`, once, on first use)
    and each component's share of the terms
    (:func:`.inertia._component_inertias`).  S's inertia also seeds the
    dict of cores, so a G - v that peels to G's own core eliminates
    nothing.

    A record belongs to one graph, and :mod:`.verify` lets go of a row's
    record when the row is done.  Across graphs only the graph layer and
    the inertia kernel keep anything, on purpose: the graph layer holds
    one shared graph per memo key (:func:`.graphs._small_graph`), and
    ``graph_inertia`` without ``terms`` answers each such graph once per
    process, from the memo of :func:`.graphs._memoised`, because in a
    sweep the small subgraphs of one row recur in the next.
    """

    def __init__(self, graph: Graph, inertia: Inertia | None = None, terms: Sequence[Term] | None = None) -> None:
        if (inertia is None) != (terms is None):
            raise ValueError("pass the inertia together with the terms of its run, or neither")
        self.graph = graph
        if inertia is None:
            terms = []
            inertia = graph_inertia(graph, terms)
        self.inertia = inertia
        self._terms = terms
        self.certified = certificate_inertia(graph, terms)
        self._mates = _mates(graph)
        self.m = (graph.n - self._mates.count(-1)) // 2
        self.components = components(graph)
        self.c = graph.num_edges - graph.n + len(self.components)
        self.cycles = analyze_cycles(graph)
        self.pendants = pendant_vertices(graph)
        # a pendant's neighbour that is not itself a pendant has degree >= 2
        self.quasi_pendants = frozenset(w for u in self.pendants for w in graph.adj[u]) - self.pendants
        self._m_without: dict[frozenset[int], int] = {frozenset(): self.m}

    @cached_property
    def _proven_core(self) -> tuple[frozenset[int], Inertia] | None:
        """G's core S and the In(A[S, S]) that the certificate proves; None if it was rejected."""
        return None if isinstance(self.certified, str) else _certified_core(self._terms)

    @cached_property
    def _cores(self) -> dict[tuple[int, ...], Inertia]:
        """The inertia of each core that a G - v peels to, keyed by its vertices; G's proven core to start."""
        if self._proven_core is None:
            return {}
        core, core_inertia = self._proven_core
        return {tuple(sorted(core)): core_inertia}

    @cached_property
    def _deletion_inertias(self) -> list[Inertia]:
        """In(G - v) for every vertex v: the memo's answer when G - v fits it, else one walk of G's peel."""
        g = self.graph
        if g.n - 1 <= MEMO_VERTICES:
            return [graph_inertia(_small_graph(key)) for key in _deletion_keys(g)]
        return deletion_inertias(g, self._cores)

    @cached_property
    def _deletion_cs(self) -> list[int]:
        """c(G - v) for every vertex v; see :meth:`c_without`."""
        adj, blocks_at = self.graph.adj, self.cycles.blocks_at
        return [self.c - len(nbrs) + blocks for nbrs, blocks in zip(adj, blocks_at)]

    def inertia_without(self, v: int) -> Inertia:
        """In(G - v); the first call answers every vertex at once."""
        [v] = _checked_vertices(self.graph, (v,))
        return self._deletion_inertias[v]

    def m_without(self, vs: Iterable[int]) -> int:
        """m(G - vs), solved at most once per vertex set.

        The empty set gives ``m``.  Otherwise the vertices are dropped
        from the record's maximum matching, at most one augmenting search
        each (:func:`.matching.matching_number_without`); no G - vs is
        built.  Out-of-range or non-``int`` vertices raise ``ValueError``.
        """
        key = frozenset(vs)
        # True == 1.0 == 1 would find vertex 1: check before the lookup
        _checked_vertices(self.graph, key)
        if key not in self._m_without:
            self._m_without[key] = matching_number_without(self.graph, self._mates, key)
        return self._m_without[key]

    def c_without(self, v: int) -> int:
        """c(G - v): c - deg(v) + the number of G's blocks that hold v, bridges included.

        Deleting v deletes deg(v) edges and one vertex, and splits v's
        component into one part per block at v (none if v is isolated).
        The first call answers every vertex at once.
        """
        [v] = _checked_vertices(self.graph, (v,))
        return self._deletion_cs[v]

    @cached_property
    def m_forest(self) -> int:
        """The matching number of the forest left by contracting each cycle.

        Raises ``ValueError`` when cycles overlap: there is no forest then.
        """
        if not self.cycles.cyclic_vertices:  # nothing to contract: the forest is the graph
            return self.m
        return matching_number(contract_cycles(self.graph, self.cycles))

    @property
    def tree(self) -> bool:
        """Connected and acyclic, with at least 2 vertices."""
        return self.c == 0 and len(self.components) == 1 and self.graph.n >= 2

    @cached_property
    def contraction_keeps_matching(self) -> bool:
        """Does contracting the cycles keep m of G minus its cycle vertices?"""
        return self.m_forest == self.m_without(self.cycles.cyclic_vertices)

    @cached_property
    def frontier(self) -> frozenset[Edge]:
        return frontier_edges(self.graph, self.cycles)

    @cached_property
    def frontier_avoidable(self) -> bool:
        """Does some maximum matching avoid every frontier edge, i.e. m(G - frontier) = m?

        No G - frontier is built: the matched frontier edges are dropped
        from the record's maximum matching instead.
        """
        return matching_number_without_edges(self.graph, self._mates, self.frontier) == self.m

    @cached_property
    def frontier_always_avoided(self) -> bool:
        """Does no maximum matching use a frontier edge uv, i.e. m(G - u - v) != m - 1?"""
        return all(self.m_without(e) != self.m - 1 for e in self.frontier)

    @cached_property
    def classifications(self) -> dict[str, UpperClassification | LowerClassification]:
        """The four extremal verdicts by report field; each ``classify_*`` is called by its name here."""
        return {
            "p_upper": classify_p_upper(self),
            "n_upper": classify_n_upper(self),
            "p_lower": classify_p_lower(self),
            "n_lower": classify_n_lower(self),
        }


def check_bounds(f: GraphFacts) -> bool:
    """Do matching number and cyclomatic number bound both inertia indices?

    True iff m - c <= p <= m + c and m - c <= n <= m + c.
    """
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


def _classify_upper(f: GraphFacts, index: str, residue: int) -> UpperClassification:
    fits = _cycles_in_class(f, residue)
    return UpperClassification(
        getattr(f.inertia, index) == f.m + f.c,
        fits and f.contraction_keeps_matching,
        fits and f.frontier_avoidable,
    )


def _classify_lower(f: GraphFacts, index: str) -> LowerClassification:
    conditions = _cycles_in_class(f, 0) and f.contraction_keeps_matching
    return LowerClassification(getattr(f.inertia, index) == f.m - f.c, conditions)


def classify_p_upper(f: GraphFacts) -> UpperClassification:
    """Is p = m + c, and do the structural conditions predict it?

    Structural side: disjoint cycles, every length 1 mod 4, plus either
    witness form.  Trees and forests attain the bound vacuously (c = 0).
    """
    return _classify_upper(f, "p", residue=1)


def classify_n_upper(f: GraphFacts) -> UpperClassification:
    """Is n = m + c; structural conditions with cycle lengths 3 mod 4."""
    return _classify_upper(f, "n", residue=3)


def classify_p_lower(f: GraphFacts) -> LowerClassification:
    """Is p = m - c; structural conditions with cycle lengths 0 mod 4.

    Only the contraction form characterizes the lower bound: a matching
    avoiding the frontier can exist even when the bound is missed (two
    4-cycles joined by a bridge are the canonical example).
    """
    return _classify_lower(f, "p")


def classify_n_lower(f: GraphFacts) -> LowerClassification:
    """Is n = m - c; shares its conditions with :func:`classify_p_lower`."""
    return _classify_lower(f, "n")


def classify_unicyclic(f: GraphFacts) -> tuple[int, int] | None:
    """Predicted (n, p) of a connected unicyclic graph from matchings alone.

    Four cases on the cycle length q mod 4 and matching structure:
    (m-1, m-1) when q = 0 mod 4 and every maximum matching avoids the
    frontier; (m, m+1) when q = 1 mod 4 and m(G) = m(G - C) + (q-1)/2;
    (m+1, m) when q = 3 mod 4 under the same equation; (m, m) otherwise.
    None unless the graph is connected unicyclic.
    """
    if not (f.c == 1 and len(f.components) == 1):
        return None
    q = len(f.cycles.cycles[0])
    m = f.m
    if q % 4 == 0:
        return (m - 1, m - 1) if f.frontier_always_avoided else (m, m)
    if q % 2 == 1 and m == f.m_without(f.cycles.cyclic_vertices) + (q - 1) // 2:
        return (m, m + 1) if q % 4 == 1 else (m + 1, m)
    return (m, m)


def check_deletion_corollaries(f: GraphFacts) -> bool | None:
    """Check the vertex-deletion consequences of a tight bound on p.

    Premise: the graph has a cycle and p equals m + c or m - c; None
    without it.  For every vertex v on a cycle the deleted graph must
    satisfy, for the upper case: p drops by 1, stays tight (p = m + c on
    G - v), m is unchanged, c drops by 1, and v is not a quasi-pendant;
    for the lower case: p unchanged, tight below, m drops by 1, c drops
    by 1, and v is not a quasi-pendant.  p and c of G - v are read from
    the record's per-vertex lists, the ones behind
    :meth:`GraphFacts.inertia_without` and :meth:`GraphFacts.c_without`,
    and m from :meth:`GraphFacts.m_without`; the interlacing lemma reads
    the same per-vertex inertias.
    """
    p, m, c = f.inertia.p, f.m, f.c
    upper, lower = p == m + c, p == m - c
    if not (f.cycles.cyclic_vertices and (upper or lower)):
        return None
    inertias, cs = f._deletion_inertias, f._deletion_cs
    for v in sorted(f.cycles.cyclic_vertices):
        if v in f.quasi_pendants:
            return False
        ph = inertias[v].p
        mh = f.m_without((v,))
        ch = cs[v]
        if ch != c - 1:
            return False
        if upper and not (ph == p - 1 and ph == mh + ch and mh == m):
            return False
        if lower and not (ph == p and ph == mh - ch and mh == m - 1):
            return False
    return True


def check_tree_nullity(f: GraphFacts) -> bool | None:
    """Is the nullity of a tree at most (number of leaves) - 1?

    None unless the graph is a tree on at least 2 vertices.
    """
    if not f.tree:
        return None
    return f.inertia.eta <= len(f.pendants) - 1


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


def check_difference_bounds(f: GraphFacts) -> DifferenceBounds | None:
    """|p - n| against the simple-cycle counts; None above the vertex budget."""
    if f.graph.n > SIMPLE_CYCLE_VERTEX_BUDGET:
        return None
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
# LEMMAS is one table of (name, rule) pairs, run in order.  Each rule
# verifies one reduction or decomposition law on one GraphFacts record
# and tests its own premise.  Verdicts: True (holds), False
# (counterexample!), None (premise absent).

# graph_inertia peels pendants and isolated vertices, which applies the
# pendant and additivity rules; the lemmas that test those rules read only
# subgraph inertias that the row's checked certificate proves, so the
# peeling is not checked against itself.  A component's inertia is its
# share of the terms (inertia._component_inertias).  A pendant pair's
# G - u - w is peeled afresh on G's adjacency, and only its peel terms are
# checked (inertia._peel_part_inertia), on top of G's proven core
# (inertia._certified_core): leaf removal leaves the same core in any
# order, so G - u - w peels to G's core, and any other core fails.


def _pendant_reduction(f: GraphFacts) -> bool | None:
    if not f.pendants:
        return None
    if f._proven_core is None:
        return False
    g = f.graph
    core, core_inertia = f._proven_core
    # the two pendants of a K2 component make one pair
    for pair in sorted({(u, w) if u < w else (w, u) for u in f.pendants for w in g.adj[u]}):
        terms: list[Term] = []
        _peel_without(g, pair, terms)
        sub = _peel_part_inertia(g, pair, terms, core, core_inertia)
        # In(G) = In(G - u - w) + (1, 1, 0)
        if sub is None or (sub.p + 1, sub.n + 1, sub.eta) != f.inertia:
            return False
    return True


def _component_additivity(f: GraphFacts) -> bool | None:
    if len(f.components) < 2:
        return None
    if isinstance(f.certified, str):
        return False
    parts = _component_inertias(f.graph, f._terms, f.components)
    return parts is not None and sum(parts, Inertia(0, 0, 0)) == f.inertia


def _interlacing(f: GraphFacts) -> bool | None:
    if f.graph.n == 0:
        return None
    p, n = f.inertia.p, f.inertia.n
    return all(sub.p in (p - 1, p) and sub.n in (n - 1, n) for sub in f._deletion_inertias)


def _quasipendant_matching_drop(f: GraphFacts) -> bool | None:
    if not f.quasi_pendants:
        return None
    return all(f.m_without((v,)) == f.m - 1 for v in sorted(f.quasi_pendants))


def _leaf_stripping_drop(f: GraphFacts) -> bool | None:
    if not f.tree:
        return None
    return f.m_without(f.pendants) < f.m


def _hangs_off_forest(f: GraphFacts) -> bool:
    """Contraction premise: a cycle, all pairwise disjoint, one attached."""
    return bool(f.cycles.disjoint and f.cycles.cycles and f.frontier)


def _all_cycles_odd(f: GraphFacts) -> bool:
    return all(len(cyc) % 2 == 1 for cyc in f.cycles.cycles)


def _pendant_existence(f: GraphFacts) -> bool | None:
    if not (_hangs_off_forest(f) and f.contraction_keeps_matching):
        return None
    return bool(f.pendants) and not (f.quasi_pendants & f.cycles.cyclic_vertices)


def _matching_decomposition(f: GraphFacts) -> bool | None:
    if not (_hangs_off_forest(f) and f.frontier_avoidable):
        return None
    m_off_cycles = f.m_without(f.cycles.cyclic_vertices)
    decomposition = f.m == m_off_cycles + sum(len(cyc) // 2 for cyc in f.cycles.cycles)
    # with every cycle odd, contracting them must keep the matching number too
    return decomposition and (not _all_cycles_odd(f) or f.contraction_keeps_matching)


def _odd_cycles_matching_equivalence(f: GraphFacts) -> bool | None:
    if not (_hangs_off_forest(f) and _all_cycles_odd(f)):
        return None
    return f.contraction_keeps_matching == f.frontier_avoidable


def _attached_even_cycle(f: GraphFacts) -> bool | None:
    """Properties forced on a cycle hanging by one bridge when p = m - c.

    Premise: exactly one edge xy of the frontier leaves some cycle C,
    with x on C and y off it.  The rest K = G - V(C)
    is an induced subgraph of G, so its cycles are pairwise disjoint
    because G's are.  Conclusions checked: |C| = 0 mod 4, the
    bridge lies in no maximum matching, every maximum matching of K
    covers y (m(K - y) = m(K) - 1), adding x to K does not raise its
    matching number, and m(G) = m(C) + m(K).
    """
    if not (_hangs_off_forest(f) and f.inertia.p == f.m - f.c):
        return None
    m = f.m
    verdicts = []
    for cycle in f.cycles.cycles:
        cyc = set(cycle)
        leaving = [(u, v) if u in cyc else (v, u) for u, v in f.frontier if (u in cyc) != (v in cyc)]
        if len(leaving) != 1:
            continue
        [(x, y)] = leaving
        m_k = f.m_without(cyc)
        verdicts.append(
            len(cycle) % 4 == 0
            and f.m_without((x, y)) != m - 1
            and f.m_without(cyc | {y}) == m_k - 1
            and f.m_without(cyc - {x}) == m_k
            and m == len(cycle) // 2 + m_k
        )
    return all(verdicts) if verdicts else None


def _lower_bound_forces_avoidance(f: GraphFacts) -> bool | None:
    if not (_hangs_off_forest(f) and f.inertia.p == f.m - f.c):
        return None
    return f.frontier_always_avoided


def _tight_bound_disjoint_cycles(f: GraphFacts) -> bool | None:
    """Tight bounds force vertex-disjoint cycles."""
    bounds = (f.m - f.c, f.m + f.c)
    if not (f.cycles.cyclic_vertices and (f.inertia.p in bounds or f.inertia.n in bounds)):
        return None
    return f.cycles.disjoint


LEMMAS = (
    ("pendant_reduction", _pendant_reduction),
    ("component_additivity", _component_additivity),
    ("deletion_interlacing", _interlacing),
    ("quasipendant_matching_drop", _quasipendant_matching_drop),
    ("tree_nullity_bound", check_tree_nullity),
    ("leaf_stripping_drop", _leaf_stripping_drop),
    ("pendant_existence", _pendant_existence),
    ("matching_decomposition", _matching_decomposition),
    ("odd_cycles_matching_equivalence", _odd_cycles_matching_equivalence),
    ("attached_even_cycle", _attached_even_cycle),
    ("lower_bound_forces_avoidance", _lower_bound_forces_avoidance),
    ("tight_bound_disjoint_cycles", _tight_bound_disjoint_cycles),
)
LEMMA_NAMES = tuple(name for name, _ in LEMMAS)


def lemma_suite(f: GraphFacts) -> dict[str, bool | None]:
    """Run every structural lemma check on the record's graph.

    Returns a dict keyed by :data:`LEMMA_NAMES`, in that order; values
    are True (verified), False (counterexample), or None (the lemma's
    premise does not apply).
    """
    return {name: rule(f) for name, rule in LEMMAS}


# ---------------------------------------------------------------------------
# extremal-graph generator

class GeneratorRecipe(NamedTuple):
    seed_cycle_lengths: tuple[int, ...]
    # the GraphReport classification fields every output attains in every form
    classifiers: tuple[str, ...]


GENERATOR_RECIPES = {
    1: GeneratorRecipe((5, 9), ("p_upper",)),
    3: GeneratorRecipe((3, 7), ("n_upper",)),
    0: GeneratorRecipe((4, 8), ("p_lower", "n_lower")),
}


@dataclass(frozen=True)
class GeneratorParams:
    """Seeded recipe for an extremal graph.

    ``cycle_residue``, a key of :data:`GENERATOR_RECIPES`, selects the
    length class of the seed cycles; the identity the output satisfies
    depends on it: p = m + c for residue 1, n = m + c for residue 3,
    p = n = m - c for residue 0.
    """

    cycle_residue: int
    num_cycles: int = 1
    num_isolated_seeds: int = 0
    num_steps: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if type(self.cycle_residue) is not int or self.cycle_residue not in GENERATOR_RECIPES:
            residues = "{}, {} or {}".format(*sorted(GENERATOR_RECIPES))
            raise ValueError(f"cycle_residue must be {residues}, got {self.cycle_residue!r}")
        for field in ("num_cycles", "num_isolated_seeds", "num_steps", "rng_seed"):
            value = getattr(self, field)
            if type(value) is not int:
                raise ValueError(f"{field} must be an int, got {value!r}")
            if value < 0 and field != "rng_seed":
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
    lengths = GENERATOR_RECIPES[params.cycle_residue].seed_cycle_lengths
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
