"""Exact inertia indices of graphs and their matching/cyclomatic bounds.

The positive and negative inertia indices of a graph (counts of positive
and negative adjacency eigenvalues) are pinned between m - c and m + c,
where m is the matching number and c the cyclomatic number; equality
cases are characterized by the cycle layout.  This package computes all
quantities exactly, classifies the equality cases, and cross-verifies
the spectral and combinatorial routes on graph corpora.
"""

import types

from .cycles import (
    CycleBudgetError,
    CycleCounts,
    CycleStructure,
    analyze_cycles,
    biconnected_blocks,
    contract_cycles,
    enumerate_simple_cycles,
    frontier_edges,
)
from .graphs import (
    Graph,
    GraphParseError,
    components,
    cycle_graph,
    cyclomatic_number,
    delete_vertices,
    parse_edge_list,
    parse_graph6,
    path_graph,
    pendant_vertices,
    star_graph,
    to_graph6,
)
from .inertia import (
    Inertia,
    certificate_inertia,
    graph_inertia,
)
from .matching import matching_number
from .theorems import (
    LEMMA_NAMES,
    DifferenceBounds,
    GeneratorParams,
    GraphFacts,
    LowerClassification,
    UpperClassification,
    check_bounds,
    check_deletion_corollaries,
    check_difference_bounds,
    check_tree_nullity,
    classify_n_lower,
    classify_n_upper,
    classify_p_lower,
    classify_p_upper,
    classify_unicyclic,
    generate_extremal,
    lemma_suite,
)
from .verify import (
    ALL_CHECKS,
    GraphReport,
    RunReport,
    analyze_graph,
    emit_report,
    render_report,
    run_verification,
)

__version__ = "0.1.0"

# Exported: every public name bound above that is not a module (importing a
# submodule binds it on the package), so the imports are the one list.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
