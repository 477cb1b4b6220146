"""Workload definitions and input set-up, shared by the runner and the set-up probe.

Each workload turns ``--seed`` into inputs for one public entry point of
``inertia_bounds``.  The package is imported inside :func:`build_inputs`,
so timing that call covers the import as well as input construction.
"""

from __future__ import annotations

from dataclasses import dataclass

# The generated graphs run from GENERATED_MIN_N to GENERATED_MAX_N vertices
# in even steps over the workload.  The first few fit the simple-cycle
# budget (14 vertices), so the difference check runs on them and is n/a
# on the rest.  One analyze grows as about n^4 (char-poly oracle); up to
# 40 vertices a pass over the graphs takes about 15 s, so a run has two
# calls per graph to take each graph's median latency from.
GENERATED_MIN_N = 14
GENERATED_MAX_N = 40
# Rows per verify call.  A verify request of K rows is K / VERIFY_CHUNK
# calls, short enough that the host-speed reference timed around each
# call sees the same host speed as the call.
VERIFY_CHUNK = 100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify": one run_verification call per VERIFY_CHUNK rows; "analyze": one call per graph
    k: int  # rows per request: corpus size (verify) or graphs per sweep (analyze)
    spec: str = ""  # corpus spec template of a verify workload


WORKLOADS = {
    w.name: w
    for w in (
        # G(6, 1/2) is uniform over all labeled 6-vertex graphs; rows are tiny,
        # so per-call overhead and recomputed invariants dominate.
        Workload("verify-small", "verify", 400, "random:n=6,p=0.5,count={k},seed={seed}"),
        # Pendant-rich generator output: the O(n^4) oracle and the per-vertex
        # deletions of the lemma suite dominate; little simple-cycle enumeration.
        Workload("analyze-generated", "analyze", 60),
    )
}


def generated_sizes(k: int) -> list[int]:
    """Even target vertex counts spread evenly over the size range."""
    span = GENERATED_MAX_N - GENERATED_MIN_N
    return [GENERATED_MIN_N + (span * i // max(1, k - 1)) // 2 * 2 for i in range(k)]


def build_inputs(workload: Workload, seed: int, k: int) -> list:
    """Import the package and build one request's inputs from ``seed``.

    A verify workload gets the ``CorpusItem`` list that ``parse_corpus_spec``
    builds, cut into chunks of ``VERIFY_CHUNK``.  The analyze workload gets graph6 strings of ``generate_extremal``
    outputs with residues 1, 3, 0 in turn and 1 to 3 seed cycles.  The seed
    fixes cycle lengths and attachments and the index fixes the target
    size, so every seed has the same size profile.
    """
    if workload.kind == "verify":
        from inertia_bounds.cli import parse_corpus_spec

        items = parse_corpus_spec(workload.spec.format(k=k, seed=seed))
        return [items[i : i + VERIFY_CHUNK] for i in range(0, len(items), VERIFY_CHUNK)]
    from inertia_bounds import GeneratorParams, generate_extremal, to_graph6

    out = []
    for i, target in enumerate(generated_sizes(k)):
        residue = (1, 3, 0)[i % 3]
        cycles = 1 + (i // 3) % 3
        rng_seed = seed * 1000 + i
        # cycle lengths are drawn before any step, so a run without steps
        # gives the size of the seed part and hence the step count
        base = generate_extremal(GeneratorParams(residue, cycles, 0, 0, rng_seed)).n
        steps = max(0, (target - base) // 2)
        out.append(to_graph6(generate_extremal(GeneratorParams(residue, cycles, 0, steps, rng_seed))))
    return out
