"""Graph corpora for verification runs.

Four sources: exhaustive labeled enumeration (tiny n), seeded random
sampling, graph6 files, and the extremal generator.  Every source is
deterministic for fixed arguments; corpus order is part of the report
contract, so nothing here may iterate in hash order.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Iterator, NamedTuple

from .graphs import GRAPH6_HEADER, Graph, GraphParseError, parse_graph6
from .theorems import GeneratorParams, generate_extremal

EXHAUSTIVE_VERTEX_LIMIT = 6
RANDOM_VERTEX_LIMIT = 12


class CorpusItem(NamedTuple):
    graph_id: str
    graph: Graph
    # residue of the generator recipe when the item came from
    # generate_extremal; None for all other sources
    residue: int | None = None


def enumerate_labeled(n: int) -> Iterator[CorpusItem]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, bitmask order.

    Bit k of the mask controls the k-th vertex pair in lexicographic
    order (0,1), (0,2), ..., (n-2, n-1).  Masks ascend from 0.
    """
    if not (0 <= n <= EXHAUSTIVE_VERTEX_LIMIT):
        raise ValueError(
            f"exhaustive enumeration is limited to n <= "
            f"{EXHAUSTIVE_VERTEX_LIMIT} (got n={n}); use sample_random or "
            f"a graph6 file corpus for larger graphs"
        )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        yield CorpusItem(f"exh{n}-{mask}", Graph(n, edges))


def sample_random(n: int, edge_probability: float, count: int, seed: int) -> Iterator[CorpusItem]:
    """``count`` independent G(n, p) samples from one seeded RNG stream."""
    if not (0 <= n <= RANDOM_VERTEX_LIMIT):
        raise ValueError(
            f"random sampling is limited to n <= {RANDOM_VERTEX_LIMIT}, got {n}"
        )
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {edge_probability}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    import random

    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for idx in range(count):
        edges = [e for e in pairs if rng.random() < edge_probability]
        yield CorpusItem(f"rnd{n}-s{seed}-{idx}", Graph(n, edges))


def read_graph6_file(path: str | os.PathLike[str]) -> Iterator[CorpusItem]:
    """One graph6 string per line, optionally after a ``>>graph6<<`` header.

    A header-only line, a blank line, and any other line starting with
    '>' are skipped; a graph following the header on its line is read.
    A line that is not ASCII or not graph6, or that starts with another
    ``>>...<<`` header (sparse6, digraph6), raises :class:`GraphParseError`
    naming the path and the line number.
    """
    name = os.path.basename(os.fspath(path))
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip().removeprefix(GRAPH6_HEADER)
                if line.startswith(">>") and "<<" in line:
                    header = line[: line.index("<<") + 2]
                    raise GraphParseError(f"foreign header {header!r}; only {GRAPH6_HEADER} is read")
                if not line or line.startswith(">"):
                    continue
                graph = parse_graph6(line)
            except (UnicodeDecodeError, GraphParseError) as exc:
                raise GraphParseError(f"{os.fspath(path)}:{lineno}: {exc}") from exc
            yield CorpusItem(f"{name}:{lineno}", graph)


def generated_corpus(base: GeneratorParams, count: int) -> Iterator[CorpusItem]:
    """``count`` generator outputs, advancing the seed by one per graph."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for i in range(count):
        params = dataclasses.replace(base, rng_seed=base.rng_seed + i)
        yield CorpusItem(
            f"gen{base.cycle_residue}-seed{params.rng_seed}",
            generate_extremal(params),
            residue=base.cycle_residue,
        )
