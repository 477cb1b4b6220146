"""Command-line interface.

Three subcommands:

* ``analyze`` one graph (graph6 string, or a file in graph6 or
  edge-list form) and print its full verdict row as JSON.  An argument
  that is valid graph6 is the graph, even if a file of that name exists.
* ``verify`` a whole corpus against selected checks, optionally writing
  a JSON/CSV report.
* ``generate`` one extremal graph and print its graph6 line.

Exit codes: 0 = verified clean, 1 = at least one counterexample,
2 = usage error.  The default worker count for ``verify`` comes from
the INERTIA_BOUNDS_WORKERS environment variable (else 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .corpus import (
    CorpusItem,
    enumerate_labeled,
    generated_corpus,
    read_graph6_file,
    sample_random,
)
from .graphs import GraphParseError, parse_edge_list, parse_graph6, to_graph6
from .theorems import GeneratorParams, generate_extremal
from .verify import (
    ALL_CHECKS,
    analyze_graph,
    emit_report,
    report_row_dict,
    run_verification,
    summarize,
)

WORKERS_ENV_VAR = "INERTIA_BOUNDS_WORKERS"


def _positive_int(raw: str, name: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


def _default_workers() -> int:
    return _positive_int(os.environ.get(WORKERS_ENV_VAR, "1"), WORKERS_ENV_VAR)


def _workers_arg(raw: str) -> int:
    try:
        return _positive_int(raw, "--workers")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _analyze_input_graph(spec: str, fmt: str):
    """The graph an ``analyze`` argument names: graph6 first, then a file, then graph text."""
    if fmt != "edgelist":
        try:
            return parse_graph6(spec)
        except GraphParseError:
            pass
    text = spec
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    if fmt == "auto":
        fmt = "edgelist" if any(ch in text.strip() for ch in " \t\n") else "graph6"
    try:
        return parse_graph6(text.strip()) if fmt == "graph6" else parse_edge_list(text)
    except GraphParseError as exc:
        raise ValueError(f"{spec!r} is not a graph6 string or a readable graph file: {exc}") from None


def _split_kv(spec: str, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
    out: dict[str, str] = {}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise ValueError(f"{what}: expected key=value, got {part!r}")
            key, value = part.split("=", 1)
            out[key.strip()] = value.strip()
    missing = [k for k in required if k not in out]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(missing)}")
    unknown = [k for k in out if k not in required + optional]
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {', '.join(unknown)}")
    return out


def _number(what: str, key: str, raw: str, kind: type = int) -> int | float:
    """``raw`` converted by ``kind``; a malformed value names ``what`` and ``key``."""
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what}: {key} must be {noun}, got {raw!r}") from None


def parse_corpus_spec(spec: str) -> list[CorpusItem]:
    """Parse a --corpus argument into a concrete corpus.

    Grammar:
      exhaustive:N
      random:n=N,p=P,count=K,seed=S
      file:PATH
      generated:residue=R,cycles=C,steps=T,seed=S,count=K[,isolated=I]
    """
    kind, _, rest = spec.partition(":")
    if kind == "exhaustive":
        return list(enumerate_labeled(_number("exhaustive corpus", "N", rest)))
    if kind == "random":
        what = "random corpus"
        kv = _split_kv(rest, what, required=("n", "p", "count", "seed"))
        return list(
            sample_random(
                n=_number(what, "n", kv["n"]),
                edge_probability=_number(what, "p", kv["p"], float),
                count=_number(what, "count", kv["count"]),
                seed=_number(what, "seed", kv["seed"]),
            )
        )
    if kind == "file":
        if not rest:
            raise ValueError("file corpus needs a path: file:PATH")
        return list(read_graph6_file(rest))
    if kind == "generated":
        what = "generated corpus"
        kv = _split_kv(
            rest,
            what,
            required=("residue",),
            optional=("cycles", "steps", "seed", "count", "isolated"),
        )
        base = GeneratorParams(
            cycle_residue=_number(what, "residue", kv["residue"]),
            num_cycles=_number(what, "cycles", kv.get("cycles", "1")),
            num_isolated_seeds=_number(what, "isolated", kv.get("isolated", "0")),
            num_steps=_number(what, "steps", kv.get("steps", "0")),
            rng_seed=_number(what, "seed", kv.get("seed", "0")),
        )
        return list(generated_corpus(base, _number(what, "count", kv.get("count", "1"))))
    raise ValueError(
        f"unknown corpus kind {kind!r}; use exhaustive:, random:, file:, generated:"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inertia-bounds",
        description=(
            "Exact adjacency inertia, matching/cyclomatic bounds, and "
            "extremal-graph verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="full verdict row for one graph, printed as JSON"
    )
    p_analyze.add_argument(
        "graph",
        help="graph6 string, or path to a file holding graph6 or an edge list "
        "(first line n, then 'u v' lines); a valid graph6 string is read as "
        "graph6 first, so reach a file with such a name as ./NAME",
    )
    p_analyze.add_argument(
        "--format",
        choices=("auto", "graph6", "edgelist"),
        default="auto",
        help="input format (auto: whitespace means edge list)",
    )

    p_verify = sub.add_parser("verify", help="run checks over a corpus")
    p_verify.add_argument("--corpus", required=True, help=parse_corpus_spec.__doc__)
    p_verify.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of: " + ",".join(ALL_CHECKS) + " (default all)",
    )
    p_verify.add_argument("--out", help="write the row report to this path")
    p_verify.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    p_verify.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        help=f"process count (default ${WORKERS_ENV_VAR} or 1)",
    )

    p_generate = sub.add_parser(
        "generate", help="emit one extremal graph as a graph6 line"
    )
    p_generate.add_argument("--residue", type=int, choices=(0, 1, 3), required=True)
    p_generate.add_argument("--cycles", type=int, default=1, metavar="K")
    p_generate.add_argument("--steps", type=int, default=0, metavar="S")
    p_generate.add_argument("--seed", type=int, default=0, metavar="X")
    p_generate.add_argument("--isolated", type=int, default=0, metavar="I")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns 0 (clean), 1 (counterexample) or 2 (usage)."""
    try:
        return _run(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code if isinstance(exc.code, int) else 2


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "analyze":
        try:
            g = _analyze_input_graph(args.graph, args.format)
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        row = analyze_graph(g)
        print(json.dumps(report_row_dict(row), indent=1))
        return 1 if row.is_counterexample() else 0

    if args.command == "verify":
        try:
            corpus = parse_corpus_spec(args.corpus)
            checks = None if args.checks == "all" else args.checks.split(",")
            workers = args.workers if args.workers is not None else _default_workers()
            report = run_verification(corpus, checks=checks, workers=workers)
        except (ValueError, KeyError, OSError, GraphParseError) as exc:
            parser.error(str(exc))
        if args.out:
            emit_report(report, args.out, args.format)
        print(summarize(report))
        return 0 if report.ok else 1

    if args.command == "generate":
        try:
            params = GeneratorParams(
                cycle_residue=args.residue,
                num_cycles=args.cycles,
                num_isolated_seeds=args.isolated,
                num_steps=args.steps,
                rng_seed=args.seed,
            )
        except ValueError as exc:
            parser.error(str(exc))
        print(to_graph6(generate_extremal(params)))
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
