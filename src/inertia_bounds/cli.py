"""Command-line interface.

Three subcommands:

* ``analyze`` one graph (graph6 string, or a file in graph6 or
  edge-list form) and print its full verdict row as JSON.  An argument
  that is valid graph6 is the graph, even if a file of that name exists.
* ``verify`` a whole corpus against selected checks, optionally writing
  a JSON/CSV report.
* ``generate`` one extremal graph and print its graph6 line.

Exit codes: 0 = verified clean, 1 = at least one counterexample,
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from .corpus import (
    CorpusItem,
    enumerate_labeled,
    generated_corpus,
    read_graph6_file,
    sample_random,
)
from .graphs import GraphParseError, _integer, parse_edge_list, parse_graph6, to_graph6
from .theorems import GeneratorParams, generate_extremal
from .verify import (
    ALL_CHECKS,
    analyze_graph,
    emit_report,
    report_row_dict,
    run_verification,
    summarize,
)

def _integer_arg(flag: str, positive: bool = False) -> Callable[[str], int]:
    """The argparse type of ``flag``: an integer as the edge-list parser reads one."""
    noun = "a positive integer" if positive else "an integer"

    def parse(raw: str) -> int:
        try:
            value = _integer(raw.strip())
        except ValueError:
            value = None
        if value is None or (positive and value < 1):
            raise argparse.ArgumentTypeError(f"{flag} must be {noun}, got {raw!r}")
        return value

    return parse


def _is_edge_list(text: str) -> bool:
    stripped = text.strip()
    # graph6 bytes are 63..126, so whitespace or a '#' comment means an edge list,
    # and so does a bare vertex count, the one edge list with neither
    return stripped.isdigit() or any(ch in stripped for ch in " \t\n#")


def _analyze_input_graph(spec: str):
    """The graph an ``analyze`` argument names: graph6 first, then a file, then graph text.

    A file's first non-blank line decides its format; a graph6 file is read
    by the ``file:`` corpus rules and must hold exactly one graph.
    """
    try:
        return parse_graph6(spec)
    except GraphParseError:
        pass
    try:
        if not os.path.exists(spec):
            return parse_edge_list(spec) if _is_edge_list(spec) else parse_graph6(spec.strip())
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        first = next((line for line in text.splitlines() if line.strip()), "")
        if _is_edge_list(first):
            return parse_edge_list(text)
        items = list(read_graph6_file(spec))
    except GraphParseError as exc:
        raise ValueError(f"{spec!r} is not a graph6 string or a readable graph file: {exc}") from None
    if len(items) != 1:
        raise ValueError(f"{spec!r} holds {len(items)} graphs; analyze takes one")
    return items[0].graph


def _split_kv(spec: str, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
    out: dict[str, str] = {}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise ValueError(f"{what}: expected key=value, got {part!r}")
            key, value = (x.strip() for x in part.split("=", 1))
            if key in out:
                raise ValueError(f"{what}: repeated key {key}")
            out[key] = value
    missing = [k for k in required if k not in out]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(missing)}")
    unknown = [k for k in out if k not in required + optional]
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {', '.join(unknown)}")
    return out


def _number(what: str, key: str, raw: str, kind: type = int) -> int | float:
    """``raw`` converted by ``kind``; a malformed value names ``what`` and ``key``.

    An integer is read as the edge-list parser reads one: an optional '-'
    and ASCII digits, around which whitespace is ignored.  A float must be
    ASCII text without '_', although ``float`` takes non-ASCII digits and
    '_' separators.
    """
    try:
        if kind is int:
            return _integer(raw.strip())
        if "_" in raw or not raw.isascii():
            raise ValueError(raw)
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
        "graph6 first, so reach a file with such a name as ./NAME; other text "
        "is an edge list if it holds whitespace or '#' or is a bare vertex count "
        "(a file by its first non-blank line; a graph6 file must hold one graph)",
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
        type=_integer_arg("--workers", positive=True),
        default=1,
        help="process count (default 1)",
    )

    p_generate = sub.add_parser(
        "generate", help="emit one extremal graph as a graph6 line"
    )
    p_generate.add_argument("--residue", type=_integer_arg("--residue"), choices=(0, 1, 3), required=True)
    p_generate.add_argument("--cycles", type=_integer_arg("--cycles"), default=1, metavar="K")
    p_generate.add_argument("--steps", type=_integer_arg("--steps"), default=0, metavar="S")
    p_generate.add_argument("--seed", type=_integer_arg("--seed"), default=0, metavar="X")
    p_generate.add_argument("--isolated", type=_integer_arg("--isolated"), default=0, metavar="I")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns 0 (clean), 1 (counterexample) or 2 (usage)."""
    try:
        code, text = _run(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code if isinstance(exc.code, int) else 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``): end quietly with the run's code,
        # and send the interpreter's last flush at exit nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _run(argv: Sequence[str] | None) -> tuple[int, str]:
    """Parse ``argv`` and do the work; returns the exit code and the text to print."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "analyze":
        try:
            g = _analyze_input_graph(args.graph)
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        row = analyze_graph(g)
        return (1 if row.is_counterexample() else 0), json.dumps(report_row_dict(row), indent=1)

    if args.command == "verify":
        try:
            corpus = parse_corpus_spec(args.corpus)
            checks = None if args.checks == "all" else args.checks.split(",")
            report = run_verification(corpus, checks=checks, workers=args.workers)
            if args.out:
                emit_report(report, args.out, args.format)
        except (ValueError, KeyError, OSError, GraphParseError) as exc:
            parser.error(str(exc))
        return (0 if report.ok else 1), summarize(report)

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
        return 0, to_graph6(generate_extremal(params))

    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
