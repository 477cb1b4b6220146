"""Per-graph verdict rows, corpus verification runs, report emission.

:data:`CHECKS` is the one ordered table of checks.  Each :class:`Check`
has a ``name``, one ``run`` rule that turns the row's
:class:`~.theorems.GraphFacts` into the check's row fields, its notes
and its verdict, the report ``columns`` it fills, and the ``na_note`` a
row gets when ``run`` answers ``None``, as it does when its verdict
does (the premises live in :mod:`~.theorems` only).  The check names,
``REPORT_FIELDS``, the row dict, the notes and each row's
``counterexample`` flag all derive from it.  Every fact a check reads,
the classification that the classifiers and generator checks share
included, is on the row's record; nothing outlives the row.

A run maps every corpus graph to one :class:`GraphReport` row, collects
counterexamples, and can emit the rows as JSON or CSV with a stable
field order.  Reports are deterministic: identical invocations yield
byte-identical files, and the worker count never changes row order or
content (timing lives only in the in-memory summary, never in files).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple

from .corpus import CorpusItem
from .graphs import Graph, to_graph6
from .inertia import graph_inertia
from .theorems import (
    GENERATOR_RECIPES,
    DifferenceBounds,
    GraphFacts,
    LowerClassification,
    UpperClassification,
    check_bounds,
    check_deletion_corollaries,
    check_difference_bounds,
    classify_unicyclic,
    lemma_suite,
)


@dataclass(frozen=True)
class GraphReport:
    """Everything the harness states about one graph.

    Tri-state flags: True (verified), False (counterexample), None
    (check not requested, not applicable, or over budget; the notes say
    which).  ``conjecture_ok`` is informational only and never makes a
    row a counterexample.  ``counterexample`` is decided when the row is
    built: an oracle mismatch or a check whose ``run`` found one, and
    ``notes`` then names the failure.  ``oracle_ok`` says that the
    inertia certificate was accepted and proves the inertia reported;
    ``certificate_ok`` only that it was accepted (it is not a report
    column).
    """

    graph_id: str
    graph6: str
    p: int
    n: int
    eta: int
    m: int
    c: int
    oracle_ok: bool
    certificate_ok: bool = True
    notes: str = ""
    counterexample: bool = False
    bounds_ok: bool | None = None
    p_upper: UpperClassification | None = None
    n_upper: UpperClassification | None = None
    p_lower: LowerClassification | None = None
    n_lower: LowerClassification | None = None
    unicyclic_prediction: tuple[int, int] | None = None
    unicyclic_ok: bool | None = None
    corollaries_ok: bool | None = None
    lemmas: dict[str, bool | None] | None = None
    difference: DifferenceBounds | None = None
    generator_ok: bool | None = None

    @property
    def lemmas_ok(self) -> bool | None:
        if self.lemmas is None:
            return None
        verdicts = [v for v in self.lemmas.values() if v is not None]
        if not verdicts:
            return None
        return all(verdicts)

    def is_counterexample(self) -> bool:
        return self.counterexample


# ---------------------------------------------------------------------------
# the table of checks

def _column(name: str, field: str | None = None, part: str | int | None = None):
    """A report column: row field ``field`` (default ``name``), or one part of it."""

    def get(r: GraphReport) -> object:
        value = getattr(r, field or name)
        if value is None or part is None:
            return value
        return value[part] if isinstance(part, int) else getattr(value, part)

    return name, get


Outcome = tuple[dict[str, object], list[str], bool]


class Check(NamedTuple):
    name: str
    # the GraphReport fields this check fills, its notes, and whether it
    # found a counterexample, from the row's facts and residue; None when
    # the premise is absent, and the row notes ``na_note`` instead
    run: Callable[[GraphFacts, int | None], Outcome | None]
    columns: tuple[tuple[str, Callable[[GraphReport], object]], ...]
    na_note: str = ""


def _bounds(f: GraphFacts, residue: int | None) -> Outcome:
    ok = check_bounds(f)
    pn, window = (f.inertia.p, f.inertia.n), [f.m - f.c, f.m + f.c]
    notes = [] if ok else [f"bounds: (p, n)={pn} outside [m-c, m+c]={window}"]
    return {"bounds_ok": ok}, notes, not ok


_CLASSIFICATIONS = (
    ("p_upper", UpperClassification),
    ("n_upper", UpperClassification),
    ("p_lower", LowerClassification),
    ("n_lower", LowerClassification),
)


def _classifiers(f: GraphFacts, residue: int | None) -> Outcome:
    fields = f.classifications
    # the attained flag and every condition form must agree
    notes = [
        f"classifier {field} mismatch: {cls}" for field, cls in fields.items() if len(set(cls)) > 1
    ]
    return fields, notes, bool(notes)


def _unicyclic(f: GraphFacts, residue: int | None) -> Outcome | None:
    prediction = classify_unicyclic(f)
    if prediction is None:
        return None
    computed = (f.inertia.n, f.inertia.p)
    ok = prediction == computed
    notes = [] if ok else [f"unicyclic prediction {prediction} != computed {computed}"]
    return {"unicyclic_prediction": prediction, "unicyclic_ok": ok}, notes, not ok


def _corollaries(f: GraphFacts, residue: int | None) -> Outcome | None:
    ok = check_deletion_corollaries(f)
    if ok is None:
        return None
    return {"corollaries_ok": ok}, [] if ok else ["deletion corollaries failed"], not ok


def _lemmas(f: GraphFacts, residue: int | None) -> Outcome:
    lemmas = lemma_suite(f)
    failed = sorted(name for name, ok in lemmas.items() if ok is False)
    notes = ["lemmas failed: " + ", ".join(failed)] if failed else []
    return {"lemmas": lemmas}, notes, bool(failed)


def _difference(f: GraphFacts, residue: int | None) -> Outcome | None:
    d = check_difference_bounds(f)
    if d is None:
        return None
    notes = []
    if not d.c1_ok:
        notes.append(f"|p-n|={abs(d.diff)} exceeds odd cycle count {d.c1}")
    if not d.conjecture_ok:
        notes.append(f"conjecture: p-n={d.diff} outside [-c3, c5]=[-{d.c3}, {d.c5}]")
    return {"difference": d}, notes, not d.c1_ok


def _generator(f: GraphFacts, residue: int | None) -> Outcome | None:
    """Extremal identity plus classifier conditions for a generated graph."""
    if residue is None:
        return None
    classified = f.classifications
    ok = all(all(classified[name]) for name in GENERATOR_RECIPES[residue].classifiers)
    notes = [] if ok else [f"generator identity failed for residue {residue}"]
    return {"generator_ok": ok}, notes, not ok


CHECKS: tuple[Check, ...] = (
    Check("bounds", _bounds, columns=(_column("bounds_ok"),)),
    Check(
        "classifiers",
        _classifiers,
        columns=tuple(
            _column(f"{field}_{part}", field, part)
            for field, kind in _CLASSIFICATIONS
            for part in kind._fields
        ),
    ),
    Check(
        "unicyclic",
        _unicyclic,
        columns=(
            _column("unicyclic_pred_n", "unicyclic_prediction", 0),
            _column("unicyclic_pred_p", "unicyclic_prediction", 1),
            _column("unicyclic_ok"),
        ),
        na_note="unicyclic: n/a (not connected unicyclic)",
    ),
    Check(
        "corollaries",
        _corollaries,
        columns=(_column("corollaries_ok"),),
        na_note="corollaries: n/a (no cycle or bound not attained)",
    ),
    Check("lemmas", _lemmas, columns=(_column("lemmas_ok"),)),
    Check(
        "difference",
        _difference,
        columns=(
            _column("c1_ok", "difference", "c1_ok"),
            _column("conjecture_ok", "difference", "conjecture_ok"),
        ),
        na_note="difference: n/a (budget)",
    ),
    Check(
        "generator",
        _generator,
        columns=(_column("generator_ok"),),
        na_note="generator: n/a (corpus not generator-produced)",
    ),
)

ALL_CHECKS = tuple(check.name for check in CHECKS)


def _normalize_checks(checks: Iterable[str] | None) -> tuple[str, ...]:
    if checks is None:
        return ALL_CHECKS
    if isinstance(checks, str):
        raise ValueError(f"checks must be a collection of check names, not the string {checks!r}")
    wanted = list(checks)
    unknown = [c for c in wanted if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks {unknown}; valid checks are {', '.join(ALL_CHECKS)}"
        )
    # keep canonical order regardless of how the caller spelled the list
    return tuple(c for c in ALL_CHECKS if c in wanted)


def analyze_graph(
    g: Graph,
    graph_id: str = "graph",
    checks: Iterable[str] | None = None,
    residue: int | None = None,
) -> GraphReport:
    """Build the full verdict row for one graph."""
    selected = _normalize_checks(checks)
    if residue is not None and (type(residue) is not int or residue not in GENERATOR_RECIPES):
        raise ValueError(f"residue {residue!r} is not one of {(None, *sorted(GENERATOR_RECIPES))}")
    # the row's congruence runs here and its record checks the terms: the
    # benchmark's tracer test expects this module to bind graph_inertia
    terms: list = []
    facts = GraphFacts(g, graph_inertia(g, terms), terms)
    inert, certified = facts.inertia, facts.certified
    oracle_ok = inert == certified
    certificate_ok = not isinstance(certified, str)
    fields: dict[str, object] = {}
    notes = []
    if not certificate_ok:
        notes.append(f"oracle mismatch: certificate rejected: {certified}")
    elif not oracle_ok:
        notes.append(f"oracle mismatch: congruence {tuple(inert)} vs certificate {tuple(certified)}")
    counterexample = not oracle_ok
    for check in (c for c in CHECKS if c.name in selected):
        outcome = check.run(facts, residue)
        if outcome is None:
            notes.append(check.na_note)
            continue
        check_fields, check_notes, failed = outcome
        fields.update(check_fields)
        notes.extend(check_notes)
        counterexample = counterexample or failed
    return GraphReport(
        graph_id, to_graph6(g), *inert, facts.m, facts.c, oracle_ok=oracle_ok,
        certificate_ok=certificate_ok, notes="; ".join(notes), counterexample=counterexample, **fields,
    )


# ---------------------------------------------------------------------------
# corpus runs


@dataclass(frozen=True)
class RunReport:
    rows: tuple[GraphReport, ...]
    checks: tuple[str, ...]
    counterexamples: tuple[str, ...]  # "graph_id graph6" lines
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _row(item: CorpusItem, checks: tuple[str, ...]) -> GraphReport:
    return analyze_graph(item.graph, item.graph_id, checks, item.residue)


def run_verification(
    corpus: Iterable[CorpusItem],
    checks: Iterable[str] | None = None,
    workers: int = 1,
) -> RunReport:
    """Evaluate the selected checks on every corpus graph, in order.

    ``workers`` > 1 fans rows out to a pool of at most one process per
    row; results come back in corpus order, so worker count cannot
    change the report.  Budget-skipped checks produce "n/a" notes.
    ``workers`` must be an ``int`` >= 1; anything else raises ``ValueError``.
    """
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    selected = _normalize_checks(checks)
    start = time.perf_counter()
    items = list(corpus)
    row = partial(_row, checks=selected)
    if workers > 1 and len(items) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(items))) as pool:
            rows = tuple(pool.imap(row, items, chunksize=64))
    else:
        rows = tuple(map(row, items))
    elapsed = time.perf_counter() - start
    counterexamples = tuple(
        f"{r.graph_id} {r.graph6}" for r in rows if r.counterexample
    )
    return RunReport(
        rows=rows,
        checks=selected,
        counterexamples=counterexamples,
        elapsed_seconds=elapsed,
    )


# ---------------------------------------------------------------------------
# report emission

_COLUMNS = (
    tuple(map(_column, ("graph_id", "graph6", "p", "n", "eta", "m", "c")))
    + tuple(column for check in CHECKS for column in check.columns)
    + tuple(map(_column, ("oracle_ok", "counterexample", "notes")))
)

REPORT_FIELDS = tuple(name for name, _ in _COLUMNS)


def report_row_dict(r: GraphReport) -> dict[str, object]:
    """Flatten one row into the documented field order (None = n/a)."""
    return {name: get(r) for name, get in _COLUMNS}


# each column's line in a JSON row, up to its value, as json.dumps(rows, indent=1) writes it
_JSON_COLUMNS = tuple(("  " + encode_basestring_ascii(name) + ": ", get) for name, get in _COLUMNS)


def _json_value(value: object) -> str:
    """``value`` as json.dumps(rows, indent=1) writes it inside a row."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    # a container's lines sit two levels deep in the report
    return json.dumps(value, indent=1).replace("\n", "\n  ")


def _json_row(r: GraphReport) -> str:
    return " {\n" + ",\n".join([prefix + _json_value(get(r)) for prefix, get in _JSON_COLUMNS]) + "\n }"


def render_report(report: RunReport, fmt: str = "json") -> str:
    """Render the rows (never the timing) in the requested format.

    JSON is written row by row, each value encoded as :mod:`json` encodes
    it, and gives the bytes of ``json.dumps(rows, indent=1) + "\n"`` over
    the :func:`report_row_dict` of every row, without that encoder's
    pure-Python indenting path; the empty report is ``[]``.
    """
    if fmt == "json":
        if not report.rows:
            return "[]\n"
        return "[\n" + ",\n".join(map(_json_row, report.rows)) + "\n]\n"
    if fmt == "csv":
        rows = [report_row_dict(r) for r in report.rows]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    "n/a" if row[f] is None else
                    ("true" if row[f] is True else "false") if isinstance(row[f], bool)
                    else row[f]
                    for f in REPORT_FIELDS
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}; use 'json' or 'csv'")


def emit_report(report: RunReport, path: str) -> None:
    """Write the report, as CSV if ``path`` ends in ``.csv`` (any case), else as JSON."""
    text = render_report(report, "csv" if str(path).lower().endswith(".csv") else "json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def summarize(report: RunReport) -> str:
    """Human-oriented run summary (stdout material, not report content)."""
    lines = [
        f"graphs checked : {len(report.rows)}",
        f"checks         : {', '.join(report.checks)}",
        f"counterexamples: {len(report.counterexamples)}",
        f"elapsed        : {report.elapsed_seconds:.2f}s",
        f"certificates   : {len(report.rows)} inertia checked, "
        f"{sum(not r.certificate_ok for r in report.rows)} rejected",
    ]
    difference_rows = [r for r in report.rows if r.difference is not None]
    if difference_rows:
        misses = sum(1 for r in difference_rows if not r.difference.conjecture_ok)
        lines.append(
            f"conjecture     : {misses} observed violation(s) in "
            f"{len(difference_rows)} rows (status 'conjecture', never asserted)"
        )
    for line in report.counterexamples:
        lines.append(f"COUNTEREXAMPLE {line}")
    return "\n".join(lines)
