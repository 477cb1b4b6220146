"""Benchmark of inertia_bounds through its public entry points.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the checkout that holds this file; without it the run exits with code 2.
Workloads are defined in ``workloads.py``; metric definitions and the
workload each metric should move are in ``README.md``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  Times are normalised for host
speed by the reference work of ``reference.py``, timed right before and
right after each timed unit; the stamp line of an untraced run also gives
them as measured.  Every run checks the outputs: each
request's report bytes must equal the recorded sha256 for this workload,
K and seed (``digests.json``) or, for an unrecorded seed, those of the
first request; no row may raise or be a counterexample; and p, n, eta and
m of the first request's rows are recomputed with numpy and networkx.
Failures are printed by name.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import slowness
from tracer import LAYERS, FunctionStats, Tracer
from workloads import WORKLOADS, Workload, build_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_PROBES = 31
MIN_REQUESTS = 2
# Reference work after each timed unit, as a share of the unit's time.
REFERENCE_SHARE = 0.25

# Per-layer metrics of the traced run.  Counts are exact; times are the
# median over traced requests of the per-request sum.
COUNTED = ("inertia.graph_inertia", "matching.matching_number", "cycles.analyze_cycles")
CALLS_ONLY = ("graphs.to_graph6",)
SELF_TIMED = {
    "inertia.graph_inertia": ("inertia.graph_inertia",),
    "inertia.graph_inertia_oracle": ("inertia.graph_inertia_oracle",),
    "matching.matching_number": ("matching.matching_number",),
    "matching.exists_max_matching_avoiding": ("matching.exists_max_matching_avoiding",),
    "cycles.enumerate_simple_cycles": ("cycles.enumerate_simple_cycles",),
    "graphs.parse_graph6": ("graphs.parse_graph6",),
    "verify.analyze_graph": ("verify.analyze_graph",),
    # a verify report renders in render_report, an analyze row in report_row_dict
    "verify.render": ("verify.render_report", "verify.report_row_dict"),
}
TOTAL_TIMED = {
    "theorems.lemma_suite": ("theorems.lemma_suite",),
    "theorems.classifiers": (
        "theorems.classify_p_upper",
        "theorems.classify_n_upper",
        "theorems.classify_p_lower",
        "theorems.classify_n_lower",
    ),
    "theorems.check_difference_bounds": ("theorems.check_difference_bounds",),
    "theorems.check_deletion_corollaries": ("theorems.check_deletion_corollaries",),
}


class HostSpeed:
    """Normalises timed units for the host's speed (see ``reference.py``).

    After each unit the reference work runs for ``REFERENCE_SHARE`` of the
    unit's time; the unit is divided by the mean of the host's slowness
    measured before and after it.
    """

    def __init__(self) -> None:
        self.last = slowness(0.05)
        self.factors: list[float] = []

    def normalise(self, elapsed_s: float) -> float:
        before, self.last = self.last, slowness(REFERENCE_SHARE * elapsed_s)
        factor = (before + self.last) / 2
        self.factors.append(factor)
        return elapsed_s / factor


class Request:
    """Outcome of one request.  Rows are kept only when asked for, so that
    peak memory is the program's, not the benchmark's accumulated results.

    ``call_s`` are the timed units as measured and ``norm_s`` the same
    normalised for host speed (equal to ``call_s`` without a ``HostSpeed``).
    """

    def __init__(self, call_s: list[float], norm_s: list[float], text: str, bad: list[str], rows: list | None):
        self.call_s = call_s
        self.norm_s = norm_s
        self.wall_s = sum(call_s)
        self.norm_wall_s = sum(norm_s)
        self.digest = sha256(text)
        self.report_bytes = len(text.encode("utf-8"))
        self.bad = bad
        self.rows = rows


def run_request(ib, w: Workload, inputs: list, keep_rows: bool = False, host: HostSpeed | None = None) -> Request:
    """One pass over the workload's inputs: K rows.

    The timed unit is one verify call on a chunk of the corpus plus its
    JSON report, or one analyze call (parse, analyze, render); with
    ``host`` each unit is followed by the reference work, outside the
    unit's time.  Entry points are looked up on the package at call time,
    so a tracer that replaced them is seen.  An analyze row is rendered as
    the CLI's ``analyze`` does, through the ``report_row_dict`` that
    ``cli`` imported.
    """
    clock = time.perf_counter
    call_s: list[float] = []
    norm_s: list[float] = []

    def record(elapsed: float) -> None:
        call_s.append(elapsed)
        norm_s.append(host.normalise(elapsed) if host else elapsed)

    parts, bad, rows = [], [], []
    if w.kind == "verify":
        for chunk in inputs:
            t0 = clock()
            report = ib.run_verification(chunk)
            parts.append(ib.render_report(report, "json"))
            record(clock() - t0)
            bad.extend(report.counterexamples)
            if keep_rows:
                rows.extend(report.rows)
        return Request(call_s, norm_s, "".join(parts), bad, rows if keep_rows else None)
    for g6 in inputs:
        t0 = clock()
        row = ib.analyze_graph(ib.parse_graph6(g6))
        parts.append(json.dumps(ib.cli.report_row_dict(row), indent=1) + "\n")
        counterexample = row.is_counterexample()
        record(clock() - t0)
        if counterexample:
            bad.append(f"{row.graph_id} {g6}")
        if keep_rows:
            rows.append(row)
    return Request(call_s, norm_s, "".join(parts), bad, rows if keep_rows else None)


def cross_check(rows: list) -> list[str]:
    """Recompute p, n, eta (numpy eigenvalues) and m (networkx) per row.

    Rows whose spectrum has an eigenvalue too close to zero to classify
    in floating point are skipped.  Returns the rows that disagree.
    """
    try:
        import networkx as nx
        import numpy as np
    except ImportError as exc:
        print(f"# cross-check skipped: {exc}", file=sys.stderr)
        return []
    bad = []
    for r in rows:
        g = nx.from_graph6_bytes(r.graph6.encode("ascii"))
        eig = np.linalg.eigvalsh(nx.to_numpy_array(g, nodelist=range(g.number_of_nodes())))
        mag = np.abs(eig)
        if np.any((mag > 1e-9) & (mag < 1e-6)):
            continue
        inertia = (int(np.sum(eig > 1e-6)), int(np.sum(eig < -1e-6)), int(np.sum(mag <= 1e-9)))
        m = len(nx.max_weight_matching(g, maxcardinality=True))
        if (r.p, r.n, r.eta, r.m) != (*inertia, m):
            bad.append(f"{r.graph_id} {r.graph6}: (p, n, eta, m) = {(r.p, r.n, r.eta, r.m)}, independent {(*inertia, m)}")
    return bad


def unit_latencies(reqs: list[Request], field: str) -> list[float]:
    """Each timed unit's latency: the median of its times over the requests.

    A unit is one input (an analyze graph, a verify chunk), called once
    per request, so single calls caught by a burst of host load are
    outvoted.
    """
    return [statistics.median(times) for times in zip(*(getattr(r, field) for r in reqs))]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond it.

    With fewer than 20 samples that percentile would lie below the median,
    so the maximum is reported instead, with zero samples beyond.
    """
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank < (len(xs) + 1) // 2:
        rank = len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digest(path: Path, w: Workload, k: int, seed: int) -> str | None:
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(w.name, {}).get(str(k), {}).get(str(seed))


def measure_setup(w: Workload, seed: int, k: int) -> list[tuple[float, float]]:
    """(measured, normalised) set-up times of fresh interpreters: import plus input construction."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), w.name, str(seed), str(k)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, _, factor = proc.stdout.split()
        out.append((float(elapsed), float(elapsed) / float(factor)))
    return out


def repeat(step, budget_s: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then until the next call would overrun ``budget_s``."""
    start = time.perf_counter()
    calls, last = 0, 0.0
    while calls < minimum or time.perf_counter() - start + last <= budget_s:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        calls += 1


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


class Gate:
    """Counts attempted and failed rows and names every failure."""

    def __init__(self, reference: str | None) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, k: int, step) -> None:
        """Run requests; an exception fails the rows of one request."""
        try:
            step()
        except Exception as exc:  # a raising entry point is a failed request, not a crash
            self.attempted += k
            self.failed += k
            self.messages.append(f"request raised {exc!r}")

    def check(self, label: str, req: Request, k: int) -> None:
        self.attempted += k
        if self.reference is None:
            self.reference = req.digest
        if req.digest != self.reference:
            self.failed += k
            self.messages.append(f"{label}: report sha256 {req.digest} != expected {self.reference}")
            return
        bad = req.bad + (cross_check(req.rows) if req.rows is not None else [])
        self.failed += len(bad)
        self.messages.extend(f"{label}: failed row {b}" for b in bad)


def layer_metrics(tracers: list[Tracer], traced: list[Request], untraced: list[Request]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced requests, and whether counts repeated exactly.

    Span times are normalised for host speed with their request's mean
    slowness (measured time over normalised time).
    """
    first = tracers[0]
    repeated = all(t.counts() == first.counts() for t in tracers[1:])
    rows = max(first.rows, 1)

    def med(names, field: str) -> float:
        return statistics.median(
            sum(getattr(t.stats.get(n, FunctionStats()), field) for n in names) * r.norm_wall_s / r.wall_s
            for t, r in zip(tracers, traced)
        )

    m: dict[str, tuple[float, str]] = {}
    for name in COUNTED:
        s = first.stats.get(name, FunctionStats())
        m[f"{name}.calls_per_row"] = (s.calls / rows, "count")
        m[f"{name}.repeat_ratio"] = (s.repeats / s.calls if s.calls else 0.0, "ratio")
    for name in CALLS_ONLY:
        m[f"{name}.calls_per_row"] = (first.stats.get(name, FunctionStats()).calls / rows, "count")
    for metric, names in SELF_TIMED.items():
        m[f"{metric}.self_s"] = (med(names, "self_s"), "s")
    for metric, names in TOTAL_TIMED.items():
        m[f"{metric}.total_s"] = (med(names, "total_s"), "s")
    for layer in LAYERS:
        names = [n for n in first.stats if n.startswith(layer + ".")]
        m[f"{layer}.self_s"] = (med(names, "self_s"), "s")
        m[f"{layer}.calls_per_row"] = (sum(first.stats[n].calls for n in names) / rows, "count")
    m["verify.report_bytes"] = (traced[0].report_bytes, "bytes")
    m["trace.overhead_ratio"] = (
        statistics.median(r.norm_wall_s for r in traced) / statistics.median(r.norm_wall_s for r in untraced),
        "x",
    )
    return m, repeated


def import_program():
    """Import ``inertia_bounds`` (and its ``cli``) from this checkout's ``src/``, or None."""
    if not (SRC / "inertia_bounds" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import inertia_bounds as ib
    import inertia_bounds.cli  # noqa: F401  (the analyze path renders through it)

    if Path(ib.__file__).resolve().parent != SRC / "inertia_bounds":
        print(f"error: imported inertia_bounds from {ib.__file__}, not {SRC}", file=sys.stderr)
        return None
    return ib


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--k", type=int, help="rows per request (default: the workload's)")
    parser.add_argument("--digests", type=Path, default=DIGESTS, help="recorded report sha256 table")
    args = parser.parse_args(argv)

    ib = import_program()
    if ib is None:
        return 2

    w = WORKLOADS[args.workload]
    k = args.k or w.k
    setup = [] if args.trace else measure_setup(w, args.seed, k)
    inputs = build_inputs(w, args.seed, k)
    gate = Gate(recorded_digest(args.digests, w, k, args.seed))
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, float] = {}
    as_measured: dict[str, float] = {}
    counts_repeated = True

    if not args.trace:
        # One untimed call of the first unit warms up; the first request keeps its rows for the cross-check.
        reqs: list[Request] = []
        host = HostSpeed()

        def step() -> None:
            if not reqs:
                run_request(ib, w, inputs[:1])
            reqs.append(run_request(ib, w, inputs, keep_rows=not reqs, host=host))

        gate.run(k, lambda: repeat(step, args.seconds, MIN_REQUESTS))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for i, req in enumerate(reqs):
            gate.check(f"request {i}", req, k)
        if reqs:
            latencies = unit_latencies(reqs, "norm_s")
            tail_s, percentile, beyond = tail(latencies)
            metrics = {
                "rows_per_s": (k / statistics.median(r.norm_wall_s for r in reqs), "1/s"),
                "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
                "latency_tail_ms": (tail_s * 1000, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (statistics.median(norm for _, norm in setup), "s"),
            }
            samples = {
                "requests": len(reqs),
                "latency_samples": len(latencies),
                "calls_per_latency_sample": len(reqs),
                "latency_tail_percentile": percentile,
                "latency_tail_beyond": beyond,
                "setup_probes": len(setup),
            }
            measured = unit_latencies(reqs, "call_s")
            as_measured = {
                "rows_per_s": k / statistics.median(r.wall_s for r in reqs),
                "latency_p50_ms": statistics.median(measured) * 1000,
                "latency_tail_ms": tail(measured)[0] * 1000,
                "setup_s": statistics.median(raw for raw, _ in setup),
                "host_slowness": statistics.median(host.factors),
            }
    else:
        # Untraced and traced requests alternate, so host drift hits both alike.
        untraced: list[Request] = []
        traced: list[Request] = []
        tracers: list[Tracer] = []
        host = HostSpeed()

        def cycle() -> None:
            untraced.append(run_request(ib, w, inputs, keep_rows=not untraced, host=host))
            with Tracer() as tracer:
                traced.append(run_request(ib, w, inputs, host=host))
            tracers.append(tracer)

        gate.run(k, lambda: repeat(cycle, args.seconds, MIN_REQUESTS))
        for label, reqs in (("untraced", untraced), ("traced", traced)):
            for i, req in enumerate(reqs):
                gate.check(f"{label} request {i}", req, k)
        if len(tracers) >= MIN_REQUESTS:
            metrics, counts_repeated = layer_metrics(tracers, traced, untraced)
            samples = {"untraced_requests": len(untraced), "traced_requests": len(traced)}
            if not counts_repeated:
                gate.messages.append("exact per-layer counts differ between traced requests")

    for msg in gate.messages:
        print(f"FAILED {msg}")
    stamp = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": w.name,
        "seed": args.seed,
        "k": k,
        "trace": args.trace,
        "samples": samples,
        "as_measured": as_measured,
        "digest": gate.reference,
        "failed_ratio": gate.failed / gate.attempted if gate.attempted else 1.0,
    }
    print("# " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": gate.failed == 0 and counts_repeated and bool(metrics),
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
