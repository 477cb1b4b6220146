"""Smoke tests of the benchmark itself, at tiny K.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from run import BENCH_DIR, ROOT, SRC, tail
from tracer import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_K = {"verify-small": 4, "analyze-generated": 2}


def run_bench(*args: str, cwd=ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    cmd = [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "0", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    proc, result = run_bench("--workload", workload, "--trace", str(trace), "--k", str(TINY_K[workload]))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0


def test_exact_counts_repeat_across_processes() -> None:
    def counts() -> dict:
        proc, result = run_bench("--workload", "verify-small", "--trace", "1", "--k", "8")
        assert proc.returncode == 0 and result["correct"], proc.stdout
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if name.endswith((".calls_per_row", ".repeat_ratio", ".report_bytes"))
        }

    first = counts()
    assert first and counts() == first


def test_tampered_digest_trips_the_gate(tmp_path) -> None:
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"verify-small": {"4": {"0": "0" * 64}}}))
    proc, result = run_bench("--workload", "verify-small", "--trace", "0", "--k", "4", "--digests", str(digests))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "report sha256" in proc.stdout


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", "verify-small", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_tracer_replaces_every_binding_and_restores_it() -> None:
    sys.path.insert(0, str(SRC))
    import inertia_bounds as ib
    from inertia_bounds import inertia, theorems, verify

    original = inertia.graph_inertia
    with Tracer() as tracer:
        assert theorems.graph_inertia is verify.graph_inertia is ib.graph_inertia
        assert theorems.graph_inertia is not original
        assert inertia.graph_inertia is original  # calls inside the defining module stay unwrapped
        ib.analyze_graph(ib.cycle_graph(5))
    assert theorems.graph_inertia is verify.graph_inertia is ib.graph_inertia is original
    assert tracer.rows == 1
    calls, repeats = tracer.counts()["inertia.graph_inertia"]
    assert calls > repeats > 0


def test_tail_needs_ten_samples_beyond() -> None:
    assert tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_latency_samples_are_per_input_medians() -> None:
    reqs = [run.Request([1.0, 5.0], [1.0, 5.0], "", [], None), run.Request([3.0, 4.0], [3.0, 4.0], "", [], None),
            run.Request([2.0, 9.0], [2.0, 9.0], "", [], None)]
    assert run.unit_latencies(reqs, "norm_s") == [2.0, 5.0]


def test_host_speed_divides_by_slowness_around_the_unit(monkeypatch) -> None:
    factors = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(run, "slowness", lambda budget_s: next(factors))
    host = run.HostSpeed()
    assert host.normalise(4.0) == 2.0  # slowness 1 before, 3 after
    assert host.normalise(5.0) == 2.0  # 3 before, 2 after
    assert host.factors == [2.0, 2.5]
