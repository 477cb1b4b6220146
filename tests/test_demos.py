"""The documented surface: every narrative script under demos/ runs to
completion, and every name the package exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import inertia_bounds

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_all_is_consistent():
    names = inertia_bounds.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)
    for name in names:
        assert hasattr(inertia_bounds, name), name
    namespace: dict = {}
    exec("from inertia_bounds import *", namespace)
    assert set(names) <= set(namespace)
