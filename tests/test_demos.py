"""The documented surface: every narrative script under demos/ runs to
completion, the README's quick start prints what its comments say, every
name the package exports resolves, and no package module keeps an import
it never uses."""

import ast
import os
import subprocess
import sys
import types
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
    # -W error: the suite's warning policy reaches the demos' own processes too
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
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
    # importing a submodule binds it on the package; none is exported
    assert not [name for name in names if isinstance(namespace[name], types.ModuleType)]


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert expected and capsys.readouterr().out.splitlines() == expected


def test_no_module_keeps_an_unused_import():
    # __init__.py imports names to re-export them, so it is left out
    for path in sorted((ROOT / "src" / "inertia_bounds").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"
