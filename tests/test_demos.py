"""The documented surface: every narrative script under demos/ runs to
completion, the README's quick start prints what its comments say, every
name the package exports resolves and has a reader outside the tests,
the bench traces no function the package lost unnoticed, and no package
module, test or demo keeps an import it never uses."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import inertia_bounds

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inertia_bounds"
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


def _identifiers(tree: ast.AST) -> set[str]:
    """The names a piece of code refers to: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _definitions(tree: ast.Module) -> dict[str, set[str]]:
    """Each top-level def, class or assignment of a module, with the names it refers to."""
    bodies: dict[str, set[str]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            bodies[stmt.name] = _identifiers(stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                bodies.update((t.id, _identifiers(stmt.value)) for t in ast.walk(target) if isinstance(t, ast.Name))
    return bodies


def test_every_export_has_a_reader_outside_the_tests():
    # A reader is another package module, a demo, a bench script or the README.
    # Inside its own module a name is read only through a definition that is
    # read itself, so the helpers of test-only code count as test-only too.
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    outside = [
        _identifiers(ast.parse(p.read_text(encoding="utf-8")))
        for p in [*DEMOS, *(ROOT / "bench").glob("*.py")]
    ] + [set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))]
    home = {
        alias.name: node.module
        for node in modules.pop("__init__").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    refers = {stem: _identifiers(tree) for stem, tree in modules.items()}
    read: set[tuple[str, str]] = set()
    for stem, tree in modules.items():
        readers = outside + [ids for s, ids in refers.items() if s != stem]
        bodies = _definitions(tree)
        todo = [name for name in bodies if any(name in r for r in readers)]
        while todo:
            name = todo.pop()
            if (stem, name) not in read:
                read.add((stem, name))
                todo.extend(bodies[name] & bodies.keys())
    unread = [name for name in inertia_bounds.__all__ if (home[name], name) not in read]
    assert not unread, f"exported but read only by the tests: {unread}"


# Functions that bench/run.py traces but the package no longer defines: each
# reads 0 in the bench.  Renaming or dropping them is a bench change; until
# it lands they are listed here, so a newly stale name fails this test.
STALE_BENCH_NAMES = {"inertia.graph_inertia_oracle", "matching.exists_max_matching_avoiding"}


def test_the_bench_traces_only_the_known_stale_names():
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    tables = {
        target.id: ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name) and target.id in ("COUNTED", "CALLS_ONLY", "SELF_TIMED", "TOTAL_TIMED")
    }
    assert len(tables) == 4
    traced = {*tables["COUNTED"], *tables["CALLS_ONLY"]}
    for table in ("SELF_TIMED", "TOTAL_TIMED"):
        traced.update(name for names in tables[table].values() for name in names)

    def defined(name):
        # the tracer wraps only functions defined in the layer module they are named by
        layer, attr = name.split(".")
        module = importlib.import_module(f"inertia_bounds.{layer}")
        fn = getattr(module, attr, None)
        return isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__

    assert {name for name in traced if not defined(name)} == STALE_BENCH_NAMES


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert expected and capsys.readouterr().out.splitlines() == expected


def test_no_module_keeps_an_unused_import():
    # __init__.py imports names to re-export them, so it is left out
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *DEMOS]
    for path in sorted(paths):
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
        assert imported <= used, f"{path.relative_to(ROOT)} never uses {sorted(imported - used)}"
