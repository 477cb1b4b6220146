"""Command line interface: argument handling, exit codes, output shapes."""

import json

import pytest

from inertia_bounds import cycle_graph, to_graph6
from inertia_bounds.cli import WORKERS_ENV_VAR, main, parse_corpus_spec
from inertia_bounds.corpus import CorpusItem


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_corpus_spec():
    items = list(parse_corpus_spec("exhaustive:3"))
    assert len(items) == 8
    assert all(isinstance(i, CorpusItem) for i in items)
    items = list(parse_corpus_spec("random:n=6,p=0.3,count=4,seed=1"))
    assert len(items) == 4
    items = list(parse_corpus_spec("generated:residue=1,cycles=1,steps=2,seed=3,count=2"))
    assert len(items) == 2 and items[0].residue == 1


def test_parse_corpus_spec_errors():
    for bad in [
        "exhaustive",
        "exhaustive:x",
        "random:n=6",
        "random:n=6,p=2,count=1,seed=0",
        "generated:residue=2,cycles=1,steps=0,seed=0,count=1",
        "mystery:3",
        "random:n=6,p=0.3,count=1,seed=0,bogus=7",
    ]:
        with pytest.raises(ValueError):
            list(parse_corpus_spec(bad))


def test_parse_corpus_spec_file(tmp_path):
    path = tmp_path / "x.g6"
    path.write_text("Dhc\n")
    items = list(parse_corpus_spec(f"file:{path}"))
    assert len(items) == 1
    assert items[0].graph == cycle_graph(5)


def test_analyze_graph6_literal(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Dhc")
    assert code == 0
    row = json.loads(out)
    assert (row["p"], row["n"], row["eta"], row["m"], row["c"]) == (3, 2, 0, 2, 1)
    assert row["counterexample"] is False


def test_analyze_edge_list_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    row = json.loads(out)
    assert (row["p"], row["n"], row["eta"]) == (1, 1, 2)


def test_analyze_graph6_file_with_format_override(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Dhc\n")
    code, out, _ = run_cli(capsys, "analyze", "--format", "graph6", str(path))
    assert code == 0
    assert json.loads(out)["graph6"] == "Dhc"


def test_analyze_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "analyze", "@@@!!not-a-graph")
    assert code == 2
    assert "error" in err.lower()


def test_verify_clean_run(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--corpus",
        "exhaustive:3",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "graphs checked : 8" in out
    assert "counterexamples: 0" in out
    rows = json.loads(out_path.read_text())
    assert len(rows) == 8


def test_verify_check_subset_and_csv(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--corpus",
        "exhaustive:2",
        "--checks",
        "bounds,classifiers",
        "--out",
        str(out_path),
        "--format",
        "csv",
    )
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header.startswith("graph_id,graph6,")


def test_verify_rejects_bad_corpus(capsys):
    code, _, err = run_cli(capsys, "verify", "--corpus", "exhaustive:9")
    assert code == 2
    assert "n <= 6" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("exhaustive:abc", "exhaustive corpus: N must be an integer, got 'abc'"),
        ("random:n=x,p=0.5,count=1,seed=0", "random corpus: n must be an integer, got 'x'"),
        ("random:n=4,p=abc,count=1,seed=0", "random corpus: p must be a number, got 'abc'"),
        ("generated:residue=1,count=x", "generated corpus: count must be an integer, got 'x'"),
    ],
)
def test_verify_names_the_key_of_a_malformed_number(capsys, spec, message):
    code, _, err = run_cli(capsys, "verify", "--corpus", spec)
    assert code == 2
    assert message in err


def test_verify_rejects_bad_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--corpus", "exhaustive:2", "--checks", "nope")
    assert code == 2


def test_verify_workers_env_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    a = tmp_path / "a.json"
    code, _, _ = run_cli(capsys, "verify", "--corpus", "exhaustive:3", "--out", str(a))
    assert code == 0
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    b = tmp_path / "b.json"
    code, _, _ = run_cli(capsys, "verify", "--corpus", "exhaustive:3", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
    assert run_cli(capsys, "verify", "--corpus", "exhaustive:2")[0] == 2


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_verify_rejects_non_positive_workers(capsys, value):
    code, _, err = run_cli(capsys, "verify", "--corpus", "exhaustive:2", "--workers", value)
    assert code == 2
    assert f"--workers must be a positive integer, got {value!r}" in err


def test_verify_reads_graph6_header_with_graph_on_same_line(capsys, tmp_path):
    path = tmp_path / "h.g6"
    path.write_text(">>graph6<<Dhc\nA_\n")
    assert len(parse_corpus_spec(f"file:{path}")) == 2
    code, out, _ = run_cli(capsys, "verify", "--corpus", f"file:{path}")
    assert code == 0
    assert "graphs checked : 2" in out


def test_generate_is_deterministic(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "generate", "--residue", "1", "--cycles", "2", "--steps", "3", "--seed", "7"
    )
    code_b, out_b, _ = run_cli(
        capsys, "generate", "--residue", "1", "--cycles", "2", "--steps", "3", "--seed", "7"
    )
    assert code_a == code_b == 0
    assert out_a == out_b
    g6 = out_a.strip()
    # output must round-trip through the analyzer with the identity attained
    code, out, _ = run_cli(capsys, "analyze", g6)
    assert code == 0
    row = json.loads(out)
    assert row["p"] == row["m"] + row["c"]


def test_generate_rejects_bad_residue(capsys):
    assert run_cli(capsys, "generate", "--residue", "2")[0] == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_cli_counterexample_exit_path(capsys, tmp_path, monkeypatch):
    # force a fake counterexample to pin the exit code contract
    import inertia_bounds.cli as cli_mod

    real = cli_mod.analyze_graph

    def poisoned(g, *args, **kwargs):
        row = real(g, *args, **kwargs)
        object.__setattr__(row, "bounds_ok", False)
        return row

    monkeypatch.setattr(cli_mod, "analyze_graph", poisoned)
    code, out, _ = run_cli(capsys, "analyze", to_graph6(cycle_graph(3)))
    assert code == 1
    assert json.loads(out)["counterexample"] is True


def test_analyze_reads_valid_graph6_before_a_file_of_that_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Bw").write_text("2\n0 1\n")
    code, out, _ = run_cli(capsys, "analyze", "Bw")
    assert code == 0
    row = json.loads(out)
    assert (row["graph6"], row["c"]) == ("Bw", 1)  # the triangle, not the file's K2
    code, out, _ = run_cli(capsys, "analyze", "./Bw")
    assert code == 0
    assert json.loads(out)["graph6"] == "A_"


def test_analyze_names_an_unreadable_argument(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "analyze", "no-such-graph")
    assert code == 2
    assert "'no-such-graph'" in err


def test_verify_names_the_file_and_line_of_a_bad_graph(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nB?x\nCx\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", f"file:{path}")
    assert code == 2
    assert "bad.g6:2" in err
