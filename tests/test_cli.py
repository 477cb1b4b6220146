"""Command line interface: argument handling, exit codes, output shapes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from inertia_bounds import cycle_graph, to_graph6
from inertia_bounds.cli import main, parse_corpus_spec
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
    for bad, message in [
        ("random:n=4,p", "random corpus: expected key=value, got 'p'"),
        ("file:", "file corpus needs a path: file:PATH"),
    ]:
        with pytest.raises(ValueError) as err:
            list(parse_corpus_spec(bad))
        assert str(err.value) == message


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


def test_analyze_graph6_file(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Dhc\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["graph6"] == "Dhc"


C4_EDGE_LIST = "4\n0 1\n1 2\n2 3\n3 0\n"


@pytest.mark.parametrize(
    "text, graph6",
    [
        ("Dhc\n", "Dhc"),
        ("Dhc\r\n", "Dhc"),
        (">>graph6<<Dhc\n", "Dhc"),
        (C4_EDGE_LIST, "Cl"),
        (C4_EDGE_LIST.replace("\n", "\r\n"), "Cl"),
        ("# c4\n" + C4_EDGE_LIST, "Cl"),
        ("3", "B?"),
        ("3#c", "B?"),  # a '#' never occurs in graph6, so this is a commented vertex count
    ],
)
def test_analyze_detects_the_format_of_every_input(capsys, tmp_path, text, graph6):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["graph6"] == graph6


def test_analyze_has_no_format_option(capsys):
    code, _, err = run_cli(capsys, "analyze", "--format", "graph6", "Dhc")
    assert code == 2
    assert "--format" in err


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
        ("exhaustive:+3", "exhaustive corpus: N must be an integer, got '+3'"),
        ("exhaustive:\u0663", "exhaustive corpus: N must be an integer, got '\u0663'"),
        ("random:n=1_0,p=0.5,count=1,seed=0", "random corpus: n must be an integer, got '1_0'"),
        ("generated:residue=1,steps=+2", "generated corpus: steps must be an integer, got '+2'"),
        ("random:n=x,p=0.5,count=1,seed=0", "random corpus: n must be an integer, got 'x'"),
        ("random:n=4,p=abc,count=1,seed=0", "random corpus: p must be a number, got 'abc'"),
        ("random:n=4,p=\u0660.\u0665,count=2,seed=1", "random corpus: p must be a number, got '\u0660.\u0665'"),
        ("random:n=4,p=0.0_5,count=2,seed=1", "random corpus: p must be a number, got '0.0_5'"),
        ("generated:residue=1,count=x", "generated corpus: count must be an integer, got 'x'"),
        ("random:n=4,n=5,p=0.5,count=2,seed=0", "random corpus: repeated key n"),
        ("generated:residue=1,residue=3", "generated corpus: repeated key residue"),
    ],
)
def test_verify_names_the_key_of_a_malformed_number(capsys, spec, message):
    code, _, err = run_cli(capsys, "verify", "--corpus", spec)
    assert code == 2
    assert message in err


def test_verify_rejects_bad_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--corpus", "exhaustive:2", "--checks", "nope")
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-3", "two", "1_0", "+2", "\u0662"])
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


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--steps", "1_0"),
        ("--steps", "\u0663"),
        ("--residue", "+1"),
        ("--seed", "1_0"),
        ("--isolated", "+2"),
        ("--cycles", "+1"),
    ],
)
def test_generate_reads_integers_like_every_other_flag(capsys, flag, value):
    # int() takes all of these; --workers and the corpus specs do not
    args = {"--residue": "1", flag: value}
    code, out, err = run_cli(capsys, "generate", *(x for kv in args.items() for x in kv))
    assert code == 2 and not out
    assert f"{flag} must be an integer, got {value!r}" in err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_cli_counterexample_exit_path(capsys, monkeypatch):
    # force a fake counterexample to pin the exit code contract
    import inertia_bounds.verify as verify_mod

    monkeypatch.setattr(verify_mod, "check_bounds", lambda f: False)
    code, out, _ = run_cli(capsys, "analyze", to_graph6(cycle_graph(3)))
    assert code == 1
    assert json.loads(out)["counterexample"] is True


def test_verify_names_an_unwritable_report_path(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    code, _, err = run_cli(capsys, "verify", "--corpus", "exhaustive:2", "--out", str(out_path))
    assert code == 2
    assert str(out_path) in err


def test_analyze_reads_a_bare_vertex_count_file_as_an_edge_list(capsys, tmp_path):
    for text, (graph6, eta) in {"1\n": ("@", 1), "0": ("?", 0)}.items():
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0, text
        row = json.loads(out)
        assert (row["graph6"], row["p"], row["n"], row["eta"]) == (graph6, 0, 0, eta)
    # a graph6 header holds a digit, so the rule must not catch it
    path = tmp_path / "h.g6"
    path.write_text(">>graph6<<Bw\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["graph6"] == "Bw"


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("Dhc\nA_\n", "'g.g6' holds 2 graphs; analyze takes one"),
        (">>graph6<<\n", "'g.g6' holds 0 graphs; analyze takes one"),
    ],
)
def test_analyze_takes_a_graph6_file_of_exactly_one_graph(capsys, tmp_path, monkeypatch, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.g6").write_text(text)
    code, _, err = run_cli(capsys, "analyze", "g.g6")
    assert code == 2
    assert message in err


def test_analyze_reads_a_graph6_file_whose_header_has_its_own_line(capsys, tmp_path):
    path = tmp_path / "hdr.g6"
    path.write_text(">>graph6<<\nDhc\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["graph6"] == "Dhc"


def test_analyze_rejects_non_ascii_graph6(capsys):
    code, out, err = run_cli(capsys, "analyze", "G?\u00ac")
    assert code == 2
    assert out == ""
    assert "offset 2" in err


def test_verify_rejects_a_file_with_a_foreign_header(capsys, tmp_path):
    path = tmp_path / "s6.txt"
    path.write_text(">>sparse6<<:Fa@x^\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", f"file:{path}")
    assert code == 2
    assert "graphs checked" not in out
    assert "s6.txt:1" in err and ">>sparse6<<" in err


@pytest.mark.parametrize(
    "argv",
    [("analyze", "Dhc"), ("verify", "--corpus", "exhaustive:3")],
)
def test_a_closed_stdout_ends_quietly(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "inertia_bounds.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == b""
