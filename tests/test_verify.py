"""Corpus streams, per-graph verdict rows, report rendering, determinism."""

import hashlib
import json
import sys

import pytest

from inertia_bounds import (
    ALL_CHECKS,
    DifferenceBounds,
    GeneratorParams,
    GraphFacts,
    GraphParseError,
    UpperClassification,
    analyze_cycles,
    analyze_graph,
    check_deletion_corollaries,
    check_difference_bounds,
    classify_unicyclic,
    contract_cycles,
    cycle_graph,
    emit_report,
    parse_graph6,
    path_graph,
    render_report,
    run_verification,
    to_graph6,
)
from inertia_bounds.corpus import (
    CorpusItem,
    enumerate_labeled,
    generated_corpus,
    read_graph6_file,
    sample_random,
)
from inertia_bounds.graphs import _MEMOS, MEMO_VERTICES
from inertia_bounds.theorems import LEMMA_NAMES
from inertia_bounds.verify import CHECKS, REPORT_FIELDS, report_row_dict, summarize
from conftest import lower_bound_near_miss, patch_function


# corpus streams


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled(0)) == 1
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    with pytest.raises(ValueError):
        list(enumerate_labeled(7))


def test_enumerate_labeled_ids_are_stable():
    items = list(enumerate_labeled(3))
    assert items[0].graph_id == "exh3-0"
    assert items[-1].graph_id == "exh3-7"
    assert items[-1].graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_sample_random_is_seed_deterministic():
    a = [i.graph for i in sample_random(8, 0.4, 30, seed=5)]
    b = [i.graph for i in sample_random(8, 0.4, 30, seed=5)]
    c = [i.graph for i in sample_random(8, 0.4, 30, seed=6)]
    assert a == b
    assert a != c


def test_corpus_streams_reject_bad_parameters():
    base = GeneratorParams(
        cycle_residue=1, num_cycles=1, num_isolated_seeds=0, num_steps=2, rng_seed=10
    )
    for stream, message in [
        (lambda: sample_random(13, 0.5, 1, seed=0), "random sampling is limited to n <= 12, got 13"),
        (lambda: sample_random(4, 1.5, 1, seed=0), "edge probability must be in [0, 1], got 1.5"),
        (lambda: sample_random(4, 0.5, -1, seed=0), "count must be non-negative, got -1"),
        (lambda: generated_corpus(base, -1), "count must be non-negative, got -1"),
    ]:
        with pytest.raises(ValueError) as err:
            list(stream())
        assert str(err.value) == message


def test_read_graph6_file(tmp_path):
    path = tmp_path / "c.g6"
    path.write_text(">>graph6<<\nDhc\n\nA_\n")
    items = list(read_graph6_file(path))
    assert [i.graph for i in items] == [cycle_graph(5), path_graph(2)]
    assert items[0].graph_id == "c.g6:2"


def test_read_graph6_file_header_shares_a_line_with_a_graph(tmp_path):
    path = tmp_path / "h.g6"
    path.write_text(">>graph6<<Dhc\n>> a comment\n>>graph6<<\nA_\n")
    items = list(read_graph6_file(path))
    assert [i.graph for i in items] == [cycle_graph(5), path_graph(2)]
    assert [i.graph_id for i in items] == ["h.g6:1", "h.g6:4"]


def test_read_graph6_file_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "s6.txt"
    path.write_text(">>sparse6<<:Fa@x^\n")
    with pytest.raises(GraphParseError, match=r"s6\.txt:1: foreign header '>>sparse6<<'"):
        list(read_graph6_file(path))


def test_generated_corpus_annotates_residue():
    base = GeneratorParams(
        cycle_residue=1, num_cycles=1, num_isolated_seeds=0, num_steps=2, rng_seed=10
    )
    items = list(generated_corpus(base, 5))
    assert len(items) == 5
    assert all(i.residue == 1 for i in items)
    assert len({i.graph_id for i in items}) == 5
    # seeds advance from the base seed, so the stream is reproducible
    again = list(generated_corpus(base, 5))
    assert [i.graph for i in items] == [g.graph for g in again]


# per-graph rows


def test_analyze_graph_c5_row():
    row = analyze_graph(cycle_graph(5), "c5")
    assert (row.p, row.n, row.eta, row.m, row.c) == (3, 2, 0, 2, 1)
    assert row.bounds_ok and row.oracle_ok
    assert row.p_upper.attained
    assert row.unicyclic_prediction == (2, 3) and row.unicyclic_ok
    assert row.lemmas_ok
    assert not row.is_counterexample()


def test_analyze_graph_not_applicable_notes():
    row = analyze_graph(path_graph(3), "p3")
    # no cycle: unicyclic and corollary checks cannot apply
    assert row.unicyclic_prediction is None
    assert row.corollaries_ok is None
    assert "unicyclic: n/a" in row.notes


def test_analyze_graph_check_subset():
    row = analyze_graph(cycle_graph(5), "c5", checks=("bounds",))
    assert row.bounds_ok is not None
    assert row.p_upper is None
    assert row.difference is None
    with pytest.raises(ValueError):
        analyze_graph(cycle_graph(3), "x", checks=("nonsense",))


@pytest.mark.parametrize("checks", ["bounds", "lemmas", ""])
def test_checks_given_as_one_string_are_refused_by_name(checks):
    # a string is an iterable of one-letter names, or of none at all
    message = f"checks must be a collection of check names, not the string {checks!r}"
    with pytest.raises(ValueError) as err:
        analyze_graph(cycle_graph(5), "c5", checks=checks)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        run_verification([CorpusItem("c5", cycle_graph(5))], checks=checks)
    assert str(err.value) == message


@pytest.mark.parametrize("checks", [None, ("bounds",)])
@pytest.mark.parametrize("residue", [2, -1, 5, True, 1.0])
def test_analyze_graph_rejects_a_residue_outside_the_generator_classes(residue, checks):
    message = f"residue {residue} is not one of (None, 0, 1, 3)"
    with pytest.raises(ValueError) as err:
        analyze_graph(cycle_graph(5), "c5", checks=checks, residue=residue)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        run_verification([CorpusItem("x", cycle_graph(5), residue)], checks=checks)
    assert str(err.value) == message


def test_analyze_graph_accepts_every_residue_the_generator_accepts():
    accepted = [None]
    for residue in range(-2, 8):
        try:
            GeneratorParams(cycle_residue=residue, num_cycles=1, num_isolated_seeds=0, num_steps=0, rng_seed=0)
        except ValueError:
            continue
        accepted.append(residue)
    assert accepted == [None, 0, 1, 3]
    for residue in accepted:
        assert analyze_graph(cycle_graph(5), "c5", residue=residue).graph_id == "c5"


def test_near_miss_graph_is_not_a_counterexample():
    row = analyze_graph(lower_bound_near_miss(), "near-miss")
    assert not row.p_lower.attained and not row.p_lower.conditions
    assert not row.is_counterexample()


# each check's own failure makes the row a counterexample and names itself

FORCED_FAILURES = {
    "bounds": ("check_bounds", lambda f: False),
    "classifiers": ("classify_p_upper", lambda f: UpperClassification(True, False, False)),
    "unicyclic": ("classify_unicyclic", lambda f: (0, 0)),
    "corollaries": ("check_deletion_corollaries", lambda f: False),
    "lemmas": ("lemma_suite", lambda f: {"forced": False}),
    "difference": (
        "check_difference_bounds", lambda f: DifferenceBounds(3, 1, 0, 1, False, False)
    ),
    "generator": ("classify_p_upper", lambda f: UpperClassification(True, False, False)),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_a_failing_check_makes_a_counterexample_with_a_note(check, monkeypatch):
    import inertia_bounds.theorems as theorems_mod

    g, residue = cycle_graph(5), 1  # C5 is extremal for p with c = 1, so every check applies
    assert check.run(GraphFacts(g), residue) is not None
    clean = analyze_graph(g, "c5", checks=(check.name,), residue=residue)
    assert not clean.is_counterexample()
    name, forced = FORCED_FAILURES[check.name]
    patch_function(monkeypatch, getattr(theorems_mod, name), forced)
    row = analyze_graph(g, "c5", checks=(check.name,), residue=residue)
    assert row.is_counterexample()
    assert report_row_dict(row)["counterexample"] is True
    assert set(row.notes.split("; ")) - set(clean.notes.split("; "))


# reports


def corpus_for_report():
    return [
        CorpusItem("a", cycle_graph(5)),
        CorpusItem("b", path_graph(4)),
        CorpusItem("c", lower_bound_near_miss()),
    ]


def test_run_verification_clean():
    report = run_verification(corpus_for_report())
    assert report.ok
    assert report.counterexamples == ()
    assert [r.graph_id for r in report.rows] == ["a", "b", "c"]
    assert report.checks == ALL_CHECKS


def test_report_fields_round_trip():
    report = run_verification(corpus_for_report())
    d = report_row_dict(report.rows[0])
    assert tuple(d) == REPORT_FIELDS
    assert d["graph_id"] == "a"
    assert d["graph6"] == to_graph6(cycle_graph(5))
    assert parse_graph6(d["graph6"]) == cycle_graph(5)


def test_render_json_schema():
    report = run_verification(corpus_for_report())
    payload = json.loads(render_report(report, "json"))
    # a flat array of row objects, one per graph, fixed key order
    assert isinstance(payload, list) and len(payload) == 3
    assert all(tuple(row) == REPORT_FIELDS for row in payload)
    assert payload[0]["graph_id"] == "a"
    assert payload[2]["counterexample"] is False


def test_the_json_writer_gives_the_bytes_of_json_dumps(tmp_path, monkeypatch):
    import dataclasses

    import inertia_bounds.theorems as theorems_mod
    from inertia_bounds.cli import parse_corpus_spec

    # graph ids are "{basename}:{lineno}", so the name reaches the report as it is
    corpus_file = tmp_path / 'q"b\\s\tl\u00e9\U0001d53e.g6'
    corpus_file.write_text("Dhc\nEl_G\n", encoding="ascii")
    named = run_verification(parse_corpus_spec(f"file:{corpus_file}"))
    assert named.rows[0].graph_id == corpus_file.name + ":1"
    # every selected check is n/a on a 16-vertex path: no cycle, over the budget, no residue
    na = run_verification([CorpusItem("p16", path_graph(16))], ("unicyclic", "corollaries", "difference", "generator"))
    na_row = report_row_dict(na.rows[0])
    assert all(na_row[name] is None for check in CHECKS for name, _ in check.columns)
    assert na.rows[0].notes.count("n/a") == 4
    # values of other types than the report's own still encode as json.dumps does
    odd = dataclasses.replace(na.rows[0], p=1.5, notes=["x", {"y": [2, None]}, []])
    patch_function(monkeypatch, theorems_mod.check_bounds, lambda f: False)
    failing = run_verification(corpus_for_report())
    assert failing.counterexamples and all("bounds:" in r.notes for r in failing.rows)
    for report in (run_verification([]), named, na, dataclasses.replace(na, rows=(odd,)), failing):
        want = json.dumps([report_row_dict(r) for r in report.rows], indent=1) + "\n"
        assert render_report(report, "json") == want


def test_render_csv_schema():
    report = run_verification(corpus_for_report())
    text = render_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert len(lines) == 4
    with pytest.raises(ValueError):
        render_report(report, "xml")


def test_reports_are_byte_identical_and_timing_free(tmp_path):
    corpus = corpus_for_report()
    r1 = run_verification(corpus)
    r2 = run_verification(corpus)
    assert render_report(r1, "json") == render_report(r2, "json")
    assert render_report(r1, "csv") == render_report(r2, "csv")
    # elapsed time may differ between runs but must never leak into files
    assert r1.elapsed_seconds != 0.0
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit_report(r1, p1)
    emit_report(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "name, fmt",
    [("r.csv", "csv"), ("R.CSV", "csv"), ("r.Csv", "csv"), ("r.json", "json"), ("r", "json"), ("r.csv.txt", "json")],
)
def test_emit_report_takes_its_format_from_the_file_name(tmp_path, name, fmt):
    report = run_verification(corpus_for_report())
    expected = render_report(report, fmt).encode("utf-8")
    emit_report(report, tmp_path / name)
    assert (tmp_path / name).read_bytes() == expected
    emit_report(report, str(tmp_path / name))
    assert (tmp_path / name).read_bytes() == expected


def test_parallel_equals_serial():
    corpus = list(enumerate_labeled(4))
    serial = run_verification(corpus, workers=1)
    parallel = run_verification(corpus, workers=2)
    assert render_report(serial, "json") == render_report(parallel, "json")


def test_pool_never_outnumbers_the_rows(monkeypatch):
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    corpus = list(enumerate_labeled(2))
    serial = run_verification(corpus, workers=1)
    pooled = run_verification(corpus, workers=64)
    assert sizes == [2]
    assert render_report(serial, "json") == render_report(pooled, "json")
    run_verification(list(enumerate_labeled(3)), workers=3)
    assert sizes == [2, 3]


@pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2", None])
def test_run_verification_refuses_workers_that_are_not_a_positive_int(workers):
    with pytest.raises(ValueError) as err:
        run_verification(list(enumerate_labeled(2)), workers=workers)
    assert str(err.value) == f"workers must be an int >= 1, got {workers!r}"


def test_summarize_mentions_scale_and_outcome(monkeypatch):
    import inertia_bounds.verify as verify_mod

    report = run_verification(corpus_for_report())
    text = summarize(report)
    assert "3" in text
    assert "counterexample" in text.lower()
    assert "conjecture" in text.lower()
    monkeypatch.setattr(verify_mod, "check_bounds", lambda f: False)
    text = summarize(run_verification([CorpusItem("a", cycle_graph(5))]))
    assert text.splitlines()[-1] == "COUNTEREXAMPLE a Dhc"


# report bytes pinned across refactors


def golden_corpus():
    """A mixed corpus whose rows carry every n/a note, the difference budget's included."""
    items = list(enumerate_labeled(5))
    for residue, cycles, steps, isolated, seed in ((0, 2, 3, 0, 0), (1, 1, 2, 1, 5), (3, 2, 6, 1, 9)):
        base = GeneratorParams(
            cycle_residue=residue,
            num_cycles=cycles,
            num_isolated_seeds=isolated,
            num_steps=steps,
            rng_seed=seed,
        )
        items += generated_corpus(base, 3)
    items.append(CorpusItem("near-miss", lower_bound_near_miss()))
    return items


GOLDEN_DIGESTS = {
    (None, "json"): "986accd84bd3f878772c77e6c2e90b1c21b062340df2b18aa7492517966cd4bd",
    (None, "csv"): "029a831ddb48fbddeec9270633df8958c5c380de3d19cd1f6da60702053c5d22",
    (("bounds", "lemmas"), "json"): "a3b7e38444dbe5ba5f7de2d16e80a9578b6ff61ba7d2dfbc3c2a6fcd66621a13",
    (("bounds", "lemmas"), "csv"): "70870114320c1887bbaad29b188d0b94ded0d4e674d047705f8cbe1a85e41c00",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("checks", [None, ("bounds", "lemmas")])
def test_report_bytes_match_golden_digests(checks, workers):
    corpus = golden_corpus()
    # the corpus must reach the difference budget, or its note goes unpinned
    assert max(item.graph.n for item in corpus) > 14
    report = run_verification(corpus, checks=checks, workers=workers)
    for fmt in ("json", "csv"):
        digest = hashlib.sha256(render_report(report, fmt).encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGESTS[checks, fmt], fmt


def test_report_bytes_do_not_depend_on_what_the_memo_holds():
    # the kernels' small-graph memo lives as long as the process, so a second
    # sweep answers every subgraph from it; the report must not show that
    corpus = list(enumerate_labeled(5))  # the exhaustive:5 corpus
    for memo in _MEMOS:
        memo.clear()
    cold = run_verification(corpus)
    assert all(_MEMOS)
    warm = run_verification(corpus)
    for fmt in ("json", "csv"):
        assert render_report(warm, fmt) == render_report(cold, fmt), fmt


# what the golden corpus exercises: the digests pin only lemmas_ok, so a
# lemma that silently stops running would otherwise go unseen

GOLDEN_LEMMA_VERDICTS = {  # name: (True, False, None) row counts
    "pendant_reduction": (719, 0, 315),
    "component_additivity": (301, 0, 733),
    "deletion_interlacing": (1034, 0, 0),
    "quasipendant_matching_drop": (684, 0, 350),
    "tree_nullity_bound": (125, 0, 909),
    "leaf_stripping_drop": (125, 0, 909),
    "pendant_existence": (69, 0, 965),
    "matching_decomposition": (130, 0, 904),
    "odd_cycles_matching_equivalence": (216, 0, 818),
    "attached_even_cycle": (2, 0, 1032),
    "lower_bound_forces_avoidance": (3, 0, 1031),
    "tight_bound_disjoint_cycles": (116, 0, 918),
}
GOLDEN_NA_ROWS = {"unicyclic": 811, "corollaries": 1001, "difference": 4, "generator": 1025}


def test_golden_corpus_exercises_every_lemma_and_n_a_note():
    rows = run_verification(golden_corpus()).rows
    verdicts = {
        name: tuple(sum(r.lemmas[name] is v for r in rows) for v in (True, False, None))
        for name in LEMMA_NAMES
    }
    assert verdicts == GOLDEN_LEMMA_VERDICTS
    na_rows = {c.name: sum(c.na_note in r.notes.split("; ") for r in rows) for c in CHECKS if c.na_note}
    assert na_rows == GOLDEN_NA_ROWS


# a check is n/a exactly when its verdict answers None

GUARDED_CHECKS = {
    "unicyclic": classify_unicyclic,
    "corollaries": check_deletion_corollaries,
    "difference": check_difference_bounds,
}


def test_a_check_is_na_on_a_golden_row_exactly_when_its_verdict_answers_none():
    na_notes = {check.name: check.na_note for check in CHECKS if check.name in GUARDED_CHECKS}
    seen = {(name, na): 0 for name in GUARDED_CHECKS for na in (False, True)}
    for item in golden_corpus():
        notes = analyze_graph(item.graph, item.graph_id, residue=item.residue).notes.split("; ")
        facts = GraphFacts(item.graph)
        for name, verdict in GUARDED_CHECKS.items():
            na = na_notes[name] in notes
            assert na == (verdict(facts) is None), (name, item.graph_id)
            seen[name, na] += 1
    # every check is both applicable and n/a somewhere in the corpus
    assert all(seen.values()), seen


# each invariant once per row

ONCE_PER_ROW = (
    ("inertia", "graph_inertia"),
    ("inertia", "certificate_inertia"),
    ("matching", "matching_number"),
    ("graphs", "cyclomatic_number"),
    ("graphs", "components"),
    ("graphs", "pendant_vertices"),
    ("cycles", "analyze_cycles"),
)
GRAPHS_WRAPPED_AT_HOME = ("components", "pendant_vertices")


def test_each_invariant_is_computed_once_per_row(monkeypatch):
    # Wrap each function wherever another package module bound it by name,
    # plus the row function in its own module, and count the calls each row
    # makes on a graph equal to its own.  The graphs functions are wrapped
    # in their own module too, so the call inside cyclomatic_number counts.
    import inertia_bounds.verify as verify_mod

    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "inertia_bounds"]
    row_graph = []
    calls = {name: 0 for _, name in ONCE_PER_ROW}
    per_row = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if row_graph and args and args[0] == row_graph[0]:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for layer, name in ONCE_PER_ROW:
        fn = getattr(sys.modules[f"inertia_bounds.{layer}"], name)
        for module in package:
            own = module.__name__ == fn.__module__
            if vars(module).get(name) is fn and (not own or name in GRAPHS_WRAPPED_AT_HOME):
                monkeypatch.setattr(module, name, counted(name, fn))

    analyze = verify_mod.analyze_graph

    def row(g, *args, **kwargs):
        row_graph[:] = [g]
        calls.update(dict.fromkeys(calls, 0))
        try:
            return analyze(g, *args, **kwargs)
        finally:
            per_row.append(dict(calls))
            row_graph.clear()

    monkeypatch.setattr(verify_mod, "analyze_graph", row)
    # the frontier question is a cached property of the row's record: count its solves
    avoided = GraphFacts.__dict__["frontier_always_avoided"]
    solve = avoided.func
    calls["frontier_always_avoided"] = 0

    def frontier_always_avoided(facts):
        if row_graph and facts.graph == row_graph[0]:
            calls["frontier_always_avoided"] += 1
        return solve(facts)

    monkeypatch.setattr(avoided, "func", frontier_always_avoided)

    corpus = once_per_row_corpus()
    report = run_verification(corpus, checks=ALL_CHECKS, workers=1)
    assert report.ok and len(per_row) == len(corpus)
    worst = {name: max(counts[name] for counts in per_row) for name in calls}
    assert all(count <= 1 for count in worst.values()), worst
    # every row computes its own certified inertia and checks it, so the wrappers were live
    assert worst["graph_inertia"] == worst["certificate_inertia"] == 1
    assert per_row[-1]["frontier_always_avoided"] == 1  # asked twice on the ElCG row


VERDICTS = (
    "check_bounds",
    "classify_p_upper",
    "classify_n_upper",
    "classify_p_lower",
    "classify_n_lower",
    "classify_unicyclic",
    "check_deletion_corollaries",
    "lemma_suite",
    "check_difference_bounds",
)


def test_each_verdict_runs_at_most_once_per_row(monkeypatch):
    # the classifiers and generator checks read one classification of the row
    import inertia_bounds.theorems as theorems_mod
    import inertia_bounds.verify as verify_mod

    row_graph = []
    calls = dict.fromkeys(VERDICTS, 0)
    per_row = []

    def counted(name, fn):
        def wrapper(f):
            if row_graph and f.graph == row_graph[0]:
                calls[name] += 1
            return fn(f)

        return wrapper

    for name in VERDICTS:
        fn = getattr(theorems_mod, name)
        patch_function(monkeypatch, fn, counted(name, fn))
    analyze = verify_mod.analyze_graph

    def row(g, *args, **kwargs):
        row_graph[:] = [g]
        calls.update(dict.fromkeys(calls, 0))
        try:
            return analyze(g, *args, **kwargs)
        finally:
            per_row.append(dict(calls))
            row_graph.clear()

    monkeypatch.setattr(verify_mod, "analyze_graph", row)
    corpus = once_per_row_corpus()
    report = run_verification(corpus, checks=ALL_CHECKS, workers=1)
    assert report.ok and len(per_row) == len(corpus)
    worst = {name: max(counts[name] for counts in per_row) for name in VERDICTS}
    assert worst == dict.fromkeys(VERDICTS, 1), worst


def test_no_record_outlives_its_row(monkeypatch):
    # analyze_graph lets go of the row's record, with its classification and
    # every G - v it holds, when the row is done, and also when a check raises
    import gc
    import weakref

    import inertia_bounds.verify as verify_mod

    records = []

    def tracked(*args):
        f = GraphFacts(*args)
        records.append(weakref.ref(f))
        return f

    monkeypatch.setattr(verify_mod, "GraphFacts", tracked)
    analyze_graph(cycle_graph(5), residue=1)
    gc.collect()
    assert len(records) == 1 and records[0]() is None

    def broken(f):
        raise RuntimeError("check failed")

    monkeypatch.setattr(verify_mod, "classify_unicyclic", broken)
    with pytest.raises(RuntimeError):
        analyze_graph(cycle_graph(5), residue=1)
    gc.collect()
    assert len(records) == 2 and records[1]() is None


@pytest.mark.parametrize(
    "item",
    [
        # C4 with one path hanging off it: the contraction test and the attached-even-cycle
        # lemma both need m(G - C), and that lemma and the frontier question both need the
        # bridge's m(G - x - y)
        next(generated_corpus(GeneratorParams(0, 1, 0, 1, 4), 1)),
        CorpusItem("El_G", parse_graph6("El_G")),
        # 8 vertices, so each m(G - S) is answered by augmenting searches from G's maximum
        # matching: the corollaries ask it for the cycle's vertices, the quasi-pendant lemma
        # for its two quasi-pendants, the contraction test for the cycle
        next(generated_corpus(GeneratorParams(0, 1, 0, 2, 4), 1)),
    ],
    ids=lambda item: to_graph6(item.graph),
)
def test_no_row_runs_the_blossom_twice_on_one_vertex_set(monkeypatch, item):
    import inertia_bounds.matching as matching_mod

    g = item.graph
    built = []  # the vertex set of each subgraph of g that delete_vertices returns
    blossoms = []  # each graph the blossom runs on
    solved = []  # the vertex set of each m(G - S) answered from g's maximum matching

    def counted_delete(delete):
        def wrapper(h, vs):
            vs = frozenset(vs)
            if h is g:
                built.append(vs)
            return delete(h, vs)

        return wrapper

    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "inertia_bounds"]
    delete = sys.modules["inertia_bounds.graphs"].delete_vertices
    for module in package:
        if vars(module).get("delete_vertices") is delete:
            monkeypatch.setattr(module, "delete_vertices", counted_delete(delete))
    mates, without = matching_mod._mates, matching_mod.matching_number_without

    def counted_mates(h):
        blossoms.append(h)
        return mates(h)

    def counted_search(h, row_mates, vs):
        vs = frozenset(vs)
        if h is g:
            solved.append(vs)
        return without(h, row_mates, vs)

    patch_function(monkeypatch, mates, counted_mates)
    patch_function(monkeypatch, without, counted_search)
    row = analyze_graph(g, item.graph_id, checks=ALL_CHECKS, residue=item.residue)
    assert row.lemmas["attached_even_cycle"] is True
    # one blossom run on G, whatever its size; the only other is on the contracted forest
    forest = contract_cycles(g, analyze_cycles(g))
    assert [h for h in blossoms if h is g] == [g]
    assert all(h is g or h == forest for h in blossoms)
    repeated = sorted(sorted(vs) for vs in set(solved) if solved.count(vs) > 1)
    assert not repeated
    assert any(len(vs) == 1 for vs in solved) and any(len(vs) == 2 for vs in solved)
    # no G - S is built at all: a small G - v's memo key is read straight off G
    assert not built


def once_per_row_corpus():
    """Labeled graphs on 4 vertices, generator outputs of every residue, the near miss, ElCG."""
    corpus = list(enumerate_labeled(4))
    for residue in (0, 1, 3):
        base = GeneratorParams(
            cycle_residue=residue, num_cycles=2, num_isolated_seeds=1, num_steps=3, rng_seed=residue
        )
        corpus += generated_corpus(base, 2)
    corpus.append(CorpusItem("near-miss", lower_bound_near_miss()))
    # ElCG: a unicyclic row whose q = 0 mod 4 prediction and lower-bound lemma both ask
    # whether every maximum matching avoids the frontier
    corpus.append(next(generated_corpus(GeneratorParams(0, 1, 0, 1, 4), 1)))
    return corpus


def test_cycle_structure_is_analysed_once_per_row_and_never_on_a_subgraph(monkeypatch):
    import inertia_bounds.theorems as theorems_mod

    calls = []
    original = theorems_mod.analyze_cycles

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(theorems_mod, "analyze_cycles", counted)
    corpus = once_per_row_corpus()
    report = run_verification(corpus, checks=ALL_CHECKS, workers=1)
    assert report.ok
    assert calls == [item.graph for item in corpus]


def test_vertex_deletions_are_shared_between_interlacing_and_corollaries(monkeypatch):
    # one inertia for the row graph, one walk of its peel for every deleted vertex: the
    # interlacing lemma reuses the deletion inertias that the corollaries already read
    import inertia_bounds.theorems as theorems_mod

    base = GeneratorParams(
        cycle_residue=1, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=3
    )
    item = next(generated_corpus(base, 1))
    g = item.graph
    calls, walks = [], []
    original, deletion = theorems_mod.graph_inertia, theorems_mod.deletion_inertias

    def counted(h, *terms):
        calls.append(h)
        return original(h, *terms)

    def counted_deletion(h, cores):
        walks.append(h)
        return deletion(h, cores)

    patch_function(monkeypatch, original, counted)
    patch_function(monkeypatch, deletion, counted_deletion)
    row = analyze_graph(g, item.graph_id, checks=ALL_CHECKS, residue=item.residue)
    assert row.corollaries_ok is True and row.lemmas["deletion_interlacing"] is True
    # G - v has 18 vertices, over the memo size: no G - v graph gets an inertia
    assert calls == [g]
    assert walks == [g]


def test_consecutive_deletions_with_one_core_eliminate_it_once(monkeypatch):
    # the row of test_vertex_deletions_are_shared_between_interlacing_and_corollaries:
    # its 19 G - v peel to 4 distinct cores, one of them G's own, one elimination per
    # core other than G's
    import inertia_bounds.inertia as inertia_mod

    base = GeneratorParams(
        cycle_residue=1, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=3
    )
    item = next(generated_corpus(base, 1))
    runs = []
    original = inertia_mod._eliminate

    def counted(rows, *args):
        runs.append(rows)
        return original(rows, *args)

    monkeypatch.setattr(inertia_mod, "_eliminate", counted)
    row = analyze_graph(item.graph, item.graph_id, checks=ALL_CHECKS, residue=item.residue)
    assert row.certificate_ok and row.lemmas["deletion_interlacing"] is True
    # G's certified run and the 3 cores other than G's, which the row's certificate
    # proves; the 7 pendant pairs eliminate nothing; 1 + 19 if every G - v
    # eliminated its core
    assert len(runs) == 1 + 0 + 3


def test_a_row_over_the_memo_size_builds_no_g_minus_v_and_eliminates_each_core_once(monkeypatch):
    # the row of test_consecutive_deletions_with_one_core_eliminate_it_once
    import inertia_bounds.inertia as inertia_mod
    import inertia_bounds.theorems as theorems_mod

    base = GeneratorParams(
        cycle_residue=1, num_cycles=2, num_isolated_seeds=1, num_steps=4, rng_seed=3
    )
    item = next(generated_corpus(base, 1))
    g = item.graph
    single = []  # one-vertex deletions of g
    handed = []  # each cores dict handed to a walk of deletion inertias
    inside = []  # one entry per open walk
    eliminated = []  # one entry per elimination run inside a walk
    delete = sys.modules["inertia_bounds.graphs"].delete_vertices
    deletion, eliminate = theorems_mod.deletion_inertias, inertia_mod._eliminate

    def counted_delete(h, vs):
        vs = list(vs)
        if h is g and len(vs) == 1:
            single.append(vs)
        return delete(h, vs)

    def counted_deletion(h, cores):
        handed.append(cores)
        inside.append(h)
        try:
            return deletion(h, cores)
        finally:
            inside.pop()

    def counted_eliminate(rows, *args):
        if inside:
            eliminated.append(inside[-1])
        return eliminate(rows, *args)

    patch_function(monkeypatch, delete, counted_delete)
    patch_function(monkeypatch, deletion, counted_deletion)
    monkeypatch.setattr(inertia_mod, "_eliminate", counted_eliminate)
    row = analyze_graph(g, item.graph_id, checks=ALL_CHECKS, residue=item.residue)
    assert row.lemmas["deletion_interlacing"] is True and g.n - 1 > MEMO_VERTICES
    assert not single
    [cores] = handed  # one walk, and one dict, for the row
    # one elimination per distinct core, however many G - v peel to it, except G's
    # own, which the row's certificate proves
    assert len(eliminated) == len(cores) - 1 < g.n


def test_one_blossom_per_row_on_the_row_graph(monkeypatch):
    # the matching queries take m(G) from the row instead of solving G again;
    # patch_function replaces every binding, matching.py's own and the record's
    import inertia_bounds.matching as matching_mod
    import inertia_bounds.verify as verify_mod

    row_graph = []
    per_row = []
    searches = []  # per row, the vertex set of each m(G - S) answered on the row graph
    original, without = matching_mod._mates, matching_mod.matching_number_without

    def counted(g):
        if row_graph and g == row_graph[0]:
            per_row[-1] += 1
        return original(g)

    def counted_search(g, mates, vs):
        vs = frozenset(vs)
        if row_graph and g == row_graph[0]:
            searches[-1].append(vs)
        return without(g, mates, vs)

    patch_function(monkeypatch, original, counted)
    patch_function(monkeypatch, without, counted_search)
    analyze = verify_mod.analyze_graph

    def row(g, *args, **kwargs):
        row_graph[:] = [g]
        per_row.append(0)
        searches.append([])
        try:
            return analyze(g, *args, **kwargs)
        finally:
            row_graph.clear()

    monkeypatch.setattr(verify_mod, "analyze_graph", row)
    corpus = once_per_row_corpus()
    report = run_verification(corpus, checks=ALL_CHECKS, workers=1)
    assert report.ok and len(per_row) == len(corpus)
    # no memo holds m(G), so every row, small or large, solves G exactly once
    assert per_row == [1] * len(corpus)
    # m(G - S) is answered once per vertex set from G's matching, never by a second
    # blossom run on G
    assert any(searches) and all(len(set(vs)) == len(vs) for vs in searches)


def test_read_graph6_file_names_the_line_of_a_malformed_graph(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nB?x\nCx\n")
    with pytest.raises(GraphParseError, match=r"bad\.g6:2: graph6: expected 1 payload bytes"):
        list(read_graph6_file(path))


def test_read_graph6_file_names_the_line_of_a_non_ascii_byte(tmp_path):
    path = tmp_path / "latin.g6"
    path.write_bytes(b">>graph6<<\nBw\nA\xe9_\n")
    with pytest.raises(GraphParseError, match=r"latin\.g6:3: .*0xe9"):
        list(read_graph6_file(path))
