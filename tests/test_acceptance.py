"""Acceptance gate: the ten headline guarantees, one test per criterion.

Criteria 2, 3, 6, 7 and 9 all consume the same exhaustive corpora (every
labeled graph on at most 5 vertices plus all 2^15 labeled graphs on 6),
so one module-scoped sweep computes every verdict row once and the
criterion tests assert on slices of it.
"""

import random
import time

import pytest

from inertia_bounds import (
    GeneratorParams,
    Graph,
    GraphFacts,
    Inertia,
    LEMMA_NAMES,
    analyze_graph,
    check_tree_nullity,
    classify_n_lower,
    classify_n_upper,
    classify_p_lower,
    classify_p_upper,
    classify_unicyclic,
    cycle_graph,
    cyclomatic_number,
    emit_report,
    graph_inertia,
    lemma_suite,
    matching_number,
    render_report,
    run_verification,
)
from inertia_bounds.corpus import enumerate_labeled, generated_corpus, sample_random
from charpoly import graph_inertia_oracle
from conftest import all_trees, random_unicyclic, lower_bound_near_miss
from matching_oracle import matching_bruteforce


@pytest.fixture(scope="module")
def sweep():
    """One full pass over the exhaustive corpora: all rows, all checks."""
    t0 = time.perf_counter()
    records = []
    for n in range(7):
        for item in enumerate_labeled(n):
            g = item.graph
            row = analyze_graph(g, item.graph_id)
            records.append((g, row, matching_number(g), matching_bruteforce(g)))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_01_cycle_inertia_table():
    def expected(q: int) -> Inertia:
        if q % 4 == 0:
            return Inertia(q // 2 - 1, q // 2 - 1, 2)
        if q % 4 == 1:
            return Inertia((q + 1) // 2, (q - 1) // 2, 0)
        if q % 4 == 2:
            return Inertia(q // 2, q // 2, 0)
        return Inertia((q - 1) // 2, (q + 1) // 2, 0)

    t0 = time.perf_counter()
    for q in range(3, 13):
        assert graph_inertia(cycle_graph(q)) == expected(q), f"C_{q}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: cycle inertia table exact for q=3..12 ({elapsed:.3f}s)")


def test_criterion_02_main_bounds_exhaustive(sweep):
    records, elapsed = sweep
    assert len(records) == 1 + 1 + 2 + 8 + 64 + 1024 + 32768
    violations = [row.graph_id for _, row, _, _ in records if not row.bounds_ok]
    assert violations == []
    assert elapsed < 300.0  # budget covers the whole sweep, not just bounds
    print(
        f"criterion 2 PASS: m-c <= p,n <= m+c on all {len(records)} graphs "
        f"with n <= 6 (sweep {elapsed:.0f}s, budget 300s)"
    )


def test_criterion_03_extremal_classifiers(sweep):
    records, _ = sweep
    for _, row, _, _ in records:
        for r in (row.p_upper, row.n_upper):
            assert r.attained == r.cond_contraction, row.graph_id
            assert r.cond_contraction == r.cond_frontier, row.graph_id
        assert row.p_lower.attained == row.p_lower.conditions, row.graph_id
        assert row.n_lower.attained == row.n_lower.conditions, row.graph_id
        assert row.p_lower.attained == row.n_lower.attained, row.graph_id
    print(
        f"criterion 3 PASS: attained <=> conditions for all four classifiers, "
        f"and both upper condition forms agree, on {len(records)} graphs"
    )


def test_criterion_04_unicyclic_classification(sweep):
    records, _ = sweep
    covered = [row for _, row, _, _ in records if row.unicyclic_prediction is not None]
    assert covered, "exhaustive corpus contains unicyclic graphs"
    assert all(row.unicyclic_ok for row in covered)

    rng = random.Random(20260401)
    for _ in range(1000):
        g = random_unicyclic(rng)
        ine = graph_inertia(g)
        assert classify_unicyclic(GraphFacts(g)) == (ine.n, ine.p)
    print(
        f"criterion 4 PASS: unicyclic (n, p) prediction exact on "
        f"{len(covered)} exhaustive + 1000 random graphs (7 <= n <= 10)"
    )


def test_criterion_05_near_miss_regression():
    g = lower_bound_near_miss()
    ine = graph_inertia(g)
    m, c = matching_number(g), cyclomatic_number(g)
    assert (ine.p, ine.n, m, c) == (3, 3, 4, 2)
    assert ine.p != m - c
    from inertia_bounds import analyze_cycles

    assert sorted(len(cyc) % 4 for cyc in analyze_cycles(g).cycles) == [0, 0]
    assert GraphFacts(g).frontier_always_avoided
    assert not classify_p_lower(GraphFacts(g)).attained
    print(
        "criterion 5 PASS: two-squares-plus-bridge graph gives p=n=3, m=4, c=2; "
        "residues 0 and frontier avoidance hold yet the lower bound is strict"
    )


def test_criterion_06_oracle_equivalence(sweep):
    records, _ = sweep
    for g, row, m_blossom, m_brute in records:
        assert row.oracle_ok, row.graph_id  # congruence route vs its checked certificate
        assert m_blossom == m_brute, row.graph_id

    rng = random.Random(611)
    for _ in range(500):
        n = rng.randint(1, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        assert graph_inertia(g) == graph_inertia_oracle(g)
        assert matching_number(g) == matching_bruteforce(g)
    print(
        f"criterion 6 PASS: independent inertia routes and matching routes "
        f"agree on {len(records)} exhaustive + 500 random graphs"
    )


def test_criterion_07_lemma_suite(sweep):
    records, _ = sweep
    seen_true = {name: 0 for name in LEMMA_NAMES}
    for _, row, _, _ in records:
        for name, value in row.lemmas.items():
            assert value is not False, (row.graph_id, name)
            if value is True:
                seen_true[name] += 1
    vacuous = [name for name, k in seen_true.items() if k == 0]
    assert vacuous == [], "every lemma must actually fire somewhere"

    trees = 0
    for t in all_trees(10):
        f = GraphFacts(t)
        assert check_tree_nullity(f)
        report = lemma_suite(f)
        assert report["tree_nullity_bound"] is True
        assert report["leaf_stripping_drop"] is True
        trees += 1
    assert trees == 200  # tree isomorphism classes with 2..10 vertices
    print(
        f"criterion 7 PASS: all 12 structural lemmas hold wherever applicable "
        f"({len(records)} graphs; nullity bound on all {trees} trees up to 10 vertices)"
    )


@pytest.mark.parametrize("residue", [0, 1, 3])
def test_criterion_08_generator_soundness(residue):
    t0 = time.perf_counter()
    base = GeneratorParams(
        cycle_residue=residue,
        num_cycles=2,
        num_isolated_seeds=1,
        num_steps=3,
        rng_seed=260,
    )
    count = 0
    for item in generated_corpus(base, 1000):
        g = item.graph
        if residue == 1:
            r = classify_p_upper(GraphFacts(g))
            assert r.attained and r.cond_contraction and r.cond_frontier
        elif residue == 3:
            r = classify_n_upper(GraphFacts(g))
            assert r.attained and r.cond_contraction and r.cond_frontier
        else:
            f = GraphFacts(g)
            rp, rn = classify_p_lower(f), classify_n_lower(f)
            assert rp.attained and rp.conditions
            assert rn.attained and rn.conditions
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 1000
    assert elapsed < 60.0
    print(
        f"criterion 8 PASS: 1000 residue-{residue} generator outputs attain "
        f"their identity with conditions ({elapsed:.1f}s, budget 60s)"
    )


def test_criterion_09_difference_bounds(sweep):
    records, _ = sweep
    for _, row, _, _ in records:
        assert row.difference is not None, row.graph_id
        assert row.difference.c1_ok, row.graph_id  # |p - n| <= odd cycles: proven
    conjecture_misses = sum(
        1 for _, row, _, _ in records if not row.difference.conjecture_ok
    )
    # -c3 <= p - n <= c5 is a conjecture: record the observation, assert nothing
    print(
        f"criterion 9 PASS: |p - n| <= c1 on all {len(records)} graphs; "
        f"conjecture -c3 <= p-n <= c5: {conjecture_misses} observed violations "
        f"(status 'conjecture', not asserted)"
    )


def test_criterion_10_determinism(tmp_path):
    corpus = (
        list(enumerate_labeled(4))
        + list(sample_random(9, 0.35, 100, seed=77))
        + list(
            generated_corpus(
                GeneratorParams(
                    cycle_residue=1,
                    num_cycles=1,
                    num_isolated_seeds=0,
                    num_steps=2,
                    rng_seed=8,
                ),
                50,
            )
        )
    )
    first = run_verification(corpus)
    second = run_verification(corpus)
    assert render_report(first, "json") == render_report(second, "json")
    assert render_report(first, "csv") == render_report(second, "csv")
    parallel = run_verification(corpus, workers=2)
    assert render_report(first, "json") == render_report(parallel, "json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(first, a)
    emit_report(parallel, b)
    assert a.read_bytes() == b.read_bytes()
    assert first.ok and parallel.ok
    print(
        f"criterion 10 PASS: byte-identical reports across repeated and "
        f"parallel runs on a {len(corpus)}-graph mixed corpus"
    )
