"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL summary line.

Criteria 5-7 run the full-scale benchmark suite once (three ~4M-arc
instances, each solved once and checked against Dijkstra; roughly a
minute of work) through a shared session fixture.  Run just this
module with:

    pytest tests/test_acceptance.py -v
"""

import itertools
import time

import pytest

from lizardpath import (
    bellman_ford,
    brute_force,
    build_graph,
    collect_origins,
    dijkstra,
    hdm_run,
    solve_sssp,
)
from lizardpath.cli import run_suite
from conftest import gen_layered_dag, gen_out_tree, gen_random_sparse, run_lizard_fuzz

# Expected operating windows for the standard benchmark configurations
# (reference counters: Comp Q_A 3,996,001 and Q_S/Q_A 0.27%; Rand 12.27%;
# Grid 33.19%; lambda 4.94 / 2.39 / 1.85; deletion improvement
# 31.42 / 38.58 / 33.79%).  Windows are wide because the weight streams
# behind the reference counters are not reproducible bit-exactly.
TABLE_WINDOWS = {
    "complete-2000": {
        "Q_A": (0.95 * 3_996_001, 1.05 * 3_996_001),
        "QS_over_QA_pct": (0.1, 0.8),
        "lambda": (4.94 / 2, 4.94 * 2),
    },
    "random-222000": {
        "QS_over_QA_pct": (6.0, 25.0),
        "lambda": (2.39 / 2, 2.39 * 2),
    },
    "grid-1000x1000": {
        "QS_over_QA_pct": (16.0, 50.0),
        "lambda": (1.85 / 2, 1.85 * 2),
    },
}

REFERENCE_CA_MS = {"complete-2000": 203, "random-222000": 1656, "grid-1000x1000": 4078}


@pytest.fixture(scope="session")
def paper_report():
    return run_suite("paper_full", seed=1)


def row_of(report, instance):
    row = next(r for r in report["rows"] if r["instance"] == instance)
    assert row["error"] is None, f"{instance} failed: {row['error']}"
    return row


def test_criterion_1_random_corpus_matches_oracle():
    """1000+ seeded random graphs: exact oracle equality and an empty
    violating-arc set at exit, within the time budget."""
    t0 = time.perf_counter()
    graphs = 0
    for seed in range(1000):
        n = 2 + (seed * 7919) % 199
        density = (0.05, 0.2, 0.8)[seed % 3]
        g = gen_random_sparse(n, density, seed, weight_range=(0, 1000))
        labels, _ = solve_sssp(g)
        exact, _ = dijkstra(g, 0)
        assert labels.dist == exact, f"seed {seed}: distance mismatch"
        assert collect_origins(g, labels) == [], f"seed {seed}: violating arcs remain"
        graphs += 1
    elapsed = time.perf_counter() - t0
    assert graphs >= 1000
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s (budget 60s)"
    print(f"\n[criterion 1] PASS: {graphs} graphs matched the oracle exactly in {elapsed:.1f}s")


def test_criterion_2_three_node_exhaustive_agreement():
    """Every 3-node digraph topology with weights in {0, 1, 2}: all four
    solvers agree exactly."""
    t0 = time.perf_counter()
    pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
    checked = 0
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        for weights in itertools.product((0, 1, 2), repeat=len(chosen)):
            g = build_graph(3, [(u, v, w) for (u, v), w in zip(chosen, weights)])
            br, _ = brute_force(g, 0)
            dj, _ = dijkstra(g, 0)
            bf, _ = bellman_ford(g, 0)
            labels, _ = solve_sssp(g)
            assert br == dj == bf == labels.dist, f"disagreement on arcs {chosen} weights {weights}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 4**6  # sum over subsets of 3^|subset|
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s (budget 10s)"
    print(f"\n[criterion 2] PASS: {checked} weighted digraphs, four-way agreement, {elapsed:.1f}s")


def test_criterion_3_layered_acyclic_exactness():
    """200 random level-respecting DAGs (n <= 500): the first pass alone
    is exact and harvests no origins."""
    checked = 0
    for seed in range(100):
        n = 3 + (seed * 31) % 498
        g = gen_layered_dag(n, seed)
        out = hdm_run(g, 0)
        assert out.labels.dist == dijkstra(g, 0)[0], f"layered dag seed {seed}"
        assert collect_origins(g, out.labels) == []
        checked += 1
    for seed in range(100):
        n = 2 + (seed * 37) % 499
        g = gen_out_tree(n, seed)
        out = hdm_run(g, 0)
        assert out.labels.dist == dijkstra(g, 0)[0], f"out-tree seed {seed}"
        assert collect_origins(g, out.labels) == []
        checked += 1
    print(f"\n[criterion 3] PASS: {checked} acyclic instances, first pass exact, no origins")


def test_criterion_4_structure_fuzz_against_model():
    """100k mixed operations against a multiset reference: identical
    observable behavior, sound structure after every operation, and
    per-delete charge <= 8."""
    t0 = time.perf_counter()
    stats = run_lizard_fuzz(100_000, seed=0xACCE97, check_every_op=True)
    elapsed = time.perf_counter() - t0
    assert stats["batches"] > 200
    assert stats["inserts"] > 10_000 and stats["deletes"] > 5_000
    print(
        f"\n[criterion 4] PASS: 100000 ops ({stats['inserts']} inserts, "
        f"{stats['deletes']} deletes, {stats['batches']} batches, "
        f"max size {stats['max_size']}) verified after every op in {elapsed:.1f}s"
    )


def test_criterion_5_benchmark_scan_counters(paper_report):
    """Full-scale suite: arc-scan and improvement counters inside the
    reference windows."""
    lines = []
    for instance, windows in TABLE_WINDOWS.items():
        table = row_of(paper_report, instance)["table"]
        for field in ("Q_A", "QS_over_QA_pct"):
            if field not in windows:
                continue
            lo, hi = windows[field]
            value = table[field]
            assert lo <= value <= hi, f"{instance} {field}={value} outside [{lo}, {hi}]"
        lines.append(f"{instance}: Q_A={table['Q_A']} Q_S/Q_A={table['QS_over_QA_pct']:.2f}%")
    print("\n[criterion 5] PASS: " + "; ".join(lines))


def test_criterion_6_benchmark_harmonic_factor(paper_report):
    """Full-scale suite: structure cost per n*log2(n) within a factor of
    two of the reference values."""
    lines = []
    for instance, windows in TABLE_WINDOWS.items():
        table = row_of(paper_report, instance)["table"]
        lo, hi = windows["lambda"]
        value = table["lambda"]
        assert lo <= value <= hi, f"{instance} lambda={value:.2f} outside [{lo:.2f}, {hi:.2f}]"
        lines.append(f"{instance}: lambda={value:.2f} C={table['C_total']}")
    print("\n[criterion 6] PASS: " + "; ".join(lines))


def test_criterion_7_reap_mode_optimization(paper_report):
    """Full-scale suite: the pipeline's distances equal Dijkstra's, and
    charging the same run as cut_agency removes 20-55% fewer items and
    strictly reduces total cost."""
    lines = []
    for instance in TABLE_WINDOWS:
        table = row_of(paper_report, instance)["table"]
        assert table["w_checksum_equal"], f"{instance}: distances differ from Dijkstra's"
        dp = table["D_prime_pct"]
        cp = table["C_prime_pct"]
        assert 20.0 <= dp <= 55.0, f"{instance} D'={dp:.2f}% outside [20, 55]"
        assert cp > 0.0, f"{instance} C'={cp:.2f}% not positive"
        lines.append(f"{instance}: D'={dp:.2f}% C'={cp:.2f}%")
    print("\n[criterion 7] PASS: " + "; ".join(lines))


def test_criterion_8_wall_clock_report(paper_report):
    """Non-gating: correction-phase times against 10x the reference
    machine, and the desk suite for CI-sized hardware."""
    lines = []
    for instance, ref_ms in REFERENCE_CA_MS.items():
        t_ca = row_of(paper_report, instance)["table"]["t_ca_ms"]
        lines.append(f"{instance}: t_ca={t_ca:.0f}ms ({t_ca / ref_ms:.1f}x ref, 10x budget)")
    t0 = time.perf_counter()
    desk = run_suite("desk", seed=1)
    desk_s = time.perf_counter() - t0
    assert all(row["error"] is None for row in desk["rows"])
    lines.append(f"desk suite: {desk_s:.1f}s (60s target)")
    print("\n[criterion 8] REPORTED: " + "; ".join(lines))
