import argparse
import concurrent.futures
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lizardpath import GenSpec, GraphError, RunMetrics, build_graph, cli, generate, save_dimacs
from lizardpath.cli import (
    SUITES,
    build_parser,
    checksum_dist,
    main,
    metrics_record,
    report_csv,
    run_suite,
)
from lizardpath.generators import FAMILIES
from conftest import gen_layered_dag

def fnv1a64(data: bytes) -> int:
    """Byte-wise 64-bit FNV-1a, the reference for ``checksum_dist``."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


TRIANGLE_GR = "p sp 3 3\na 1 2 10\na 1 3 1\na 3 2 1\n"

MINI_SUITE = [
    ("complete-60", dict(family="complete", n=60)),
    ("random-400", dict(family="random", n=400, m=5)),
    ("grid-12x12", dict(family="grid", rows=12, cols=12)),
]

METRICS_FIELDS = {
    "instance", "family", "n", "E", "seed", "algo", "reap_mode", "origin_mode",
    "D", "Q_A", "Q_S", "C_total", "lambda", "t_hdm_ms", "t_ca_ms", "w_checksum",
}


class TestChecksum:
    def test_fnv1a64_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_checksum_covers_unreachable_sentinel(self):
        assert checksum_dist([0, None]) != checksum_dist([0, 0])
        assert checksum_dist([5]) == checksum_dist([5])

    def test_checksum_order_sensitive(self):
        assert checksum_dist([1, 2]) != checksum_dist([2, 1])

    @pytest.mark.parametrize("dist", [
        [],
        [None],
        [0],
        [0, None, 0],
        [1, 255, 256, 65535, 65536, 2**24 - 1, 2**24, 2**32, 2**56 - 1, 2**56, 2**64 - 2, 2**64 - 1, None, 0],
        [(i * 0x9E3779B97F4A7C15) % 2**64 for i in range(200)] + [None, 0] * 10,
    ])
    def test_checksum_matches_bytewise_fnv1a(self, dist):
        words = b"".join((0xFFFFFFFFFFFFFFFF if d is None else d).to_bytes(8, "little") for d in dist)
        assert checksum_dist(dist) == fnv1a64(words)

    def test_checksum_rejects_values_beyond_64_bits(self):
        with pytest.raises(OverflowError):
            checksum_dist([2**64])

    def test_checksum_rejects_negative_values(self):
        with pytest.raises(OverflowError):
            checksum_dist([-1])


class TestGen:
    def test_grid_file_round_trip(self, tmp_path):
        out = tmp_path / "g.gr"
        rc = main([
            "gen", "--family", "grid", "--rows", "3", "--cols", "3",
            "--seed", "1", "--wmin", "1", "--wmax", "1000", "-o", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("p sp 9 24\n")
        assert text.count("\na ") == 24

    def test_single_node_complete(self, tmp_path):
        out = tmp_path / "c.gr"
        assert main(["gen", "--family", "complete", "--n", "1", "-o", str(out)]) == 0
        assert out.read_text() == "p sp 1 0\n"

    @pytest.mark.parametrize("args, cap, message", [
        (["--family", "complete", "--n", "11"], "lizardpath.generators.MAX_ARCS", "110 arcs exceed limit 100"),
        (["--family", "grid", "--rows", "11", "--cols", "10"], "lizardpath.graph.MAX_NODES",
         "110 nodes exceed limit 100"),
    ])
    def test_oversized_spec_fails_cleanly(self, tmp_path, capsys, monkeypatch, args, cap, message):
        monkeypatch.setattr(cap, 100)
        out = tmp_path / "big.gr"
        assert main(["gen", *args, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--family", "random", "--n", "100", "--m", "-3"], "out-degree -3 must not be negative"),
        (["--family", "grid", "--rows", "2", "--cols", "2", "--wmin", "4294967296", "--wmax", "4294967300"],
         "weight range (4294967296, 4294967300) must satisfy 1 <= min <= max <= 4294967295"),
        (["--family", "grid", "--rows", "2", "--cols", "2", "--m", "5", "--n", "77"],
         "grid is sized by rows and cols, not n"),
        (["--family", "complete", "--n", "5", "--m", "3", "--rows", "9"], "complete takes no out-degree m"),
    ])
    def test_bad_spec_fails_cleanly(self, tmp_path, capsys, args, message):
        out = tmp_path / "bad.gr"
        assert main(["gen", *args, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_family_choices_are_the_family_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        family = next(a for a in sub.choices["gen"]._actions if a.dest == "family")
        assert family.choices == tuple(FAMILIES)
        with pytest.raises(GraphError, match="^unknown family 'layered'$"):
            GenSpec(family="layered")

    def test_random_arc_count(self, tmp_path, capsys):
        out = tmp_path / "r.gr"
        assert main(["gen", "--family", "random", "--n", "1000", "--m", "10", "-o", str(out)]) == 0
        assert "E=10000" in capsys.readouterr().out


class TestSolve:
    def test_triangle_distances_and_metrics(self, tmp_path):
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        metrics_file = tmp_path / "m.json"
        dump = tmp_path / "d.txt"
        rc = main([
            "solve", str(gr), "--algo", "ca", "--source", "1",
            "--metrics", str(metrics_file), "--dump-dist", str(dump),
        ])
        assert rc == 0
        record = json.loads(metrics_file.read_text())
        assert set(record) == METRICS_FIELDS
        assert record["algo"] == "ca"
        assert record["origin_mode"] == "inline_seeking"
        assert record["Q_S"] >= 1
        assert dump.read_text() == "1 0\n2 2\n3 1\n"

    def test_dump_lines_across_write_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_DUMP_LINES", 2)
        gr = tmp_path / "p.gr"
        gr.write_text("p sp 5 3\na 1 2 4\na 2 3 0\na 3 4 7\n")
        dump = tmp_path / "d.txt"
        assert main(["solve", str(gr), "--dump-dist", str(dump)]) == 0
        assert dump.read_text() == "1 0\n2 4\n3 4\n4 11\n5 inf\n"

    def test_layered_instance_first_pass_matches_oracle(self, tmp_path):
        g = gen_layered_dag(80, seed=3)
        gr = tmp_path / "dag.gr"
        with gr.open("w") as fh:
            save_dimacs(g, fh)
        sums = {}
        for algo in ("hdm", "dijkstra"):
            mfile = tmp_path / f"{algo}.json"
            assert main(["solve", str(gr), "--algo", algo, "--metrics", str(mfile)]) == 0
            sums[algo] = json.loads(mfile.read_text())["w_checksum"]
        assert sums["hdm"] == sums["dijkstra"]

    @pytest.mark.parametrize("algo, reap_mode, origin_mode", [
        ("ca", "repeat_delete", "inline_seeking"),
        ("hdm", None, "inline_seeking"),
        ("dijkstra", None, None),
        ("bf", None, None),
    ])
    def test_mode_labels_name_only_what_the_algo_ran(self, tmp_path, algo, reap_mode, origin_mode):
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        mfile = tmp_path / "m.json"
        assert main(["solve", str(gr), "--algo", algo, "--metrics", str(mfile)]) == 0
        record = json.loads(mfile.read_text())
        assert (record["reap_mode"], record["origin_mode"]) == (reap_mode, origin_mode)

    def test_reap_flag_is_gone(self, tmp_path):
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(gr), "--reap", "cut"])
        assert exc.value.code == 2

    def test_bf_algo_runs(self, tmp_path):
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        assert main(["solve", str(gr), "--algo", "bf"]) == 0

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("source", [0, 4])
    def test_source_out_of_range_names_the_typed_id(self, tmp_path, capsys, command, source):
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        assert main([command, str(gr), "--source", str(source)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --source {source} out of range [1, 3]\n"

    def test_missing_file_fails(self, capsys):
        assert main(["solve", "/nonexistent/x.gr"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_empty_input_fails_cleanly(self, tmp_path, capsys, command):
        gr = tmp_path / "empty.gr"
        gr.write_text("")
        assert main([command, str(gr)]) == 1
        assert capsys.readouterr().err == "error: input is empty\n"

    def test_bad_header_fails(self, tmp_path, capsys):
        gr = tmp_path / "bad.gr"
        gr.write_text("p sp 2 2\na 1 2 5\n")
        assert main(["solve", str(gr)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("arc", ["a 1 2 1_0", "a +1 2 5", "a 1 2 \u0661", "a 1 2 -5"])
    def test_non_ascii_digit_numbers_fail_with_line_number(self, tmp_path, capsys, command, arc):
        gr = tmp_path / "bad.gr"
        gr.write_text(f"c comment\np sp 2 1\n{arc}\n", encoding="utf-8")
        assert main([command, str(gr)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("arc, message", [
        ("a 0 1 5", "node id 0 out of range [1, 3]"),
        ("a 1 4 5", "node id 4 out of range [1, 3]"),
        ("a 3 3 5", "self-loop on node 3 is not allowed"),
        ("a 1 2 4294967296", "weight 4294967296 exceeds 32-bit limit 4294967295"),
    ])
    def test_bad_arc_names_line_and_typed_ids(self, tmp_path, capsys, command, arc, message):
        gr = tmp_path / "bad.gr"
        gr.write_text(f"p sp 3 2\na 1 2 5\n{arc}\n")
        assert main([command, str(gr)]) == 1
        assert capsys.readouterr().err == f"error: line 3: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("text, message", [
        ("c cap patched to 4\np sp 5 0\n", "error: line 2: node count 5 exceeds limit 4\n"),
        ("p sp 3 1\na 1 2 " + "0" * 5000 + "5\n", "error: line 2: number of 5001 digits is too long\n"),
    ], ids=["node-cap", "long-number"])
    def test_oversized_input_fails_cleanly(self, tmp_path, capsys, monkeypatch, command, text, message):
        monkeypatch.setattr("lizardpath.graph.MAX_NODES", 4)
        gr = tmp_path / "big.gr"
        gr.write_text(text)
        assert main([command, str(gr)]) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_utf8_file_fails_cleanly(self, tmp_path, capsys, command):
        gr = tmp_path / "latin1.gr"
        gr.write_bytes(b"p sp 2 1\nc caf\xe9\na 1 2 5\n")
        assert main([command, str(gr)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err
        assert "Traceback" not in err


class TestVerify:
    def test_generated_instance_passes(self, tmp_path, capsys):
        gr = tmp_path / "v.gr"
        assert main(["gen", "--family", "random", "--n", "60", "--m", "4",
                     "--seed", "5", "-o", str(gr)]) == 0
        assert main(["verify", str(gr)]) == 0
        out = capsys.readouterr().out
        assert "PASS ca == dijkstra" in out
        assert "FAIL" not in out

    def test_small_instance_includes_brute_force(self, tmp_path, capsys):
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        assert main(["verify", str(gr)]) == 0
        assert "brute force agrees" in capsys.readouterr().out

    def test_brute_force_skipped_past_path_bound(self, tmp_path, capsys, monkeypatch):
        # the bound is on the product over the nodes of (out-degree + 1):
        # complete-7's 7**7 admits brute force; complete-8's 8**8 (about
        # 1.7 * 10**7) and complete-12's 12**12 (about 8.9 * 10**12, with
        # 1.1 * 10**8 simple paths from a node) do not, so a bound raised
        # as far as 10**9 fails here
        gr = tmp_path / "k7.gr"
        assert main(["gen", "--family", "complete", "--n", "7", "-o", str(gr)]) == 0
        assert main(["verify", str(gr)]) == 0
        assert "PASS brute force agrees" in capsys.readouterr().out

        def refuse(g, source):
            raise AssertionError("brute force ran")

        monkeypatch.setattr(cli, "brute_force", refuse)
        for n in (8, 12):
            g = generate(GenSpec(family="complete", n=n, seed=1))
            assert cli.verify_instance(g, 0) == (
                True,
                ["PASS ca == dijkstra", "PASS bellman_ford == dijkstra", "PASS no shorter arms remain"],
            )

    def test_bellman_ford_skipped_past_scan_bound(self, monkeypatch):
        # a chain whose ids run against its arcs takes n rounds of
        # Bellman-Ford; at 10 001 nodes n * E is just over 10**8
        def refuse(g, source):
            raise AssertionError("bellman_ford ran")

        monkeypatch.setattr(cli, "bellman_ford", refuse)
        n = 10_001
        g = build_graph(n, [(v + 1, v, 1) for v in range(n - 1)])
        assert n * g.arc_count > cli.BELLMAN_FORD_SCANS
        assert cli.verify_instance(g, n - 1) == (
            True, ["PASS ca == dijkstra", "PASS no shorter arms remain"],
        )

    def test_bellman_ford_kept_within_scan_bound(self):
        # n * E = 99 990 000; in id order the forward chain converges in
        # two rounds
        n = 10_000
        g = build_graph(n, [(v, v + 1, 1) for v in range(n - 1)])
        assert cli.verify_instance(g, 0) == (
            True,
            ["PASS ca == dijkstra", "PASS bellman_ford == dijkstra", "PASS no shorter arms remain"],
        )

    def test_fault_injection_fails(self, tmp_path, capsys, monkeypatch):
        solve = cli.solve_sssp

        def faulty_solve(g, opts):
            labels, metrics = solve(g, opts)
            labels.dist[1] += 1
            return labels, metrics

        monkeypatch.setattr(cli, "solve_sssp", faulty_solve)
        gr = tmp_path / "t.gr"
        gr.write_text(TRIANGLE_GR)
        assert main(["verify", str(gr)]) == 1
        out = capsys.readouterr().out
        assert "FAIL ca == dijkstra" in out
        assert "PASS bellman_ford == dijkstra" in out


class TestBench:
    @pytest.fixture(autouse=True)
    def mini_suite(self, monkeypatch):
        monkeypatch.setitem(SUITES, "mini", MINI_SUITE)

    def test_mini_suite_rows(self):
        report = run_suite("mini", seed=3)
        assert [row["instance"] for row in report["rows"]] == [n for n, _ in MINI_SUITE]
        for row in report["rows"]:
            assert row["error"] is None
            table = row["table"]
            assert table["w_checksum_equal"]
            assert table["Q_S"] <= table["Q_A"]
            assert table["D_prime_pct"] >= 0.0
            assert table["T_prime_pct"] is None
            [run] = row["runs"]
            assert set(run) == METRICS_FIELDS
            assert run["reap_mode"] == "repeat_delete"
            assert (run["D"], run["C_total"]) == (table["D"], table["C_total"])

    def test_wrong_distance_clears_checksum_flag(self, monkeypatch):
        solve = cli.solve_sssp

        def faulty_solve(g, opts):
            labels, metrics = solve(g, opts)
            labels.dist[1] += 1
            return labels, metrics

        monkeypatch.setattr(cli, "solve_sssp", faulty_solve)
        row = cli.bench_row("grid-3x3", dict(family="grid", rows=3, cols=3), seed=1)
        assert row["table"]["w_checksum_equal"] is False

    def test_counters_deterministic_across_runs(self):
        drop_times = lambda t: {k: v for k, v in t.items() if not k.startswith("t_")}
        a = run_suite("mini", seed=11)
        b = run_suite("mini", seed=11)
        for ra, rb in zip(a["rows"], b["rows"]):
            assert drop_times(ra["table"]) == drop_times(rb["table"])

    def test_csv_layout(self):
        report = run_suite("mini", seed=3)
        text = report_csv(report)
        lines = text.strip().splitlines()
        assert lines[0].startswith("instance,n,E,D,Q_A,Q_S")
        assert len(lines) == 1 + len(MINI_SUITE)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(row["T_prime_pct"] == "" for row in rows)

    def test_cmd_bench_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["bench", "--suite", "mini", "--seed", "2", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "mini"
        assert len(report["rows"]) == 3

    def test_cmd_bench_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["bench", "--suite", "mini", "--format", "csv", "-o", str(out)]) == 0
        assert out.read_text().startswith("instance,")

    def test_failed_row_reported_not_fatal(self, monkeypatch):
        broken = [("bad", dict(family="random", n=5, m=9))]  # degree too large
        monkeypatch.setitem(SUITES, "broken", broken)
        report = run_suite("broken", seed=1)
        assert report["rows"][0]["error"] is not None

    @pytest.mark.parametrize("jobs, workers", [(64, [3]), (3, [3]), (2, [2]), (1, [])])
    def test_jobs_clamped_to_row_count(self, monkeypatch, jobs, workers):
        started = []

        class SerialPool:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        report = run_suite("mini", seed=4, jobs=jobs)
        assert started == workers
        assert report["jobs"] == min(jobs, len(MINI_SUITE))
        assert all(row["error"] is None for row in report["rows"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, monkeypatch, tmp_path, capsys, jobs):
        monkeypatch.setattr(cli, "run_suite", None)  # must not be reached
        out = tmp_path / "report.json"
        assert main(["bench", "--suite", "mini", "--jobs", jobs, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --jobs {jobs} must be at least 1\n"
        assert not out.exists()

    def test_parallel_jobs_match_serial(self):
        serial = run_suite("mini", seed=4, jobs=1)
        parallel = run_suite("mini", seed=4, jobs=2)
        for rs, rp in zip(serial["rows"], parallel["rows"]):
            assert rs["table"]["Q_A"] == rp["table"]["Q_A"]
            assert rs["table"]["D"] == rp["table"]["D"]
            assert rs["runs"][0]["w_checksum"] == rp["runs"][0]["w_checksum"]


def test_cli_import_leaves_multiprocessing_unloaded():
    """Only ``bench --jobs`` above 1 starts a pool, so importing the CLI
    for a solve must not load multiprocessing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, lizardpath.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_metrics_record_schema_for_plain_graph():
    g = build_graph(2, [(0, 1, 5)])
    record = metrics_record("x", None, g, None, "dijkstra", RunMetrics(), [0, 5])
    assert set(record) == METRICS_FIELDS
    assert record["D"] == 0 and record["reap_mode"] is None


def test_readme_cli_examples_parse():
    """Every ``lizardpath`` command in the README's shell blocks is
    accepted by the parser (nothing is run)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in readme.split("```sh\n")[1:]:
        text = block.split("```", 1)[0].replace("\\\n", " ")
        commands += [line for line in text.splitlines() if line.startswith("lizardpath ")]
    assert len(commands) >= 6
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command, comments=True)[1:])


def test_readme_library_example_runs():
    """The README's ``python`` blocks (the library example and the warm
    start) each run as written, so a renamed or removed export fails here."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
