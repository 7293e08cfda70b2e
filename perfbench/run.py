#!/usr/bin/env python3
"""Layered benchmark of lizardpath: end-to-end times and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

One process runs one workload, single-threaded.  It sets the instance up
(generate, write the ``.gr`` file), checks the checker and the solver's
determinism, then repeats whole rounds until ``--seconds`` have passed,
cycling through the workload's seeded sources.  A round is four
operations: the set-up again, ``load_dimacs`` of the ``.gr`` file, one
``solve_sssp``, and ``lizardpath solve <file> --metrics .. --dump-dist ..``
run in-process.  Every operation's output is checked, with the checks in
``certify.py``, before the next one starts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds an
untraced solve and a Dijkstra solve to each round, records spans around
the program's public functions, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report,
with provenance and exact counters, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("grid", "layered_dag", "broom")

MB = 1024.0 * 1024.0

E2E_UNITS = {"setup_s": "s", "load_s": "s", "solve_s": "s", "cli_solve_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def exact_counters(m) -> dict:
    """Every deterministic counter of one solve, including those the
    CLI's metrics record leaves out."""
    c = m.le_counters
    return {
        "D": m.deletions, "Q_A": m.arc_scans, "Q_S": m.relabels, "C_total": m.le_cost,
        "lambda": m.harmonic, "hdm_arc_scans": m.hdm_arc_scans, "anomalies": m.anomalies,
        "cost_build": c.build, "cost_insert": c.insert, "cost_delete": c.delete,
        "cost_getmin": c.getmin, "cost_contains": c.contains,
    }


def git_rev() -> str | None:
    """HEAD's commit id read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lizardpath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
    }


class Bench:
    def __init__(self, args: argparse.Namespace):
        import certify
        import workloads
        from lizardpath import cli, contest, graph, hdm, oracle

        self.certify, self.workloads = certify, workloads
        self.cli, self.contest, self.graph, self.hdm, self.oracle = cli, contest, graph, hdm, oracle
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = None
        if args.trace:
            import tracing

            self.tracer = tracing.Tracer()
            self.tracer.prepare()
        stem = f"{self.workload}-seed{self.seed}-trace{args.trace}"
        self.report_path = OUT / f"{stem}.json"
        self.spans_path = OUT / f"{stem}-spans.tsv"
        tmp = f"{stem}-{os.getpid()}"
        self.gr = str(OUT / f"{tmp}.gr")
        self.metrics_file = str(OUT / f"{tmp}-metrics.json")
        self.dump_file = str(OUT / f"{tmp}-dist.txt")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        # per source: certified distances, their FNV-1a, exact counters
        self.expected: dict[int, tuple[list, int, dict]] = {}
        self.exact_nodes: dict[int, tuple[int, int]] = {}

    # -- plumbing ----------------------------------------------------

    def problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)
            print(f"check failed: {msg}", file=sys.stderr)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed(self, sample: str, fn):
        """Run fn inside a span, after a full collection; keep its time."""
        gc.collect()
        with self.span(sample):
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
        self.samples.setdefault(sample, []).append(dt)
        return result

    def op(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            print(f"operation {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    # -- set-up and the checks that precede timing ---------------------

    def set_up_once(self):
        make = self.workloads.MAKERS[self.workload]
        with self.span("generators.generate"):
            inst = make(self.seed)
        with open(self.gr, "w", encoding="ascii") as fh:
            self.graph.save_dimacs(inst.graph, fh)
        return inst

    def set_up(self) -> None:
        self.inst = self.timed("setup", self.set_up_once)
        self.g = self.inst.graph
        self.sources = self.workloads.sources(self.workload, self.seed, self.inst)
        self.adj = self.certify.read_gr(self.gr)
        self.reach = {s: self.certify.bfs_reach(self.adj, s) for s in self.sources}

    def precheck(self) -> None:
        """Checker self-test, solver determinism, and the first-pass
        property of layered_dag, all before anything is timed."""
        SolveOptions = self.contest.SolveOptions
        s0 = self.sources[0]
        a, ma = self.contest.solve_sssp(self.g, SolveOptions(source=s0))
        b, mb = self.contest.solve_sssp(self.g, SolveOptions(source=s0))
        if a.dist != b.dist or a.parent != b.parent or exact_counters(ma) != exact_counters(mb):
            self.problem(f"two solves from source {s0} differ")
        msg = self.certify.self_test(self.adj, self.reach[s0], s0, a.dist, a.parent)
        if msg:
            self.problem(f"checker self-test: {msg}")
        if self.workload == "layered_dag":
            for s in self.sources:
                first = self.hdm.hdm_run(self.g, s)
                labels = first.labels
                msg = self.certify.certify(self.adj, self.reach[s], s, labels.dist, labels.parent)
                if msg:
                    self.problem(f"first pass from {s} is not final: {msg}")
                if self.hdm.collect_origins(self.g, labels):
                    self.problem(f"first pass from {s} leaves origins")

    # -- the three operations of a round -------------------------------

    def setup_op(self) -> None:
        """Set the instance up again, so set-up is sampled across the whole
        run rather than in one burst before it; the instance must not
        change."""
        if self.timed("setup", self.set_up_once).graph != self.g:
            self.problem("generating the instance again gave another graph")

    def load_op(self) -> None:
        def load():
            with open(self.gr, "r", encoding="utf-8") as fh:
                return self.graph.load_dimacs(fh)

        if self.timed("op.load", load) != self.g:
            self.problem("load_dimacs of the saved file differs from the generated graph")

    def solve_op(self, s: int, sample: str, capture: bool = False) -> None:
        """One checked solve_sssp; with capture, also the share of nodes
        the traced first pass already got exact."""
        tr = self.tracer
        opts = self.contest.SolveOptions(source=s)
        if capture:
            tr.capture_first_pass = True
        labels, m = self.timed(sample, lambda: self.contest.solve_sssp(self.g, opts))
        self.check_solve(s, labels, m)
        if capture:
            tr.capture_first_pass = False
            final = labels.dist
            reached = sum(d is not None for d in final)
            exact = sum(f == d for f, d in zip(tr.first_pass, final) if d is not None)
            self.exact_nodes[s] = (exact, reached)

    def check_solve(self, s: int, labels, m) -> None:
        dist = labels.dist
        msg = self.certify.certify(self.adj, self.reach[s], s, dist, labels.parent)
        if msg:
            self.problem(f"solve from {s}: {msg}")
        inst = self.inst
        if self.workload == "broom":
            if any(dist[leaf] != i for i, leaf in enumerate(inst.broom_leaves, start=1)):
                self.problem("broom leaf distances differ from dist(leaf_i) = i")
            if any(dist[v] != 0 for v in inst.broom_zero):
                self.problem("broom handle or hub is not at distance 0")
        counters = exact_counters(m)
        if self.workload == "layered_dag" and (m.arc_scans or m.le_cost):
            self.problem(f"layered_dag correction did work: Q_A={m.arc_scans} C_total={m.le_cost}")
        if s not in self.expected:
            self.expected[s] = (dist, self.certify.fnv1a64_dist(dist), counters)
        elif self.expected[s][0] != dist or self.expected[s][2] != counters:
            self.problem(f"solve from {s} differs from the first solve from {s}")

    def cli_op(self, s: int) -> None:
        argv = [
            "solve", self.gr, "--source", str(s + 1),
            "--metrics", self.metrics_file, "--dump-dist", self.dump_file,
        ]

        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)

        rc = self.timed("op.cli", run_cli)
        if rc != 0:
            raise RuntimeError(f"lizardpath solve exited {rc}")
        with open(self.metrics_file, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        dumped = self.certify.read_dump(self.dump_file, self.g.n)
        dist, checksum, counters = self.expected[s]
        if dumped != dist:
            self.problem(f"--dump-dist from {s} differs from the certified distances")
        if rec["w_checksum"] != checksum:
            self.problem(f"w_checksum {rec['w_checksum']:#x} from {s} is not FNV-1a {checksum:#x}")
        if [rec[k] for k in ("D", "Q_A", "Q_S", "C_total")] != [counters[k] for k in ("D", "Q_A", "Q_S", "C_total")]:
            self.problem(f"CLI counters from {s} differ from solve_sssp's")

    def dijkstra_op(self, s: int) -> None:
        dist, _ = self.timed("op.dijkstra", lambda: self.oracle.dijkstra(self.g, s))
        if dist != self.expected[s][0]:
            self.problem(f"dijkstra from {s} differs from the certified distances")

    # -- the run -------------------------------------------------------

    def run(self) -> dict:
        OUT.mkdir(exist_ok=True)
        try:
            self.set_up()
            self.precheck()
            k = len(self.sources)
            t_end = time.perf_counter() + self.seconds
            r = 0
            # whole rounds only, and at least one pass over the sources, so
            # the exact counters always cover the same solves
            while r < k or time.perf_counter() < t_end:
                self.round(r, self.sources[r % k], r < k)
                r += 1
            self.rounds = r
            metrics = self.layer_metrics() if self.tracer else self.e2e_metrics()
        finally:
            for path in (self.gr, self.metrics_file, self.dump_file):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        correct = not self.problems
        self.write_report(correct, metrics)
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}

    def round(self, r: int, s: int, counter_pass: bool) -> None:
        tr = self.tracer
        if tr:
            tr.current_round = r
            self.op("untraced_solve", lambda: self.solve_op(s, "untraced.solve"))
            tr.install()
        try:
            self.op("setup", self.setup_op)
            self.op("load", self.load_op)
            self.op("solve", lambda: self.solve_op(s, "op.solve", capture=bool(tr) and counter_pass))
            self.op("cli", lambda: self.cli_op(s))
            if tr:
                self.op("dijkstra", lambda: self.dijkstra_op(s))
        finally:
            if tr:
                tr.remove()

    def e2e_metrics(self) -> dict:
        med = statistics.median
        values = {
            "setup_s": med(self.samples["setup"]),
            "load_s": med(self.samples["op.load"]),
            "solve_s": med(self.samples["op.solve"]),
            "cli_solve_s": med(self.samples["op.cli"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}

    def layer_metrics(self) -> dict:
        tr = self.tracer
        roll = tr.rollup()
        med = statistics.median
        rounds = range(self.rounds)
        first = range(len(self.sources))

        def rec(r, root, name):
            return roll.get((r, root, name), {"total": 0.0, "self": 0.0, "calls": 0, "v1_sum": 0, "v1_max": 0, "v2_max": 0})

        def per_round(root, name, field="total"):
            return med(rec(r, root, name)[field] for r in rounds)

        def counter_pass(root, name, field, agg=sum):
            return agg(rec(r, root, name)[field] for r in first)

        counts = [self.expected[s][2] for s in self.sources]
        exact, reached = (sum(x) for x in zip(*(self.exact_nodes[s] for s in self.sources)))
        retained_mb, solve_peak_mb = self.traced_memory()
        untraced = med(self.samples["untraced.solve"])
        traced = med(self.samples["op.solve"])

        def total(key):
            return sum(c[key] for c in counts)

        m = {
            "generators.generate_s": (per_round("setup", "generators.generate"), "s"),
            "graph.save_dimacs_s": (per_round("setup", "graph.save_dimacs"), "s"),
            "graph.parse_s": (per_round("op.load", "graph.load_dimacs", "self"), "s"),
            "graph.build_graph_s": (per_round("op.load", "graph.build_graph"), "s"),
            "graph.retained_mb": (retained_mb, "MB"),
            "hdm.hdm_run_s": (per_round("op.solve", "hdm.hdm_run"), "s"),
            "hdm.arc_scans": (total("hdm_arc_scans"), "count"),
            "hdm.layers": (counter_pass("op.solve", "hdm.hdm_run", "v1_sum"), "count"),
            "hdm.exact_pct": (100.0 * exact / reached, "%"),
            "hdm.collect_origins_s": (per_round("op.solve", "hdm.collect_origins"), "s"),
            "hdm.origins": (counter_pass("op.solve", "hdm.collect_origins", "v1_sum"), "count"),
            "lizard.build_s": (per_round("op.solve", "lizard.build"), "s"),
            "lizard.insert_s": (per_round("op.solve", "lizard.insert"), "s"),
            "lizard.inserts": (counter_pass("op.solve", "lizard.insert", "calls"), "count"),
            "lizard.delete_s": (per_round("op.solve", "lizard.delete"), "s"),
            "lizard.deletes": (counter_pass("op.solve", "lizard.delete", "calls"), "count"),
            "lizard.get_min_batch_s": (per_round("op.solve", "lizard.get_min_batch"), "s"),
            "lizard.batches": (counter_pass("op.solve", "lizard.get_min_batch", "calls"), "count"),
            "lizard.batch_max": (counter_pass("op.solve", "lizard.get_min_batch", "v1_max", max), "count"),
            "lizard.peak_size": (
                max(counter_pass("op.solve", "lizard.insert", "v2_max", max),
                    counter_pass("op.solve", "lizard.build", "v1_max", max)),
                "count",
            ),
            "lizard.insert_depth_max": (counter_pass("op.solve", "lizard.insert", "v1_max", max), "count"),
            "lizard.cost_build": (total("cost_build"), "count"),
            "lizard.cost_insert": (total("cost_insert"), "count"),
            "lizard.cost_delete": (total("cost_delete"), "count"),
            "lizard.cost_getmin": (total("cost_getmin"), "count"),
            "lizard.C_total": (total("C_total"), "count"),
            "lizard.D": (total("D"), "count"),
            "lizard.lambda": (total("lambda") / len(counts), "ratio"),
            "contest.contest_run_s": (per_round("op.solve", "contest.contest_run"), "s"),
            "contest.self_s": (per_round("op.solve", "contest.contest_run", "self"), "s"),
            "contest.Q_A": (total("Q_A"), "count"),
            "contest.Q_S": (total("Q_S"), "count"),
            "contest.anomalies": (total("anomalies"), "count"),
            "contest.solve_peak_mb": (solve_peak_mb, "MB"),
            "oracle.dijkstra_s": (per_round("op.dijkstra", "oracle.dijkstra"), "s"),
            "cli.checksum_dist_s": (per_round("op.cli", "cli.checksum_dist"), "s"),
            "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
        }
        self.trace_extra = {"untraced_solve_s": untraced, "traced_solve_s": traced,
                            "dijkstra_ratio": untraced / m["oracle.dijkstra_s"][0]}
        # spans of the first round only: one grid round is ~10^5 spans,
        # and the file would grow with --seconds
        tr.write(str(self.spans_path), 0)
        return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}

    def traced_memory(self) -> tuple[float, float]:
        """tracemalloc sizes, untimed and without span wrappers: the
        memory a loaded graph keeps, and the peak above it during one
        solve from the first source."""
        s = self.sources[0]
        holder: dict = {}

        def load():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with open(self.gr, "r", encoding="utf-8") as fh:
                    holder["g"] = self.graph.load_dimacs(fh)
                holder["retained"] = (tracemalloc.get_traced_memory()[0] - base) / MB
            finally:
                tracemalloc.stop()
            if holder.pop("g") != self.g:
                self.problem("load_dimacs under tracemalloc differs from the generated graph")

        def solve():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                labels, m = self.contest.solve_sssp(self.g, self.contest.SolveOptions(source=s))
                holder["peak"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            finally:
                tracemalloc.stop()
            self.check_solve(s, labels, m)

        self.op("tracemalloc_load", load)
        self.op("tracemalloc_solve", solve)
        return holder.get("retained", 0.0), holder.get("peak", 0.0)

    def write_report(self, correct: bool, metrics: dict) -> None:
        w = self.workloads
        report = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": bool(self.tracer),
            "correct": correct,
            "problems": self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "rounds": self.rounds,
            "n": self.g.n,
            "E": self.g.arc_count,
            "sources": [s + 1 for s in self.sources],
            "sizes": {
                "grid": {"rows": w.GRID_SIDE, "cols": w.GRID_SIDE, "weights": w.GRID_WEIGHTS},
                "layered_dag": {"layers": w.DAG_LAYERS, "width": w.DAG_WIDTH, "degree": w.DAG_DEGREE,
                                "weights": w.DAG_WEIGHTS},
                "broom": {"leaves": w.BROOM_LEAVES, "direct_weight": w.BROOM_DIRECT},
            }[self.workload],
            "samples": self.samples,
            "metrics": metrics,
            "exact_counters": {str(s + 1): self.expected[s][2] for s in self.sources if s in self.expected},
            "provenance": provenance(),
        }
        if self.tracer:
            report["trace_extra"] = self.trace_extra
            report["spans_file"] = self.spans_path.name
        with open(self.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report: {self.report_path.relative_to(ROOT)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "lizardpath" / "__init__.py").is_file():
        print(f"error: {SRC / 'lizardpath'} not found; run from the root of a lizardpath checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lizardpath

    if Path(lizardpath.__file__).resolve().parent != (SRC / "lizardpath").resolve():
        print(f"error: imported lizardpath from {lizardpath.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = Bench(args).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
