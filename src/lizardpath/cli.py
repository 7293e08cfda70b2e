"""Benchmark command line: instance generation, solving, cross-checking,
and table-style reports.

Node ids on the command line are 1-based, matching the DIMACS text
format the tool reads and writes; the library API underneath is
0-based.  Metrics records follow a fixed JSON schema (see
``metrics_record``) so reports are machine-comparable across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

from .contest import RunMetrics, SolveOptions, solve_sssp
from .generators import GenSpec, generate
from .graph import Graph, GraphError, find_shorter_arms, load_dimacs, save_dimacs
from .hdm import hdm_run
from .oracle import BRUTE_FORCE_LIMIT, bellman_ford, brute_force, dijkstra

UNREACHABLE_SENTINEL = 0xFFFFFFFFFFFFFFFF

# --dump-dist lines joined into one write
_DUMP_LINES = 4096

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


# FNV-1a hashes a zero byte as a bare multiply by the prime, so a run of
# k zero bytes is one multiply by _FNV_PRIME**k mod 2**64.
_ZERO_RUN = [pow(_FNV_PRIME, k, 1 << 64) for k in range(9)]


def checksum_dist(dist: list[int | None]) -> int:
    """64-bit FNV-1a over the distance vector, 8-byte little-endian words;
    unreachable entries hash as the all-ones sentinel.

    Equal to ``fnv1a64`` over the concatenated words; each word's zero
    high bytes are folded into one multiply.
    """
    h = _FNV_OFFSET
    for d in dist:
        if d is None:
            d = UNREACHABLE_SENTINEL
        nbytes = (d.bit_length() + 7) >> 3
        # to_bytes(8) still rejects values outside 0..2**64-1
        for b in d.to_bytes(8, "little")[:nbytes]:
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
        h = (h * _ZERO_RUN[8 - nbytes]) & _MASK64
    return h


def metrics_record(
    instance: str,
    family: str | None,
    g: Graph,
    seed: int | None,
    algo: str,
    metrics: RunMetrics | None,
    dist: list[int | None],
) -> dict:
    """The fixed metrics schema shared by solve and bench outputs."""
    m = metrics or RunMetrics()
    return {
        "instance": instance,
        "family": family,
        "n": g.n,
        "E": g.arc_count,
        "seed": seed,
        "algo": algo,
        # D, C_total and lambda charge each reaped item (repeat_delete)
        "reap_mode": "repeat_delete" if algo == "ca" else None,
        # the origins always come from the first pass's inline harvest
        "origin_mode": "inline_seeking" if algo in ("ca", "hdm") else None,
        "D": m.deletions,
        "Q_A": m.arc_scans,
        "Q_S": m.relabels,
        "C_total": m.le_cost,
        "lambda": m.harmonic,
        "t_hdm_ms": m.t_hdm_ms,
        "t_ca_ms": m.t_ca_ms,
        "w_checksum": checksum_dist(dist),
    }


# -- solve ------------------------------------------------------------


def run_algo(g: Graph, algo: str, opts: SolveOptions) -> tuple[list[int | None], RunMetrics | None]:
    """Run one solver; oracle baselines report their time under t_ca_ms."""
    if algo == "ca":
        labels, metrics = solve_sssp(g, opts)
        return labels.dist, metrics
    if algo == "hdm":
        t0 = time.perf_counter()
        out = hdm_run(g, opts.source)
        metrics = RunMetrics()
        metrics.t_hdm_ms = (time.perf_counter() - t0) * 1000.0
        metrics.hdm_arc_scans = out.arc_scans
        return out.labels.dist, metrics
    if algo in ("dijkstra", "bf"):
        t0 = time.perf_counter()
        fn = dijkstra if algo == "dijkstra" else bellman_ford
        dist, _ = fn(g, opts.source)
        metrics = RunMetrics()
        metrics.t_ca_ms = (time.perf_counter() - t0) * 1000.0
        return dist, metrics
    raise ValueError(f"unknown algorithm {algo!r}")


def source_index(source: int, g: Graph) -> int:
    """The library's 0-based id for a 1-based ``--source`` value."""
    if not 1 <= source <= g.n:
        raise GraphError(f"--source {source} out of range [1, {g.n}]")
    return source - 1


def cmd_solve(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_dimacs(fh)
    dist, metrics = run_algo(g, args.algo, SolveOptions(source=source_index(args.source, g)))
    record = metrics_record(args.input, None, g, None, args.algo, metrics, dist)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    if args.dump_dist:
        with open(args.dump_dist, "w", encoding="utf-8") as fh:
            # one write per block of lines, so the text never sits whole in memory
            for lo in range(0, len(dist), _DUMP_LINES):
                fh.write("".join([f"{v} {'inf' if d is None else d}\n"
                                  for v, d in enumerate(dist[lo:lo + _DUMP_LINES], start=lo + 1)]))
    print(
        f"{args.algo}: n={g.n} E={g.arc_count} source={args.source} "
        f"checksum={record['w_checksum']:016x} "
        f"t_hdm={record['t_hdm_ms']:.1f}ms t_ca={record['t_ca_ms']:.1f}ms"
    )
    return 0


# -- verify -----------------------------------------------------------


def verify_instance(g: Graph, source: int, inject_fault: bool = False) -> tuple[bool, list[str]]:
    """Cross-check the pipeline against the oracles on one instance.

    inject_fault corrupts one solved distance first (test hook for the
    FAIL path).
    """
    labels, _ = solve_sssp(g, SolveOptions(source=source))
    if inject_fault and g.n > 1:
        victim = (source + 1) % g.n
        labels.dist[victim] = (labels.dist[victim] or 0) + 1
    lines: list[str] = []
    ok = True

    def check(name: str, passed: bool):
        nonlocal ok
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}")
        ok = ok and passed

    dj, _ = dijkstra(g, source)
    bf, _ = bellman_ford(g, source)
    check("ca == dijkstra", labels.dist == dj)
    check("bellman_ford == dijkstra", bf == dj)
    check("no shorter arms remain", not find_shorter_arms(g, labels))
    if g.n <= BRUTE_FORCE_LIMIT:
        br, _ = brute_force(g, source)
        check("brute force agrees", br == dj)
    return ok, lines


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        g = load_dimacs(fh)
    ok, lines = verify_instance(g, source_index(args.source, g))
    for line in lines:
        print(line)
    return 0 if ok else 1


# -- gen --------------------------------------------------------------


def spec_from_args(args: argparse.Namespace) -> GenSpec:
    kwargs = dict(
        family=args.family,
        weight_range=(args.wmin, args.wmax),
        seed=args.seed,
    )
    if args.family == "grid":
        kwargs.update(rows=args.rows, cols=args.cols)
    else:
        kwargs.update(n=args.n)
        if args.family == "random" and args.m:
            kwargs.update(m=args.m)
    return GenSpec(**kwargs)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    g = generate(spec)
    with open(args.output, "w", encoding="utf-8") as fh:
        save_dimacs(g, fh)
    print(f"{spec.family}: n={g.n} E={g.arc_count} seed={spec.seed} -> {args.output}")
    return 0


# -- bench ------------------------------------------------------------

SUITES = {
    "paper_full": [
        ("complete-2000", dict(family="complete", n=2000)),
        ("random-222000", dict(family="random", n=222000, m=18)),
        ("grid-1000x1000", dict(family="grid", rows=1000, cols=1000)),
    ],
    "desk": [
        ("complete-500", dict(family="complete", n=500)),
        ("random-50000", dict(family="random", n=50000, m=16)),
        ("grid-300x300", dict(family="grid", rows=300, cols=300)),
    ],
}


def improvement_pct(repeat: float, cut: float) -> float:
    """Percentage gain of cut_agency over repeat_delete."""
    return 100.0 * (repeat - cut) / repeat if repeat else 0.0


def bench_row(name: str, spec_kwargs: dict, seed: int) -> dict:
    """One suite row: generate once, solve once, tabulate.

    D' and C' compare the run with its cut_agency charging; T' is not
    measured, as both charge one run.  Distances are checked by Dijkstra.
    """
    spec = GenSpec(seed=seed, **spec_kwargs)
    g = generate(spec)
    labels, rep = solve_sssp(g, SolveOptions(source=0))
    cut = rep.le_counters.as_cut_agency()
    record = metrics_record(name, spec.family, g, seed, "ca", rep, labels.dist)
    table = {
        "D": rep.deletions,
        "Q_A": rep.arc_scans,
        "Q_S": rep.relabels,
        "QS_over_QA_pct": 100.0 * rep.relabels / rep.arc_scans if rep.arc_scans else 0.0,
        "C_total": rep.le_cost,
        "lambda": rep.harmonic,
        "t_hdm_ms": rep.t_hdm_ms,
        "t_ca_ms": rep.t_ca_ms,
        "D_prime_pct": improvement_pct(rep.deletions, cut.deletions),
        "C_prime_pct": improvement_pct(rep.le_cost, cut.total_cost),
        "T_prime_pct": None,
        "w_checksum_equal": record["w_checksum"] == checksum_dist(dijkstra(g, 0)[0]),
    }
    return {
        "instance": name,
        "family": spec.family,
        "n": g.n,
        "E": g.arc_count,
        "seed": seed,
        "gen": asdict(spec),
        "runs": [record],
        "table": table,
        "error": None,
    }


def _bench_row_safe(task: tuple[str, dict, int]) -> dict:
    name, spec_kwargs, seed = task
    try:
        return bench_row(name, spec_kwargs, seed)
    except Exception as exc:  # row failures must not sink the suite
        return {"instance": name, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def run_suite(suite: str, seed: int, jobs: int = 1) -> dict:
    """Run every row of a suite, on at most ``jobs`` worker processes.

    No more workers start than the suite has rows, and the report's
    ``jobs`` is the number that ran.
    """
    tasks = [(name, kwargs, seed) for name, kwargs in SUITES[suite]]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_row_safe, tasks))
    else:
        rows = [_bench_row_safe(t) for t in tasks]
    return {"suite": suite, "seed": seed, "jobs": jobs, "rows": rows}


_CSV_COLUMNS = [
    "instance", "n", "E", "D", "Q_A", "Q_S", "QS_over_QA_pct", "C_total",
    "lambda", "t_hdm_ms", "t_ca_ms", "D_prime_pct", "C_prime_pct",
    "T_prime_pct", "w_checksum_equal",
]


def report_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_CSV_COLUMNS)
    for row in report["rows"]:
        if row.get("error"):
            writer.writerow([row["instance"], "ERROR", row["error"]])
            continue
        table = row["table"]
        writer.writerow(
            [row["instance"], row["n"], row["E"]]
            + [table[c] for c in _CSV_COLUMNS[3:]]
        )
    return out.getvalue()


def cmd_bench(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs {args.jobs} must be at least 1", file=sys.stderr)
        return 1
    report = run_suite(args.suite, args.seed, args.jobs)
    if args.format == "csv":
        text = report_csv(report)
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for row in report["rows"]:
        if row.get("error"):
            print(f"{row['instance']}: ERROR {row['error']}", file=sys.stderr)
        else:
            t = row["table"]
            print(
                f"{row['instance']}: Q_A={t['Q_A']} Q_S={t['Q_S']} "
                f"lambda={t['lambda']:.2f} D'={t['D_prime_pct']:.1f}%",
                file=sys.stderr,
            )
    return 1 if any(row.get("error") for row in report["rows"]) else 0


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lizardpath",
        description="Two-phase SSSP solver and operation-count benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance as a DIMACS .gr file")
    p.add_argument("--family", choices=("complete", "random", "grid"), required=True)
    p.add_argument("--n", type=int, default=0, help="node count (complete/random)")
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=0)
    p.add_argument("--m", type=int, default=0, help="out-degree (random); default ceil(log2 n)")
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one instance and emit metrics")
    p.add_argument("input", help="DIMACS .gr file")
    p.add_argument("--algo", choices=("ca", "hdm", "dijkstra", "bf"), default="ca")
    p.add_argument("--source", type=int, default=1, help="source node (1-based file id)")
    p.add_argument("--metrics", help="write the metrics record to this JSON file")
    p.add_argument("--dump-dist", help="write distances, one '<id> <dist>' line per node")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check the solver against the oracles")
    p.add_argument("input")
    p.add_argument("--source", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a benchmark suite and emit the report")
    p.add_argument("--suite", choices=tuple(SUITES), default="desk")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
