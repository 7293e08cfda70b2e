#!/usr/bin/env python3
"""How the broom solve grows with its leaf count.

Run from the root of a checkout:

    python3 perfbench/broom_scaling.py

For m = 1000, 2000, 4000 and 8000 leaves it prints the median of three
``solve_sssp`` and three heapq ``dijkstra`` times, the growth per
doubling, and the LE insert charge next to its closed form m(m+1)/2.
The README's scaling figures come from this script.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lizardpath import SolveOptions, dijkstra, solve_sssp  # noqa: E402

import workloads  # noqa: E402


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    prev = None
    print("leaves  solve_s  x/doubling  dijkstra_s  ratio  cost_insert  m(m+1)/2")
    for m in (1000, 2000, 4000, 8000):
        inst = workloads.make_broom(1, m)
        source = inst.broom_zero[0]
        opts = SolveOptions(source=source)
        solve = median_time(lambda: solve_sssp(inst.graph, opts))
        dij = median_time(lambda: dijkstra(inst.graph, source))
        _, metrics = solve_sssp(inst.graph, opts)
        growth = f"{solve / prev:10.2f}" if prev else " " * 10
        print(f"{m:6d}  {solve:7.3f}  {growth}  {dij:10.4f}  {solve / dij:5.0f}"
              f"  {metrics.le_counters.insert:11d}  {m * (m + 1) // 2:8d}")
        prev = solve
    return 0


if __name__ == "__main__":
    sys.exit(main())
