"""Reference SSSP baselines: binary-heap Dijkstra, Bellman-Ford, and an
exhaustive path enumerator for tiny graphs.

Each oracle returns ``(dist, stats)`` where dist[v] is the optimal total
weight or None for unreachable nodes.  The three implementations share no
code with the main pipeline, so agreement between them and the solver is
meaningful evidence.
"""

from __future__ import annotations

import heapq

from .graph import Graph, GraphError, NodeOutOfRangeError

DistanceVector = list  # list[int | None]

BRUTE_FORCE_LIMIT = 12

# verify runs brute force only where the product over the nodes of
# (out-degree + 1) is at most this.  A simple path leaves each node by at
# most one arc, so the product bounds the paths; complete-12 has 1.1e8.
BRUTE_FORCE_PATHS = 10**6

# verify runs bellman_ford only where n * E, the most arc scans its at
# most n rounds can take, is at most this: about 9 s at 90 ns a scan.
BELLMAN_FORD_SCANS = 10**8


class TooLargeError(GraphError):
    def __init__(self, n: int):
        super().__init__(f"brute force enumerates simple paths; n={n} exceeds {BRUTE_FORCE_LIMIT}")


def dijkstra(g: Graph, source: int) -> tuple[DistanceVector, dict]:
    """Label-setting search with a binary heap and lazy deletion.

    Stale heap entries are skipped on pop rather than removed on
    decrease, which keeps the heap logic trivial.
    """
    if not 0 <= source < g.n:
        raise NodeOutOfRangeError(source, g.n)
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    heap = [(0, source)]
    pushes = 1
    adj = g._adj
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for leaf, w in adj[v]:
            nd = d + w
            old = dist[leaf]
            if old is None or nd < old:
                dist[leaf] = nd
                heapq.heappush(heap, (nd, leaf))
                pushes += 1
    # the heap drains, so every push is popped once; each reached node
    # pops exactly one entry at its final distance and the rest are stale
    reached = g.n - dist.count(None)
    return dist, {"pops": pushes, "pushes": pushes, "stale_skips": pushes - reached}


def bellman_ford(g: Graph, source: int) -> tuple[DistanceVector, dict]:
    """Round-based relaxation over the full arc set with early exit.

    Runs at most |V|-1 improving rounds; the final counted round is the
    verification pass that observes no change.
    """
    if not 0 <= source < g.n:
        raise NodeOutOfRangeError(source, g.n)
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    rounds = 0
    arc_scans = 0
    improvements = 0
    adj = g._adj
    for _ in range(max(g.n, 1)):
        rounds += 1
        changed = False
        for v in range(g.n):
            dv = dist[v]
            if dv is None:
                continue
            leaves = adj[v]
            arc_scans += len(leaves)
            for leaf, w in leaves:
                nd = dv + w
                old = dist[leaf]
                if old is None or nd < old:
                    dist[leaf] = nd
                    improvements += 1
                    changed = True
        if not changed:
            break
    return dist, {"rounds": rounds, "arc_scans": arc_scans, "improvements": improvements}


def brute_force(g: Graph, source: int) -> tuple[DistanceVector, dict]:
    """Minimum total weight over all simple paths, by full enumeration.

    Ground truth for derived test values; refuses graphs beyond
    BRUTE_FORCE_LIMIT nodes.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(g.n)
    if not 0 <= source < g.n:
        raise NodeOutOfRangeError(source, g.n)
    best: list[int | None] = [None] * g.n
    best[source] = 0
    on_path = [False] * g.n
    paths = 0
    adj = g._adj

    def walk(v: int, total: int):
        nonlocal paths
        on_path[v] = True
        for leaf, w in adj[v]:
            if on_path[leaf]:
                continue
            paths += 1
            t = total + w
            if best[leaf] is None or t < best[leaf]:
                best[leaf] = t
            walk(leaf, t)
        on_path[v] = False

    walk(source, 0)
    return best, {"paths_explored": paths}
