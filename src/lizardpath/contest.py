"""Second pipeline phase: best-first label correction, and the
integrated two-phase solver.

Origins (nodes with an outgoing arc that still violates optimality) are
loaded into the lizard entity keyed by their current totals.  Each round
reaps the whole minimum-key batch, relaxes every batch member's leaf
set, and re-queues the improved leaves with their new keys.  Because
weights are nonnegative and reap keys never decrease, every node is
reaped at most once and the loop drains to an empty structure with all
labeled distances optimal.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .graph import Graph, GraphError, LabelState
from .hdm import hdm_run
from .lizard import CostCounters, LizardEntity


class UnlabeledOriginError(GraphError):
    def __init__(self, node: int):
        super().__init__(f"origin node {node} has no label yet")


@dataclass
class SolveOptions:
    source: int = 0


@dataclass
class RunMetrics:
    """Counters for one solve, following the benchmark tables' accounting.

    arc_scans is the leaf visits of the correction phase (Q_A), relabels
    the improvements taken (Q_S), and harmonic le_cost / (n log2 n).
    deletions (D) and le_cost (C_total) are read from the structure's
    own tallies in ``le_counters``.
    """

    arc_scans: int = 0
    relabels: int = 0
    harmonic: float = 0.0
    t_hdm_ms: float = 0.0
    t_ca_ms: float = 0.0
    anomalies: int = 0
    hdm_arc_scans: int = 0
    le_counters: CostCounters = field(default_factory=CostCounters)

    @property
    def deletions(self) -> int:
        return self.le_counters.deletions

    @property
    def le_cost(self) -> int:
        return self.le_counters.total_cost


def contest_run(
    g: Graph,
    labels: LabelState,
    origins: list[int],
) -> tuple[LabelState, RunMetrics]:
    """Drain the origin set best-first until no violating arc remains.

    ``labels`` is corrected in place and returned alongside the metrics.
    Each reaped batch holds every current minimum-key origin; the round's
    improved leaves are inserted after the batch, in the order they were
    first improved, so the batch composition never shifts under it.
    """
    metrics = RunMetrics()
    dist = labels.dist
    parent = labels.parent
    for v in origins:
        if dist[v] is None:
            raise UnlabeledOriginError(v)
    le = LizardEntity.build([(v, dist[v]) for v in origins])
    metrics.le_counters = le.counters
    adj = g._adj
    in_le = le._index  # uncharged membership; empty exactly when the LE is
    gathered: dict[int, None] = {}  # the round's improved leaves, first-improved order
    arc_scans = 0
    relabels = 0
    anomalies = 0

    while in_le:
        batch = le.get_min_batch()
        for e in batch:
            de = dist[e]
            leaves = adj[e]
            arc_scans += len(leaves)
            for leaf, w in leaves:
                nw = de + w
                dl = dist[leaf]
                if dl is None:
                    # wild leaf: cannot occur after a full first pass,
                    # kept as a defensive rule; it is labeled like any other
                    anomalies += 1
                elif dl <= nw:
                    continue
                parent[leaf] = e
                dist[leaf] = nw
                relabels += 1
                if leaf in in_le:
                    le.delete(leaf)
                gathered[leaf] = None
        for leaf in gathered:
            le.insert(leaf, dist[leaf])
        gathered.clear()

    metrics.arc_scans = arc_scans
    metrics.relabels = relabels
    metrics.anomalies = anomalies
    metrics.harmonic = metrics.le_cost / (g.n * math.log2(g.n)) if g.n >= 2 else 0.0
    return labels, metrics


def solve_sssp(g: Graph, opts: SolveOptions | None = None) -> tuple[LabelState, RunMetrics]:
    """Layered labeling with its inline origin harvest, then best-first
    correction.

    Final distances equal the exact single-source optima for every
    reachable node; unreachable nodes keep unset labels.
    """
    if opts is None:
        opts = SolveOptions()
    t0 = time.perf_counter()
    first = hdm_run(g, opts.source)
    t1 = time.perf_counter()
    labels, metrics = contest_run(g, first.labels, first.origins)
    t2 = time.perf_counter()
    metrics.t_hdm_ms = (t1 - t0) * 1000.0
    metrics.t_ca_ms = (t2 - t1) * 1000.0
    metrics.hdm_arc_scans = first.arc_scans
    return labels, metrics
