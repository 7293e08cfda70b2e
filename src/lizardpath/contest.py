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

    deletions is the structure's removal tally (D), arc_scans the leaf
    visits of the correction phase (Q_A), relabels the improvements
    taken (Q_S), le_cost the accumulated structure charge, and harmonic
    le_cost / (n log2 n).
    """

    deletions: int = 0
    arc_scans: int = 0
    relabels: int = 0
    le_cost: int = 0
    harmonic: float = 0.0
    t_hdm_ms: float = 0.0
    t_ca_ms: float = 0.0
    anomalies: int = 0
    hdm_arc_scans: int = 0
    le_counters: CostCounters = field(default_factory=CostCounters)

    def finish(self, n: int) -> None:
        self.deletions = self.le_counters.deletions
        self.le_cost = self.le_counters.total_cost
        self.harmonic = self.le_cost / (n * math.log2(n)) if n >= 2 else 0.0


def contest_run(
    g: Graph,
    labels: LabelState,
    origins: list[int],
    round_hook=None,
) -> tuple[LabelState, RunMetrics]:
    """Drain the origin set best-first until no violating arc remains.

    ``labels`` is corrected in place and returned alongside the metrics.
    Each reaped batch holds every current minimum-key origin; improved
    leaves are gathered once per round and inserted after the batch so
    the round's batch composition never shifts under it.  ``round_hook``
    (labels, reaped batch) is a diagnostic callback invoked after every
    round.
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
    in_le = le._index  # uncharged membership, kept exact by delete/insert below
    gathered: list[int] = []
    gathered_mask = [False] * g.n
    arc_scans = 0
    relabels = 0
    anomalies = 0

    while le.size:
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
                    # kept as a defensive rule (region id stays 0)
                    anomalies += 1
                elif dl <= nw:
                    continue
                parent[leaf] = e
                dist[leaf] = nw
                relabels += 1
                if leaf in in_le:
                    le.delete(leaf)
                if not gathered_mask[leaf]:
                    gathered_mask[leaf] = True
                    gathered.append(leaf)
        for leaf in gathered:
            gathered_mask[leaf] = False
            le.insert(leaf, dist[leaf])
        gathered.clear()
        if round_hook is not None:
            round_hook(labels, batch)

    metrics.arc_scans = arc_scans
    metrics.relabels = relabels
    metrics.anomalies = anomalies
    metrics.finish(g.n)
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
