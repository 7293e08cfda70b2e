"""First pipeline phase: breadth-layered labeling over the region partition.

One pass assigns every reachable node a region id (its hop layer from the
source), a parent, and a provisional total weight.  Each arc is screened
exactly once; an arc pointing into the next layer may improve that leaf's
label, while an arc into the same or an earlier layer that would improve
its leaf marks its root as an origin for the correction phase.  Distances
produced here are upper bounds; they are exact, and the origin harvest is
empty, when every arc of the instance crosses exactly one layer forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, LabelState, NodeOutOfRangeError, find_shorter_arms


@dataclass
class RegionPartition:
    """Layer lists r_1..r_k; regions[0] is the source layer (id 1)."""

    regions: list[list[int]] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.regions)


@dataclass
class HdmOutput:
    labels: LabelState
    partition: RegionPartition
    origins: list[int]
    arc_scans: int


def hdm_run(g: Graph, source: int) -> HdmOutput:
    """Layered labeling pass from the source, harvesting origins as it scans.

    A root is an origin when one of its arcs into its own or an earlier
    layer would improve the leaf.  Those labels are final by scan time:
    they change only through arcs from the previous layer, which was
    scanned in full before the root's layer began.  So the harvest, sorted
    by node id, equals :func:`collect_origins` on the finished labels.
    """
    labels = LabelState.initial(g.n, source)
    parent = labels.parent
    dist = labels.dist
    region = labels.region
    adj = g._adj

    regions = [[source]]
    origins: list[int] = []
    arc_scans = 0

    frontier = regions[0]
    i = 1
    while frontier:
        next_frontier: list[int] = []
        for v in frontier:
            dv = dist[v]
            rv = region[v]
            leaves = adj[v]
            arc_scans += len(leaves)
            violated = False
            for leaf, w in leaves:
                rl = region[leaf]
                if rl == 0:
                    region[leaf] = i + 1
                    next_frontier.append(leaf)
                    parent[leaf] = v
                    dist[leaf] = dv + w
                elif rl > rv:
                    nw = dv + w
                    if dist[leaf] > nw:
                        parent[leaf] = v
                        dist[leaf] = nw
                elif not violated and dist[leaf] > dv + w:
                    violated = True
            if violated:
                origins.append(v)
        if next_frontier:
            regions.append(next_frontier)
        frontier = next_frontier
        i += 1

    origins.sort()
    return HdmOutput(labels, RegionPartition(regions), origins, arc_scans)


def collect_origins(g: Graph, labels: LabelState) -> list[int]:
    """Roots of every arc still violating optimality, duplicate-free and
    in node-id order.

    A full pass over all arcs; after :func:`hdm_run` it returns exactly
    that pass's ``origins``, and serves as their reference.
    """
    return list(dict.fromkeys(v for v, _ in find_shorter_arms(g, labels)))
