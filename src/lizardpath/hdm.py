"""First pipeline phase: breadth-layered labeling over the region partition.

One pass assigns every reachable node a region id (its hop layer from the
source), a parent, and a provisional total weight.  Each arc is screened
exactly once; an arc pointing into the next layer may improve that leaf's
label, while an arc into the same or an earlier layer that would improve
its leaf marks its root as an origin for the correction phase.  Distances
produced here are upper bounds; they are exact, and the origin harvest is
empty, when every arc of the instance crosses exactly one layer forward.
The pass keeps only the current and the next layer's node lists; the
region ids are the one record of layer membership.

:func:`collect_origins` rescans finished labels for the same roots and
is the harvest's reference.  An empty list proves that every reachable
node is labeled and no label is above its true distance, not that none
is below; every label the pipeline sets is ``dist[v] + w`` over a real
arc from a labeled node, so none of its own is below, and for its
output an empty list proves exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, LabelState


@dataclass
class RegionPartition:
    """The first pass's layer count: ``k`` is the largest region id."""

    k: int


@dataclass
class HdmOutput:
    """The first pass's labels, its layers, and its origin harvest.

    ``region[v]`` is v's layer id, 1 for the source and 0 for a node the
    pass never reached; it is the only record of which node lies in which
    layer.  The nodes of one layer share one int object for its id, so
    past layer 256 (CPython caches the ints up to 256) the array costs a
    pointer per node, not an int object each.  ``partition.k`` is the
    number of layers.  :func:`~lizardpath.contest.solve_sssp` frees the
    array before its correction, which never reads it.
    """

    labels: LabelState
    region: list[int]
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
    region = [0] * g.n
    region[source] = 1
    adj = g._adj

    origins: list[int] = []
    arc_scans = 0

    # every node of the frontier lies in layer i
    frontier = [source]
    i = 1
    while frontier:
        # one id object per layer: past 256, i + 1 per node would make one each
        nxt = i + 1
        next_frontier: list[int] = []
        for v in frontier:
            dv = dist[v]
            leaves = adj[v]
            arc_scans += len(leaves)
            violated = False
            for leaf, w in leaves:
                rl = region[leaf]
                if rl == 0:
                    region[leaf] = nxt
                    next_frontier.append(leaf)
                    parent[leaf] = v
                    dist[leaf] = dv + w
                elif rl > i:
                    nw = dv + w
                    if dist[leaf] > nw:
                        parent[leaf] = v
                        dist[leaf] = nw
                elif not violated and dist[leaf] > dv + w:
                    violated = True
            if violated:
                origins.append(v)
        frontier = next_frontier
        i = nxt

    origins.sort()
    # the loop stops with i one past the last non-empty layer
    return HdmOutput(labels, region, RegionPartition(i - 1), origins, arc_scans)


def collect_origins(g: Graph, labels: LabelState) -> list[int]:
    """Roots of every arc still violating optimality, in node-id order.

    An arc (v, leaf) violates when v is labeled and the leaf is unlabeled
    or cheaper through v; only ``dist`` is read.  Each root is listed once,
    at its first violating arc.  After :func:`hdm_run` this equals the
    pass's ``origins``.  An empty list proves every reachable node
    labeled and no label too high (see the module docstring).
    """
    dist = labels.dist
    origins: list[int] = []
    for v, leaves in enumerate(g._adj):
        dv = dist[v]
        if dv is None:
            continue
        for leaf, w in leaves:
            dl = dist[leaf]
            if dl is None or dl > dv + w:
                origins.append(v)
                break
    return origins
