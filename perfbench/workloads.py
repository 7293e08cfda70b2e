"""Seeded instances for the benchmark's three workloads.

Every instance is a pure function of the workload name and the seed, so
two runs with one seed solve bit-identical graphs from identical sources.
The sizes below are fixed: they are part of the benchmark's definition,
and changing them invalidates every earlier baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from lizardpath import generators, graph
from lizardpath.generators import GenSpec, SplitMix64

# grid: the paper's lattice family, both directions of every edge
GRID_SIDE = 128
GRID_WEIGHTS = (1, 1000)

# layered_dag: DAG_LAYERS layers of DAG_WIDTH nodes; every node points to
# DAG_DEGREE distinct nodes of the next layer, so every arc steps exactly
# one layer forward
DAG_LAYERS = 64
DAG_WIDTH = 256
DAG_DEGREE = 4
DAG_WEIGHTS = (1, 1000)

# broom: source -> a -> b -> hub at weight 0, hub -> leaf_i at weight i,
# source -> leaf_i at BROOM_DIRECT
BROOM_LEAVES = 2500
BROOM_DIRECT = 10**9

# seeded sources per workload; one pass over them is the counter pass
SOURCE_COUNT = {"grid": 8, "layered_dag": 4, "broom": 1}

# keeps the source stream apart from the instance stream of one seed
_SOURCE_SALT = 0x5EED50C0FFEE


@dataclass
class Instance:
    """A generated graph plus what the property checks need to know.

    ``broom_leaves`` lists the leaves in weight order (leaf i+1 at index
    i) and ``broom_zero`` the nodes at distance 0; both are empty for
    the other workloads.
    """

    graph: graph.Graph
    broom_leaves: list[int]
    broom_zero: list[int]


def make_grid(seed: int) -> Instance:
    spec = GenSpec(family="grid", rows=GRID_SIDE, cols=GRID_SIDE, weight_range=GRID_WEIGHTS, seed=seed)
    return Instance(generators.generate(spec), [], [])


def make_layered_dag(seed: int) -> Instance:
    rng = SplitMix64(seed)
    w_min, w_max = DAG_WEIGHTS
    arcs = []
    for layer in range(DAG_LAYERS - 1):
        base = layer * DAG_WIDTH
        nxt = base + DAG_WIDTH
        for v in range(base, nxt):
            picked: list[int] = []
            while len(picked) < DAG_DEGREE:
                t = rng.below(DAG_WIDTH)
                if t not in picked:
                    picked.append(t)
            for t in picked:
                arcs.append((v, nxt + t, rng.randint(w_min, w_max)))
    return Instance(graph.build_graph(DAG_LAYERS * DAG_WIDTH, arcs), [], [])


def make_broom(seed: int, leaves: int = BROOM_LEAVES) -> Instance:
    """The hub's arcs are stored in ascending weight order, so the
    correction inserts the leaves with sorted keys; the seed only
    relabels the nodes."""
    n = leaves + 4
    rng = SplitMix64(seed)
    ids = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    source, a, b, hub = ids[:4]
    leaf_ids = ids[4:]
    arcs = [(source, a, 0), (a, b, 0), (b, hub, 0)]
    arcs += [(source, leaf, BROOM_DIRECT) for leaf in leaf_ids]
    arcs += [(hub, leaf, i) for i, leaf in enumerate(leaf_ids, start=1)]
    return Instance(graph.build_graph(n, arcs), leaf_ids, [source, a, b, hub])


MAKERS = {"grid": make_grid, "layered_dag": make_layered_dag, "broom": make_broom}


def sources(workload: str, seed: int, inst: Instance) -> list[int]:
    """The workload's seeded sources, as 0-based node ids.

    layered_dag draws from the first layer, so every source sees the
    whole level structure; broom has one source, the broom's handle.
    """
    rng = SplitMix64(seed ^ _SOURCE_SALT)
    count = SOURCE_COUNT[workload]
    if workload == "grid":
        return [rng.below(GRID_SIDE * GRID_SIDE) for _ in range(count)]
    if workload == "layered_dag":
        return [rng.below(DAG_WIDTH) for _ in range(count)]
    return [inst.broom_zero[0]]
