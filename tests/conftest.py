"""Shared fixtures, instance builders, and the structure fuzz driver."""

from __future__ import annotations

import pytest

from lizardpath import Graph, LizardEntity, SplitMix64, build_graph, verify_structure


def make_chain(weights: list[int]) -> Graph:
    """Path graph 0 -> 1 -> ... with the given arc weights."""
    arcs = [(i, i + 1, w) for i, w in enumerate(weights)]
    return build_graph(len(weights) + 1, arcs)


@pytest.fixture
def triangle() -> Graph:
    """Fixture where the first pass overshoots: direct arc 0->1 costs 10,
    but the detour through 2 costs 2."""
    return build_graph(3, [(0, 1, 10), (0, 2, 1), (2, 1, 1)])


def gen_layered_dag(n: int, seed: int, w_max: int = 1000) -> Graph:
    """Random DAG whose arcs all step exactly one breadth layer forward.

    Every node beyond the source gets at least one in-arc from the
    previous layer, so the layer structure of the graph and of the
    labeling pass coincide and the pass is exact.
    """
    rng = SplitMix64(seed)
    layers = [[0]]
    rest = list(range(1, n))
    while rest:
        width = 1 + rng.below(min(len(rest), max(2, n // 4)))
        layers.append(rest[:width])
        rest = rest[width:]
    arcs = []
    for prev, cur in zip(layers, layers[1:]):
        for v in cur:
            k = 1 + rng.below(min(3, len(prev)))
            picked: set[int] = set()
            while len(picked) < k:
                picked.add(prev[rng.below(len(prev))])
            for u in sorted(picked):
                arcs.append((u, v, rng.randint(0, w_max)))
    return build_graph(n, arcs)


def gen_out_tree(n: int, seed: int, w_max: int = 1000) -> Graph:
    """Random arborescence rooted at node 0."""
    rng = SplitMix64(seed)
    arcs = [(rng.below(v), v, rng.randint(0, w_max)) for v in range(1, n)]
    return build_graph(n, arcs)


def run_lizard_fuzz(op_count: int, seed: int, check_every_op: bool = True) -> dict:
    """Random op sequence against a plain dict reference model.

    Asserts identical observable behavior (membership, size, minimum-key
    batches), a sound structure after every operation, a per-delete
    charge of at most 8, and a reap charge of 2 per item with one
    deletion per item and one batch.  Returns summary stats.
    """
    rng = SplitMix64(seed)
    le = LizardEntity()
    model: dict[int, int] = {}
    next_node = 0
    stats = {"inserts": 0, "deletes": 0, "batches": 0, "contains": 0, "max_size": 0}

    for step in range(op_count):
        # alternate dense and sparse key phases: dense spans grow long
        # cousin lists, sparse spans grow a deep tree
        key_span = 12 if (step // 2000) % 2 == 0 else 1_000_000
        r = rng.below(100)
        if not model or r < 52:
            key = rng.below(key_span)
            le.insert(next_node, key)
            model[next_node] = key
            next_node += 1
            stats["inserts"] += 1
        elif r < 72:
            victims = list(model)
            node = victims[rng.below(len(victims))]
            before = le.counters.delete
            le.delete(node)
            assert le.counters.delete - before <= 8
            del model[node]
            stats["deletes"] += 1
        elif r < 88:
            c = le.counters
            getmin, deletions, batches = c.getmin, c.deletions, c.batches
            batch = le.get_min_batch()
            reaped = len(batch)
            assert (c.getmin - getmin, c.deletions - deletions, c.batches - batches) == (2 * reaped, reaped, 1)
            mink = min(model.values())
            expect = {n for n, k in model.items() if k == mink}
            assert set(batch) == expect
            assert all(k >= mink for k in model.values())
            for n in batch:
                del model[n]
            stats["batches"] += 1
        elif r < 94 and model:
            victims = list(model)
            node = victims[rng.below(len(victims))]
            new_key = rng.below(key_span)
            le.resort(node, new_key)
            model[node] = new_key
        else:
            probe = rng.below(next_node + 3)
            assert le.contains(probe) == (probe in model)
            assert (probe in le) == (probe in model)
            stats["contains"] += 1

        assert le.size == len(model)
        stats["max_size"] = max(stats["max_size"], le.size)
        if check_every_op:
            violation = verify_structure(le)
            assert violation is None, f"step {step}: {violation}"
    return stats
