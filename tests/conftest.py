"""Shared fixtures, instance builders, the lizard-entity checkers, and
the structure fuzz driver."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from lizardpath import Graph, GraphError, LizardEntity, LizardItem, SplitMix64, build_graph


def make_chain(weights: list[int]) -> Graph:
    """Path graph 0 -> 1 -> ... with the given arc weights."""
    arcs = [(i, i + 1, w) for i, w in enumerate(weights)]
    return build_graph(len(weights) + 1, arcs)


@pytest.fixture
def triangle() -> Graph:
    """Fixture where the first pass overshoots: direct arc 0->1 costs 10,
    but the detour through 2 costs 2."""
    return build_graph(3, [(0, 1, 10), (0, 2, 1), (2, 1, 1)])


def traced(call):
    """What ``call()`` returns, with the bytes still traced after it
    and the traced peak while it ran."""
    # a full collection empties the interpreter's free lists, so every
    # object the call makes is a new, traced allocation
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def splitmix64_reference(seed: int):
    """The scalar splitmix64 stream, one output per step: the reference
    SplitMix64's block stream must reproduce."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


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


def gen_random_sparse(
    n: int,
    density: float,
    seed: int,
    weight_range: tuple[int, int] = (0, 1000),
) -> Graph:
    """Erdos-Renyi style digraph for the property-test corpus.

    Each ordered pair (u, v), u != v, is included with the given
    probability; nodes may end up unreachable.  Weight range defaults to
    [0, 1000] so zero-weight arcs are exercised.
    """
    if not 0.0 < density <= 1.0:
        raise GraphError(f"density {density} must be in (0, 1]")
    w_min, w_max = weight_range
    rng = SplitMix64(seed)
    raw = rng.ints(0, 2**64 - 1)  # the raw stream: a span of 2**64 changes no value
    threshold = density * 2.0**64

    def leaf_lists():
        for u in range(n):
            leaves = []
            for v in range(n):
                if v != u and next(raw) < threshold:
                    leaves.append((v, rng.randint(w_min, w_max)))
            yield leaves

    return Graph(leaf_lists())


def arc_list(g: Graph) -> list[tuple[int, int, int]]:
    """Every (src, dst, weight) arc of ``g``, in stored order."""
    return [(v, leaf, w) for v, leaves in enumerate(g._adj) for leaf, w in leaves]


def agencies_in_order(le: LizardEntity) -> list[LizardItem]:
    """In-order BST traversal (iterative).

    Every agency holds an indexed node, so a sound tree has at most
    ``len(le._index)`` agencies.  The walk stops once it has reached one
    more and returns every agency reached, so a cyclic tree gives a list
    longer than the index instead of a hang.
    """
    out: list[LizardItem] = []
    stack: list[LizardItem] = []
    cur = le._end.left
    bound = len(le._index)
    while (cur is not None or stack) and len(out) + len(stack) <= bound:
        if cur is not None:
            stack.append(cur)
            cur = cur.left
        else:
            cur = stack.pop()
            out.append(cur)
            cur = cur.right
    return out + stack  # the stack is empty unless the bound stopped the walk


def bst_height(le: LizardEntity) -> int:
    """Agencies on the longest root-to-leaf path.  Like
    :func:`agencies_in_order`, the walk stops after one agency more than
    the index holds, and a cyclic tree then reads that tall."""
    bound = len(le._index)
    height = 0
    root = le._end.left
    stack = [(root, 1)] if root is not None else []
    for _ in range(bound + 1):
        if not stack:
            return height
        item, depth = stack.pop()
        if depth > height:
            height = depth
        if item.left is not None:
            stack.append((item.left, depth + 1))
        if item.right is not None:
            stack.append((item.right, depth + 1))
    return bound + 1


def run_lizard_fuzz(op_count: int, seed: int, check_every_op: bool = True) -> dict:
    """Random op sequence against a plain dict reference model.

    Asserts identical observable behavior (membership, size, minimum-key
    batches in insertion order), a sound structure after every
    operation, a per-delete charge of at most 8, and a reap charge of 2
    per item with one deletion per item and one batch.  A re-key is a
    delete then an insert, which moves the node to the end of the
    model's order.  The structure is drained at the end, so no stored
    item outlives the run.  Returns summary stats.
    """
    rng = SplitMix64(seed)
    le = LizardEntity()
    model: dict[int, int] = {}
    next_node = 0
    stats = {"inserts": 0, "deletes": 0, "batches": 0, "probes": 0, "max_size": 0}

    for step in range(op_count):
        # alternate dense and sparse key phases: dense spans give each
        # key many cousins, sparse spans grow a deep tree
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
            assert batch == [n for n, k in model.items() if k == mink]
            assert all(k >= mink for k in model.values())
            for n in batch:
                del model[n]
            stats["batches"] += 1
        elif r < 94 and model:
            victims = list(model)
            node = victims[rng.below(len(victims))]
            new_key = rng.below(key_span)
            le.delete(node)
            le.insert(node, new_key)
            del model[node]
            model[node] = new_key
        else:
            probe = rng.below(next_node + 3)
            assert (probe in le) == (probe in model)
            stats["probes"] += 1

        assert le.size == len(model)
        stats["max_size"] = max(stats["max_size"], le.size)
        if check_every_op:
            violation = verify_structure(le)
            assert violation is None, f"step {step}: {violation}"

    # what is left drains in key order, each batch in the model's order
    while model:
        mink = min(model.values())
        assert le.get_min_batch() == [n for n, k in model.items() if k == mink]
        model = {n: k for n, k in model.items() if k != mink}
    assert verify_structure(le) is None
    return stats


def verify_structure(le: LizardEntity) -> str | None:
    """Walk the BST, the ARA and the cousin dicts and report the first
    invariant violation.

    Returns None when the structure is sound.  Cost is linear in the
    item count and nothing is charged.
    """
    end = le._end
    if end.right is not None or end.up is not None:
        return "end item has a right child or a parent"
    if end.cousins is not None:
        return "end item holds cousins"
    if any(item is end for item in le._index.values()):
        return "end item is indexed"
    if le.size == 0:
        if end.left is not None or le.ara_min is not end or end.prev is not None:
            return "empty structure retains dangling entry pointers"
        if le._index:
            return "empty structure retains index entries"
        return None
    root = end.left
    if root is None or le.ara_min is end:
        return "nonempty structure lost an entry pointer"
    if root.up is not end:
        return "root's parent link is not the end item"

    in_order = agencies_in_order(le)
    if len(in_order) > le.size:
        return "BST walk reached more agencies than stored nodes (cycle?)"
    for item in in_order:
        if item.left is not None and item.left.up is not item:
            return f"left child of {item!r} has a bad parent link"
        if item.right is not None and item.right.up is not item:
            return f"right child of {item!r} has a bad parent link"
    for a, b in zip(in_order, in_order[1:]):
        if a.key >= b.key:
            return f"BST order violated: {a.key} before {b.key}"

    # ARA must thread exactly the in-order agency sequence up to the end
    # item; the last backlink checked is end.prev, the largest agency
    chain: list[LizardItem] = []
    item = le.ara_min
    if item.prev is not None:
        return "ara_min has a predecessor"
    while item is not end:
        if item is None:
            return "ARA chain stops before the end item"
        chain.append(item)
        if len(chain) > le.size:
            return "ARA chain longer than item count (cycle?)"
        if item.next is not None and item.next.prev is not item:
            return f"ARA backlink broken after {item!r}"
        item = item.next
    if len(chain) != len(in_order) or any(x is not y for x, y in zip(chain, in_order)):
        return "ARA sequence differs from BST in-order sequence"

    # every stored node, agency or cousin, is indexed to its key's agency
    stored: dict[int, LizardItem] = {}
    for agency in in_order:
        for node in (agency.node, *(agency.cousins or ())):
            if node in stored:
                return f"node {node} is stored twice ({agency!r}, {stored[node]!r})"
            stored[node] = agency
    if len(stored) != le.size:
        return f"item walk found {len(stored)} nodes, size says {le.size}"
    for node, item in le._index.items():
        if stored.get(node) is not item:
            return f"index entry {node} points at {item!r}, not the agency holding it"
    return None
