"""Output checks that share no code with the solver.

The graph is read back from the ``.gr`` file by this module's own parser,
and a distance vector is accepted only with a shortest-path certificate:
the source at 0, every arc feasible, every reached node's parent arc
tight with the parent chain ending at the source, and the reached set
equal to a breadth-first search.  ``w_checksum`` is recomputed from the
README's definition (64-bit FNV-1a over 8-byte little-endian words,
unreachable as all ones).
"""

from __future__ import annotations

UNREACHABLE = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

Adjacency = list  # list[list[tuple[int, int]]]: per tail, (head, weight)


def read_gr(path: str) -> Adjacency:
    """Adjacency of a DIMACS ``.gr`` file, 0-based, in file order."""
    adj: Adjacency = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("a "):
                _, u, v, w = line.split()
                adj[int(u) - 1].append((int(v) - 1, int(w)))
            elif line.startswith("p "):
                adj = [[] for _ in range(int(line.split()[2]))]
    return adj


def bfs_reach(adj: Adjacency, source: int) -> bytearray:
    seen = bytearray(len(adj))
    seen[source] = 1
    stack = [source]
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if not seen[v]:
                seen[v] = 1
                stack.append(v)
    return seen


def certify(adj: Adjacency, reach: bytearray, source: int, dist: list, parent: list) -> str | None:
    """First reason the labels are not exact shortest paths, or None.

    ``reach`` is :func:`bfs_reach` from the same source.
    """
    n = len(adj)
    if len(dist) != n or len(parent) != n:
        return f"label vectors have length {len(dist)}/{len(parent)}, graph has {n} nodes"
    if dist[source] != 0 or parent[source] is not None:
        return f"source {source} has dist {dist[source]} and parent {parent[source]}"
    for v in range(n):
        if (dist[v] is not None) != bool(reach[v]):
            state = "labeled" if dist[v] is not None else "unlabeled"
            return f"node {v} is {state} but BFS says reachable={bool(reach[v])}"
    for u in range(n):
        du = dist[u]
        if du is None:
            continue
        for v, w in adj[u]:
            if dist[v] > du + w:
                return f"arc ({u}, {v}, {w}) is infeasible: {dist[v]} > {du} + {w}"
    for v in range(n):
        if dist[v] is None or v == source:
            continue
        p = parent[v]
        if p is None or not 0 <= p < n or dist[p] is None:
            return f"reached node {v} has parent {p}"
        if not any(h == v and dist[p] + w == dist[v] for h, w in adj[p]):
            return f"parent arc ({p}, {v}) is not tight at dist {dist[v]}"
    # tight arcs can still close a zero-weight cycle, so every parent
    # chain must reach the source; rooted[] memoises chains that do
    rooted = bytearray(n)
    rooted[source] = 1
    for v in range(n):
        if dist[v] is None or rooted[v]:
            continue
        chain = [v]
        cur = parent[v]
        while not rooted[cur]:
            chain.append(cur)
            if len(chain) > n:
                return f"parent chain from {v} does not reach the source"
            cur = parent[cur]
            if cur is None:
                return f"parent chain from {v} ends before the source"
        for x in chain:
            rooted[x] = 1
    return None


def fnv1a64_dist(dist: list) -> int:
    h = _FNV_OFFSET
    for d in dist:
        for b in (UNREACHABLE if d is None else d).to_bytes(8, "little"):
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def read_dump(path: str, n: int) -> list:
    """Distances from a ``--dump-dist`` file (``<id> <dist|inf>`` lines)."""
    dist: list = [None] * n
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) != n:
        raise ValueError(f"dump has {len(lines)} lines for {n} nodes")
    for i, line in enumerate(lines):
        node, d = line.split()
        if int(node) != i + 1:
            raise ValueError(f"dump line {i + 1} names node {node}")
        dist[i] = None if d == "inf" else int(d)
    return dist


def self_test(adj: Adjacency, reach: bytearray, source: int, dist: list, parent: list) -> str | None:
    """Show that :func:`certify` rejects three corruptions of good labels.

    The corruptions are a distance raised by one, a parent moved to a
    non-tight in-neighbour, and a reached node marked unreachable.
    Returns the first corruption the checker wrongly accepts, or None.
    """
    if certify(adj, reach, source, dist, parent) is not None:
        return "checker rejects the uncorrupted labels"
    victim = next((v for v in range(len(adj)) if v != source and dist[v] is not None), None)
    if victim is None:
        return "no reached node besides the source to corrupt"
    loose = next(
        ((u, v) for u in range(len(adj)) if dist[u] is not None
         for v, w in adj[u] if v != source and parent[v] != u and dist[u] + w > dist[v]),
        None,
    )
    if loose is None:
        return "no non-tight arc to corrupt a parent with"

    raised = list(dist)
    raised[victim] += 1
    bad_parent = list(parent)
    bad_parent[loose[1]] = loose[0]
    dropped_d, dropped_p = list(dist), list(parent)
    dropped_d[victim] = dropped_p[victim] = None
    cases = [
        ("corrupted distance", raised, parent),
        ("non-tight parent", dist, bad_parent),
        ("wrongly unreachable node", dropped_d, dropped_p),
    ]
    for name, d, p in cases:
        if certify(adj, reach, source, d, p) is None:
            return f"checker accepts a {name}"
    return None
