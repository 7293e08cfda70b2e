import pytest
from hypothesis import given, settings, strategies as st

from lizardpath import (
    GenSpec,
    Graph,
    HdmOutput,
    NodeOutOfRangeError,
    build_graph,
    collect_origins,
    dijkstra,
    gen_complete,
    hdm_run,
)
from conftest import arc_list, gen_layered_dag, gen_out_tree, gen_random_sparse, make_chain


def check_partition(g: Graph, out: HdmOutput, source: int) -> str | None:
    """Validate region-partition invariants; returns a message or None.

    Checks: first region is exactly the source, regions are disjoint,
    their union is the reachable set, every node in region i > 1 has
    an in-arc from region i-1, and the largest layer id is the layer count.
    The layers are rebuilt from ``out.region``, so they are disjoint and
    cover the labeled nodes by construction.
    """
    region = out.region
    if out.partition.k != max(region):
        return f"partition.k {out.partition.k} != largest layer id {max(region)}"
    regions: list[list[int]] = [[] for _ in range(out.partition.k)]
    for v, idx in enumerate(region):
        if idx > 0:
            regions[idx - 1].append(v)
    if regions[0] != [source]:
        return "first region must be exactly [source]"
    labeled = {v for v in range(g.n) if region[v] > 0}
    if labeled != {v for v in range(g.n) if out.labels.dist[v] is not None}:
        return "layer ids and distances disagree on which nodes are labeled"
    # feed arcs: some in-arc from the previous layer must exist
    feeds: list[set[int]] = [set() for _ in range(len(regions) + 2)]
    for v, leaf, _ in arc_list(g):
        rv = region[v]
        rl = region[leaf]
        if rv > 0 and rl == rv + 1:
            feeds[rl].add(leaf)
    for idx in range(2, len(regions) + 1):
        for v in regions[idx - 1]:
            if v not in feeds[idx]:
                return f"node {v} in region {idx} has no arc from region {idx - 1}"
    return None


def corpus(count=40, base=0):
    for seed in range(base, base + count):
        n = 2 + (seed * 29) % 120
        density = [0.05, 0.2, 0.8][seed % 3]
        yield gen_random_sparse(n, density, seed, weight_range=(0, 1000))


class TestHdmRun:
    def test_single_node(self):
        out = hdm_run(build_graph(1, []), 0)
        assert out.labels.dist == [0]
        assert out.region == [1]
        assert out.partition.k == 1
        assert out.arc_scans == 0

    def test_chain_labels_and_regions(self):
        out = hdm_run(make_chain([3, 4]), 0)
        assert out.labels.dist == [0, 3, 7]
        assert out.region == [1, 2, 3]
        assert out.labels.parent == [None, 0, 1]

    def test_triangle_keeps_overshoot(self, triangle):
        # leaf 1 sits in root 2's own layer, so the pass must not touch it
        out = hdm_run(triangle, 0)
        assert out.labels.dist == [0, 10, 1]
        assert out.region == [1, 2, 2]

    def test_source_out_of_range(self):
        with pytest.raises(NodeOutOfRangeError):
            hdm_run(build_graph(2, []), 2)

    def test_unreachable_nodes_stay_wild(self):
        g = build_graph(4, [(0, 1, 2), (3, 2, 1)])
        out = hdm_run(g, 0)
        assert out.region[2] == 0 and out.region[3] == 0
        assert out.labels.dist[2] is None and out.labels.dist[3] is None

    def test_arc_scans_cover_reachable_out_degrees(self):
        g = build_graph(5, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1)])
        out = hdm_run(g, 0)
        assert out.arc_scans == 3  # node 3 is unreachable, its arc unscanned

    def test_arc_scans_equal_E_on_strongly_connected(self):
        g = gen_complete(GenSpec(family="complete", n=30, seed=2))
        assert hdm_run(g, 0).arc_scans == g.arc_count

    def test_distances_are_upper_bounds(self):
        for g in corpus(40):
            out = hdm_run(g, 0)
            exact, _ = dijkstra(g, 0)
            for v in range(g.n):
                if exact[v] is None:
                    assert out.labels.dist[v] is None
                else:
                    assert out.labels.dist[v] >= exact[v]

    def test_parent_links_are_consistent_and_acyclic(self):
        weight = {}
        for g in corpus(30, base=100):
            out = hdm_run(g, 0)
            weight = {(u, v): w for u, v, w in arc_list(g)}
            parent = out.labels.parent
            dist = out.labels.dist
            for v in range(g.n):
                p = parent[v]
                if p is None:
                    continue
                assert dist[v] == dist[p] + weight[(p, v)]
                hops = 0
                cur = v
                while cur is not None:
                    cur = parent[cur]
                    hops += 1
                    assert hops <= g.n  # no cycle in the parent array

    def test_partition_is_valid_on_corpus(self):
        for g in corpus(30, base=200):
            out = hdm_run(g, 0)
            assert check_partition(g, out, 0) is None


class TestLayeredExactness:
    def test_layered_dag_distances_are_exact(self):
        for seed in range(25):
            g = gen_layered_dag(3 + (seed * 17) % 200, seed)
            out = hdm_run(g, 0)
            assert out.labels.dist == dijkstra(g, 0)[0]
            assert collect_origins(g, out.labels) == []

    def test_out_tree_distances_are_exact(self):
        for seed in range(25):
            g = gen_out_tree(2 + (seed * 13) % 200, seed)
            out = hdm_run(g, 0)
            assert out.labels.dist == dijkstra(g, 0)[0]
            assert collect_origins(g, out.labels) == []


small_graphs = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 6)),
            max_size=40,
        ),
    )
)


class TestSeeking:
    def test_chain_has_no_origins(self):
        assert hdm_run(make_chain([1, 1, 1]), 0).origins == []

    def test_triangle_flags_detour_root(self, triangle):
        assert hdm_run(triangle, 0).origins == [2]

    def test_complete_instance_yields_origins(self):
        g = gen_complete(GenSpec(family="complete", n=50, seed=1))
        out = hdm_run(g, 0)
        assert len(out.origins) == 39  # golden for this seed
        assert len(set(out.origins)) == len(out.origins)

    @given(small_graphs)
    @settings(max_examples=200, deadline=None)
    def test_harvest_equals_collect_origins(self, data):
        # same-or-earlier-layer labels are final by scan time, so the
        # inline harvest is the post-pass list, order included; the small
        # weight range with zeros makes ties common
        n, raw = data
        g = build_graph(n, [(u, v, w) for u, v, w in raw if u != v])
        for source in range(n):
            out = hdm_run(g, source)
            assert out.origins == collect_origins(g, out.labels)


class TestCollectOrigins:
    def test_triangle(self, triangle):
        out = hdm_run(triangle, 0)
        assert collect_origins(triangle, out.labels) == [2]

    def test_matches_shorter_arm_roots(self):
        # the roots of every violating arc, by a scan that shares no code
        # with collect_origins
        for g in corpus(25, base=400):
            out = hdm_run(g, 0)
            dist = out.labels.dist
            roots = sorted({
                v for v, leaf, w in arc_list(g)
                if dist[v] is not None and (dist[leaf] is None or dist[leaf] > dist[v] + w)
            })
            assert collect_origins(g, out.labels) == roots

    def test_no_duplicates(self):
        for g in corpus(15, base=500):
            origins = collect_origins(g, hdm_run(g, 0).labels)
            assert len(origins) == len(set(origins))
