import gc
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from lizardpath import (
    GenSpec,
    LabelState,
    SolveOptions,
    SplitMix64,
    UnlabeledOriginError,
    build_graph,
    collect_origins,
    contest_run,
    dijkstra,
    gen_grid,
    generate,
    hdm_run,
    solve_sssp,
)
from lizardpath.cli import SUITES, checksum_dist
from lizardpath.lizard import LizardEntity, LizardItem
from conftest import arc_list, gen_layered_dag, gen_random_sparse, make_chain


def corpus(count, base=0):
    for seed in range(base, base + count):
        n = 2 + (seed * 41) % 150
        density = [0.05, 0.2, 0.8][seed % 3]
        yield gen_random_sparse(n, density, seed, weight_range=(0, 1000))


class TestContestRun:
    def test_empty_origins_change_nothing(self, triangle):
        out = hdm_run(triangle, 0)
        before = list(out.labels.dist)
        labels, m = contest_run(triangle, out.labels, [])
        assert labels.dist == before
        assert (m.deletions, m.arc_scans, m.relabels, m.le_cost) == (0, 0, 0, 0)

    def test_triangle_correction(self, triangle):
        out = hdm_run(triangle, 0)
        origins = collect_origins(triangle, out.labels)
        labels, m = contest_run(triangle, out.labels, origins)
        assert labels.dist == [0, 2, 1]
        assert m.relabels >= 1
        assert collect_origins(triangle, labels) == []

    def test_unlabeled_origin_rejected(self, triangle):
        out = hdm_run(triangle, 0)
        out.labels.dist[1] = None
        with pytest.raises(UnlabeledOriginError):
            contest_run(triangle, out.labels, [1])

    def test_parent_links_acyclic_after_every_round(self, monkeypatch):
        # every reap after the first follows a finished round, so checking
        # before each reap and once at the end covers every round
        reap = LizardEntity.get_min_batch
        for seed in range(10):
            g = gen_random_sparse(60, 0.2, seed ^ 0xF00, weight_range=(0, 50))
            out = hdm_run(g, 0)
            parent = out.labels.parent
            reaps = 0

            def assert_acyclic():
                for v in range(g.n):
                    hops = 0
                    cur = v
                    while cur is not None:
                        cur = parent[cur]
                        hops += 1
                        assert hops <= g.n, "cycle in parent array"

            def checked_reap(le):
                nonlocal reaps
                assert_acyclic()
                reaps += 1
                return reap(le)

            monkeypatch.setattr(LizardEntity, "get_min_batch", checked_reap)
            contest_run(g, out.labels, collect_origins(g, out.labels))
            assert_acyclic()
            assert reaps > 0

    def test_relabels_bounded_by_in_degree_total(self):
        for g in corpus(15, base=60):
            out = hdm_run(g, 0)
            _, m = contest_run(g, out.labels, collect_origins(g, out.labels))
            assert m.relabels <= g.arc_count


class TestSolve:
    def test_matches_oracle_on_random_corpus(self):
        for g in corpus(60):
            labels, _ = solve_sssp(g)
            assert labels.dist == dijkstra(g, 0)[0]
            assert collect_origins(g, labels) == []

    def test_layered_instances_skip_correction(self):
        for seed in range(8):
            g = gen_layered_dag(40 + seed * 13, seed)
            first = hdm_run(g, 0)
            labels, m = solve_sssp(g)
            assert labels.dist == first.labels.dist
            assert (m.arc_scans, m.relabels, m.deletions) == (0, 0, 0)

    def test_cut_agency_strictly_wins_when_batches_have_cousins(self):
        # a two-value weight range forces many equal keys in the structure
        from lizardpath import GenSpec, gen_grid

        g = gen_grid(GenSpec(family="grid", rows=20, cols=20, seed=7, weight_range=(1, 2)))
        first = hdm_run(g, 0)
        origins = collect_origins(g, first.labels)
        labels, m = contest_run(g, first.labels, origins)
        assert labels.dist == dijkstra(g, 0)[0]
        cut = m.le_counters.as_cut_agency()
        assert (m.deletions, cut.deletions) == (32, 16)  # golden for this seed
        assert cut.total_cost < m.le_cost

    def test_tied_solve_leaves_no_cyclic_garbage(self):
        # no item the structure lets go of may sit in a reference cycle,
        # or every reaped or excised key waits for the cyclic collector
        g = gen_grid(GenSpec(family="grid", rows=20, cols=20, seed=7, weight_range=(1, 2)))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            labels, m = solve_sssp(g)
            assert m.deletions > m.le_counters.as_cut_agency().deletions  # batches with cousins ran
            gc.collect()
            assert not [obj for obj in gc.garbage if isinstance(obj, LizardItem)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert labels.dist == dijkstra(g, 0)[0]

    def test_nonzero_source(self):
        g = gen_random_sparse(50, 0.3, seed=5)
        labels, _ = solve_sssp(g, SolveOptions(source=17))
        assert labels.dist == dijkstra(g, 17)[0]

    def test_unreachable_nodes_stay_unset(self):
        g = build_graph(4, [(0, 1, 3), (2, 3, 1)])
        labels, _ = solve_sssp(g)
        assert labels.dist == [0, 3, None, None]

    def test_chain_metrics_timing_fields(self):
        labels, m = solve_sssp(make_chain([2, 2, 2]))
        assert labels.dist == [0, 2, 4, 6]
        assert m.t_hdm_ms >= 0.0 and m.t_ca_ms >= 0.0
        assert m.hdm_arc_scans == 3

    def test_harmonic_factor_positive_when_structure_used(self, triangle):
        _, m = solve_sssp(triangle)
        assert m.le_cost > 0
        assert m.harmonic > 0.0

    def test_broom_sorted_requeue_keeps_structure_cost_near_linearithmic(self):
        # a zero-weight path reaches the hub, which re-queues every leaf
        # in ascending key order; an unbalanced BST would become a list
        # and charge m(m+1)/2 for the inserts
        m = 2000
        source, a, b, hub = 0, 1, 2, 3
        arcs = [(source, a, 0), (a, b, 0), (b, hub, 0)]
        for i in range(m):
            arcs.append((hub, 4 + i, i + 1))
            arcs.append((source, 4 + i, 10**9))
        g = build_graph(m + 4, arcs)
        labels, metrics = solve_sssp(g)
        assert labels.dist == dijkstra(g, 0)[0]
        assert metrics.harmonic <= 8
        c = metrics.le_counters
        assert c.insert <= 4 * m * math.log2(m)
        # exact charges, including every scapegoat rebuild's
        assert (c.insert, c.getmin, c.deletions, c.batches, metrics.le_cost) == (78259, 4002, 2001, 2001, 82262)

    def test_monotone_improvement_against_first_pass(self):
        for g in corpus(10, base=300):
            first = hdm_run(g, 0)
            upper = list(first.labels.dist)
            labels, _ = solve_sssp(g)
            for v in range(g.n):
                if upper[v] is not None:
                    assert labels.dist[v] <= upper[v]


class TestWildLeafHandling:
    def test_full_pipeline_has_no_anomalies(self):
        for g in corpus(15, base=400):
            _, m = solve_sssp(g)
            assert m.anomalies == 0

    def test_hand_built_labels_with_missing_node(self):
        # 0 -> 1 -> 2 where node 2 was never labeled by the first pass
        g = build_graph(3, [(0, 1, 2), (1, 2, 3)])
        labels = LabelState([None, 0, None], [0, 2, None])
        out, m = contest_run(g, labels, [1])
        assert m.anomalies == 1
        assert out.dist == [0, 2, 5]
        assert out.parent == [None, 0, 1]

    def test_empty_graph_run(self):
        g = build_graph(1, [])
        labels, m = solve_sssp(g)
        assert labels.dist == [0]
        assert m.anomalies == 0


# up to 12 nodes with weights 0..4, so zero-weight arcs, ties and parallel
# arcs are common; (u, step) names the arc u -> (u + step) % n, never a loop
small_graphs = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 4)), max_size=36),
    )
)


def small_graph(case):
    n, raw = case
    return build_graph(n, [(u, (u + step) % n, w) for u, step, w in raw])


def least_weights(g) -> dict[tuple[int, int], int]:
    """The least weight of each (root, leaf) pair's arcs: the arcs of the
    graph with only the lightest arc of each parallel group."""
    weight: dict[tuple[int, int], int] = {}
    for u, v, w in arc_list(g):
        weight[u, v] = min(w, weight.get((u, v), w))
    return weight


@given(small_graphs)
@settings(max_examples=200, deadline=None)
def test_parallel_arcs_never_change_a_distance(case):
    g = small_graph(case)
    twin = build_graph(g.n, [(u, v, w) for (u, v), w in least_weights(g).items()])
    labels, _ = solve_sssp(g)
    assert labels.dist == dijkstra(twin, 0)[0]
    assert collect_origins(g, labels) == []


def assert_contest_run_contract(g, labels, extra_origins) -> None:
    """contest_run apart from the first pass: labels that are real path
    lengths, with every node collect_origins lists among the origins, end
    at Dijkstra's distances with tight parents, each node reaped once at
    most.  ``extra_origins`` are labeled nodes added to the origins."""
    n = g.n
    # a tight parent arc is the lightest of its parallel group
    weight = least_weights(g)
    labeled = [v for v in range(n) if labels.dist[v] is not None]
    origins = collect_origins(g, labels)
    origins += [v for v in extra_origins if v not in origins]

    labels, m = contest_run(g, labels, origins)

    dist, parent = labels.dist, labels.parent
    assert dist == dijkstra(g, 0)[0]
    assert parent[0] is None
    for v in labeled[1:]:
        assert dist[v] == dist[parent[v]] + weight[parent[v], v]
        chain = [v]
        while chain[-1] != 0 and len(chain) <= n:
            chain.append(parent[chain[-1]])
        assert chain[-1] == 0, f"parent chain from {v} does not reach the source: {chain}"
    assert m.le_counters.getmin // 2 <= len(labeled)


@given(small_graphs, st.data())
@settings(max_examples=200, deadline=None)
def test_contest_run_contract(case, data):
    g = small_graph(case)
    weight = least_weights(g)
    # a random spanning arborescence of the reachable set, labeled along
    # its arcs, so every parent is tight
    labels = LabelState.initial(g.n, 0)
    dist, parent = labels.dist, labels.parent
    while frontier := [(u, v) for (u, v) in weight if dist[u] is not None and dist[v] is None]:
        u, v = data.draw(st.sampled_from(frontier))
        dist[v] = dist[u] + weight[u, v]
        parent[v] = u
    labeled = [v for v in range(g.n) if dist[v] is not None]
    assert_contest_run_contract(g, labels, data.draw(st.lists(st.sampled_from(labeled), unique=True)))


def test_contest_run_contract_on_corpus():
    # the seeded corpus, labeled along a BFS arborescence from node 0:
    # each node by the first arc that reaches it, so labels are real path
    # lengths but not shortest
    for g in corpus(30, base=700):
        labels = LabelState.initial(g.n, 0)
        dist, parent = labels.dist, labels.parent
        queue = [0]
        for u in queue:
            for v, w in g.leaf_set(u):
                if dist[v] is None:
                    dist[v] = dist[u] + w
                    parent[v] = u
                    queue.append(v)
        assert_contest_run_contract(g, labels, queue[::5])


def test_warm_start_after_weight_decreases():
    # arcs cut to a quarter of their weight and one arc added leave every
    # old label a real path length, so a correction from the changed
    # arcs' labeled tails re-solves the new graph without a full scan
    rng = SplitMix64(10)
    relabels = 0
    for g in corpus(60):
        old, _ = solve_sssp(g)
        arcs = arc_list(g)
        cut = {rng.below(len(arcs)) for _ in range(3)} if arcs else set()
        u = rng.below(g.n)
        added = (u, (u + 1 + rng.below(g.n - 1)) % g.n, rng.randint(0, 1000))
        lighter = [(a, b, w // 4 if i in cut else w) for i, (a, b, w) in enumerate(arcs)]
        g2 = build_graph(g.n, lighter + [added])
        tails = sorted({a for a, _, _ in [arcs[i] for i in cut] + [added] if old.dist[a] is not None})
        warm = LabelState(list(old.parent), list(old.dist))
        assert set(collect_origins(g2, warm)) <= set(tails)

        labels, m = contest_run(g2, warm, tails)

        dist, parent = labels.dist, labels.parent
        assert dist == dijkstra(g2, 0)[0]
        assert parent[0] is None
        weight = least_weights(g2)
        for v, p in enumerate(parent):
            if p is not None:
                assert dist[v] == dist[p] + weight[p, v]
        relabels += m.relabels
    assert relabels > 0


# Exact counters of solve_sssp from source 0 on desk-suite instances at
# seed 1; any change to the first pass, the harvest order or the lizard
# entity's charging shows up here.  cut_D and cut_C_total are the same
# run charged as cut_agency, equal to what a separate cut_agency solve
# reported.
COUNTER_GOLDEN = {
    "complete-500": dict(
        D=2459, Q_A=249001, Q_S=2286, C_total=26641, hdm_arc_scans=249500, anomalies=0,
        build=4670, insert=14823, delete=6150, getmin=998, checksum_dist=0x6DBFED8E4A4F520D,
        cut_D=1987, cut_C_total=25724,
    ),
    "grid-300x300": dict(
        D=137276, Q_A=358604, Q_S=118252, C_total=2210173, hdm_arc_scans=358800, anomalies=0,
        build=305232, insert=1545733, delete=179310, getmin=179898, checksum_dist=0xBB74F85A96B4F4F7,
        cut_D=107387, cut_C_total=2210455,
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTER_GOLDEN))
def test_desk_counters_match_golden(name):
    spec_kwargs = dict(SUITES["desk"])[name]
    g = generate(GenSpec(seed=1, **spec_kwargs))
    labels, m = solve_sssp(g, SolveOptions(source=0))
    c = m.le_counters
    cut = c.as_cut_agency()
    got = dict(
        D=m.deletions, Q_A=m.arc_scans, Q_S=m.relabels, C_total=m.le_cost,
        hdm_arc_scans=m.hdm_arc_scans, anomalies=m.anomalies,
        build=c.build, insert=c.insert, delete=c.delete, getmin=c.getmin,
        checksum_dist=checksum_dist(labels.dist),
        cut_D=cut.deletions, cut_C_total=cut.total_cost,
    )
    assert got == COUNTER_GOLDEN[name]


def test_tied_parents_match_golden():
    # weights 1..3 tie many keys, so the parent a node keeps depends on
    # the order equal-key nodes leave the structure: batches and hand-overs
    # go oldest first.  Distances and counters do not see that order.
    g = generate(GenSpec(family="grid", rows=100, cols=100, weight_range=(1, 3), seed=1))
    labels, m = solve_sssp(g, SolveOptions(source=0))
    assert labels.dist == dijkstra(g, 0)[0]
    assert (m.deletions, m.le_counters.batches) == (3122, 211)
    digest = hashlib.sha256(json.dumps(labels.parent).encode()).hexdigest()
    assert digest == "70e9d7a6323dd62b1df9b3bedfff3bc14dbc80d7cf7753c48510dbaad6ab80fe"
