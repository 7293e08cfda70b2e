import pytest

from lizardpath import (
    TooLargeError,
    bellman_ford,
    brute_force,
    build_graph,
    dijkstra,
)
from conftest import gen_random_sparse, make_chain


class TestDijkstra:
    def test_single_node(self):
        g = build_graph(1, [])
        dist, stats = dijkstra(g, 0)
        assert dist == [0]
        assert stats["pops"] == 1

    def test_chain(self):
        dist, _ = dijkstra(make_chain([3, 4]), 0)
        assert dist == [0, 3, 7]

    def test_unreachable_nodes_stay_none(self):
        g = build_graph(3, [(0, 1, 2)])
        dist, _ = dijkstra(g, 0)
        assert dist == [0, 2, None]

    def test_source_out_of_range(self):
        g = build_graph(2, [])
        with pytest.raises(Exception):
            dijkstra(g, 5)

    def test_matches_brute_force_on_small_random(self):
        for seed in range(40):
            g = gen_random_sparse(2 + seed % 9, 0.4, seed, weight_range=(0, 6))
            dj, _ = dijkstra(g, 0)
            br, _ = brute_force(g, 0)
            assert dj == br


# Stats as tallied one pop and one arc scan at a time; the derived
# counts (pops and stale_skips from pushes, arc scans per node) must
# reproduce them.
@pytest.mark.parametrize(
    "make_graph, dijkstra_stats, bf_stats",
    [
        (lambda: build_graph(3, [(0, 1, 10), (0, 2, 1), (2, 1, 1)]),
         {"pops": 4, "pushes": 4, "stale_skips": 1},
         {"rounds": 2, "arc_scans": 6, "improvements": 3}),
        (lambda: make_chain([3, 4, 0, 2]),
         {"pops": 5, "pushes": 5, "stale_skips": 0},
         {"rounds": 2, "arc_scans": 8, "improvements": 4}),
        (lambda: gen_random_sparse(30, 0.2, 0),
         {"pops": 47, "pushes": 47, "stale_skips": 17},
         {"rounds": 3, "arc_scans": 486, "improvements": 56}),
        # node 3 is unreachable, so pops exceed the reached count
        (lambda: build_graph(4, [(0, 1, 5), (0, 2, 1), (2, 1, 1)]),
         {"pops": 4, "pushes": 4, "stale_skips": 1},
         {"rounds": 2, "arc_scans": 6, "improvements": 3}),
    ],
    ids=["triangle", "chain", "random-sparse", "unreachable"],
)
def test_stats_are_pinned(make_graph, dijkstra_stats, bf_stats):
    g = make_graph()
    assert dijkstra(g, 0)[1] == dijkstra_stats
    assert bellman_ford(g, 0)[1] == bf_stats


class TestBellmanFord:
    def test_chain_converges_in_one_round_plus_verification(self):
        _, stats = bellman_ford(make_chain([1, 1, 1]), 0)
        assert stats["rounds"] == 2
        assert stats["improvements"] == 3

    def test_detour_beats_direct_arc(self):
        g = build_graph(3, [(0, 1, 10), (0, 2, 1), (2, 1, 1)])
        dist, _ = bellman_ford(g, 0)
        assert dist == [0, 2, 1]

    def test_no_arcs(self):
        g = build_graph(4, [])
        dist, _ = bellman_ford(g, 0)
        assert dist == [0, None, None, None]

    def test_matches_dijkstra_on_random_corpus(self):
        for seed in range(30):
            g = gen_random_sparse(5 + (seed * 13) % 120, 0.15, seed)
            assert bellman_ford(g, 0)[0] == dijkstra(g, 0)[0]


class TestBruteForce:
    def test_single_node(self):
        dist, _ = brute_force(build_graph(1, []), 0)
        assert dist == [0]

    def test_two_cycle(self):
        g = build_graph(2, [(0, 1, 5), (1, 0, 7)])
        dist, _ = brute_force(g, 0)
        assert dist == [0, 5]

    def test_rejects_large_graphs(self):
        with pytest.raises(TooLargeError):
            brute_force(build_graph(13, []), 0)

    def test_zero_weight_cycle_handled(self):
        g = build_graph(3, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (0, 2, 5)])
        dist, _ = brute_force(g, 0)
        assert dist == [0, 0, 0]


def test_triple_agreement_small_graphs():
    for seed in range(60):
        n = 2 + seed % 11
        g = gen_random_sparse(n, 0.35, seed ^ 0x5EED, weight_range=(0, 9))
        dj, _ = dijkstra(g, 0)
        bf, _ = bellman_ford(g, 0)
        br, _ = brute_force(g, 0)
        assert dj == bf == br
