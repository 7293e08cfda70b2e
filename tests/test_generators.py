import math

import pytest
from hypothesis import example, given, settings, strategies as st

from lizardpath import (
    DegreeTooLargeError,
    GenSpec,
    GraphError,
    SplitMix64,
    gen_complete,
    gen_grid,
    gen_random,
    generate,
)
from lizardpath import generators as generators_module
from lizardpath import graph as graph_module
from lizardpath.cli import SUITES
from conftest import arc_list, gen_random_sparse, splitmix64_reference


class TestSplitMix64:
    def test_published_stream_for_seed_zero(self):
        # first outputs of the reference implementation seeded with 0
        raw = SplitMix64(0).ints(0, 2**64 - 1)
        assert next(raw) == 0xE220A8397B1DCDAF
        assert next(raw) == 0x6E789E6AA1B965F4

    def test_stream_is_stable(self):
        raw = SplitMix64(1).ints(0, 2**64 - 1)
        assert [next(raw) for _ in range(4)] == [
            10451216379200822465,
            13757245211066428519,
            17911839290282890590,
            8196980753821780235,
        ]

    def test_randint_bounds_and_determinism(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        xs = [a.randint(3, 17) for _ in range(500)]
        assert xs == [b.randint(3, 17) for _ in range(500)]
        assert min(xs) >= 3 and max(xs) <= 17
        assert len(set(xs)) == 15  # all values hit at this sample size

    @pytest.mark.parametrize("call", [
        lambda rng: rng.randint(10, 5),
        lambda rng: rng.randint(0, 2**64),
        lambda rng: rng.below(0),
        lambda rng: rng.ints(10, 5),
        lambda rng: rng.ints(-1, 2**64 - 1),
    ], ids=["randint-reversed", "randint-too-wide", "below-zero", "ints-reversed", "ints-too-wide"])
    def test_invalid_range_rejected(self, call):
        rng = SplitMix64(5)
        with pytest.raises(ValueError, match=r"^range \[-?\d+, -?\d+\] must hold between 1 and 2\*\*64 integers$"):
            call(rng)
        assert next(rng.ints(0, 2**64 - 1)) == next(splitmix64_reference(5))  # nothing drawn


def reference_randint(ref, lo: int, hi: int) -> int:
    """randint by rejection over the scalar reference stream."""
    mask = (1 << 64) - 1
    span = hi - lo + 1
    limit = mask - (mask + 1) % span
    for x in ref:
        if x <= limit:
            return lo + x % span


SPANS = st.sampled_from([1, 2, 3, 1000, 2**63 + 1, 2**64]) | st.integers(1, 2**64)
BOUNDS = st.integers(-(2**70), 2**70)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**80), 2**80),
    iterators=st.tuples(BOUNDS, SPANS, BOUNDS, SPANS),
    draws=st.lists(
        st.tuples(st.sampled_from(["raw", "randint", "below", "ints_a", "ints_b"]),
                  BOUNDS, SPANS, st.integers(1, 700)),
        max_size=8,
    ),
)
@example(seed=-1, iterators=(0, 2**63 + 1, 7, 1), draws=[
    ("raw", 0, 1, 1500), ("ints_a", 0, 1, 1200), ("randint", 0, 2**64, 10), ("ints_b", 0, 1, 5),
])
def test_block_stream_matches_scalar_reference(seed, iterators, draws):
    # every reading of the stream, interleaved in any order and running
    # over block boundaries, gives the scalar stream's values in its order
    lo_a, span_a, lo_b, span_b = iterators
    rng = SplitMix64(seed)
    ref = splitmix64_reference(seed)
    ints_a = rng.ints(lo_a, lo_a + span_a - 1)
    ints_b = rng.ints(lo_b, lo_b + span_b - 1)
    raw = rng.ints(0, 2**64 - 1)  # a span of 2**64 rejects and changes no value
    for kind, lo, span, times in draws:
        for _ in range(times):
            if kind == "raw":
                assert next(raw) == next(ref)
            elif kind == "randint":
                assert rng.randint(lo, lo + span - 1) == reference_randint(ref, lo, lo + span - 1)
            elif kind == "below":
                assert rng.below(span) == reference_randint(ref, 0, span - 1)
            elif kind == "ints_a":
                assert next(ints_a) == reference_randint(ref, lo_a, lo_a + span_a - 1)
            else:
                assert next(ints_b) == reference_randint(ref, lo_b, lo_b + span_b - 1)


class TestGenSpec:
    def test_weight_range_must_be_positive(self):
        with pytest.raises(GraphError):
            GenSpec(family="complete", n=3, weight_range=(0, 10))
        with pytest.raises(GraphError):
            GenSpec(family="complete", n=3, weight_range=(5, 4))

    def test_weights_above_the_file_limit_rejected(self):
        limit = graph_module.MAX_WEIGHT
        GenSpec(family="grid", rows=2, cols=2, weight_range=(limit, limit))
        with pytest.raises(GraphError, match=f"<= {limit}$"):
            GenSpec(family="grid", rows=2, cols=2, weight_range=(limit + 1, limit + 5))
        with pytest.raises(GraphError):
            GenSpec(family="complete", n=3, weight_range=(1, limit + 1))

    def test_negative_degree_rejected(self):
        for family in ("random", "complete"):
            with pytest.raises(GraphError, match="^out-degree -3 must not be negative$"):
                GenSpec(family=family, n=100, m=-3)
        assert GenSpec(family="random", n=100, m=0).effective_m() == 7  # 0 is the default

    @pytest.mark.parametrize("kwargs, message", [
        (dict(family="grid", rows=2, cols=2, n=77), "grid is sized by rows and cols, not n"),
        (dict(family="grid", rows=2, cols=2, m=5), "grid takes no out-degree m"),
        (dict(family="complete", n=5, m=3), "complete takes no out-degree m"),
        (dict(family="complete", n=5, rows=9), "complete is sized by n, not rows or cols"),
        (dict(family="random", n=5, cols=9), "random is sized by n, not rows or cols"),
    ])
    def test_option_of_another_family_rejected(self, kwargs, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            GenSpec(**kwargs)

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            GenSpec(family="torus", n=3)

    def test_grid_dimensions_required(self):
        with pytest.raises(GraphError):
            GenSpec(family="grid", rows=0, cols=5)

    def test_default_degree_is_log2(self):
        assert GenSpec(family="random", n=1000).effective_m() == 10
        assert GenSpec(family="random", n=1000, m=18).effective_m() == 18

    @pytest.mark.parametrize("kwargs", [
        dict(family="complete", n=1),
        dict(family="complete", n=7),
        dict(family="random", n=50, m=4),
        dict(family="random", n=300),
        dict(family="grid", rows=1, cols=1),
        dict(family="grid", rows=1, cols=6),
        dict(family="grid", rows=5, cols=8),
    ])
    def test_arc_count_is_what_generate_makes(self, kwargs):
        spec = GenSpec(**kwargs)
        assert spec.arc_count == generate(spec).arc_count

    @pytest.mark.parametrize("kwargs, nodes", [
        (dict(family="complete", n=100), 100),
        (dict(family="random", n=100, m=2), 100),
        (dict(family="grid", rows=10, cols=10), 100),
    ])
    def test_node_cap(self, monkeypatch, kwargs, nodes):
        monkeypatch.setattr(graph_module, "MAX_NODES", nodes)
        GenSpec(**kwargs)
        monkeypatch.setattr(graph_module, "MAX_NODES", nodes - 1)
        with pytest.raises(GraphError, match=f"^{nodes} nodes exceed limit {nodes - 1}$"):
            GenSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, arcs", [
        (dict(family="complete", n=10), 90),
        (dict(family="random", n=30, m=3), 90),
        (dict(family="random", n=1024), 10240),
        (dict(family="grid", rows=4, cols=7), 90),
    ])
    def test_arc_cap(self, monkeypatch, kwargs, arcs):
        monkeypatch.setattr(generators_module, "MAX_ARCS", arcs)
        GenSpec(**kwargs)
        monkeypatch.setattr(generators_module, "MAX_ARCS", arcs - 1)
        with pytest.raises(GraphError, match=f"^{arcs} arcs exceed limit {arcs - 1}$"):
            GenSpec(**kwargs)

    def test_caps_admit_every_suite(self):
        specs = [GenSpec(**kw) for suite in SUITES.values() for _, kw in suite]
        assert max(s.arc_count for s in specs) <= generators_module.MAX_ARCS
        assert max(s.node_count for s in specs) <= graph_module.MAX_NODES


class TestComplete:
    def test_single_node(self):
        assert gen_complete(GenSpec(family="complete", n=1)).arc_count == 0

    def test_three_nodes(self):
        g = gen_complete(GenSpec(family="complete", n=3, seed=4))
        assert g.arc_count == 6
        assert all(g.out_degree(v) == 2 for v in range(3))

    def test_arc_count_formula(self):
        for n in (2, 5, 40):
            g = gen_complete(GenSpec(family="complete", n=n, seed=1))
            assert g.arc_count == n * (n - 1)

    def test_deterministic(self):
        spec = GenSpec(family="complete", n=20, seed=123)
        assert gen_complete(spec) == gen_complete(spec)
        other = GenSpec(family="complete", n=20, seed=124)
        assert gen_complete(spec) != gen_complete(other)


class TestRandom:
    def test_two_nodes_degree_one(self):
        g = gen_random(GenSpec(family="random", n=2, m=1, seed=8))
        assert sorted((u, v) for u, v, _ in arc_list(g)) == [(0, 1), (1, 0)]

    def test_arc_count_is_n_times_m(self):
        g = gen_random(GenSpec(family="random", n=1000, m=10, seed=2))
        assert g.arc_count == 10_000

    def test_exact_out_degree_and_distinct_neighbors(self):
        g = gen_random(GenSpec(family="random", n=60, m=7, seed=3))
        for v in range(60):
            leaves = [leaf for leaf, _ in g.leaf_set(v)]
            assert len(leaves) == 7
            assert len(set(leaves)) == 7
            assert v not in leaves

    def test_degree_too_large(self):
        # the spec itself is refused, so no caller sees its arc_count
        with pytest.raises(DegreeTooLargeError, match="^out-degree 5 must be smaller than node count 5$"):
            GenSpec(family="random", n=5, m=5, seed=1)
        assert GenSpec(family="random", n=5, m=4).arc_count == 20

    def test_deterministic(self):
        spec = GenSpec(family="random", n=50, m=6, seed=77)
        assert gen_random(spec) == gen_random(spec)


class TestGrid:
    def test_degenerate_grid(self):
        assert gen_grid(GenSpec(family="grid", rows=1, cols=1)).arc_count == 0

    def test_path_grid(self):
        g = gen_grid(GenSpec(family="grid", rows=1, cols=3, seed=5))
        assert g.arc_count == 4
        assert sorted((u, v) for u, v, _ in arc_list(g)) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_arc_count_formula(self):
        for rows, cols in ((2, 2), (3, 5), (10, 10)):
            g = gen_grid(GenSpec(family="grid", rows=rows, cols=cols, seed=1))
            assert g.arc_count == 2 * (rows * (cols - 1) + cols * (rows - 1))

    def test_degrees_by_position(self):
        g = gen_grid(GenSpec(family="grid", rows=3, cols=3, seed=6))
        degrees = [g.out_degree(v) for v in range(9)]
        assert degrees == [2, 3, 2, 3, 4, 3, 2, 3, 2]

    def test_deterministic(self):
        spec = GenSpec(family="grid", rows=4, cols=7, seed=11)
        assert gen_grid(spec) == gen_grid(spec)


class TestRandomSparse:
    def test_full_density_is_complete(self):
        g = gen_random_sparse(6, 1.0, seed=1)
        assert g.arc_count == 30
        assert all(g.out_degree(v) == 5 for v in range(6))

    def test_arc_count_within_binomial_bounds(self):
        # N = 50*49 = 2450 trials at p = 0.1: mean 245, sigma ~ 14.85,
        # so a 3-sigma window is [200, 290]; checked for fixed seeds
        for seed in range(12):
            e = gen_random_sparse(50, 0.1, seed).arc_count
            assert 200 <= e <= 290

    def test_zero_weights_allowed(self):
        g = gen_random_sparse(40, 0.5, seed=2, weight_range=(0, 3))
        weights = [w for _, _, w in arc_list(g)]
        assert min(weights) == 0
        assert max(weights) <= 3

    def test_density_validation(self):
        with pytest.raises(GraphError):
            gen_random_sparse(5, 0.0, seed=1)
        with pytest.raises(GraphError):
            gen_random_sparse(5, 1.5, seed=1)


def test_all_weights_within_range():
    specs = [
        GenSpec(family="complete", n=25, weight_range=(3, 9), seed=4),
        GenSpec(family="random", n=40, m=5, weight_range=(3, 9), seed=4),
        GenSpec(family="grid", rows=5, cols=8, weight_range=(3, 9), seed=4),
    ]
    for spec in specs:
        g = generate(spec)
        weights = [w for _, _, w in arc_list(g)]
        assert min(weights) >= 3 and max(weights) <= 9
        assert len(set(weights)) == 7  # every value in range occurs


def test_generate_dispatches_by_family():
    assert generate(GenSpec(family="complete", n=4, seed=1)).arc_count == 12
    assert generate(GenSpec(family="grid", rows=2, cols=2, seed=1)).arc_count == 8
    m = math.ceil(math.log2(30))
    assert generate(GenSpec(family="random", n=30, seed=1)).arc_count == 30 * m
