import io

import pytest
from hypothesis import given, settings, strategies as st

from lizardpath import (
    GenSpec,
    HeaderMismatchError,
    DimacsParseError,
    LabelState,
    NegativeWeightError,
    NodeOutOfRangeError,
    SelfLoopError,
    build_graph,
    dijkstra,
    find_shorter_arms,
    gen_complete,
    gen_grid,
    gen_random_sparse,
    load_dimacs,
    save_dimacs,
)
from lizardpath.graph import MAX_WEIGHT, WeightTooLargeError


class TestBuildGraph:
    def test_single_arc(self):
        g = build_graph(2, [(0, 1, 5)])
        assert g.n == 2
        assert g.arc_count == 1
        assert g.leaf_set(0) == ((1, 5),)

    def test_empty(self):
        g = build_graph(1, [])
        assert g.arc_count == 0
        assert g.leaf_set(0) == ()

    def test_parallel_arcs_keep_minimum(self):
        g = build_graph(3, [(0, 1, 2), (0, 1, 7)])
        assert g.arc_count == 1
        assert g.leaf_set(0) == ((1, 2),)
        # regardless of arrival order
        g = build_graph(3, [(0, 1, 7), (0, 1, 2)])
        assert g.leaf_set(0) == ((1, 2),)

    def test_leaf_order_is_first_insertion(self):
        g = build_graph(4, [(0, 3, 9), (0, 1, 4), (0, 3, 2), (0, 2, 1)])
        assert g.leaf_set(0) == ((3, 2), (1, 4), (2, 1))

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            build_graph(2, [(0, 1, -1)])

    def test_weight_above_32bit_rejected(self):
        with pytest.raises(WeightTooLargeError):
            build_graph(2, [(0, 1, MAX_WEIGHT + 1)])
        build_graph(2, [(0, 1, MAX_WEIGHT)])  # boundary is legal

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRangeError):
            build_graph(2, [(0, 2, 1)])
        with pytest.raises(NodeOutOfRangeError):
            build_graph(2, [(-1, 0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(1, 1, 3)])

    def test_zero_weight_is_legal(self):
        g = build_graph(2, [(0, 1, 0)])
        assert g.leaf_set(0) == ((1, 0),)

    def test_adjacency_is_immutable(self):
        g = build_graph(2, [(0, 1, 5)])
        assert isinstance(g.leaf_set(0), tuple)
        with pytest.raises(TypeError):
            g.leaf_set(0)[0] = (1, 99)


class TestLeafSet:
    def test_complete_graph_lists_all_others(self):
        g = gen_complete(GenSpec(family="complete", n=3, seed=9))
        assert [leaf for leaf, _ in g.leaf_set(0)] == [1, 2]
        assert [leaf for leaf, _ in g.leaf_set(2)] == [0, 1]

    def test_grid_corner_has_two_leaves(self):
        g = gen_grid(GenSpec(family="grid", rows=2, cols=2, seed=3))
        assert len(g.leaf_set(0)) == 2
        assert {leaf for leaf, _ in g.leaf_set(0)} == {1, 2}

    def test_isolated_node(self):
        g = build_graph(3, [(0, 1, 1)])
        assert g.leaf_set(2) == ()

    def test_out_of_range(self):
        g = build_graph(2, [])
        with pytest.raises(NodeOutOfRangeError):
            g.leaf_set(2)


class TestDimacs:
    def test_minimal_file(self):
        g = load_dimacs(io.StringIO("p sp 2 1\na 1 2 5\n"))
        assert g.n == 2
        assert g.arc_count == 1
        assert g.leaf_set(0) == ((1, 5),)

    def test_comments_and_blanks_ignored(self):
        text = "c header\n\nc more\np sp 2 1\nc mid\na 1 2 5\n"
        assert load_dimacs(io.StringIO(text)).arc_count == 1

    def test_round_trip_random_graph(self):
        g = gen_random_sparse(100, 0.1, seed=77, weight_range=(0, 50))
        buf = io.StringIO()
        save_dimacs(g, buf)
        buf.seek(0)
        assert load_dimacs(buf) == g

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatchError):
            load_dimacs(io.StringIO("p sp 2 2\na 1 2 5\n"))

    def test_missing_problem_line(self):
        with pytest.raises(DimacsParseError):
            load_dimacs(io.StringIO("c nothing else\n"))

    def test_arc_before_problem_line(self):
        with pytest.raises(DimacsParseError):
            load_dimacs(io.StringIO("a 1 2 5\np sp 2 1\n"))

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsParseError):
            load_dimacs(io.StringIO("p sp 2 0\np sp 2 0\n"))

    def test_malformed_lines(self):
        with pytest.raises(DimacsParseError):
            load_dimacs(io.StringIO("p sp 2 1\na 1 2\n"))
        with pytest.raises(DimacsParseError):
            load_dimacs(io.StringIO("p sp 2 1\nq 1 2 3\n"))
        with pytest.raises(DimacsParseError):
            load_dimacs(io.StringIO("p sp 2 1\na 1 2 x\n"))

    @pytest.mark.parametrize("field", ["1_0", "+1", "-1", "\u0661", "\u00b2", "0x1", "1.0"])
    def test_numbers_must_be_ascii_digits(self, field):
        with pytest.raises(DimacsParseError, match="^line 2:"):
            load_dimacs(io.StringIO(f"p sp 2 1\na 1 2 {field}\n"))
        with pytest.raises(DimacsParseError, match="^line 1:"):
            load_dimacs(io.StringIO(f"p sp {field} 0\n"))

    def test_ids_are_one_based_in_files(self):
        buf = io.StringIO()
        save_dimacs(build_graph(2, [(0, 1, 5)]), buf)
        assert buf.getvalue() == "p sp 2 1\na 1 2 5\n"

    def test_load_collapses_parallel_arcs(self):
        g = load_dimacs(io.StringIO("p sp 2 2\na 1 2 7\na 1 2 3\n"))
        assert g.arc_count == 1
        assert g.leaf_set(0) == ((1, 3),)


def labels_from_dist(n: int, dist: list) -> LabelState:
    region = [1 if d is not None else 0 for d in dist]
    return LabelState([None] * n, list(dist), region)


class TestFindShorterArms:
    def test_exact_distances_have_none(self):
        g = gen_random_sparse(40, 0.2, seed=5)
        dist, _ = dijkstra(g, 0)
        assert find_shorter_arms(g, labels_from_dist(g.n, dist)) == []

    def test_overshoot_is_reported(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
        labels = labels_from_dist(3, [0, 1, 5])
        assert find_shorter_arms(g, labels) == [(1, 2)]

    def test_lone_labeled_source_without_arcs(self):
        g = build_graph(3, [(1, 2, 4)])
        labels = labels_from_dist(3, [0, None, None])
        assert find_shorter_arms(g, labels) == []

    def test_arc_to_wild_leaf_counts(self):
        g = build_graph(2, [(0, 1, 3)])
        labels = labels_from_dist(2, [0, None])
        assert find_shorter_arms(g, labels) == [(0, 1)]


arc_lists = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 30)),
            max_size=40,
        ),
    )
)


@given(arc_lists)
@settings(max_examples=120, deadline=None)
def test_round_trip_identity_property(data):
    n, raw = data
    arcs = [(u, v, w) for u, v, w in raw if u != v]
    g = build_graph(n, arcs)
    buf = io.StringIO()
    save_dimacs(g, buf)
    buf.seek(0)
    loaded = load_dimacs(buf)
    assert loaded == g
    assert loaded.arc_count == g.arc_count


@given(arc_lists)
@settings(max_examples=120, deadline=None)
def test_no_shorter_arms_under_oracle_labels(data):
    n, raw = data
    g = build_graph(n, [(u, v, w) for u, v, w in raw if u != v])
    dist, _ = dijkstra(g, 0)
    assert find_shorter_arms(g, labels_from_dist(n, dist)) == []
