import gc
import hashlib
import io
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lizardpath import (
    GenSpec,
    Graph,
    GraphError,
    HeaderMismatchError,
    DimacsParseError,
    LabelState,
    NegativeWeightError,
    NodeOutOfRangeError,
    SelfLoopError,
    build_graph,
    contest_run,
    collect_origins,
    dijkstra,
    gen_complete,
    gen_grid,
    generate,
    load_dimacs,
    save_dimacs,
)
from lizardpath import graph as graph_module
from lizardpath.cli import SUITES
from lizardpath.graph import _RUN_LINES, MAX_NODES, MAX_WEIGHT, WeightTooLargeError
from conftest import arc_list, gen_random_sparse


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

    def test_weight_error_is_exported(self):
        import lizardpath

        assert "WeightTooLargeError" in lizardpath.__all__
        with pytest.raises(lizardpath.WeightTooLargeError):
            build_graph(2, [(0, 1, MAX_WEIGHT + 1)])

    def test_node_count_cap(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_NODES", 3)
        assert build_graph(3, [(0, 2, 1)]).n == 3
        with pytest.raises(GraphError, match=r"^node count 4 exceeds limit 3$"):
            build_graph(4, [(0, 3, 1)])

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRangeError):
            build_graph(2, [(0, 2, 1)])
        with pytest.raises(NodeOutOfRangeError):
            build_graph(2, [(-1, 0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(1, 1, 3)])

    @pytest.mark.parametrize("w", [5.5, 2.0, True, "5", None])
    def test_weight_that_is_not_an_int_rejected(self, w):
        # save_dimacs would write such a weight in a form load_dimacs rejects
        with pytest.raises(GraphError, match=r"^arc \(0, 1\) weight .* is not an int$"):
            build_graph(2, [(0, 1, w)])

    @pytest.mark.parametrize("arc", [(0, 1.0, 5), (0.0, 1, 5), (0, "1", 5), (None, 1, 5), (1, 0.5, 5)])
    def test_node_id_that_is_not_an_int_rejected(self, arc):
        # a float id would index no list, and save_dimacs would write a
        # float leaf as text load_dimacs rejects
        with pytest.raises(GraphError, match=r"^arc \(.*\) node id .* is not an int$"):
            build_graph(2, [(0, 1, 1), arc])

    def test_fault_of_the_arcs_themselves_is_not_an_id_fault(self):
        with pytest.raises(TypeError, match="cannot unpack"):
            build_graph(2, [(0, 1, 1), 7])
        with pytest.raises(TypeError, match="not iterable"):
            build_graph(2, None)

    def test_bool_node_ids_read_as_ints(self):
        g = build_graph(2, [(True, False, 5)])
        assert g.leaf_set(1) == ((0, 5),)
        assert type(g.leaf_set(1)[0][0]) is int

    @pytest.mark.parametrize("arc, error, message", [
        ((5, 5, 1), NodeOutOfRangeError, "node id 5 out of range [0, 2)"),
        ((0, 7, -1), NodeOutOfRangeError, "node id 7 out of range [0, 2)"),
        ((-1, 9, 1), NodeOutOfRangeError, "node id -1 out of range [0, 2)"),
        ((3, 0, MAX_WEIGHT + 1), NodeOutOfRangeError, "node id 3 out of range [0, 2)"),
        ((1, 1, -1), SelfLoopError, "self-loop on node 1 is not allowed"),
        ((1, 1, MAX_WEIGHT + 1), SelfLoopError, "self-loop on node 1 is not allowed"),
        ((1, 1, 5.5), SelfLoopError, "self-loop on node 1 is not allowed"),
        ((1, 0, -1.5), GraphError, "arc (1, 0) weight -1.5 is not an int"),
        ((0.0, 1, -1), GraphError, "arc (0.0, 1) node id 0.0 is not an int"),
        ((0, 1.0, MAX_WEIGHT + 1), GraphError, "arc (0, 1.0) node id 1.0 is not an int"),
    ])
    def test_arc_with_several_faults_raises_the_first(self, arc, error, message):
        # order: id type, node range (src, then dst), self-loop, weight
        # type, negative weight, weight limit; a valid arc before the
        # faulty one changes nothing
        with pytest.raises(GraphError) as info:
            build_graph(2, [(0, 1, 1), arc])
        assert type(info.value) is error
        assert str(info.value) == message

    def test_zero_weight_is_legal(self):
        g = build_graph(2, [(0, 1, 0)])
        assert g.leaf_set(0) == ((1, 0),)

    def test_adjacency_is_immutable(self):
        g = build_graph(2, [(0, 1, 5)])
        assert isinstance(g.leaf_set(0), tuple)
        with pytest.raises(TypeError):
            g.leaf_set(0)[0] = (1, 99)

    def test_graph_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(build_graph(2, [(0, 1, 5)]))


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

    def test_empty_input_names_no_line(self):
        with pytest.raises(GraphError, match="^input is empty$") as exc:
            load_dimacs(io.StringIO(""))
        assert not isinstance(exc.value, DimacsParseError)
        # a blank line is a line read
        with pytest.raises(DimacsParseError, match="^line 1: missing problem line$"):
            load_dimacs(io.StringIO("\n"))

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
        arc, header = f"a 1 2 {field}", f"p sp {field} 0"
        with pytest.raises(DimacsParseError,
                           match=rf"^line 2: arc line fields must be ASCII digits: {re.escape(repr(arc))}$"):
            load_dimacs(io.StringIO(f"p sp 2 1\n{arc}\n"))
        with pytest.raises(DimacsParseError,
                           match=rf"^line 1: problem line counts must be ASCII digits: {re.escape(repr(header))}$"):
            load_dimacs(io.StringIO(f"{header}\n"))

    def test_node_count_cap(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_NODES", 3)
        assert load_dimacs(io.StringIO("p sp 3 0\n")).n == 3
        with pytest.raises(DimacsParseError, match=r"^line 2: node count 4 exceeds limit 3$"):
            load_dimacs(io.StringIO("c too big\np sp 4 0\n"))

    def test_node_count_cap_admits_paper_full(self):
        sizes = [kw.get("n") or kw["rows"] * kw["cols"] for _, kw in SUITES["paper_full"]]
        assert max(sizes) <= MAX_NODES

    @pytest.mark.parametrize("text", [
        "p sp 2 1\na 1 2 " + "0" * 5000 + "5\n",
        "p sp 2 1\na " + "0" * 5000 + "1 2 5\n",
        "c long count\n" + "p sp 2 " + "9" * 5000 + "\n",
    ], ids=["arc-weight", "arc-id", "problem-count"])
    def test_overlong_numbers_fail_with_line_number(self, text):
        # int() refuses digit strings past sys.get_int_max_str_digits()
        with pytest.raises(DimacsParseError, match=r"^line 2: number of 500[01] digits is too long$"):
            load_dimacs(io.StringIO(text))

    def test_ids_are_one_based_in_files(self):
        buf = io.StringIO()
        save_dimacs(build_graph(2, [(0, 1, 5)]), buf)
        assert buf.getvalue() == "p sp 2 1\na 1 2 5\n"

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(family="complete", n=60), "06e8b7d4553813d4ee5c51797642a646128f25cadf088c986df20bfcfe4f177a"),
        (dict(family="random", n=2000), "f35da7e63fba6ee0d969d734ceaab8b76ac605f8ea450c560cef9e3638aff65e"),
        (dict(family="grid", rows=40, cols=40), "b93746a98a397884363247c3429764be6cc49270cb27a2bcae5336b45aa3141b"),
        # the desk suite's three rows
        (dict(family="complete", n=500), "49bd4f3d0e5b3ab2f67100f03bd7bfb9fadd5f6c9359ae37331167349fa38d1b"),
        (dict(family="random", n=50000, m=16), "67a68e02b3a87886df0e6337edb59e62dcfe0e8644e8acfc56802c36ed2a5b32"),
        (dict(family="grid", rows=300, cols=300), "6624456155e59d5df2cbe2801a7998c980dbc5f5afc6c21dab5f5a84aff57554"),
    ])
    def test_saved_text_is_pinned(self, kwargs, digest):
        # SHA-256 of the file each family writes for seed 1; a change to
        # save_dimacs or to a generator's stream changes it
        buf = io.StringIO()
        save_dimacs(generate(GenSpec(seed=1, **kwargs)), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    def test_load_collapses_parallel_arcs(self):
        g = load_dimacs(io.StringIO("p sp 2 2\na 1 2 7\na 1 2 3\n"))
        assert g.arc_count == 1
        assert g.leaf_set(0) == ((1, 3),)


def respelled(text: str, spelling: str = "a\t{} {} {}") -> str:
    """The text with every arc line of single-spaced digit fields written
    another way, so that load_dimacs reads none of them in a run."""
    return re.sub(r"(?m)^a ([0-9]+) ([0-9]+) ([0-9]+)$", lambda m: spelling.format(*m.groups()), text)


def load_outcome(text: str):
    """The loaded graph, or the type and message of the GraphError."""
    try:
        return load_dimacs(io.StringIO(text))
    except GraphError as exc:
        return type(exc), str(exc)


def arc_lines(count: int, bad: int, arc: str) -> str:
    """A three-node file whose header is line 1, followed by ``count``
    arc lines, line ``bad`` of the file being ``arc``."""
    lines = ["a 1 2 5"] * count
    lines[bad - 2] = arc
    return f"p sp 3 {count}\n" + "".join(line + "\n" for line in lines)


# the stream types load_dimacs reads: a string, and a text wrapper over
# bytes like the file the CLI opens, whose decoder sits between a
# block's read(n) and the readline() that finishes it
OPENERS = pytest.mark.parametrize("opened", [
    io.StringIO,
    lambda text: io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8"),
], ids=["StringIO", "TextIOWrapper"])


class TestArcRuns:
    """The arc lines save_dimacs writes are read a run at a time; the
    same text spelled off that form is read line by line, and both must
    give the same graph or the same error."""

    @pytest.mark.parametrize("bad, arc, message", [
        (2, "a 1 1 5", "self-loop on node 1 is not allowed"),
        (_RUN_LINES + 1, "a 1 4 5", "node id 4 out of range [1, 3]"),
        (_RUN_LINES + 2, "a 0 2 5", "node id 0 out of range [1, 3]"),
        (_RUN_LINES + 3, f"a 2 3 {MAX_WEIGHT + 1}", f"weight {MAX_WEIGHT + 1} exceeds 32-bit limit {MAX_WEIGHT}"),
    ], ids=["first-of-run", "last-of-run", "first-past-run", "second-past-run"])
    def test_bad_arc_in_run_names_its_line(self, bad, arc, message):
        text = arc_lines(_RUN_LINES + 8, bad, arc)
        expected = (DimacsParseError, f"line {bad}: {message}")
        assert load_outcome(text) == expected
        assert load_outcome(respelled(text)) == expected

    @OPENERS
    def test_runs_across_blocks_load_the_same_graph(self, monkeypatch, opened):
        arcs = arc_lines(40, 9, "a 3 1 4294967295")[:-1]  # no final line end
        expected = build_graph(3, [(0, 1, 5), (2, 0, MAX_WEIGHT)])
        # the second text's comment of 2-byte characters crosses the
        # 16-character block edge
        for text in ("c made by hand\n" + arcs, "c made by hand\nc " + "é" * 20 + "\n" + arcs):
            assert load_outcome(respelled(text)) == expected
            for block in (1, 5, 8, 16, 64):
                monkeypatch.setattr(graph_module, "_BLOCK_CHARS", block)
                assert load_dimacs(opened(text)) == expected

    def test_bad_arc_across_a_block_boundary(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_BLOCK_CHARS", 64)
        # "p sp 3 12\n" is 10 characters and each arc line 8, so line 8
        # spans characters 58-65 and the first block ends inside it
        text = arc_lines(12, 8, "a 2 2 9")
        start = len("".join(text.splitlines(keepends=True)[:7]))
        assert start < 64 < start + 8
        assert load_outcome(text) == (DimacsParseError, "line 8: self-loop on node 2 is not allowed")

    @OPENERS
    def test_lines_longer_than_a_block(self, monkeypatch, opened):
        monkeypatch.setattr(graph_module, "_BLOCK_CHARS", 16)
        text = ("c " + "x" * 100 + "\np sp 3 3\na 1 2 5\na 2 3 " + "0" * 40 + "7\n"
                "a 3 1 1" + " " * 50)
        g = load_dimacs(opened(text))
        assert g == build_graph(3, [(0, 1, 5), (1, 2, 7), (2, 0, 1)])
        with pytest.raises(DimacsParseError, match=r"^line 4: node id 4 out of range \[1, 3\]$"):
            load_dimacs(opened(text.replace("a 2 3 0", "a 4 3 0")))


def collections_during(fn) -> int:
    """How many collections start while fn runs with the collector on and
    set to run at every allocation."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    try:
        gc.enable()
        gc.set_threshold(1)
        fn()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    return len(starts)


def raising_leaf_lists():
    yield [(1, 4)]
    raise GraphError("leaf list failed")


class TestGcPause:
    """The builders run without cyclic collections and leave the
    collector as they found it."""

    GRID = GenSpec(family="grid", rows=64, cols=64, seed=1)

    def test_builds_run_few_collections(self):
        g = generate(self.GRID)
        buf = io.StringIO()
        save_dimacs(g, buf)
        text = buf.getvalue()
        arcs = arc_list(g)
        # unguarded, each of these runs thousands of collections; the few
        # left are set off by the objects made around the guarded body
        assert collections_during(lambda: load_dimacs(io.StringIO(text))) <= 20
        assert collections_during(lambda: build_graph(g.n, arcs)) <= 20
        assert collections_during(lambda: generate(self.GRID)) <= 20
        # the count itself works: unguarded allocation collects at once
        assert collections_during(lambda: [(i, i) for i in range(5000)]) > 1000

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("build, error", [
        (lambda: load_dimacs(io.StringIO("p sp 3 2\na 1 2 5\na 2 3 7\n")), None),
        (lambda: load_dimacs(io.StringIO("p sp 3 3\na 1 2 5\na 2 x 7\na 3 1 1\n")), DimacsParseError),
        (lambda: build_graph(3, [(0, 1, 5), (1, 2, 7)]), None),
        (lambda: build_graph(3, [(0, 1, 5), (1, 3, 7)]), NodeOutOfRangeError),
        (lambda: Graph(iter([[(1, 4)], []])), None),
        (lambda: Graph(raising_leaf_lists()), GraphError),
    ])
    def test_collector_state_is_restored(self, enabled, build, error):
        before = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if error is None:
                assert isinstance(build(), Graph)
            else:
                with pytest.raises(error):
                    build()
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if before else gc.disable()


def test_graph_freezes_leaf_lists_into_tuples():
    g = Graph([(leaf, 2 * leaf)] for leaf in (1, 2, 0))
    assert (g.n, g.arc_count) == (3, 3)
    assert g._adj == (((1, 2),), ((2, 4),), ((0, 0),))  # tuples, not lists
    assert g == build_graph(3, [(0, 1, 2), (1, 2, 4), (2, 0, 0)])


def saved_text(g: Graph) -> str:
    buf = io.StringIO()
    save_dimacs(g, buf)
    return buf.getvalue()


def assert_one_object_per_value(values: list[int]) -> None:
    values = [x for x in values if x > 256]  # CPython caches ints up to 256 anyway
    assert len(values) > len(set(values))
    assert len(set(map(id, values))) == len(set(values))


class TestSharedWeights:
    """Every builder stores a weight below the shared table's length as
    the table's one int object for that value."""

    GRID = GenSpec(family="grid", rows=64, cols=64, seed=1)

    @pytest.mark.parametrize("spelling", ["a {} {} {}", "a\t{} {} {}"], ids=["run", "line"])
    def test_equal_weights_of_a_loaded_grid_are_one_object(self, spelling):
        g = load_dimacs(io.StringIO(respelled(saved_text(generate(self.GRID)), spelling)))
        assert_one_object_per_value([w for _, _, w in arc_list(g)])

    def test_generated_built_and_loaded_graphs_share_weights(self):
        g = generate(self.GRID)
        loaded = load_dimacs(io.StringIO(saved_text(g)))
        # int(str(w)) makes a new object of equal value
        built = build_graph(g.n, [(u, v, int(str(w))) for u, v, w in arc_list(g)])
        assert loaded == built == g
        for (_, _, w), (_, _, lw), (_, _, bw) in zip(arc_list(g), arc_list(loaded), arc_list(built)):
            assert w is lw is bw

    @pytest.mark.parametrize("spelling", ["a {} {} {}", "a\t{} {} {}"], ids=["run", "line"])
    def test_weights_past_the_table_load_unchanged(self, spelling):
        arcs = [(1, 2, 4095), (1, 3, 4096), (2, 3, MAX_WEIGHT), (3, 1, 700)]
        text = "p sp 3 4\n" + "".join(spelling.format(*arc) + "\n" for arc in arcs)
        g = load_dimacs(io.StringIO(text))
        assert arc_list(g) == [(u - 1, v - 1, w) for u, v, w in arcs]
        assert g == build_graph(3, [(u - 1, v - 1, w) for u, v, w in arcs])

    def test_one_arc_run_shares_its_weight(self):
        g = load_dimacs(io.StringIO("p sp 2 1\na 1 2 700\n"))
        assert g.leaf_set(0)[0][1] is graph_module._SHARED_INTS[700]

    def test_loaded_grid_retains_fewer_bytes_per_arc(self):
        stream = io.StringIO(saved_text(generate(self.GRID)))
        # a full collection empties the interpreter's free lists, so every
        # tuple the load keeps is a new, traced allocation
        gc.collect()
        tracemalloc.start()
        try:
            g = load_dimacs(stream)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # CPython 3.10-3.13: 124.2-127.6 bytes per arc with one weight
        # and one id object per arc, 103.5-106.9 with the weights shared,
        # 83.9-84.4 with the ids shared too
        assert retained / g.arc_count < 92


class TestSharedIds:
    """Every builder takes a graph's leaf ids from one table per build,
    so equal ids in one graph are one int object."""

    GRID = GenSpec(family="grid", rows=64, cols=64, seed=1)

    @pytest.mark.parametrize("spelling", ["a {} {} {}", "a\t{} {} {}"], ids=["run", "line"])
    def test_equal_ids_of_a_loaded_grid_are_one_object(self, spelling):
        g = load_dimacs(io.StringIO(respelled(saved_text(generate(self.GRID)), spelling)))
        assert_one_object_per_value([v for _, v, _ in arc_list(g)])

    def test_equal_ids_of_a_built_grid_are_one_object(self):
        g = generate(self.GRID)
        # int(str(v)) makes a new object of equal value
        built = build_graph(g.n, [(u, int(str(v)), w) for u, v, w in arc_list(g)])
        assert built == g
        assert_one_object_per_value([v for _, v, _ in arc_list(built)])

    @pytest.mark.parametrize("spec", [
        GRID,
        GenSpec(family="complete", n=300, seed=1),
        GenSpec(family="random", n=5000, m=4, seed=1),  # past the weight table
    ], ids=["grid", "complete", "random"])
    def test_equal_ids_of_a_generated_graph_are_one_object(self, spec):
        assert_one_object_per_value([v for _, v, _ in arc_list(generate(spec))])

    def test_header_alone_allocates_no_id_table(self):
        n = 1 << 16
        stream = io.StringIO(f"p sp {n} 0\n")
        gc.collect()
        tracemalloc.start()
        try:
            g = load_dimacs(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == n
        # CPython 3.11: 73.8 bytes per declared node, one empty leaf list
        # each; an id table sized by the header would add about 40
        assert peak / n < 80


def labels_from_dist(n: int, dist: list) -> LabelState:
    return LabelState([None] * n, list(dist))


class TestFindShorterArms:
    """``collect_origins`` finds the roots of the shorter arms: the arcs
    from a labeled node whose leaf is unlabeled or cheaper through it."""

    def test_exact_distances_have_none(self):
        g = gen_random_sparse(40, 0.2, seed=5)
        dist, _ = dijkstra(g, 0)
        assert collect_origins(g, labels_from_dist(g.n, dist)) == []

    def test_overshoot_is_reported(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
        labels = labels_from_dist(3, [0, 1, 5])
        assert collect_origins(g, labels) == [1]

    def test_lone_labeled_source_without_arcs(self):
        g = build_graph(3, [(1, 2, 4)])
        labels = labels_from_dist(3, [0, None, None])
        assert collect_origins(g, labels) == []

    def test_arc_to_wild_leaf_counts(self):
        g = build_graph(2, [(0, 1, 3)])
        labels = labels_from_dist(2, [0, None])
        assert collect_origins(g, labels) == [0]

    def test_labeled_node_with_region_zero_is_checked(self):
        # nodes 2 and 3 have labels no first pass gave them (region 0), as
        # wild leaves relabeled by the correction do; 2's arc to 3 violates
        g = build_graph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        labels = LabelState([None, 0, 1, 2], [0, 2, 5, 100])
        assert collect_origins(g, labels) == [2]

    def test_correction_from_bare_source_certifies(self):
        g = build_graph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        labels, m = contest_run(g, LabelState.initial(4, 0), [0])
        assert m.anomalies == 3
        assert labels.dist == dijkstra(g, 0)[0] == [0, 2, 5, 6]
        assert collect_origins(g, labels) == []


arc_lists = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 30)),
            max_size=40,
        ),
    )
)


# up to 12 nodes and 40 arcs, so isolated nodes and parallel arcs both
# occur; weights include both bounds, and an optional last arc may have
# ids or a weight build_graph must reject
round_trip_weights = st.one_of(st.integers(0, 30), st.sampled_from([0, MAX_WEIGHT]))
odd_weights = st.one_of(
    round_trip_weights,
    st.sampled_from([-1, MAX_WEIGHT + 1, True, False, 2.0, 5.5, "5", None]),
    st.floats(allow_nan=False),
)


def odd_ids(n: int):
    return st.one_of(st.integers(0, n - 1), st.sampled_from([True, False, 0.0, 1.0, 1.5]))


round_trip_cases = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.builds(
                lambda u, step, w: (u, (u + step) % n, w),
                st.integers(0, n - 1), st.integers(1, n - 1), round_trip_weights,
            ),
            max_size=40,
        ),
        st.lists(st.tuples(odd_ids(n), odd_ids(n), odd_weights), max_size=1),
    )
)


@given(round_trip_cases)
@settings(max_examples=200, deadline=None)
def test_round_trip_identity_property(case):
    """Every graph build_graph accepts saves and loads back equal."""
    n, arcs, odd = case
    try:
        g = build_graph(n, arcs + odd)
    except GraphError:
        return
    buf = io.StringIO()
    save_dimacs(g, buf)
    buf.seek(0)
    assert load_dimacs(buf) == g


@given(arc_lists)
@settings(max_examples=120, deadline=None)
def test_no_shorter_arms_under_oracle_labels(data):
    n, raw = data
    g = build_graph(n, [(u, v, w) for u, v, w in raw if u != v])
    dist, _ = dijkstra(g, 0)
    assert collect_origins(g, labels_from_dist(n, dist)) == []


# few nodes and weights, so parallel arcs are common
parallel_arc_lists = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 9)).filter(
                lambda a: a[0] != a[1]
            ),
            max_size=30,
        ),
    )
)
filler_lines = st.lists(st.sampled_from(["", "   ", "c", "c comment 1 2 3", "cx", "\t"]), max_size=2)


@given(parallel_arc_lists, st.data())
@settings(max_examples=200, deadline=None)
def test_load_equals_build_with_parallel_arcs(case, data):
    n, arcs = case
    lines = data.draw(filler_lines) + [f"p sp {n} {len(arcs)}"]
    for u, v, w in arcs:
        lines += data.draw(filler_lines)
        lines.append(f"a {u + 1} {v + 1} {w}")
    lines += data.draw(filler_lines)
    loaded = load_dimacs(io.StringIO("\n".join(lines) + "\n"))
    built = build_graph(n, arcs)
    assert loaded == built
    assert loaded.arc_count == built.arc_count
    # reference: each leaf at its first arc's position, with its least weight
    expected: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, w in arcs:
        expected[u][v] = min(w, expected[u].get(v, w))
    assert [loaded.leaf_set(v) for v in range(n)] == [tuple(e.items()) for e in expected]
    assert loaded.arc_count == sum(map(len, expected))


# mostly valid arcs on four nodes, so runs get long before a fault
node_ids = st.sampled_from([1, 2, 3, 4] * 3 + [0, 5, "01", "0000000003", "99999999999"])
weights = st.sampled_from([0, 1, 7, 42, 1000] * 3 + [MAX_WEIGHT, MAX_WEIGHT + 1, "0042", "9999999999", "12345678901"])
dimacs_lines = st.one_of(
    st.tuples(node_ids, node_ids, weights).map(lambda a: "a {} {} {}".format(*a)),
    st.sampled_from(["c note", "", "p sp 4 3", "a 1 2", "a 1 2 3\r", " a 1 2 3", "a 1 2 -3"]),
)


@given(
    st.sampled_from(["p sp 4 {}\n", "c first\np sp 4 {}\n", ""]),
    st.lists(dimacs_lines, max_size=40),
    st.booleans(),
    st.sampled_from([1, 3, 16, 65536]),
    st.sampled_from(["a\t{} {} {}", "a  {} {} {}", "a {} {}\t{}", "a {} {} {} "]),
)
@settings(max_examples=300, deadline=None)
def test_run_and_line_reads_agree(header, lines, final_newline, block, spelling):
    text = header.format(len(lines)) + "\n".join(lines) + ("\n" if final_newline else "")
    with mock.patch.object(graph_module, "_BLOCK_CHARS", block):
        assert load_outcome(text) == load_outcome(respelled(text, spelling))


VALID_DIMACS = "c fuzz base\np sp 4 5\na 1 2 3\na 2 3 4\na 1 2 1\nc mid\na 3 4 0\na 4 1 4294967295\n"

# one edit replaces `span` characters at `pos` by `payload`: insertions,
# deletions and substitutions of the characters the format is made of
edits = st.lists(
    st.tuples(
        st.integers(0, len(VALID_DIMACS)),
        st.integers(0, 4),
        st.one_of(
            st.text(alphabet="apsc 0123456789\n\t-+_x.\u0661\u00b2\u00e9", max_size=6),
            st.just("7" * 4400),
        ),
    ),
    max_size=6,
)


def load_or_graph_error(stream) -> None:
    """Loading either succeeds, and the graph round-trips, or raises
    GraphError; any other exception fails the test."""
    # bounds the allocation a fuzzed header can ask for
    with mock.patch.object(graph_module, "MAX_NODES", 1000):
        try:
            g = load_dimacs(stream)
        except GraphError:
            return
    assert isinstance(g, Graph)
    buf = io.StringIO()
    save_dimacs(g, buf)
    buf.seek(0)
    assert load_dimacs(buf) == g


@given(edits)
@settings(max_examples=400, deadline=None)
def test_fuzz_mutated_file_loads_or_raises_graph_error(edit_list):
    text = VALID_DIMACS
    for pos, span, payload in edit_list:
        pos %= len(text) + 1
        text = text[:pos] + payload + text[pos + span:]
    load_or_graph_error(io.StringIO(text))


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_fuzz_arbitrary_text_loads_or_raises_graph_error(text):
    load_or_graph_error(io.StringIO(text))


@given(st.binary())
@settings(max_examples=200, deadline=None)
def test_fuzz_arbitrary_bytes_loads_or_raises_graph_error(data):
    load_or_graph_error(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
