"""Weighted digraph model, label arrays, and DIMACS shortest-path I/O.

A graph is stored as one leaf list per root node: every node owns the
ordered list of (leaf, weight) pairs its out-arcs point to.  Graphs are
immutable after construction; solvers keep their working state in a
separate :class:`LabelState`.

Both validating constructors, :func:`build_graph` and
:func:`load_dimacs`, check each arc once as they read it and append it
to its root's leaf list.  They then replace each list in place by its
tuple before :class:`Graph` takes them, so list i is freed as tuple i is
made: a build peaks at the graph it returns plus the leaf lists not yet
frozen, never every list and every tuple at once.  A graph keeps every
arc it is given, in input order, parallel arcs included.
Every solver and oracle relaxes each arc it scans, so a graph's
distances equal those of the graph with only the lightest arc of each
parallel group.

Both constructors and :class:`Graph` itself, which the generators feed,
pause the cyclic garbage collector while they allocate.  A build makes
one (leaf, weight) tuple per arc and one list and one tuple per node, so
a large one would otherwise set off thousands of collections, each
scanning young objects that cannot form a cycle.  That is safe because
the tuples, lists and ints a builder makes refer only to each other and
to ints: they hold no cycle, so reference counting frees every temporary
as before and a collection could find nothing among them.  Cyclic
garbage made elsewhere during a build (by a caller's arc iterator, or
another thread) waits for the first collection after it.  The
collector's previous state is restored when the build returns or raises.

Weights below 4096 are stored as one shared int object per value for the
whole process, taken from the table ``_SHARED_INTS``:
:func:`build_graph`, both arc paths of :func:`load_dimacs`, and the
generators, whose weights come from
:meth:`~lizardpath.generators.SplitMix64.ints`; ``randint`` and
``below`` give their draws in [0, 4096) as the same objects.  Leaf ids
are shared the same way within one graph: every builder takes them from
one table of id objects per build, which :func:`load_dimacs` grows to
the largest leaf id it has read, so a graph holds one int object per
node id, not one per arc.  Without the sharing, every arc whose weight
or leaf id is above 256 (CPython caches the ints up to 256) holds an int
object of its own, 32 bytes each; with it, a loaded grid-128² keeps
about 84 bytes per arc, random-50000 69 and complete-500 64.  Sharing is safe because
ints are immutable and no code tells equal values apart by identity, so
every value, comparison, saved file and counter is unchanged.  Its one
cost falls on the random family, whose leaves are scattered: the shared
id objects sit far apart in memory, so touching their reference counts
misses the cache, and a random-50000 load or generation takes a few
percent longer.  The weight table costs about 150 KB once, and covers
the generators' default weights, 1..1000, with room to spare.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from operator import eq, itemgetter
from typing import Iterable, TextIO

# Arc weights must fit an unsigned 32-bit integer; path totals are
# accumulated in plain Python ints, so no sum can overflow.
MAX_WEIGHT = 2**32 - 1

# Largest node count a DIMACS problem line or a build_graph call may
# declare.  Both allocate one leaf list per node before they read any
# arc, so an unbounded count would exhaust memory first.
MAX_NODES = 2**24

# load_dimacs reads its stream in blocks of this many characters.
_BLOCK_CHARS = 65536

# The longest run of arc lines load_dimacs splits and converts at once.
# Longer runs convert no faster, and their token lists raise peak memory.
_RUN_LINES = 512

# The pieces load_dimacs cuts a block into: a run of arc lines as
# save_dimacs writes them, marked by the empty group after it, or else one
# line.  A run's ids start at 1 and its weights have no leading zero, ten
# digits at most, so every number of a run is a JSON integer that int()
# would read the same.  The group follows the repeat, so sre sets it once
# per match instead of once per line.
_PIECES = re.compile(
    rf"(?:a [1-9][0-9]{{0,9}} [1-9][0-9]{{0,9}} (?:0|[1-9][0-9]{{0,9}})\n){{1,{_RUN_LINES}}}()"
    r"|[^\n]*\n|[^\n]+"
)

# One int object per weight below its length, shared by every graph the
# builders make (see the module docstring).
_SHARED_INTS = tuple(range(1 << 12))
_SHARED_LEN = len(_SHARED_INTS)

LeafList = tuple[tuple[int, int], ...]


@contextmanager
def _gc_paused():
    """Run the body with the cyclic collector off; turn it back on
    afterwards only if it was on when the body started.

    Used as a decorator, it pauses the collector for each call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class GraphError(ValueError):
    """Base class for graph construction and parsing failures."""


class NodeOutOfRangeError(GraphError):
    def __init__(self, node: int, n: int):
        super().__init__(f"node id {node} out of range [0, {n})")
        self.node = node


class NegativeWeightError(GraphError):
    def __init__(self, src: int, dst: int, weight: int):
        super().__init__(f"arc ({src}, {dst}) has negative weight {weight}")
        self.src = src
        self.dst = dst


class WeightTooLargeError(GraphError):
    def __init__(self, src: int, dst: int, weight: int):
        super().__init__(
            f"arc ({src}, {dst}) weight {weight} exceeds 32-bit limit {MAX_WEIGHT}"
        )


class SelfLoopError(GraphError):
    def __init__(self, node: int):
        super().__init__(f"self-loop on node {node} is not allowed")
        self.node = node


class DimacsParseError(GraphError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class HeaderMismatchError(GraphError):
    def __init__(self, declared: int, actual: int):
        super().__init__(f"header declares {declared} arcs, file contains {actual}")
        self.declared = declared
        self.actual = actual


class Graph:
    """Immutable weighted digraph.

    Freezes any iterable of (leaf, weight) iterables into tuples and
    validates nothing; :func:`build_graph` and :func:`load_dimacs` are
    the validating constructors.  ``n`` is the number of leaf lists and
    ``arc_count`` their total length.  Safe to share across threads;
    nothing in the solver stack ever mutates a built graph.  Graphs
    compare by value and are unhashable.
    """

    __slots__ = ("n", "arc_count", "_adj")

    @_gc_paused()
    def __init__(self, leaf_lists: Iterable[Iterable[tuple[int, int]]]):
        self._adj = adj = tuple(map(tuple, leaf_lists))
        self.n = len(adj)
        self.arc_count = sum(map(len, adj))

    def leaf_set(self, v: int) -> LeafList:
        """Ordered (leaf, weight) pairs of node v's out-arcs; () if none."""
        if not 0 <= v < self.n:
            raise NodeOutOfRangeError(v, self.n)
        return self._adj[v]

    def out_degree(self, v: int) -> int:
        return len(self.leaf_set(v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self):
        return f"Graph(n={self.n}, arcs={self.arc_count})"


@_gc_paused()
def build_graph(n: int, arcs: Iterable[tuple[int, int, int]]) -> Graph:
    """Validate and assemble a graph from an (src, dst, weight) arc list.

    ``n`` may be at most :data:`MAX_NODES`, as in a DIMACS header.
    Each arc is checked once and appended to its root's leaf list, with
    its leaf taken from one table of ``n`` id objects, so the graph
    holds one int object per node id.  A node id must be an ``int``
    (a ``bool`` reads as 0 or 1), and a weight an ``int`` but not a
    ``bool``; of an arc with several faults, the first in the order id
    type, node range (src, then dst), self-loop, weight type, negative
    weight, weight limit is raised.  Every arc is kept, in input order,
    parallel arcs included.
    """
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {n}")
    if n > MAX_NODES:
        raise GraphError(f"node count {n} exceeds limit {MAX_NODES}")
    lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ids = list(range(n))
    # int ids, so the handler tells a fault of the arcs iterable itself
    # from one of an arc's ids
    src = dst = 0
    try:
        for src, dst, w in arcs:
            if not (0 <= src < n and 0 <= dst < n and src != dst and type(w) is int and 0 <= w <= MAX_WEIGHT):
                raise _arc_error(src, dst, w, n)
            lists[src].append((ids[dst], _SHARED_INTS[w] if w < _SHARED_LEN else w))
    except TypeError:
        # an id that is not an int fails where it indexes a list, or in
        # the range test if it does not compare with ints
        if isinstance(src, int) and isinstance(dst, int):
            raise
        raise _arc_error(src, dst, w, n) from None
    return _frozen(lists)


def _frozen(lists: list[list[tuple[int, int]]]) -> Graph:
    """The graph of a builder's own leaf lists, each replaced in place
    by its tuple first, so list i is freed as tuple i is made and the
    build never holds every list and every tuple at once."""
    for i, leaves in enumerate(lists):
        lists[i] = tuple(leaves)
    # Graph takes a tuple as it is, without a copy
    return Graph(lists)


def _arc_error(src: int, dst: int, w: int, n: int) -> GraphError:
    """The typed error :func:`build_graph` raises for a rejected arc."""
    for node in (src, dst):
        if not isinstance(node, int):
            return GraphError(f"arc ({src!r}, {dst!r}) node id {node!r} is not an int")
    for node in (src, dst):
        if not 0 <= node < n:
            return NodeOutOfRangeError(node, n)
    if src == dst:
        return SelfLoopError(src)
    if type(w) is not int:
        return GraphError(f"arc ({src}, {dst}) weight {w!r} is not an int")
    if w < 0:
        return NegativeWeightError(src, dst, w)
    return WeightTooLargeError(src, dst, w)


class LabelState:
    """Per-node labeling arrays shared by the solver pipeline.

    ``parent[v]`` is the predecessor on the current best path (None for
    the source and unvisited nodes), and ``dist[v]`` the current total
    weight (None = unset).  The first pass's layer ids are not kept here:
    :func:`~lizardpath.hdm.hdm_run` returns them as ``HdmOutput.region``.
    """

    __slots__ = ("parent", "dist")

    def __init__(self, parent: list[int | None], dist: list[int | None]):
        self.parent = parent
        self.dist = dist

    @classmethod
    def initial(cls, n: int, source: int) -> LabelState:
        if not 0 <= source < n:
            raise NodeOutOfRangeError(source, n)
        parent: list[int | None] = [None] * n
        dist: list[int | None] = [None] * n
        dist[source] = 0
        return cls(parent, dist)


@_gc_paused()
def load_dimacs(stream: TextIO) -> Graph:
    """Parse the 9th DIMACS Challenge shortest-path text format.

    Accepts ``c`` comment lines, a single ``p sp <n> <m>`` header, and
    ``a <src> <dst> <weight>`` arc lines with 1-based node ids.  Numbers
    are plain ASCII digit strings: no sign, no ``_`` separators, no
    other scripts' digits.  The header may declare at most
    :data:`MAX_NODES` nodes.  A stream that fails to decode raises
    :class:`GraphError`, before any fault in the lines of the same block,
    and so does an empty one.

    One pass over blocks of :data:`_BLOCK_CHARS` characters, each
    finished with the rest of its last line, so memory never holds the
    whole text.  One pattern, :data:`_PIECES`, cuts each block into runs
    of up to :data:`_RUN_LINES` arc lines spelled as :func:`save_dimacs`
    writes them and single lines.  A run is split and converted at once,
    and its arcs are checked together; a line is read on its own, and
    the header allocates one leaf list per node.  Either way each arc is
    checked once (errors name the line and the ids as written) and
    appended to its root's list, its leaf the 0-based id object of one
    table per load.  Every arc line is kept, in file order, parallel
    arcs included, and ``m`` must equal their number.
    """
    n = -1
    declared = -1
    lists: list[list[tuple[int, int]]] = []
    # ids[v] is the one int object of 0-based leaf id v - 1; the table
    # grows to the largest leaf id read, so a header alone costs nothing
    ids = [-1]
    lineno = 0
    try:
        while text := stream.read(_BLOCK_CHARS):
            if text[-1] != "\n":
                text += stream.readline()
            for piece in _PIECES.finditer(text):
                if piece.lastindex:
                    lineno = _add_arc_run(piece.group(), lists, ids, n, lineno)
                    continue
                line = piece.group()
                lineno += 1
                fields = line.split()
                if not fields:
                    continue
                kind = fields[0]
                if kind == "a":
                    if len(fields) != 4:
                        raise DimacsParseError(lineno, f"malformed arc line: {line.strip()!r}")
                    u, v, w = _numbers(lineno, line, fields[1:], "arc line fields")
                    if fault := _arc_fault(u, v, w, n):
                        raise DimacsParseError(lineno, fault)
                    if v >= len(ids):
                        ids += range(len(ids) - 1, v)
                    lists[u - 1].append((ids[v], _SHARED_INTS[w] if w < _SHARED_LEN else w))
                elif kind.startswith("c"):
                    continue
                elif kind == "p":
                    if n >= 0:
                        raise DimacsParseError(lineno, "duplicate problem line")
                    if len(fields) != 4 or fields[1] != "sp":
                        raise DimacsParseError(lineno, f"malformed problem line: {line.strip()!r}")
                    n, declared = _numbers(lineno, line, fields[2:], "problem line counts")
                    if n > MAX_NODES:
                        raise DimacsParseError(lineno, f"node count {n} exceeds limit {MAX_NODES}")
                    lists = [[] for _ in range(n)]
                else:
                    raise DimacsParseError(lineno, f"unknown line type {kind!r}")
    except UnicodeDecodeError as exc:
        raise GraphError(f"input is not UTF-8 text: {exc.reason}") from None
    # the last match still holds the last block; free it before the graph
    piece = None
    if n < 0:
        if not lineno:
            raise GraphError("input is empty")
        raise DimacsParseError(lineno, "missing problem line")
    g = _frozen(lists)
    if g.arc_count != declared:
        raise HeaderMismatchError(declared, g.arc_count)
    return g


def _add_arc_run(
    run: str, lists: list[list[tuple[int, int]]], ids: list[int], n: int, lineno: int
) -> int:
    """Check and append the arcs of one run that :data:`_PIECES` cut,
    whose first line follows line ``lineno``; return the number of its
    last line.

    The run's numbers are converted by one ``json.loads`` call, which
    costs less than a ``split`` and an ``int`` per number, and the whole
    run is checked at once; only a run that fails is scanned for its
    first bad arc, which raises the error the line on its own would.
    The run's leaves come from the id table ``ids`` (``ids[v]`` is
    ``v - 1``), grown first to the run's largest leaf id, and a run
    whose weights all lie below the table's length takes its weights
    from :data:`_SHARED_INTS`, each column in one call.
    """
    # "a 1 2 5\na 3 4 6\n" -> "[1,2,5,3,4,6]"
    nums = json.loads("[" + run[2:-1].replace("\na ", " ").replace(" ", ",") + "]")
    us = nums[0::3]
    vs = nums[1::3]
    ws = nums[2::3]
    v_max = max(vs)
    w_max = max(ws)
    # the pattern already keeps every id at 1 or more
    if max(us) > n or v_max > n or w_max > MAX_WEIGHT or any(map(eq, us, vs)):
        for i, (u, v, w) in enumerate(zip(us, vs, ws), start=lineno + 1):
            if fault := _arc_fault(u, v, w, n):
                raise DimacsParseError(i, fault)
    if v_max >= len(ids):
        ids += range(len(ids) - 1, v_max)
    if w_max < _SHARED_LEN:
        ws = _items(_SHARED_INTS, ws)
    for u, leaf in zip(us, zip(_items(ids, vs), ws)):
        lists[u - 1].append(leaf)
    return lineno + len(us)


def _items(table: list[int] | tuple[int, ...], keys: list[int]) -> tuple[int, ...]:
    """The items of ``table`` at ``keys``, in one call."""
    # itemgetter of one key returns the item, not a 1-tuple
    return itemgetter(*keys)(table) if len(keys) > 1 else (table[keys[0]],)


def _numbers(lineno: int, line: str, fields: list[str], what: str) -> list[int]:
    """The values of the number ``fields`` of one DIMACS line, which
    ``what`` names in the error for a field that is not ASCII digits."""
    if not (line.isascii() and all(map(str.isdigit, fields))):
        raise DimacsParseError(lineno, f"{what} must be ASCII digits: {line.strip()!r}")
    try:
        return list(map(int, fields))
    except ValueError:
        # int() refuses digit strings past sys.get_int_max_str_digits()
        raise DimacsParseError(lineno, f"number of {max(map(len, fields))} digits is too long") from None


def _arc_fault(u: int, v: int, w: int, n: int) -> str | None:
    """Why DIMACS arc ``a u v w`` (ids as written) is bad; None if good."""
    if n < 0:
        return "arc line before problem line"
    # one test per id: a loop over (u, v) would cost every good line a tuple
    if not 1 <= u <= n:
        return f"node id {u} out of range [1, {n}]"
    if not 1 <= v <= n:
        return f"node id {v} out of range [1, {n}]"
    if u == v:
        return f"self-loop on node {u} is not allowed"
    if w > MAX_WEIGHT:
        return f"weight {w} exceeds 32-bit limit {MAX_WEIGHT}"


def save_dimacs(g: Graph, stream: TextIO) -> None:
    """Write a graph in DIMACS shortest-path format with 1-based ids,
    one ``write`` per node's arcs."""
    write = stream.write
    write(f"p sp {g.n} {g.arc_count}\n")
    for src, leaves in enumerate(g._adj, start=1):
        write("".join([f"a {src} {dst + 1} {w}\n" for dst, w in leaves]))
