"""Deterministic instance generators for the three benchmark families.

All randomness flows through one splitmix64 stream per seed, so
identical specs produce bit-identical graphs on every platform and
Python version.

The stream is computed in blocks of ``_BLOCK`` outputs.  A block's
states are packed as 128-bit lanes of one Python int, and the splitmix64
mix runs once on that int: each lane is masked back to 64 bits after
every shift and every multiply, and a 64x64-bit product fits inside its
lane, so no lane carries into the next.  The block is unpacked through
an ``array("Q")`` of its little-endian bytes, byteswapped on big-endian
hosts, so every host reads the same values.  Each output is exactly the
scalar splitmix64 output at its position.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count

from . import graph
from .graph import Graph, GraphError

_RANGE = 1 << 64
_MASK64 = _RANGE - 1
_GAMMA = 0x9E3779B97F4A7C15

# outputs per block: the cost per output is flat from about 1024 to 4096
# and rises on either side, and a short stream pays for a whole block
_BLOCK = 1024
_LANE_BYTES = 16
_BIG_ENDIAN = sys.byteorder == "big"

# Most arcs a spec may ask for: twice the ~4M of each paper_full instance.
# Nodes are capped by graph.MAX_NODES, so every generated file loads back.
MAX_ARCS = 2**23


class DegreeTooLargeError(GraphError):
    def __init__(self, m: int, n: int):
        super().__init__(f"out-degree {m} must be smaller than node count {n}")


def _pack(lanes: list[int]) -> int:
    """One int holding each value (< 2**64) in a 128-bit lane, lane 0
    lowest."""
    words = array("Q", [0]) * (2 * len(lanes))
    words[::2] = array("Q", lanes)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


_ONES = _pack([1] * _BLOCK)
_LANES = _MASK64 * _ONES
# lane i steps i+1 gammas past the block's base state
_STEPS = _pack([(i + 1) * _GAMMA & _MASK64 for i in range(_BLOCK)])


def _block(base: int) -> array:
    """The _BLOCK splitmix64 outputs that follow state ``base``."""
    z = ((base & _MASK64) * _ONES + _STEPS) & _LANES
    z = ((z ^ ((z >> 30) & _LANES)) * 0xBF58476D1CE4E5B9) & _LANES
    z = ((z ^ ((z >> 27) & _LANES)) * 0x94D049BB133111EB) & _LANES
    z ^= (z >> 31) & _LANES
    words = array("Q", z.to_bytes(_BLOCK * _LANE_BYTES, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2]


def _span_limit(lo: int, hi: int) -> tuple[int, int]:
    """The size of [lo, hi] and the largest raw output that maps into it
    without bias."""
    span = hi - lo + 1
    if not 0 < span <= _RANGE:
        raise ValueError(f"range [{lo}, {hi}] must hold between 1 and 2**64 integers")
    return span, _MASK64 - _RANGE % span


class SplitMix64:
    """splitmix64 PRNG (Steele, Lea & Flood's published constants).

    ``randint``, ``below`` and the iterators of ``ints`` all read one
    stream, and none reads a value ahead of its own draw, so any
    interleaving of them consumes the stream in the scalar order.  The
    iterators of ``ints(0, 2**64 - 1)`` yield the raw stream: with a
    span of 2**64 no value is rejected and none is changed.
    """

    __slots__ = ("_raw",)

    def __init__(self, seed: int):
        self._raw = chain.from_iterable(map(_block, count(seed & _MASK64, _BLOCK * _GAMMA)))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], unbiased via rejection."""
        span, limit = _span_limit(lo, hi)
        for x in self._raw:
            if x <= limit:
                return lo + x % span

    def below(self, n: int) -> int:
        return self.randint(0, n - 1)

    def ints(self, lo: int, hi: int) -> Iterator[int]:
        """An endless iterator of ``randint(lo, hi)`` draws.

        When the range lies inside the graph module's shared weight
        table, the draws are that table's int objects, so a generated
        graph holds one object per weight value, as a loaded one does.
        """
        span, limit = _span_limit(lo, hi)
        shared = graph._SHARED_INTS
        value = shared[lo : hi + 1].__getitem__ if 0 <= lo and hi < len(shared) else lo.__add__
        return map(value, map(span.__rmod__, filter(limit.__ge__, self._raw)))


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance.

    ``n`` sizes the complete and random families and ``rows``/``cols``
    the grid; ``m`` is the per-node out-degree of the random family, and
    0 means the default, ceil(log2 n).  A random spec needs an effective
    out-degree below ``n``.  A nonzero size or degree that
    the family does not use is rejected, not ignored.  Weights lie in
    1..graph.MAX_WEIGHT, so every generated graph saves to a file that
    loads back.
    """

    family: str  # a key of FAMILIES
    n: int = 0
    rows: int = 0
    cols: int = 0
    m: int = 0
    weight_range: tuple[int, int] = (1, 1000)
    seed: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GraphError(f"unknown family {self.family!r}")
        w_min, w_max = self.weight_range
        if not 1 <= w_min <= w_max <= graph.MAX_WEIGHT:
            raise GraphError(
                f"weight range {self.weight_range} must satisfy 1 <= min <= max <= {graph.MAX_WEIGHT}"
            )
        if self.m < 0:
            raise GraphError(f"out-degree {self.m} must not be negative")
        if self.family == "grid" and self.n:
            raise GraphError("grid is sized by rows and cols, not n")
        if self.family != "random" and self.m:
            raise GraphError(f"{self.family} takes no out-degree m")
        if self.family != "grid" and (self.rows or self.cols):
            raise GraphError(f"{self.family} is sized by n, not rows or cols")
        if self.family == "grid":
            if self.rows < 1 or self.cols < 1:
                raise GraphError("grid needs rows >= 1 and cols >= 1")
        elif self.n < 1:
            raise GraphError("node count must be at least 1")
        if self.node_count > graph.MAX_NODES:
            raise GraphError(f"{self.node_count} nodes exceed limit {graph.MAX_NODES}")
        if self.arc_count > MAX_ARCS:
            raise GraphError(f"{self.arc_count} arcs exceed limit {MAX_ARCS}")
        if self.family == "random" and self.effective_m() >= self.n:
            raise DegreeTooLargeError(self.effective_m(), self.n)

    @property
    def node_count(self) -> int:
        return self.rows * self.cols if self.family == "grid" else self.n

    @property
    def arc_count(self) -> int:
        """Arcs the family generates from this spec, computed without
        generating them."""
        if self.family == "complete":
            return self.n * (self.n - 1)
        if self.family == "random":
            return self.n * self.effective_m()
        return 2 * (self.rows * (self.cols - 1) + self.cols * (self.rows - 1))

    def effective_m(self) -> int:
        return self.m if self.m > 0 else math.ceil(math.log2(self.n))


def gen_complete(spec: GenSpec) -> Graph:
    """Every node points to all n-1 others; E = n(n-1).

    Weights are drawn in (root, leaf) order from the seed stream.
    """
    n = spec.n
    weights = SplitMix64(spec.seed).ints(*spec.weight_range)

    def leaf_lists():
        for v in range(n):
            # zip reads the leaves first, so it draws no weight past them
            yield list(zip(chain(range(v), range(v + 1, n)), weights))

    return Graph(leaf_lists())


def gen_random(spec: GenSpec) -> Graph:
    """Each node gets exactly m distinct random out-neighbors; E = n*m.

    Neighbors are rejection-sampled (m is far below n in every benchmark
    configuration), and each neighbor's weight is drawn right after it.
    """
    n = spec.n
    m = spec.effective_m()
    rng = SplitMix64(spec.seed)
    node = rng.ints(0, n - 1).__next__
    weight = rng.ints(*spec.weight_range).__next__

    def leaf_lists():
        for v in range(n):
            seen = {v}
            leaves = []
            for _ in range(m):
                leaf = node()
                while leaf in seen:
                    leaf = node()
                seen.add(leaf)
                leaves.append((leaf, weight()))
            yield leaves

    return Graph(leaf_lists())


def gen_grid(spec: GenSpec) -> Graph:
    """rows x cols lattice with both directions of every lattice edge.

    Each node points to its 2-4 orthogonal neighbors, so
    E = 2 * (rows*(cols-1) + cols*(rows-1)).
    """
    rows, cols = spec.rows, spec.cols
    weight = SplitMix64(spec.seed).ints(*spec.weight_range).__next__

    def leaf_lists():
        for r in range(rows):
            base = r * cols
            for c in range(cols):
                v = base + c
                leaves = []
                if r > 0:
                    leaves.append((v - cols, weight()))
                if r < rows - 1:
                    leaves.append((v + cols, weight()))
                if c > 0:
                    leaves.append((v - 1, weight()))
                if c < cols - 1:
                    leaves.append((v + 1, weight()))
                yield leaves

    return Graph(leaf_lists())


# Each family's generator, under the name GenSpec and gen --family take.
FAMILIES = {"complete": gen_complete, "random": gen_random, "grid": gen_grid}


def generate(spec: GenSpec) -> Graph:
    return FAMILIES[spec.family](spec)
