"""Deterministic instance generators for the three benchmark families.

All randomness flows through a splitmix64 stream seeded from the GenSpec,
so identical specs produce bit-identical graphs on every platform and
Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import graph
from .graph import Graph, GraphError

_MASK64 = (1 << 64) - 1

# Most arcs a spec may ask for: twice the ~4M of each paper_full instance.
# Nodes are capped by graph.MAX_NODES, so every generated file loads back.
MAX_ARCS = 2**23


class DegreeTooLargeError(GraphError):
    def __init__(self, m: int, n: int):
        super().__init__(f"out-degree {m} must be smaller than node count {n}")


class SplitMix64:
    """splitmix64 PRNG (Steele, Lea & Flood's published constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], unbiased via rejection."""
        span = hi - lo + 1
        limit = _MASK64 - (_MASK64 + 1) % span
        while True:
            x = self.next_u64()
            if x <= limit:
                return lo + x % span

    def below(self, n: int) -> int:
        return self.randint(0, n - 1)


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance.

    ``n`` sizes the complete and random families and ``rows``/``cols``
    the grid; ``m`` is the per-node out-degree of the random family, and
    0 means the default, ceil(log2 n).  A nonzero size or degree that
    the family does not use is rejected, not ignored.  Weights lie in
    1..graph.MAX_WEIGHT, so every generated graph saves to a file that
    loads back.
    """

    family: str  # complete | random | grid
    n: int = 0
    rows: int = 0
    cols: int = 0
    m: int = 0
    weight_range: tuple[int, int] = (1, 1000)
    seed: int = 1

    def __post_init__(self):
        if self.family not in ("complete", "random", "grid"):
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


def generate(spec: GenSpec) -> Graph:
    if spec.family == "complete":
        return gen_complete(spec)
    if spec.family == "random":
        return gen_random(spec)
    return gen_grid(spec)


def gen_complete(spec: GenSpec) -> Graph:
    """Every node points to all n-1 others; E = n(n-1).

    Weights are drawn in (root, leaf) order from the seed stream.
    """
    n = spec.n
    w_min, w_max = spec.weight_range
    rng = SplitMix64(spec.seed)
    randint = rng.randint

    def leaf_lists():
        for v in range(n):
            yield [(leaf, randint(w_min, w_max)) for leaf in range(n) if leaf != v]

    return Graph._from_leaf_lists(n, leaf_lists())


def gen_random(spec: GenSpec) -> Graph:
    """Each node gets exactly m distinct random out-neighbors; E = n*m.

    Neighbors are rejection-sampled (m is far below n in every benchmark
    configuration), and each neighbor's weight is drawn right after it.
    """
    n = spec.n
    m = spec.effective_m()
    if m >= n:
        raise DegreeTooLargeError(m, n)
    w_min, w_max = spec.weight_range
    rng = SplitMix64(spec.seed)
    randint = rng.randint

    def leaf_lists():
        for v in range(n):
            seen = {v}
            leaves = []
            for _ in range(m):
                leaf = randint(0, n - 1)
                while leaf in seen:
                    leaf = randint(0, n - 1)
                seen.add(leaf)
                leaves.append((leaf, randint(w_min, w_max)))
            yield leaves

    return Graph._from_leaf_lists(n, leaf_lists())


def gen_grid(spec: GenSpec) -> Graph:
    """rows x cols lattice with both directions of every lattice edge.

    Each node points to its 2-4 orthogonal neighbors, so
    E = 2 * (rows*(cols-1) + cols*(rows-1)).
    """
    rows, cols = spec.rows, spec.cols
    w_min, w_max = spec.weight_range
    rng = SplitMix64(spec.seed)
    randint = rng.randint

    def leaf_lists():
        for r in range(rows):
            base = r * cols
            for c in range(cols):
                v = base + c
                leaves = []
                if r > 0:
                    leaves.append((v - cols, randint(w_min, w_max)))
                if r < rows - 1:
                    leaves.append((v + cols, randint(w_min, w_max)))
                if c > 0:
                    leaves.append((v - 1, randint(w_min, w_max)))
                if c < cols - 1:
                    leaves.append((v + 1, randint(w_min, w_max)))
                yield leaves

    return Graph._from_leaf_lists(rows * cols, leaf_lists())
