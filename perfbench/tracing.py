"""Span recording around the program's public functions.

The tracer replaces module and class attributes of ``lizardpath`` with
timing wrappers while it is installed, and puts the originals back on
removal; nothing under ``src/`` is edited.  Each call becomes one span
(name, start, end, parent, round, two observed integers) appended to
flat arrays, which stay in memory until :meth:`Tracer.write` dumps them
when the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import lizardpath
from lizardpath import cli, contest, generators, graph, hdm, lizard, oracle

_MODULES = (lizardpath, cli, contest, generators, graph, hdm, lizard, oracle)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.v1 = array("q")
        self.v2 = array("q")
        self.stack: list[int] = []
        self.current_round = -1
        # when set, hdm_run spans copy their first-pass distances here
        self.first_pass: list | None = None
        self.capture_first_pass = False
        self._patches: list[tuple[object, str, object, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.round.append(self.current_round)
        self.start.append(0.0)
        self.end.append(0.0)
        self.v1.append(0)
        self.v2.append(0)
        self.stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a layer call."""
        idx = self._open(self.name_id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn, observe=None, before=None):
        """``observe(args, result, before(args))`` gives the span's v1, v2."""
        nid = self.name_id(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            idx = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = t0
                tracer.stack.pop()
            if observe is not None:
                tracer.v1[idx], tracer.v2[idx] = observe(args, result, pre)
            return result

        return wrapper

    def _patch_everywhere(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` in every lizardpath namespace that holds it,
        since ``from .x import f`` copies the reference into the importer."""
        orig = getattr(owner, attr)
        wrapped = self._wrap(name, orig, observe)
        for mod in _MODULES:
            if getattr(mod, attr, None) is orig:
                self._patches.append((mod, attr, orig, wrapped))

    def _patch_method(self, cls, attr: str, wrapped) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr], wrapped))

    def prepare(self) -> None:
        """Build the wrapper table once; :meth:`install` applies it."""
        LE = lizard.LizardEntity

        def first_pass(args, out, _):
            if self.capture_first_pass:
                self.first_pass = list(out.labels.dist)
            return out.partition.k, out.arc_scans

        self._patch_everywhere(graph, "load_dimacs", "graph.load_dimacs")
        self._patch_everywhere(graph, "build_graph", "graph.build_graph")
        self._patch_everywhere(graph, "save_dimacs", "graph.save_dimacs")
        self._patch_everywhere(hdm, "hdm_run", "hdm.hdm_run", first_pass)
        self._patch_everywhere(hdm, "collect_origins", "hdm.collect_origins", lambda a, r, _: (len(r), 0))
        self._patch_everywhere(contest, "contest_run", "contest.contest_run")
        self._patch_everywhere(contest, "solve_sssp", "contest.solve_sssp")
        self._patch_everywhere(cli, "checksum_dist", "cli.checksum_dist")
        self._patch_everywhere(oracle, "dijkstra", "oracle.dijkstra")
        build = LE.__dict__["build"].__func__
        self._patch_method(LE, "build", classmethod(self._wrap("lizard.build", build, lambda a, le, _: (le.size, 0))))
        # insert: v1 is the call's charge (BST search path plus attach), v2
        # the size afterwards
        insert = self._wrap(
            "lizard.insert", LE.insert,
            lambda a, r, before: (a[0].counters.insert - before, a[0].size),
            lambda a: a[0].counters.insert,
        )
        self._patch_method(LE, "insert", insert)
        self._patch_method(LE, "delete", self._wrap("lizard.delete", LE.delete))
        self._patch_method(
            LE, "get_min_batch", self._wrap("lizard.get_min_batch", LE.get_min_batch, lambda a, r, _: (len(r), 0))
        )

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def write(self, path: str, last_round: int) -> None:
        """Dump the spans of rounds up to last_round as tab-separated text,
        one line per span; later rounds appear only in :meth:`rollup`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tround\tv1\tv2\n")
            names = self.names
            for i in range(len(self.name)):
                if self.round[i] > last_round:
                    continue
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.round[i]}\t{self.v1[i]}\t{self.v2[i]}\n"
                )

    def rollup(self) -> dict:
        """Per (round, root span name, span name): total time, self time,
        calls, and the sum and max of v1 and the max of v2.

        A span's self time is its duration minus its children's.
        """
        n = len(self.name)
        child = array("d", bytes(8 * n))
        root = array("i", bytes(4 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict = {}
        names = self.names
        for i in range(n):
            key = (self.round[i], names[self.name[root[i]]], names[self.name[i]])
            rec = out.get(key)
            if rec is None:
                rec = out[key] = {"total": 0.0, "self": 0.0, "calls": 0, "v1_sum": 0, "v1_max": 0, "v2_max": 0}
            dur = end[i] - start[i]
            rec["total"] += dur
            rec["self"] += dur - child[i]
            rec["calls"] += 1
            rec["v1_sum"] += self.v1[i]
            rec["v1_max"] = max(rec["v1_max"], self.v1[i])
            rec["v2_max"] = max(rec["v2_max"], self.v2[i])
        return out

