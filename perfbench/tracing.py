"""Spans around the public calls of each simine module, recorded from outside.

A :class:`Tracer` replaces a function at the name its caller looks it up by
(``simine.search.score_bi``, ``BackgroundModel.pair_sums``, ...) with a wrapper
that records one span per call: parent span id, name, start and end in
``perf_counter_ns`` and an optional note taken from the arguments or result.
Spans stay in memory; :func:`layer_metrics` turns them into per-layer
metrics after the run, where a span's self time is its duration minus the
durations of its direct children.  A boundary that no longer exists, or sees
no calls, contributes zeros.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from time import perf_counter_ns

import numpy as np

COUNT_EDGES = ("graph.count_edges_between", "graph.count_edge_orientations",
               "graph.inter_edge_count")
SCORES = ("scores.score_bi", "scores.score_single")
ROUNDS = 4  # per-round pair-sum cost is reported for the first ROUNDS rounds


def _cells(args, kwargs, result):
    return int(np.size(args[1])) * int(np.size(args[2]))


def _flag(args, kwargs, result):
    return int(bool(result))


def _is_none(args, kwargs, result):
    return int(result is None)


# (module, attribute path, span name, note) for every traced call site: each
# function is replaced where its caller looks it up
BOUNDARIES = [
    ("graph", "load_graph", "graph.load_graph", None),
    ("graph", "AttributedGraph.count_edges_between", COUNT_EDGES[0], None),
    ("graph", "AttributedGraph.count_edge_orientations", COUNT_EDGES[1], None),
    ("graph", "AttributedGraph.inter_edge_count", COUNT_EDGES[2], None),
    ("descriptions", "generate_selectors", "descriptions.generate_selectors", None),
    ("background", "fit_degree_prior", "background.fit", None),
    ("background", "fit_block_prior", "background.fit", None),
    ("background", "BackgroundModel.pair_sums", "background.pair_sums", _cells),
    ("search", "update_with_pattern", "background.absorb", None),
    ("search", "score_bi", SCORES[0], _is_none),
    ("search", "score_single", SCORES[1], _is_none),
    ("search", "beam_search_single", "search.beam_search_single", None),
    ("search", "nested_beam_search", "search.nested_beam_search", None),
    ("search", "iterate", "search.iterate", None),
    ("search", "Beam.try_add", "search.beam_try_add", _flag),
]


class Tracer:
    """Installs span-recording wrappers; :meth:`restore` removes them.

    Spans are kept column-wise in integer arrays rather than as one Python
    object each, so a run of 10^5 calls adds no work for the cyclic garbage
    collector and little to peak memory.
    """

    def __init__(self):
        self.names: list = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.note = array("q")
        self._stack: list = []
        self._patched: list = []

    def install(self):
        for module, path, name, note in BOUNDARIES:
            owner = importlib.import_module(f"simine.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue  # the boundary is gone; its metrics read 0
            if name not in self.names:
                self.names.append(name)
            setattr(owner, attr, self._wrap(orig, self.names.index(name), note))
            self._patched.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, code, note):
        parent, name, start, end, notes = self.parent, self.name, self.start, self.end, self.note
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(code)
            notes.append(0)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if note is not None:
                notes[sid] = note(args, kwargs, result)
            return result

        return wrapper

    def spans(self):
        """(parent id, name, start ns, end ns, note) per span, in start order."""
        return [(p, self.names[c], t0, t1, v) for p, c, t0, t1, v
                in zip(self.parent, self.name, self.start, self.end, self.note)]

    def write(self, path):
        """Write the spans as TSV: id, parent, name, start ns, duration ns, note."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tdur_ns\tnote\n")
            for sid, (parent, name, t0, t1, note) in enumerate(self.spans()):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0}\t{t1 - t0}\t{note}\n")


def _pct_us(durs_ns, q):
    if not durs_ns:
        return 0.0
    if len(durs_ns) == 1:
        return durs_ns[0] / 1e3
    return statistics.quantiles(durs_ns, n=100, method="inclusive")[q - 1] / 1e3


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced pipeline run."""
    child_ns = [0] * len(spans)
    for parent, _name, t0, t1, _note in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0

    def dur(name_set):
        return [s[3] - s[2] for s in spans if s[1] in name_set]

    def self_s(pred):
        return sum(s[3] - s[2] - child_ns[i] for i, s in enumerate(spans) if pred(s[1])) / 1e9

    edges = dur(COUNT_EDGES)
    scores = [s for s in spans if s[1] in SCORES]
    score_durs = [s[3] - s[2] for s in scores]
    absorbs = dur({"background.absorb"})
    offers = [s[4] for s in spans if s[1] == "search.beam_try_add"]

    # a pair-sum call belongs to round 1 + (absorptions started before it)
    ps_durs, ps_ns, ps_cells = [], [0] * ROUNDS, [0] * ROUNDS
    absorbed = 0
    for parent, name, t0, t1, note in spans:
        if name == "background.absorb":
            absorbed += 1
        elif name == "background.pair_sums":
            ps_durs.append(t1 - t0)
            r = min(absorbed, ROUNDS - 1)
            ps_ns[r] += t1 - t0
            ps_cells[r] += note
    cells = sum(ps_cells)

    out = {
        "graph.load_s": sum(dur({"graph.load_graph"})) / 1e9,
        "graph.count_edges_calls": len(edges),
        "graph.count_edges_s": sum(edges) / 1e9,
        "descriptions.generate_selectors_s": sum(dur({"descriptions.generate_selectors"})) / 1e9,
        "background.fit_s": sum(dur({"background.fit"})) / 1e9,
        "background.pair_sums_calls": len(ps_durs),
        "background.pair_sums_s": sum(ps_durs) / 1e9,
        "background.pair_sums_p50_us": _pct_us(ps_durs, 50),
        "background.pair_sums_p99_us": _pct_us(ps_durs, 99),
        "background.pair_cells": cells,
        "background.pair_sums_ns_per_cell": sum(ps_durs) / cells if cells else 0.0,
        "background.absorb_calls": len(absorbs),
        "background.absorb_s": sum(absorbs) / 1e9,
        "scores.score_calls": len(scores),
        "scores.score_none": sum(1 for s in scores if s[4]),
        "scores.score_self_s": self_s(lambda name: name in SCORES),
        "scores.score_p50_us": _pct_us(score_durs, 50),
        "scores.score_p99_us": _pct_us(score_durs, 99),
        "search.self_s": self_s(lambda name: name.startswith("search.")),
        "search.beam_offers": len(offers),
        "search.beam_accepted": sum(offers),
        "search.beam_accept_ratio": sum(offers) / len(offers) if offers else 0.0,
    }
    for r in range(ROUNDS):
        out[f"background.pair_sums_ns_per_cell_r{r + 1}"] = (
            ps_ns[r] / ps_cells[r] if ps_cells[r] else 0.0)
    return out
