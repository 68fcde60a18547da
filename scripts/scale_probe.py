"""What fitting a prior, a nested search and absorbing patterns cost on a
large heavy-tailed graph.

    python3 scripts/scale_probe.py [--prior blocks:noise0+degree] [--tiny]

This builds an undirected graph directly as an ``AttributedGraph``, with
O(m) numpy work and no dense array: 100,000 vertices, each with a
Pareto(1.5) weight, and about 5n edges whose ends are drawn by weight (loops
and repeats dropped), plus six noise attributes, ``noise0`` to ``noise5``,
with 8 values each drawn uniformly, in that order.  It fits ``--prior`` (the
grammar of ``simine fit --prior``) and runs one nested search on the fitted
model over every selector (x1 = 4, x2 = 3, depth 2), then absorbs three
fixed patterns in turn, each with its observed edge count:

* ``noise0=v0 || noise1=v1`` (overlapping extensions);
* ``noise0=v2`` (a single subgroup);
* ``noise1=v3 || noise1=v4`` (disjoint extensions).

For the fit and each absorption it prints the class count K, the multiplier
(the Newton steps for the fit), the CPU seconds of that step and the peak
RSS of the process so far; for the search, the patterns it reports, the
W1 chunks and pair blocks its screen took (calls of ``_BiScreen.w1_rows``
and ``_BiScreen._block``), its CPU seconds and the peak RSS.  ``--tiny``
builds 2,000 vertices instead; the graph's seed is 41 either way.  Run it
pinned to one CPU (``taskset -c 0``) to compare two checkouts.

It only reports; nothing is gated.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from simine import (AttributeColumn, AttributedGraph, SearchConfig, cli,  # noqa: E402
                    generate_selectors, nested_beam_search, update_with_pattern)
from simine.search import _BiScreen  # noqa: E402

PATTERNS = [(("noise0", "v0"), ("noise1", "v1")), (("noise0", "v2"), None),
            (("noise1", "v3"), ("noise1", "v4"))]


def heavy_graph(n, seed):
    """The probe's graph: Pareto(1.5) endpoint weights, m about 5n, six
    8-value noise attributes."""
    rng = np.random.default_rng(seed)
    weight = rng.pareto(1.5, n) + 1.0
    ends = rng.choice(n, size=(5 * n, 2), p=weight / weight.sum())
    u, v = ends.min(axis=1), ends.max(axis=1)
    keep = u != v
    key = u[keep] * n + v[keep]
    _, first = np.unique(key, return_index=True)
    edges = np.stack([u[keep], v[keep]], axis=1)[np.sort(first)]
    cols = [AttributeColumn(f"noise{j}", "nominal",
                            np.array([f"v{x}" for x in range(8)])[rng.integers(0, 8, n)])
            for j in range(6)]
    return AttributedGraph(n, edges, columns=cols)


def _counted(calls, name):
    """``_BiScreen``'s method ``name``, counting its calls in ``calls``."""
    fn = getattr(_BiScreen, name)

    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--prior", default="blocks:noise0+degree")
    ap.add_argument("--tiny", action="store_true", help="n = 2,000")
    args = ap.parse_args(argv)
    g = heavy_graph(2_000 if args.tiny else 100_000, 41)
    print(f"graph: n {g.n}, m {g.m}, peak RSS {_peak_mb():.0f} MB")

    t = time.process_time()
    model = cli._fit_model(argparse.Namespace(prior=args.prior, tol=1e-4, max_iter=500), g)
    print(f"fit {args.prior}: K {model.n_classes}, {model.fit_info['iterations']} Newton "
          f"steps, {time.process_time() - t:.3f} s, peak RSS {_peak_mb():.0f} MB")
    calls = dict.fromkeys(["w1_rows", "_block"], 0)
    with patch.multiple(_BiScreen, **{name: _counted(calls, name) for name in calls}):
        t = time.process_time()
        found = nested_beam_search(g, model, generate_selectors(g),
                                   SearchConfig(x1=4, x2=3, depth=2))
        t = time.process_time() - t
    print(f"nested search: {len(found)} patterns, {calls['w1_rows']} W1 chunks, "
          f"{calls['_block']} pair blocks, {t:.3f} s, peak RSS {_peak_mb():.0f} MB")
    for sides in PATTERNS:
        masks = [g.column(attr).values == value for attr, value in filter(None, sides)]
        ext1, ext2 = (np.flatnonzero(m) for m in (masks[0], masks[-1]))
        pattern = SimpleNamespace(ext1_ids=ext1, ext2_ids=None if len(masks) == 1 else ext2,
                                  edges=g.count_edges_between(masks[0], masks[-1]))
        t = time.process_time()
        model = update_with_pattern(model, pattern)
        name = " || ".join(f"{attr}={value}" for attr, value in filter(None, sides))
        print(f"absorb {name}: K {model.n_classes}, lam {model.updates[-1].lam:.6g}, "
              f"{time.process_time() - t:.3f} s, peak RSS {_peak_mb():.0f} MB")


if __name__ == "__main__":
    main()
