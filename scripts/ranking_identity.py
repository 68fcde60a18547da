"""Digests of the rankings the searches report, for comparing two checkouts.

    python3 scripts/ranking_identity.py [--seeds 41 7 201] [--workloads NAME ...]
                                        [--configs NAME ...] [--tiny]

For each benchmark workload and SEED this generates the workload's first
input of SEED (as ``perfbench/run.py --seed SEED`` does), fits the
workload's prior, and mines it under every search configuration of
``CONFIGS``: the workload's own pipeline (``mine``); its search at depths 2
to 4, with the shared-attribute or the disjoint constraint, and with x1=8,
x2=6; the single-subgroup search at depths 2 to 4 with beam widths 10 and
20 (``single-*``); each over all selectors and (``-noise``) over those of
every attribute but the planted one; and ``baseline_search`` under each of
the eight objective measures (``baseline-*``).  The other configurations
run the workload's nested search, or ``iterate`` with the workload's rounds
for an iterating workload, and the nested search on the single-subgroup
workload's input.  One line per (workload, seed, configuration) gives the number
of reported patterns and two digests, round by round.  The first covers each
pattern's rendering, ``repr`` of its SI, ``k_w``, ``n_w`` and ``edges``; for
a baseline, each subgroup's rendering, ``repr`` of its value, its size,
edges and inter-edges.  The second, the rankings digest, covers the same
fields but the SI (the value for a baseline).

It reads public output only, so running it from two checkouts on the same
arguments must print identical lines when a change keeps every ranking and
SI bit for bit, and the same rankings digests when a change moves SIs only
in their last digits but keeps every ranking.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pipeline  # noqa: E402
from run import INPUTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from simine import descriptions, graph, scores, search  # noqa: E402

# search settings on top of the workload's own x1, x2 and depth
NESTED = {
    "d2": {"depth": 2},
    "d3": {"depth": 3},
    "d4": {"depth": 4},
    "d3-shared": {"depth": 3, "require_shared_attribute": True},
    "d3-disjoint": {"depth": 3, "require_disjoint_extensions": True},
    "d4-shared-disjoint": {"depth": 4, "require_shared_attribute": True,
                           "require_disjoint_extensions": True},
    "d3-wide": {"depth": 3, "x1": 8, "x2": 6},
    "d4-wide": {"depth": 4, "x1": 8, "x2": 6},
}
SINGLE = {f"single-d{depth}-w{width}": {"depth": depth, "beam_width": width}
          for depth in (2, 3, 4) for width in (10, 20)}
CONFIGS = {**NESTED, **SINGLE}
# the same settings over the selectors of every attribute but the planted
# ``grp``: the planted blocks otherwise top the rankings at every depth
NOISE = {f"{name}-noise": kw for name, kw in CONFIGS.items()}
# baseline_search at depth 3 with the workload's beam width
BASELINES = {f"baseline-{measure}": measure for measure in scores.MEASURE_NAMES}


def line(r, scores=True) -> str:
    """The digested fields of one pattern or baseline result; without
    ``scores``, all but its SI or value."""
    if isinstance(r, search.BaselineResult):
        fields = [r.render(), repr(r.value), r.size, r.edges, r.inter_edges]
    else:
        fields = [r.render(), repr(r.si), r.k_w, r.n_w, r.edges]
    if not scores:
        del fields[1]
    return "\t".join(map(str, fields)) + "\n"


def digest(rounds, scores=True) -> str:
    h = hashlib.sha256()
    for pats in rounds:
        h.update(b"round\n")
        for p in pats:
            h.update(line(p, scores).encode())
    return h.hexdigest()[:16]


def rankings(w, inputs, configs):
    """``(configuration, rounds)`` of every configuration named in
    ``configs`` on the workload input in ``inputs``."""
    if "mine" in configs:
        yield "mine", pipeline.mine(w, inputs)[0].rounds
    g = graph.load_graph(inputs / pipeline.EDGES, inputs / pipeline.ATTRS)
    sels = descriptions.generate_selectors(
        g, descriptions.SelectorConfig(numeric_bins=w.numeric_bins))
    model = pipeline.fit(w, g)
    noise = [s for s in sels if s.attribute != "grp"]
    for name, kw in [*CONFIGS.items(), *NOISE.items()]:
        if name not in configs:
            continue
        cfg = search.SearchConfig(**{"x1": w.x1, "x2": w.x2, **kw})
        use = noise if name in NOISE else sels
        if name.startswith("single-"):
            yield name, [search.beam_search_single(g, model, use, cfg)]
        elif w.mode == "iterate":
            yield name, search.iterate(g, model, use, cfg, rounds=w.rounds,
                                       absorb=w.absorb).rounds
        else:
            yield name, [search.nested_beam_search(g, model, use, cfg)]
    for name, measure in BASELINES.items():
        if name in configs:
            cfg = search.SearchConfig(beam_width=w.beam_width, depth=3)
            yield name, [search.baseline_search(g, sels, cfg, measure)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[41, 7, 201])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--configs", nargs="+", choices=["mine", *CONFIGS, *NOISE, *BASELINES],
                    default=["mine", *CONFIGS, *NOISE, *BASELINES])
    ap.add_argument("--tiny", action="store_true", help="the workloads' shrunken copies")
    args = ap.parse_args(argv)
    for name in args.workloads:
        w = WORKLOADS[name].at_size(args.tiny)
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                inputs = Path(tmp)
                pipeline.generate(w, seed * INPUTS, inputs)
                for config, rounds in rankings(w, inputs, args.configs):
                    print(name, seed, config, sum(map(len, rounds)), digest(rounds),
                          digest(rounds, scores=False), flush=True)


if __name__ == "__main__":
    main()
