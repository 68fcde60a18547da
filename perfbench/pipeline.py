"""One step of the benchmark, run in its own process.

    python3 perfbench/pipeline.py gen WORKLOAD SEED DIR [--tiny]
        Generate the workload's inputs from SEED into DIR: an edge list, an
        attribute table and the planted-block manifest.

    python3 perfbench/pipeline.py run WORKLOAD DIR --trace 0|1 [--spans FILE] [--tiny]
        Run the ``simine mine`` pipeline once on DIR's inputs through the
        library API (load_graph -> generate_selectors -> prior fit -> search),
        then check the output outside the timed region, and print one JSON
        object: the clock marks of each phase, peak RSS, the ranking digest,
        check failures and, with --trace 1, the per-layer metrics.

Only the edge and attribute files reach the program; the manifest is read
by the correctness checks alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import simine  # noqa: E402
from simine import background, descriptions, graph, scores, search  # noqa: E402
from simine.synth import PlantedBlock, SynthConfig, generate_synthetic  # noqa: E402

if Path(simine.__file__).resolve().parent != HERE.parent / "src" / "simine":
    raise SystemExit(f"simine was imported from {simine.__file__}, not from this checkout")

EDGES, ATTRS, MANIFEST = "graph.edges", "graph.attrs.csv", "manifest.json"
FIT_TOL = 1e-4
SI_RTOL = 1e-9
ABSORB_TOL = 1e-6


def generate(w, seed: int, out: Path):
    cfg = SynthConfig(n=w.n, background_density=w.background_density,
                      blocks=[PlantedBlock("grp", b.val1, b.size, "grp", b.val2, b.size,
                                           b.density) for b in w.blocks],
                      noise_attrs=w.noise_attrs, noise_values=w.noise_values,
                      numeric_attrs=w.numeric_attrs, seed=seed)
    g, manifest = generate_synthetic(cfg)
    graph.save_graph(g, out / EDGES, out / ATTRS)
    (out / MANIFEST).write_text(json.dumps(manifest), encoding="utf-8")


@dataclass
class Mined:
    """A pipeline's output: rounds[t] was ranked under models[t]."""

    g: object
    selectors: list
    rounds: list
    models: list
    constants: object


def fit(w, g):
    if w.block_prior:
        return background.fit_block_prior(g, list(w.block_prior), with_degrees=True,
                                          tol=FIT_TOL)
    return background.fit_degree_prior(g, tol=FIT_TOL)


def _mark():
    """(monotonic clock, CPU time of this process) in seconds."""
    return time.monotonic(), time.process_time()


def mine(w, inputs: Path):
    """The timed pipeline; returns (Mined, marks).

    ``marks`` holds a :func:`_mark` at the start, once the model is ready to
    score (end of set-up) and after the search.
    """
    t0 = _mark()
    g = graph.load_graph(inputs / EDGES, inputs / ATTRS)
    selectors = descriptions.generate_selectors(
        g, descriptions.SelectorConfig(numeric_bins=w.numeric_bins))
    model = fit(w, g)
    t1 = _mark()
    cfg = search.SearchConfig(beam_width=w.beam_width, x1=w.x1, x2=w.x2, depth=w.depth)
    if w.mode == "single":
        rounds, models = [search.beam_search_single(g, model, selectors, cfg)], [model]
    elif w.mode == "bi":
        rounds, models = [search.nested_beam_search(g, model, selectors, cfg)], [model]
    else:
        res = search.iterate(g, model, selectors, cfg, rounds=w.rounds, absorb=w.absorb)
        rounds, models = res.rounds, res.models
    t2 = _mark()
    return Mined(g, selectors, rounds, models, cfg.constants), [t0, t1, t2]


def _sides(p):
    ids1 = p.ext1_ids
    ids2 = ids1 if p.ext2_ids is None else p.ext2_ids
    return frozenset(int(i) for i in ids1), frozenset(int(i) for i in ids2)


def check(w, manifest: dict, out: Mined) -> list:
    """Correctness failures of one pipeline run (an empty list passes)."""
    fails = []
    if len(out.rounds) != w.rounds or any(not pats for pats in out.rounds):
        return [f"expected {w.rounds} non-empty round(s), got "
                f"{[len(p) for p in out.rounds]}"]
    planted = [(frozenset(b["side1_ids"]), frozenset(b["side2_ids"]))
               for b in manifest["blocks"]]
    found = []
    for t in range(w.planted_rounds):
        s1, s2 = _sides(out.rounds[t][0])
        hit = next((i for i, (b1, b2) in enumerate(planted)
                    if (s1, s2) in ((b1, b2), (b2, b1))), None)
        if hit is None or hit in found:
            fails.append(f"round {t + 1} top {out.rounds[t][0].render()!r} "
                         "is not a new planted block")
        found.append(hit)
    info = out.models[0].fit_info
    if not info["max_residual"] <= FIT_TOL:
        fails.append(f"fit residual {info['max_residual']:.3g} > tol {FIT_TOL:g}")
    for t, pats in enumerate(out.rounds):
        for p in pats:
            again = scores.rescore(out.g, out.models[t], p.w1, p.w2, out.constants)
            if again is None or abs(again.si - p.si) > SI_RTOL * max(abs(p.si), 1e-300):
                fails.append(f"round {t + 1} {p.render()!r}: rescored SI "
                             f"{None if again is None else again.si!r} != {p.si!r}")
        if t + 1 < len(out.models):
            for p in pats[:w.absorb]:
                s1, s2 = _sides(p)
                p_w, n_w = background.block_mean_probability(
                    out.models[t + 1], sorted(s1), sorted(s2))
                if abs(p_w * n_w - p.edges) > ABSORB_TOL * n_w:
                    fails.append(f"after absorbing {p.render()!r}: expected "
                                 f"{p_w * n_w:.9g} != observed {p.edges}")
    return fails


def digest(rounds) -> str:
    """Hash of the ranked output: round, rendering and SI to 1e-9 relative."""
    h = hashlib.sha256()
    for t, pats in enumerate(rounds, start=1):
        for p in pats:
            h.update(f"{t}\t{p.render()}\t{p.si:.9e}\n".encode())
    return h.hexdigest()[:16]


def run(w, inputs: Path, traced: bool, spans_path=None) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    try:
        out, marks = mine(w, inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec = {
        "marks": marks,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(out.rounds),
        "fit_sweeps": out.models[0].fit_info["iterations"],
        "numpy": np.__version__,
        "failures": check(w, json.loads((inputs / MANIFEST).read_text(encoding="utf-8")),
                          out),
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans())
        layers["descriptions.selectors"] = len(out.selectors)
        layers["background.fit_sweeps"] = rec["fit_sweeps"]
        layers["background.model_updates"] = len(getattr(out.models[-1], "updates", ()))
        rec["layers"] = layers
        if spans_path:
            tracer.write(spans_path)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="step", required=True)
    p = sub.add_parser("gen")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("dir", type=Path)
    p.add_argument("--tiny", action="store_true")
    p = sub.add_parser("run")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("dir", type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, default=None)
    p.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload].at_size(args.tiny)
    if args.step == "gen":
        generate(w, args.seed, args.dir)
    else:
        print(json.dumps(run(w, args.dir, bool(args.trace), args.spans)))


if __name__ == "__main__":
    main()
