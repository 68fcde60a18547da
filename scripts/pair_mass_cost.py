"""What the exact pair mass would cost the screens in place of the BLAS one.

    python3 scripts/pair_mass_cost.py [--seed 41] [--repeat 20]

For each benchmark workload this generates the workload's first input of
SEED (as ``perfbench/run.py --seed SEED`` does), runs the timed pipeline of
``perfbench/pipeline.py`` on it, and records every batch of class
histograms that the searches' screens pass to
``BackgroundModel.pair_sums_many``.  It then times the recorded batches
through ``pair_sums_many`` and through the exact, batch-invariant
``BackgroundModel.pair_mass``, best of REPEAT passes each, and prints both
next to the median search time (``mine_s``) of REPEAT pipeline runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pipeline  # noqa: E402
from run import INPUTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from simine.background import BackgroundModel  # noqa: E402


def screen_batches(w, inputs):
    """``(model, histograms)`` of every screen's ``pair_sums_many`` call in
    one pipeline run; calls made inside ``pair_mass`` are not the screens'."""
    many, exact = BackgroundModel.pair_sums_many, BackgroundModel.pair_mass
    batches, inside = [], []

    def recorded(model, *H):
        if not inside:
            batches.append((model, H))
        return many(model, *H)

    def marked(model, *H):
        inside.append(True)
        try:
            return exact(model, *H)
        finally:
            inside.pop()

    BackgroundModel.pair_sums_many, BackgroundModel.pair_mass = recorded, marked
    try:
        pipeline.mine(w, inputs)
    finally:
        BackgroundModel.pair_sums_many, BackgroundModel.pair_mass = many, exact
    return batches


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args(argv)
    for name in ("nested-bi", "fit-blocks", "iterate-absorb"):
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            inputs = Path(tmp)
            pipeline.generate(w, args.seed * INPUTS, inputs)
            batches = screen_batches(w, inputs)
            mine_s = statistics.median(marks[2][0] - marks[1][0] for marks in (
                pipeline.mine(w, inputs)[1] for _ in range(args.repeat)))
        cost = {fn.__name__: best_of(args.repeat, lambda: [fn(m, *H) for m, H in batches])
                for fn in (BackgroundModel.pair_sums_many, BackgroundModel.pair_mass)}
        extra = cost["pair_mass"] - cost["pair_sums_many"]
        print(f"{name}: {len(batches)} batches, pair_sums_many "
              f"{cost['pair_sums_many'] * 1e3:.2f} ms, pair_mass {cost['pair_mass'] * 1e3:.2f} ms, "
              f"mine_s {mine_s * 1e3:.1f} ms, difference {100 * extra / mine_s:+.0f}% of mine_s")


if __name__ == "__main__":
    main()
