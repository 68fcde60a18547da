"""What a cold pipeline run spends in each phase, and on what.

    python3 scripts/cold_costs.py [--seed 41] [--repeat 5] [--workloads NAME ...]
                                  [--preimport MODULE ...] [--tiny]

For each benchmark workload this generates the workload's first input of
SEED (as ``perfbench/run.py --seed SEED`` does), then runs the timed
pipeline of ``perfbench/pipeline.py`` on it REPEAT times, each time in a
fresh process, as the benchmark does.  For the set-up phase (load,
selectors, prior fit) and the mine phase (the search, and absorption when
iterating) it prints the median CPU time, the median number of minor page
faults (``resource.getrusage``) and the modules first imported in that
phase, each with the number of its submodules imported with it.
``--preimport`` imports modules in the child before the run starts, so two
invocations show what an import made earlier in the process changes.

It only reports; nothing is gated.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

PHASES = ("setup", "mine")


def _snapshot():
    """(CPU seconds, minor faults, imported module names) of this process."""
    use = resource.getrusage(resource.RUSAGE_SELF)
    return time.process_time(), use.ru_minflt, set(sys.modules)


def _roots(names):
    """``names`` as ``{module: submodules}``: a module whose package is also
    among ``names`` counts as a submodule of its outermost such package."""
    out = {}
    for name in sorted(names):
        parts = name.split(".")
        root = next((".".join(parts[:i]) for i in range(1, len(parts))
                     if ".".join(parts[:i]) in names), name)
        out[root] = out.get(root, -1) + 1
    return out


def child(workload, inputs, tiny, preimport):
    """One pipeline run in this process; prints its phases as one JSON line."""
    for name in preimport:
        importlib.import_module(name)
    import pipeline
    from workloads import WORKLOADS

    marks = []
    clock = pipeline._mark

    def mark():  # the pipeline marks the start and the end of each phase
        marks.append(_snapshot())
        return clock()

    pipeline._mark = mark
    try:
        pipeline.mine(WORKLOADS[workload].at_size(tiny), Path(inputs))
    finally:
        pipeline._mark = clock
    print(json.dumps({phase: {"cpu_s": b[0] - a[0], "minflt": b[1] - a[1],
                              "imports": _roots(b[2] - a[2])}
                      for phase, a, b in zip(PHASES, marks, marks[1:])}))


def run_child(workload, inputs, tiny, preimport):
    import subprocess  # not at the top, like main's imports

    # the benchmark's children run with one BLAS thread and a fixed hash seed
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    args = [sys.executable, __file__, "--child", workload, str(inputs)]
    args += ["--tiny"] * tiny + [x for name in preimport for x in ("--preimport", name)]
    out = subprocess.run(args, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--workloads", nargs="+",
                    default=["nested-bi", "fit-blocks", "iterate-absorb"])
    ap.add_argument("--preimport", action="append", default=[], metavar="MODULE")
    ap.add_argument("--tiny", action="store_true", help="shrunken workloads")
    ap.add_argument("--child", nargs=2, metavar=("WORKLOAD", "DIR"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(*args.child, args.tiny, args.preimport)

    # imported here, not at the top: a child imports only what the
    # benchmark's pipeline process does, since import history moves its costs
    import statistics
    import tempfile

    import pipeline
    from run import INPUTS
    from workloads import WORKLOADS

    for name in args.workloads:
        with tempfile.TemporaryDirectory() as tmp:
            pipeline.generate(WORKLOADS[name].at_size(args.tiny), args.seed * INPUTS, Path(tmp))
            runs = [run_child(name, tmp, args.tiny, args.preimport)
                    for _ in range(args.repeat)]
        for phase in PHASES:
            cpu = statistics.median(r[phase]["cpu_s"] for r in runs)
            faults = statistics.median(r[phase]["minflt"] for r in runs)
            imports = runs[-1][phase]["imports"]
            first = ", ".join(f"{m} (+{k})" if k else m for m, k in imports.items()) or "none"
            print(f"{name} {phase}: cpu {cpu * 1e3:.1f} ms, minor faults {faults:.0f}, "
                  f"first imports: {first}")


if __name__ == "__main__":
    main()
