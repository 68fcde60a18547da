"""simine benchmark: seeded mining workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  One child process generates the workload's
inputs from the seed (``simine.synth``, never timed).  Then, for T seconds,
fresh child processes each run the ``simine mine`` pipeline once on those
inputs through the library API and check the output.  A fresh process per
run makes ``peak_rss_mb`` that run's own peak.

Times are scaled to a reference machine speed.  On a shared host the same
work takes up to twice as long from one minute to the next, because other
guests load the host's cores; the median of a 30-second window moves with
them.  So this process and every child are pinned to one CPU, and while a
pipeline runs, this process times a fixed burst of NumPy and interpreter work
(:class:`Probe`) on that CPU every few milliseconds, between the pipeline's
own time slices.  A phase's time is the pipeline's CPU time in it, which
leaves out the probe's slices, times ``PROBE_REF_S`` over the median burst
time during the phase: seconds on a machine where a burst takes 2 ms.  The
raw wall time of each run is printed beside it.

With ``--trace 0`` every run is untraced and the runs cycle over ``INPUTS``
graphs generated from the seed; the result holds the end-to-end metrics,
each the mean over the graphs of its median over that graph's runs.  With
``--trace 1`` untraced and traced runs alternate on the first graph; the
result holds the per-layer metrics of the traced runs (medians) plus
``trace_overhead`` and ``fail_rate``, and the report above it still prints
the end-to-end metrics of the untraced runs.
Per-layer times are wall time inside the traced run, so they include the
probe's share of the CPU and are not scaled.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines give the
provenance, each run, and every metric with its unit and sample count.
``--workload all`` measures every workload in turn, each ending in its own
result line, so ``--workload all --trace 1`` prints every metric.  The
full record goes to ``perfbench/out/BENCH_<workload>_seed<N>_trace<t>.json``;
the spans of the last traced run go next to it as TSV.

Workloads are defined in ``perfbench/workloads.py``; ``--tiny`` runs a shrunken
copy for the self-tests in ``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIPELINE = HERE / "pipeline.py"
OUT = HERE / "out"
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
PROBE_REF_S = 2e-3  # CPU time of one probe burst at the reference speed
PROBE_GAP_S = 12e-3  # sleep between probe bursts: the probe takes ~1/8 of the CPU
INPUTS = 3  # graphs generated from one seed for the untraced runs

END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.load_s": "s",
    "graph.count_edges_calls": "count",
    "graph.count_edges_s": "s",
    "descriptions.generate_selectors_s": "s",
    "descriptions.selectors": "count",
    "background.fit_s": "s",
    "background.fit_sweeps": "count",
    "background.pair_sums_calls": "count",
    "background.pair_sums_s": "s",
    "background.pair_sums_p50_us": "us",
    "background.pair_sums_p99_us": "us",
    "background.pair_cells": "count",
    "background.pair_sums_ns_per_cell": "ns",
    "background.pair_sums_ns_per_cell_r1": "ns",
    "background.pair_sums_ns_per_cell_r2": "ns",
    "background.pair_sums_ns_per_cell_r3": "ns",
    "background.pair_sums_ns_per_cell_r4": "ns",
    "background.absorb_calls": "count",
    "background.absorb_s": "s",
    "background.model_updates": "count",
    "scores.score_calls": "count",
    "scores.score_none": "count",
    "scores.score_self_s": "s",
    "scores.score_p50_us": "us",
    "scores.score_p99_us": "us",
    "search.self_s": "s",
    "search.beam_offers": "count",
    "search.beam_accepted": "count",
    "search.beam_accept_ratio": "ratio",
    "trace_overhead": "ratio",
    "fail_rate": "ratio",
}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


class _Item:
    def __init__(self, k):
        self.key = f"attr{k % 7}=v{k % 5}"


class Probe:
    """A fixed burst of NumPy and interpreter work, timed in CPU seconds.

    Half of a burst is vectorised arithmetic over small arrays and a plain
    interpreter loop; the other half mimics a mining step: many NumPy calls
    on a few dozen elements each, plus Python objects, dicts and strings.
    Host contention slows the first half less than the pipeline and the
    second half more, so their sum follows the pipeline's speed.  All arrays
    fit in the core's own caches.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 256))
        self.b = rng.standard_normal(256)
        self.lam = rng.standard_normal(450)
        self.rows = np.sort(rng.choice(450, 40, replace=False))
        self.cols = np.sort(rng.choice(450, 30, replace=False))

    def burst(self) -> float:
        t0 = time.thread_time()
        for _ in range(4):
            float((1.0 / (1.0 + np.exp(-(self.a + self.b[None, :])))).sum())
        acc, seen = 0, {}
        for i in range(3000):
            acc += i * 3 % 7
            seen[i & 255] = acc
        for i in range(10):
            r = np.asarray(self.rows, dtype=np.int64)
            c = np.asarray(self.cols, dtype=np.int64)
            p = np.clip(1.0 / (1.0 + np.exp(-(self.lam[r][:, None] + self.lam[c][None, :]))),
                        1e-12, 1.0 - 1e-12)
            p = np.where(r[:, None] == c[None, :], 0.0, p)
            acc += float(p.sum()) + np.intersect1d(r, c).size
            keys = {item.key: item for item in map(_Item, range(i, i + 30))}
            acc += len(" AND ".join(sorted(keys)))
        return time.thread_time() - t0


def _child(args, t_start, probe=None):
    """Run one pipeline step in a child process.

    Returns (ok, stdout, stderr tail, probes).  With a ``probe``, bursts run
    on the shared CPU for as long as the child does; ``probes`` holds
    (monotonic start, CPU seconds) of each.
    """
    budget = DEADLINE_S - (time.monotonic() - t_start)
    if budget <= 0:
        return False, "", "no time left before the deadline", []
    # one BLAS thread: the child has a single CPU, and its CPU time is measured
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    probes = []
    with tempfile.TemporaryFile("w+", dir=OUT) as out, \
            tempfile.TemporaryFile("w+", dir=OUT) as err:
        proc = subprocess.Popen([sys.executable, str(PIPELINE), *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err, text=True)
        try:
            if probe is None:
                proc.wait(timeout=budget)
            else:
                give_up = time.monotonic() + budget
                while proc.poll() is None:
                    if time.monotonic() > give_up:
                        raise subprocess.TimeoutExpired(proc.args, budget)
                    probes.append((time.monotonic(), probe.burst()))
                    time.sleep(PROBE_GAP_S)
        except subprocess.TimeoutExpired:
            return False, "", f"timed out after {budget:.0f} s", []
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        return proc.returncode == 0, out.read(), err.read()[-2000:], probes


def _scale(rec, probes):
    """Add the phase times at the reference speed to one run's record."""
    (m0, c0), (m1, c1), (m2, c2) = rec.pop("marks")

    def burst_s(a, b):
        inside = [d for t, d in probes if a <= t <= b]
        return statistics.median(inside or [d for _, d in probes])

    rec["setup_s"] = (c1 - c0) * PROBE_REF_S / burst_s(m0, m1)
    rec["mine_s"] = (c2 - c1) * PROBE_REF_S / burst_s(m1, m2)
    rec["total_s"] = rec["setup_s"] + rec["mine_s"]
    rec["wall_s"] = m2 - m0
    rec["probe_ms"] = burst_s(m0, m2) * 1e3


def _sample(workload, inputs, traced, tiny, spans, t_start, probe):
    args = ["run", workload, str(inputs), "--trace", "1" if traced else "0"]
    if traced:
        args += ["--spans", str(spans)]
    if tiny:
        args.append("--tiny")
    ok, stdout, stderr, probes = _child(args, t_start, probe)
    if not ok or not probes:
        return {"traced": traced, "failures": [f"run failed: {stderr.strip()}"]}
    rec = json.loads(stdout.strip().splitlines()[-1])
    rec["traced"] = traced
    _scale(rec, probes)
    return rec


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _per_input(samples, key):
    """The mean over the inputs of each input's median."""
    groups = {}
    for s in samples:
        groups.setdefault(s["input"], []).append(s[key])
    return statistics.fmean(statistics.median(v) for v in groups.values())


def measure(workload, seed, seconds, trace, tiny):
    """Run one workload for ``seconds``; print its report and result line."""
    t_start = time.monotonic()
    w = WORKLOADS[workload]
    traced = bool(trace)
    tag = f"{workload}_seed{seed}_trace{trace}" + ("_tiny" if tiny else "")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans_{tag}.tsv"
    work = Path(tempfile.mkdtemp(prefix=f"inputs_{tag}_", dir=OUT))
    # untraced runs cycle over INPUTS graphs of the seed, so that one graph's
    # share of easy or hard candidates does not set the result; traced runs
    # use the first, so that their counts repeat exactly
    inputs = [work / str(k) for k in range(1 if traced else INPUTS)]
    cpu = max(os.sched_getaffinity(0))
    samples, order = [], []
    try:
        for k, d in enumerate(inputs):
            d.mkdir()
            gen = ["gen", workload, str(seed * INPUTS + k), str(d)]
            ok, _, stderr, _ = _child(gen + (["--tiny"] if tiny else []), t_start)
            if not ok:
                print(f"perfbench: input generation failed:\n{stderr}", file=sys.stderr)
                return 1
        # the probe must share the pipeline's CPU; children inherit the pinning
        os.sched_setaffinity(0, {cpu})
        probe = Probe()
        t_measure = time.monotonic()
        plan = []
        while True:
            if not plan:
                if traced:
                    # a traced run next to an untraced one, swapping which goes first
                    first = len(samples) % 4 == 0
                    plan = [(0, not first), (0, first)]
                else:
                    plan = [(k, False) for k in range(len(inputs))]
            k, kind = plan.pop(0)
            t_run = time.monotonic()
            rec = _sample(workload, inputs[k], kind, tiny, spans, t_start, probe)
            rec["input"] = k
            samples.append(rec)
            order.append(("traced" if kind else "untraced") + f"#{len(samples)}/input{k}")
            # start no run that would end after the measuring window, once
            # every input and both kinds of run have one
            now = time.monotonic()
            if len(samples) < len(inputs) or len(samples) % 2 and traced:
                continue
            if now - t_measure + (now - t_run) > seconds:
                break
            if now - t_start + (now - t_run) > DEADLINE_S / 2:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [s for s in samples if not s["failures"]]
    plain = [s for s in good if not s["traced"]]
    with_trace = [s for s in good if s["traced"]]
    if not plain or (traced and not with_trace):
        print("perfbench: no run succeeded", file=sys.stderr)
        for s in samples:
            for f in s["failures"]:
                print(f"  {f}", file=sys.stderr)
        return 1

    failed = len(samples) - len(good)
    numpy_version = next(s["numpy"] for s in good)
    provenance = {
        "workload": workload, "why": w.why, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "pinned_cpu": cpu, "probe_ref_s": PROBE_REF_S,
        "python": platform.python_version(), "numpy": numpy_version, "run_order": order,
    }
    print(f"# perfbench {workload} seed={seed} seconds={seconds:g} "
          f"trace={trace}{' tiny' if tiny else ''}")
    print(f"# why: {w.why}")
    print(f"# host: nproc={provenance['nproc']} cpu={provenance['cpu']!r} "
          f"python={provenance['python']} numpy={numpy_version}")
    for label, s in zip(order, samples):
        if s["failures"]:
            print(f"# run {label}: FAILED {'; '.join(s['failures'])}")
        else:
            print(f"# run {label}: " + " ".join(f"{k}={s[k]:.4f}" for k in END_TO_END)
                  + f" wall_s={s['wall_s']:.4f} probe_ms={s['probe_ms']:.4f}"
                  + f" digest={s['digest']}")
    digests = {}
    for s in good:
        digests.setdefault(f"input{s['input']}", set()).add(s["digest"])
    digests = {k: sorted(v) for k, v in sorted(digests.items())}
    for k, v in digests.items():
        print(f"# ranking digest {k}: {', '.join(v)}"
              + ("" if len(v) == 1 else "  (differs between runs of one input)"))

    n_inputs = len({s["input"] for s in plain})
    how = f"mean over {n_inputs} input(s) of the median of each; {len(plain)} untraced runs"
    for k, unit in END_TO_END.items():
        print(f"# {k} = {_per_input(plain, k):.6g} {unit} ({how})")
    print(f"# raw wall time = {_per_input(plain, 'wall_s'):.6g} s, probe burst = "
          f"{_per_input(plain, 'probe_ms'):.6g} ms ({how})")
    print(f"# fail_rate = {failed}/{len(samples)}")
    if traced:
        # counts take a value some run produced, so they stay whole numbers
        metrics = {k: (statistics.median_low if PER_LAYER.get(k) == "count"
                       else statistics.median)(s["layers"][k] for s in with_trace)
                   for k in with_trace[0]["layers"]}
        # each traced run is compared with the untraced run next to it in
        # time, so that drift in machine speed cancels out
        pairs = [sorted(samples[i:i + 2], key=lambda s: s["traced"])
                 for i in range(0, len(samples) - 1, 2)]
        ratios = [t["total_s"] / u["total_s"] for u, t in pairs
                  if not (u["failures"] or t["failures"])]
        metrics["trace_overhead"] = (statistics.median(ratios) if ratios else
                                     _median(with_trace, "total_s") / _median(plain, "total_s"))
        metrics["trace_overhead"] -= 1.0
        metrics["fail_rate"] = failed / len(samples)
        counts = [k for k, u in PER_LAYER.items() if u == "count"]
        repeat = all(len({s["layers"][k] for s in with_trace}) == 1 for k in counts)
        print(f"# traced counts repeat exactly across {len(with_trace)} runs: {repeat}")
        notes = {"trace_overhead": f"median over {len(pairs)} traced/untraced pairs",
                 "fail_rate": f"{failed} of {len(samples)} runs"}
        for k, unit in PER_LAYER.items():
            value = metrics[k] if isinstance(metrics[k], int) else f"{metrics[k]:.6g}"
            note = notes.get(k, f"median of {len(with_trace)} traced runs")
            print(f"# {k} = {value} {unit} ({note})")
        units = PER_LAYER
    else:
        metrics = {k: _per_input(plain, k) for k in END_TO_END}
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = dict(result, provenance=provenance, samples=samples, digests=digests)
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="shrunken workload for self-tests")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(measure(name, args.seed, args.seconds, args.trace, args.tiny)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
