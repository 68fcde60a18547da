"""Self-tests of the benchmark, on shrunken copies of its workloads.

    python3 -m pytest -q perfbench

They check that every named metric is produced with its unit, that traced
counts repeat exactly across runs, and that corrupted output trips the
correctness checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(workload, trace, seed=3):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                           "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_present_with_units(workload):
    metrics = _bench(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_metrics_present_and_counts_repeat(workload):
    first, second = _bench(workload, trace=1), _bench(workload, trace=1)
    assert {k: v["unit"] for k, v in first.items()} == bench.PER_LAYER
    counts = [k for k, unit in bench.PER_LAYER.items() if unit == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["scores.score_calls"]["value"] > 0
    assert first["fail_rate"]["value"] == 0


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def mined(request, tmp_path_factory):
    w = WORKLOADS[request.param].at_size(tiny=True)
    inputs = tmp_path_factory.mktemp(request.param)
    pipeline.generate(w, 5, inputs)
    manifest = json.loads((inputs / pipeline.MANIFEST).read_text(encoding="utf-8"))
    out, _marks = pipeline.mine(w, inputs)
    return w, manifest, out


def test_checks_pass_on_real_output(mined):
    w, manifest, out = mined
    assert pipeline.check(w, manifest, out) == []


def test_swapped_patterns_trip_the_checks(mined):
    w, manifest, out = mined
    if len(out.rounds) > 1:
        rounds = [out.rounds[1], out.rounds[0]] + out.rounds[2:]
    else:
        rounds = [out.rounds[0][::-1]]
    bad = pipeline.Mined(out.g, out.selectors, rounds, out.models, out.constants)
    assert pipeline.check(w, manifest, bad)


def test_unabsorbed_model_trips_the_checks(mined):
    w, manifest, out = mined
    if len(out.models) < 2:
        pytest.skip("workload absorbs no pattern")
    models = [out.models[0]] * len(out.models)
    bad = pipeline.Mined(out.g, out.selectors, out.rounds, models, out.constants)
    assert any("absorbing" in f for f in pipeline.check(w, manifest, bad))


def test_digest_ignores_si_noise_below_tolerance(mined):
    _w, _manifest, out = mined
    top = out.rounds[0][0]
    si = top.si
    try:
        top.si = si * (1 + 1e-13)
        nudged = pipeline.digest(out.rounds)
        top.si = si * 1.01
        moved = pipeline.digest(out.rounds)
    finally:
        top.si = si
    assert nudged == pipeline.digest(out.rounds) != moved


def test_scaling_uses_the_probe_bursts_of_each_phase():
    rec = {"marks": [[10.0, 0.0], [11.0, 0.5], [13.0, 2.5]]}
    probes = [(10.5, 0.004), (12.0, 0.001), (12.5, 0.003), (12.9, 0.001)]
    bench._scale(rec, probes)
    assert rec["setup_s"] == pytest.approx(0.5 * bench.PROBE_REF_S / 0.004)
    assert rec["mine_s"] == pytest.approx(2.0 * bench.PROBE_REF_S / 0.001)
    assert rec["total_s"] == pytest.approx(rec["setup_s"] + rec["mine_s"])
    assert rec["wall_s"] == pytest.approx(3.0)
