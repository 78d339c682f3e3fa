"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

workloads = run._import_workloads()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import weinorman  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _wrapped_slots():
    slots = [(o, a) for o, a, _ in (*spans.SPANNED, *spans.COUNTED)]
    slots += [(o, a) for o, a, _ in spans._signal_methods()]
    return {(o, a): vars(o)[a] for o, a in slots}


def test_tracer_restores_every_wrapped_name():
    before = _wrapped_slots()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not f for (o, a), f in before.items())
        sig = weinorman.ConstantSignal(2, [1.0, 0.0, -1.0])
        cfg = weinorman.IntegrationConfig(t1=0.5, samples=3)
        with pytest.raises(ZeroDivisionError):
            tracer.run_op(0, lambda: weinorman.integrate.integrate_wn(sig, cfg) and 1 / 0)
    finally:
        tracer.restore()
    assert _wrapped_slots() == before
    assert all(vars(o)[a] is f for (o, a), f in before.items())
    calls, _, _ = tracer.layer_times()
    assert calls["op"] == 1 and calls["integrate.integrate_wn"] == 1
    assert calls["hierarchy.rhs"] > 0 and tracer.counts["adjoint.apply_exp_ad"] > 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", "derive",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def _shift_trajectory(traj):
    traj.K[...] += 1e-3
    return traj


def _shift_file(path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["K"] = (np.asarray(obj["K"]) + 1e-3).tolist()
    path.write_text(json.dumps(obj), encoding="utf-8")


PERTURB = {
    "unitary-n6": lambda wl, out: _shift_trajectory(out),
    "chart-escape": lambda wl, out: tuple(_shift_trajectory(t) for t in out),
    "dense-grid-cli": lambda wl, out: (_shift_file(wl.out_path), out)[1],
}


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_negative_control_perturbed_K_fails_every_op(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    op = wl.op
    wl.op = lambda k: PERTURB[name](wl, op(k))
    record = run.run_op(wl, run.Reference(), 0)
    assert not record.check.ok
    assert "||dK||" in record.check.reason
