"""Seeded benchmark of the weinorman package: timed runs and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload unitary-n6 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each workload runs in its own single-threaded process as a closed loop with
one client: the next op starts when the previous one and its check are done.
Every op is checked against an independent oracle outside the timed region.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same ops are run untraced and
then traced (see ``spans.py``), and it holds the per-layer metrics.  The
exit code is 0 only if every op passed its check.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("unitary-n6", "chart-escape", "dense-grid-cli", "derive")
SETUP_PROBES = 5
DIGITS_CAP = 16.0  # float64 resolution; an exact match reads as the cap

# On a shared host the speed of one process drifts by up to 1.6x over
# minutes, far more than the bounds in BENCHMARK.json.  Every timed interval
# is therefore bracketed by a reference loop that does not touch the package,
# and its time is rescaled to a machine on which that loop takes
# REF_NOMINAL_S (its median on the 2-core x86-64 machine the bounds were set
# on).  A run lasts --seconds of rescaled time, so it holds the same ops
# whatever the speed of the moment, but at most MAX_WALL_FACTOR times
# --seconds of wall time.
REF_NOMINAL_S = 0.05
MAX_WALL_FACTOR = 1.6


class Reference:
    """Fixed work in the package's mix: small complex mat-vecs and bytecode."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.B = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self.v = rng.standard_normal(12) + 0j

    def __call__(self) -> float:
        np = self.np
        start = perf_counter()
        x = self.v
        for _ in range(5000):
            x = self.B @ x
            x = x / np.abs(x).max()
            x = x + 0.5 * (x * x)
        s = 0
        for i in range(100_000):
            s += i % 7
        return perf_counter() - start

    def bracket(self, fn):
        """(result, wall, scale): ``fn()`` timed between two reference runs."""
        before = self()
        start = perf_counter()
        out = fn()
        wall = perf_counter() - start
        return out, wall, REF_NOMINAL_S / ((before + self()) / 2)


@dataclass
class OpRecord:
    wall: float   # measured seconds
    scale: float  # REF_NOMINAL_S / reference time around the op
    check: object  # workloads.Check


def rescaled(records) -> list[float]:
    """Op times at nominal speed."""
    return [r.wall * r.scale for r in records]


def _import_workloads():
    """Import the benchmark's modules against this checkout's ``src``."""
    if not (SRC / "weinorman" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'weinorman'}")
    sys.path.insert(0, str(SRC))
    import weinorman

    if Path(weinorman.__file__).resolve().parent != (SRC / "weinorman").resolve():
        raise SystemExit(f"error: imported weinorman from {weinorman.__file__}")
    import workloads

    return workloads


def run_op(wl, ref, k, tracer=None) -> OpRecord:
    """Op ``k`` and its check; an op that raises counts as failed."""
    from workloads import Check

    start = perf_counter()
    wall, scale = None, 1.0
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints
            op = (lambda: tracer.run_op(k, wl.op, k)) if tracer else (lambda: wl.op(k))
            out, wall, scale = ref.bracket(op)
        check = wl.check(k, out)
    except Exception:  # keep going; the failure is counted and printed
        if wall is None:
            wall = perf_counter() - start
        check = Check(ok=False, reason=traceback.format_exc(limit=3))
    return OpRecord(wall, scale, check)


def run_ops(wl, ref, seconds, tracer=None):
    """Closed loop for ``seconds`` of rescaled op time.

    With a tracer, each op runs untraced and then traced, so that both runs
    of an op see the same machine speed.  Returns (untraced, traced) records.
    """
    plain, traced = [], []
    busy = wall_busy = 0.0
    while busy < seconds and wall_busy < MAX_WALL_FACTOR * seconds:
        k = len(plain)
        pair = [run_op(wl, ref, k)]
        plain.append(pair[0])
        if tracer:
            tracer.install()
            try:
                pair.append(run_op(wl, ref, k, tracer))
            finally:
                tracer.restore()
            traced.append(pair[1])
        busy += sum(r.wall * r.scale for r in pair)
        wall_busy += sum(r.wall for r in pair)
    return plain, traced


def digits(x: float) -> float:
    return DIGITS_CAP if x <= 10.0**-DIGITS_CAP else min(DIGITS_CAP, -math.log10(x))


def setup_seconds(name: str, seed: int, ref) -> tuple[float, float]:
    """Median time from process start to inputs built, over fresh processes.

    Returns (rescaled, measured) seconds.  The second reference run waits
    until the probe has exited, so that the two do not share a core.
    """
    times = []
    for _ in range(SETUP_PROBES):
        before = ref()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        wall = perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe for {name} failed")
        times.append((wall * REF_NOMINAL_S / ((before + ref()) / 2), wall))
    return statistics.median(t for t, _ in times), statistics.median(w for _, w in times)


def end_to_end(records, setup_s) -> dict:
    walls = rescaled(records)
    ok = [r.check for r in records if r.check.ok]
    return {
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "err_digits": (digits(max((c.err for c in ok), default=1.0)), "digits"),
        "unitarity_digits": (digits(max((c.unitarity for c in ok), default=1.0)), "digits"),
    }


def per_layer(tracer, records, overhead) -> dict:
    """Per-layer metrics from the traced ops; counts and times are per op."""
    calls, incl, self_ns = tracer.layer_times()
    n_ops = len(records)
    stats = {}
    for r in records:
        for key, val in r.check.stats.items():
            stats[key] = stats.get(key, 0) + val
    accepted, rejected = stats.get("accepted", 0), stats.get("rejected", 0)
    op_ns = incl["op"]

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(name):
        return ratio(incl[name], calls[name]) / 1e3

    m = {}
    for name in ("hierarchy.assemble_A_numeric", "hierarchy.rhs", "integrate.reconstruct_K"):
        m[f"{name}.calls"] = (calls[name] / n_ops, "count")
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
        m[f"{name}.share"] = (ratio(self_ns[name], op_ns), "frac")
    m["hierarchy.condition_estimate.calls"] = (calls["hierarchy.condition_estimate"] / n_ops, "count")
    m["hierarchy.condition_estimate.us_per_call"] = (us_per_call("hierarchy.condition_estimate"), "us")
    m["integrate.monitor_active_ratio"] = (ratio(calls["hierarchy.assemble_A_numeric"], accepted), "ratio")
    m["adjoint.apply_exp_ad.calls"] = (tracer.counts["adjoint.apply_exp_ad"] / n_ops, "count")
    m["signals.matrix.per_rhs"] = (ratio(calls["signals.matrix"], calls["hierarchy.rhs"]), "ratio")
    m["signals.coefficients.us_per_call"] = (us_per_call("signals.coefficients"), "us")
    m["basis.expand_in_basis.calls"] = (calls["basis.expand_in_basis"] / n_ops, "count")
    m["basis.expand_in_basis.us_per_call"] = (us_per_call("basis.expand_in_basis"), "us")
    m["integrate.steps.accepted"] = (accepted / n_ops, "count")
    m["integrate.steps.rejected"] = (rejected / n_ops, "count")
    m["integrate.steps.accept_ratio"] = (ratio(accepted, accepted + rejected), "ratio")
    m["integrate.rhs_per_step"] = (ratio(calls["hierarchy.rhs"], accepted + rejected), "ratio")
    m["integrate.stepper.self_share"] = (ratio(self_ns["integrate.integrate_wn"], op_ns), "frac")
    m["integrate.chart_switches"] = (stats.get("chart_switches", 0) / n_ops, "count")
    m["integrate.steps_per_sample"] = (ratio(accepted, stats.get("intervals", 0)), "ratio")
    m["integrate.trajectory_to_json.ms"] = (incl["integrate.trajectory_to_json"] / n_ops / 1e6, "ms")
    m["integrate.trajectory_to_json.bytes"] = (stats.get("json_bytes", 0) / n_ops, "bytes")
    m["cli.load_run_config.ms"] = (incl["cli.load_run_config"] / n_ops / 1e6, "ms")
    m["hierarchy.derive_hierarchy.ms"] = (incl["hierarchy.derive_hierarchy"] / n_ops / 1e6, "ms")
    m["hierarchy.emit.ms"] = (incl["hierarchy.emit"] / n_ops / 1e6, "ms")
    m["symexpr.terms"] = (stats.get("terms", 0) / n_ops, "count")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(args) -> int:
    workloads = _import_workloads()
    from spans import Tracer

    ref = Reference()
    setup_s, setup_measured = (None, None) if args.trace else setup_seconds(
        args.workload, args.seed, ref
    )

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

        if not args.trace:
            records, _ = run_ops(wl, ref, args.seconds)
            metrics = end_to_end(records, setup_s)
            mismatched = 0
        else:
            tracer = Tracer()
            plain, records = run_ops(wl, ref, args.seconds, tracer)
            mismatched = sum(
                a.check.fingerprint != b.check.fingerprint for a, b in zip(plain, records)
            )
            overhead = sum(rescaled(records)) / sum(rescaled(plain)) - 1.0
            metrics = per_layer(tracer, records, overhead)
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.check.ok for r in records)
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for r in records:
        if not r.check.ok:
            reason = r.check.reason.strip().splitlines() or ["no reason given"]
            print(f"# FAILED op: {reason[-1]}")
    if mismatched:
        print(f"# FAILED: {mismatched} traced ops differ from their untraced run")
    print(f"# failed_frac = {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    walls = [r.wall for r in records]
    measured = {
        "ops_per_s": len(walls) / sum(walls),
        "op_s_p50": statistics.median(walls),
        "setup_s": setup_measured,
        "reference_scale_p50": statistics.median(r.scale for r in records),
    }
    print("# as measured, before rescaling: " + json.dumps(measured))
    if not args.trace:
        print(f"# op_s_tail omitted: {len(records)} ops, a p75 needs 40 "
              "for ten ops beyond it")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and mismatched == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "measured": measured,
              "op_walls": walls, "op_scales": [r.scale for r in records], **result}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:  # set-up only: build the inputs, report, exit
        workloads = _import_workloads()
        workdir = HERE / "_work" / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
