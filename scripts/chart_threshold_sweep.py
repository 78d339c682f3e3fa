#!/usr/bin/env python3
"""Chart-size sweep: how the switch threshold on |u| trades steps for digits.

Integrates a fixed, seeded set of signals with ``integrate_wn`` at each
``u_threshold`` (``cond_threshold`` stays at 1e12) and checks every run
against ``integrate_direct`` on the same grid.  The set covers

- the tangent case ``ConstantSignal(2, [1, 0, -1])`` on [0, 6], whose
  first-chart coordinate u_1 = tan t has a pole at pi/2;
- the same signal with fixed-step RK4 (h = 1e-3) on [0, 3];
- one ``random_antihermitian_signal(N, default_rng(N), sup_norm=3)`` per
  N = 2..12 on [0, 2];
- non-unitary sl(N, C) constant signals, coefficients
  0.7 (normal + i normal) from ``default_rng(100 + N)``, N = 3, 4, 6, on [0, 1];
- the growing sl(3, C) signal ``ConstantSignal(3, [3, 1, 2, 1, 0.5, 2, 1, 3])``
  (eigenvalues 4.02, -0.39, -3.63) on [0, 10], where K spans 17 decades and
  the default threshold switches charts 58 times.

Per run it records accepted steps, chart switches (and how many of them the
condition test fired), the max ||K_wn - K_direct||_F over the samples, the
same relative to ||K_direct||_F, the max unitarity defect (unitary signals
only) and the median wall time of ``REPEATS`` runs.  A run that raises is
recorded with its exception.  Writes a Markdown report (``--out``) or prints
it.

    PYTHONPATH=src python3 scripts/chart_threshold_sweep.py \\
        --out scripts/chart_threshold_sweep.md
"""

import argparse
import statistics
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from weinorman import (
    ConstantSignal,
    IntegrationConfig,
    integrate_direct,
    integrate_wn,
    random_antihermitian_signal,
)

THRESHOLDS = (0.1, 0.25, 0.5, 1.0, 2.0, 10.0, 100.0, 1e6)
REPEATS = 3  # timed runs per cell; the median is reported


def cases():
    """(name, signal, config, unitary) for every scenario of the sweep."""
    tangent = ConstantSignal(2, [1.0, 0.0, -1.0])
    yield "tangent", tangent, IntegrationConfig(t1=6.0, samples=61), True
    yield "tangent-rk4", tangent, IntegrationConfig(
        t1=3.0, samples=31, method="rk4", fixed_step=1e-3
    ), True
    for N in range(2, 13):
        sig = random_antihermitian_signal(N, np.random.default_rng(N), sup_norm=3.0)
        yield f"unitary-N{N}", sig, IntegrationConfig(t1=2.0, samples=21), True
    for N in (3, 4, 6):
        rng = np.random.default_rng(100 + N)
        n = N * N - 1
        a = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        yield f"sl-N{N}", ConstantSignal(N, a), IntegrationConfig(
            t1=1.0, samples=21
        ), False
    yield "sl-N3-long", ConstantSignal(3, [3, 1, 2, 1, 0.5, 2, 1, 3]), (
        IntegrationConfig(t1=10.0, samples=11)
    ), False


def measure(signal, cfg, oracle, unitary):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                traj = integrate_wn(signal, cfg)
        except Exception as exc:  # recorded, not fatal: the sweep maps failures
            return {"error": f"{type(exc).__name__}: {str(exc)[:60]}"}
        times.append(time.perf_counter() - start)
    dK = np.linalg.norm(traj.K - oracle.K, axis=(1, 2))
    scale = np.linalg.norm(oracle.K, axis=(1, 2))
    return {
        "steps": traj.n_steps,
        "switches": len(traj.chart_events),
        "by_condition": sum(ev.trigger == "condition" for ev in traj.chart_events),
        "max_dK": float(dK.max()),
        "max_rel_dK": float((dK / scale).max()),
        "unitarity": float(traj.unitarity_defect.max()) if unitary else None,
        "seconds": statistics.median(times),
    }


def fmt(x, spec=".1e"):
    return "—" if x is None else format(x, spec)


def report(rows) -> str:
    lines = [
        "# Chart threshold sweep",
        "",
        "Generated by `scripts/chart_threshold_sweep.py`; "
        "`cond_threshold` = 1e12 throughout; times are medians of "
        f"`REPEATS` = {REPEATS} runs.",
        "",
        "## Totals per threshold",
        "",
        "Worst errors are over the unitary cases (absolute) and the sl(N, C) "
        "cases (relative); time is the sum of the per-run medians.",
        "",
        "| u_threshold | steps | switches | by cond. | worst ‖ΔK‖ unitary "
        "| worst rel. ‖ΔK‖ sl(N) | worst unitarity | failed | time (s) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for thr in THRESHOLDS:
        runs = [(name, unitary, r[thr]) for name, unitary, r in rows]
        ok = [(u, m) for _, u, m in runs if "error" not in m]
        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.2f} |".format(
                f"{thr:g}",
                sum(m["steps"] for _, m in ok),
                sum(m["switches"] for _, m in ok),
                sum(m["by_condition"] for _, m in ok),
                fmt(max((m["max_dK"] for u, m in ok if u), default=None)),
                fmt(max((m["max_rel_dK"] for u, m in ok if not u), default=None)),
                fmt(max((m["unitarity"] for u, m in ok if u), default=None)),
                ", ".join(name for name, _, m in runs if "error" in m) or "0",
                sum(m["seconds"] for _, m in ok),
            )
        )
    lines += [
        "",
        "## Per case",
        "",
        "Each cell: steps / switches / max ‖ΔK‖ (relative for sl(N)) / "
        "max unitarity defect / seconds.",
        "",
        "| case | " + " | ".join(f"{t:g}" for t in THRESHOLDS) + " |",
        "|---|" + "---|" * len(THRESHOLDS),
    ]
    for name, unitary, r in rows:
        cells = []
        for thr in THRESHOLDS:
            m = r[thr]
            if "error" in m:
                cells.append(m["error"])
                continue
            err = m["max_dK"] if unitary else m["max_rel_dK"]
            cells.append(
                f"{m['steps']} / {m['switches']} / {fmt(err)} / "
                f"{fmt(m['unitarity'])} / {m['seconds']:.3f}"
            )
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the Markdown report here")
    args = ap.parse_args(argv)

    rows = []
    for name, signal, base, unitary in cases():
        oracle = integrate_direct(signal, base)
        results = {}
        for thr in THRESHOLDS:
            cfg = replace(base, u_threshold=thr)
            results[thr] = measure(signal, cfg, oracle, unitary)
        rows.append((name, unitary, results))
        print(f"{name}: done", file=sys.stderr)
    text = report(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
