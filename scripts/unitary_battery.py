#!/usr/bin/env python3
"""Random-signal battery: both integration routes against the dense oracle.

Draws seeded random smooth anti-Hermitian signals
(``random_antihermitian_signal(N, default_rng(seed + 1000 N))``) and runs
each through ``integrate_wn`` twice: as the HamiltonianSignal it is drawn
as, which takes the unitary route (the Riccati hierarchy and the Cartan
phases, K rebuilt by QR), and as its ``_fourier_twin``, which takes the
general route (all N^2 - 1 coordinates).  The route follows from the
signal's type alone.  Both runs are compared with one ``integrate_direct``
run on the same grid.  Per N and route it reports the accepted steps and
chart switches summed over the signals, the wall time (sum over signals of
the median of ``REPEATS`` runs), and the worst ||K - K_direct||_F,
unitarity defect ||K^+ K - I||_F and |det K - 1| over all samples.  Writes
a Markdown report (``--out``) or prints it.

    PYTHONPATH=src python3 scripts/unitary_battery.py \\
        --out scripts/unitary_battery.md
"""

import argparse
import os
import platform
import statistics
import sys
import time

import numpy as np

from weinorman import (
    IntegrationConfig,
    compare,
    integrate_direct,
    integrate_wn,
    random_antihermitian_signal,
)
from weinorman.signals import _fourier_twin

ROUTES = ("unitary", "general")
REPEATS = 3  # timed runs per signal and route; the median is reported


def measure(signal, cfg, oracle) -> dict:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        traj = integrate_wn(signal, cfg)
        times.append(time.perf_counter() - start)
    return {
        "steps": traj.n_steps,
        "switches": len(traj.chart_events),
        "seconds": statistics.median(times),
        "dK": compare(traj, oracle).max_frobenius,
        "unitarity": float(max(traj.unitarity_defect)),
        "det": float(max(traj.det_defect)),
    }


def merge(runs: list[dict]) -> dict:
    return {
        "steps": sum(r["steps"] for r in runs),
        "switches": sum(r["switches"] for r in runs),
        "seconds": sum(r["seconds"] for r in runs),
        "dK": max(r["dK"] for r in runs),
        "unitarity": max(r["unitarity"] for r in runs),
        "det": max(r["det"] for r in runs),
    }


def report(rows, args) -> str:
    lines = [
        "# Unitary battery",
        "",
        f"Generated by `scripts/unitary_battery.py`: {args.signals} signals per N, "
        f"seed {args.seed}, sup norm {args.sup_norm:g}, [0, 1], {args.samples} "
        f"samples, default tolerances; time is the sum over the signals of "
        f"the median of {REPEATS} runs.",
        "",
        f"Host: {platform.machine()}, {os.cpu_count()} cores, Python "
        f"{platform.python_version()}, numpy {np.__version__}.",
        "",
        "| N | route | steps | switches | time (s) | max ‖ΔK‖ | max unitarity "
        "| max \\|det − 1\\| |",
        "|---|---|---|---|---|---|---|---|",
    ]
    totals = {route: [] for route in ROUTES}
    for N, by_route in rows:
        for route in ROUTES:
            m = by_route[route]
            totals[route].append(m)
            lines.append(
                f"| {N} | {route} | {m['steps']} | {m['switches']} | "
                f"{m['seconds']:.3f} | {m['dK']:.1e} | {m['unitarity']:.1e} | "
                f"{m['det']:.1e} |"
            )
    for route in ROUTES:
        m = merge(totals[route])
        lines.append(
            f"| all | {route} | {m['steps']} | {m['switches']} | "
            f"{m['seconds']:.3f} | {m['dK']:.1e} | {m['unitarity']:.1e} | "
            f"{m['det']:.1e} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(range(2, 13)))
    ap.add_argument("--signals", type=int, default=5, help="draws per dimension")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sup-norm", type=float, default=5.0)
    ap.add_argument("--samples", type=int, default=21)
    ap.add_argument("--out", help="write the Markdown report here")
    args = ap.parse_args(argv)

    cfg = IntegrationConfig(t1=1.0, samples=args.samples)
    rows = []
    for N in args.n:
        rng = np.random.default_rng(args.seed + 1000 * N)
        runs = {route: [] for route in ROUTES}
        for _ in range(args.signals):
            sig = random_antihermitian_signal(N, rng, sup_norm=args.sup_norm)
            oracle = integrate_direct(sig, cfg)
            for route, signal in zip(ROUTES, (sig, _fourier_twin(sig))):
                runs[route].append(measure(signal, cfg, oracle))
        rows.append((N, {route: merge(runs[route]) for route in ROUTES}))
        print(f"N = {N}: done", file=sys.stderr)
    text = report(rows, args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
