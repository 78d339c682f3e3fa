#!/usr/bin/env python3
"""Per-layer costs of one integration step and of the exact derivation.

The step table gives µs per call for N = 2..12.

For each N the signal is the seeded baseline one,
``random_antihermitian_signal(N, default_rng(N), sup_norm=3)``, and the
chart state a seeded reduced state with |u| <= 0.3.  These layers are timed:

- *signal*: one step's signal evaluation, the five new DP5 stage times in
  one ``matrices`` call, with the trace removed (what ``integrate_wn`` asks
  for per attempted step);
- *stage*: one stage's right-hand side as the stepper takes it, on the
  unitary route (the stage that ``_UnitaryChart.stage`` builds once per
  run) and on the general route (``_GaussChart.stage``, the block peel),
  written into its row of the stage buffer with the trace rate;
- *abs_u*: the max-|u| test of the unitary route, ``_UnitaryChart.factor``
  (R from a raw QR, no Q) and ``abs_u``;
- *error norm*: one step's error norm on a unitary-route state, ``np.abs``
  of the new state and ``_error_norm`` (|y| of the old state is carried);
- *step*: a whole ``integrate_wn`` run on [0, 1] with 2 samples, unitary
  route, divided by its accepted steps (trust-region checks, switches and
  the two samples included);
- *dense step*: the same run with 1001 samples, which clamp it to at least
  1000 steps, divided by its accepted steps: the per-step cost of a dense
  grid, the samples' rebuild included.

The derivation table gives ms per call for N = 2..8 of the symbolic layer:
``derive_hierarchy(N)`` (the full exact peel; only the algebra is built
once) and ``emit`` of that schedule in each format (every call renders).

Each figure is the median of ``REPEATS`` timings, each the mean over a
loop of calls.  Writes the Markdown tables (``--out``) or prints them.

    PYTHONPATH=src python3 scripts/stage_costs.py --out scripts/stage_costs.md
"""

import argparse
import os
import platform
import statistics
import sys
import timeit

import numpy as np

from weinorman import (
    IntegrationConfig,
    algebra,
    derive_hierarchy,
    emit,
    integrate_wn,
    random_antihermitian_signal,
)
from weinorman.integrate import (
    _DP54,
    _error_norm,
    _GaussChart,
    _traceless_matrices,
    _UnitaryChart,
)

NS = (2, 3, 4, 6, 8, 12)
DERIVE_NS = tuple(range(2, 9))
FORMATS = ("plain", "latex", "json")
REPEATS = 7


def _median_us(fn, number: int) -> float:
    return 1e6 * statistics.median(timeit.repeat(fn, repeat=REPEATS, number=number)) / number


def _reduced_state(alg, rng, size: float = 0.3) -> np.ndarray:
    """Upper coordinates and i Im of the Cartan ones, as the unitary chart holds them."""
    maps = alg.basis.maps
    y = np.zeros(maps.cartan.stop, dtype=complex)
    k = maps.upper.stop
    y[:k] = size * rng.uniform(0, 1, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    y[maps.cartan] = 1j * size * rng.uniform(-1, 1, alg.N - 1)
    return y


def costs(N: int) -> dict:
    alg = algebra(N)
    sig = random_antihermitian_signal(N, np.random.default_rng(N), sup_norm=3.0)
    rng = np.random.default_rng(100 + N)
    ts = 0.3 + 0.01 * _DP54.new_c
    M0s, rates = _traceless_matrices(sig, ts)
    M0, rate = M0s[0], rates[0]

    unitary, general = _UnitaryChart(alg), _GaussChart(alg)
    stage_unitary, stage_general = unitary.stage(), general.stage()
    y = _reduced_state(alg, rng)
    u = 0.3 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
    out_unitary = np.empty(unitary.size + 1, dtype=complex)
    out_general = np.empty(alg.n + 1, dtype=complex)
    # a step's error estimate on the unitary state with its phase slot
    y_old = np.append(y, 0.1j)
    y_new = y_old + 1e-3
    err = 1e-11 * (rng.standard_normal(y_old.size) + 1j * rng.standard_normal(y_old.size))
    abs_old = np.abs(y_old)

    def step_us(samples: int) -> tuple[float, int, int]:
        """µs per accepted step of a run on [0, 1]; its accepted and rejected steps."""
        cfg = IntegrationConfig(t1=1.0, samples=samples)
        traj = integrate_wn(sig, cfg)
        run_us = _median_us(lambda: integrate_wn(sig, cfg), 1)
        return run_us / traj.n_steps, traj.n_steps, traj.n_rejected

    step, steps, rejected = step_us(2)
    return {
        "signal": _median_us(lambda: _traceless_matrices(sig, ts), 2000),
        "stage_unitary": _median_us(lambda: stage_unitary(M0, rate, y, out_unitary), 2000),
        "stage_general": _median_us(lambda: stage_general(M0, rate, u, out_general), 1000),
        "abs_u": _median_us(lambda: unitary.abs_u(y, unitary.factor(y)), 2000),
        "error_norm": _median_us(
            lambda: _error_norm(err, abs_old, np.abs(y_new), 1e-10, 1e-10), 5000
        ),
        "step": step,
        "steps": steps,
        "rejected": rejected,
        "dense_step": step_us(1001)[0],
    }


def derive_costs(N: int) -> dict:
    """ms per call of ``derive_hierarchy(N)`` and of ``emit`` per format."""
    algebra(N)
    schedule = derive_hierarchy(N)

    def median_ms(fn) -> float:
        # enough calls per timing to last about 20 ms
        number = max(1, int(0.02 / timeit.timeit(fn, number=1)))
        return _median_us(fn, number) / 1e3

    out = {"derive": median_ms(lambda: derive_hierarchy(N))}
    for fmt in FORMATS:
        out[fmt] = median_ms(lambda: emit(schedule, fmt))
    out["terms"] = sum(len(expr.terms()) for _, expr in schedule.equations())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the Markdown tables here")
    args = ap.parse_args(argv)

    lines = [
        "# Per-layer costs",
        "",
        f"`scripts/stage_costs.py`, median of `REPEATS` = {REPEATS} timings; "
        f"{platform.machine()}, {os.cpu_count()} cores (shared host), "
        f"Python {platform.python_version()}, numpy {np.__version__}.",
        "",
        "## One integration step",
        "",
        "µs per call; *step* is a whole unitary-route run on [0, 1] with 2 "
        "samples divided by its accepted steps, *dense step* the same with "
        "1001 samples.  The shared host's speed "
        "drifts by up to 2x between runs, so compare rows of one run, and "
        "runs only by the median of several.",
        "",
        "| N | signal, 5 stage times | unitary stage | general stage | abs_u "
        "| error norm | step | accepted / rejected | dense step |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for N in NS:
        c = costs(N)
        lines.append(
            f"| {N} | {c['signal']:.1f} | {c['stage_unitary']:.1f} "
            f"| {c['stage_general']:.1f} | {c['abs_u']:.1f} | {c['error_norm']:.1f} "
            f"| {c['step']:.0f} "
            f"| {c['steps']} / {c['rejected']} | {c['dense_step']:.0f} |"
        )
    lines += [
        "",
        "## Exact derivation",
        "",
        "ms per call; *terms* counts the terms of the schedule's equations.",
        "",
        "| N | derive_hierarchy | emit plain | emit latex | emit json | terms |",
        "|---|---|---|---|---|---|",
    ]
    for N in DERIVE_NS:
        c = derive_costs(N)
        lines.append(
            f"| {N} | {c['derive']:.2f} | {c['plain']:.2f} | {c['latex']:.2f} "
            f"| {c['json']:.2f} | {c['terms']} |"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
