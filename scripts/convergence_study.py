#!/usr/bin/env python3
"""Convergence study on the closed-form N=2 rotation propagator.

Sweeps the fixed RK4 step sizes ``STEPS`` and the adaptive tolerances
``TOLS`` (atol = rtol), reporting the global error at t = ``T1`` against the
exact rotation matrix.  The RK4 column should show fourth-order decay
(error ratio ~16 per halving).

    PYTHONPATH=src python3 scripts/convergence_study.py
"""

import sys

import numpy as np

from weinorman import HamiltonianSignal, IntegrationConfig, integrate_wn

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
T1 = 1.0
STEPS = (0.1, 0.05, 0.025, 0.0125)  # fixed RK4 step sizes
TOLS = (1e-6, 1e-8, 1e-10, 1e-12)  # adaptive atol = rtol


def exact(t: float) -> np.ndarray:
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def main() -> int:
    sig = HamiltonianSignal(2, SIGMA_Y)
    K_ref = exact(T1)

    print("fixed RK4:")
    print(f"{'h':>10} {'error':>12} {'ratio':>8}")
    prev = None
    for h in STEPS:
        cfg = IntegrationConfig(t1=T1, method="rk4", fixed_step=h, samples=2)
        traj = integrate_wn(sig, cfg)
        err = float(np.linalg.norm(np.asarray(traj.K[-1]) - K_ref))
        ratio = f"{prev / err:8.2f}" if prev else "       -"
        print(f"{h:10.4g} {err:12.3e} {ratio}")
        prev = err

    print("\nadaptive (embedded 5(4) pair):")
    print(f"{'tol':>10} {'error':>12} {'steps':>7} {'rejected':>9}")
    for tol in TOLS:
        cfg = IntegrationConfig(t1=T1, atol=tol, rtol=tol, samples=2)
        traj = integrate_wn(sig, cfg)
        err = float(np.linalg.norm(np.asarray(traj.K[-1]) - K_ref))
        print(f"{tol:10.0e} {err:12.3e} {traj.n_steps:7d} {traj.n_rejected:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
