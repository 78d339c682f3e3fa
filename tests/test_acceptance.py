"""Acceptance gate: the pinned correctness and performance contracts.

Every test here freezes a tolerance and a wall-clock budget.  The symbolic
systems are compared term-by-term against hand-written expressions (no
string matching, no emitter in the loop); the numeric claims run against
independently computed references.
"""

import time

import numpy as np
import pytest

from weinorman import (
    IntegrationConfig,
    RiccatiStage,
    SymbolicExpr,
    algebra,
    assemble_A_numeric,
    check_algebraic_properties,
    compare,
    derive_hierarchy,
    integrate_direct,
    integrate_wn,
    matrix_from_coefficients,
    random_antihermitian_signal,
    rhs,
)

a, u, E = SymbolicExpr.a, SymbolicExpr.u, SymbolicExpr.exp_u


class _Budget:
    """Context manager asserting a wall-clock ceiling."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s, budget {self.limit:.0f}s"
            )
        return False


def test_golden_n2_derivation():
    """The three N=2 equations, exactly, in under a second."""
    with _Budget(1.0):
        eqs = dict(derive_hierarchy(2).equations())
        diffs = [
            eqs[1] - (a(1) + 2 * a(2) * u(1) - a(3) * u(1) * u(1)),
            eqs[2] - (a(2) - a(3) * u(1)),
            eqs[3] - a(3) * E({2: 2}),
        ]
        assert all(d.is_zero for d in diffs), [d.render_plain() for d in diffs]
        assert len(eqs) == 3


def test_golden_n3_derivation():
    """All eight N=3 equations, including the Cartan exponentials."""
    with _Budget(5.0):
        sched = derive_hierarchy(3)
        eqs = dict(sched.equations())

        st1 = sched.stages[0]
        assert isinstance(st1, RiccatiStage)
        assert st1.c == (a(1), a(2))
        assert st1.C == (
            (-a(4) + 2 * a(5), a(6)),
            (a(3), a(4) + a(5)),
        )
        assert st1.b == (-a(8), -a(7))

        st2 = sched.stages[1]
        assert st2.unknowns == (3,)
        assert st2.c == (a(3) - a(8) * u(2),)
        assert st2.C == ((2 * a(4) - a(5) - a(7) * u(2) + a(8) * u(1),),)
        assert st2.b == ((-a(6) + a(7) * u(1)),)
        expected = {
            3: a(3)
            + 2 * a(4) * u(3)
            - a(5) * u(3)
            - a(6) * u(3) * u(3)
            + a(7) * u(1) * u(3) * u(3)
            - a(7) * u(2) * u(3)
            + a(8) * u(1) * u(3)
            - a(8) * u(2),
            4: a(4) - a(6) * u(3) + a(7) * u(1) * u(3) - a(7) * u(2),
            5: a(5) - a(7) * u(2) - a(8) * u(1),
            6: (a(6) - a(7) * u(1)) * E({4: 2, 5: -1}),
            7: (a(7) * u(3) + a(8)) * u(6) * E({4: -1, 5: 2})
            + a(7) * E({4: 1, 5: 1}),
            8: (a(8) + a(7) * u(3)) * E({4: -1, 5: 2}),
        }
        for i, want in expected.items():
            assert (eqs[i] - want).is_zero, f"u{i}': {eqs[i].render_plain()}"
        # the three exponential forms appear exactly as stated
        assert eqs[6].exp_indices() == {4, 5}
        forms = {form for (form, _), _ in eqs[7].terms()}
        assert ((4, -1), (5, 2)) in forms and ((4, 1), (5, 1)) in forms


def test_golden_n4_derivation():
    """Stage data for N=4: both Riccati stages and the scalar stage."""
    with _Budget(30.0):
        sched = derive_hierarchy(4)
        assert sched.n == 15
        assert len(dict(sched.equations())) == 15

        st1, st2, st3 = sched.stages[0], sched.stages[1], sched.stages[2]
        assert st1.c == (a(1), a(2), a(3))
        assert st1.C == (
            (-a(8) + 2 * a(9), a(12), a(11)),
            (a(4), -a(7) + a(8) + a(9), a(10)),
            (a(5), a(6), a(7) + a(9)),
        )
        assert st1.b == (-a(15), -a(14), -a(13))

        assert st2.c == (a(4) - a(15) * u(2), a(5) - a(15) * u(3))
        assert st2.C == (
            (
                -a(7) + 2 * a(8) - a(9) - a(14) * u(2) + a(15) * u(1),
                a(10) - a(13) * u(2),
            ),
            (
                a(6) - a(14) * u(3),
                a(7) + a(8) - a(9) - a(13) * u(3) + a(15) * u(1),
            ),
        )
        assert st2.b == (-a(12) + a(14) * u(1), -a(11) + a(13) * u(1))

        assert st3.unknowns == (6,)
        assert st3.c == (
            a(6) - a(12) * u(5) + a(14) * u(1) * u(5) - a(14) * u(3),
        )
        assert st3.C == (
            (
                2 * a(7)
                - a(8)
                - a(11) * u(5)
                + a(12) * u(4)
                + a(13) * u(1) * u(5)
                - a(13) * u(3)
                - a(14) * u(1) * u(4)
                + a(14) * u(2),
            ),
        )
        assert st3.b == (
            -a(10) + a(11) * u(4) - a(13) * u(1) * u(4) + a(13) * u(2),
        )


def test_structural_property_battery():
    """Nilpotency, fine triangular structure, invariant subspaces,
    block-diagonality, and the closed-form exponential, for N up to 6."""
    with _Budget(60.0):
        for N in range(2, 7):
            algN = algebra(N)
            report = check_algebraic_properties(
                algN.basis, algN.partition, algN.ads, draws=10, seed=100 + N
            )
            assert report.passed, f"N={N}:\n{report.summary()}"
            names = {c.name for c in report.checks}
            assert {
                "nilpotency-generators",
                "nilpotency-random-elements",
                "root-sector-triangularity",
                "invariant-subspaces",
                "block-diagonality",
                "exp-ad-oracle",
            } <= names
            # the exponential oracle check runs at 1e-12 relative
            exp_check = next(c for c in report.checks if c.name == "exp-ad-oracle")
            assert "1.000e-12" in exp_check.detail


def test_staged_solve_against_dense():
    """100 seeded draws per dimension: peeled solve == dense solve."""
    with _Budget(10.0):
        rng = np.random.default_rng(2024)
        for N in (2, 3, 4, 5):
            alg = algebra(N)
            assert np.array_equal(
                assemble_A_numeric(alg, np.zeros(alg.n)), np.eye(alg.n)
            )
            for _ in range(100):
                uv = 0.8 * (
                    rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
                )
                av = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
                staged = rhs(alg, uv, matrix_from_coefficients(av, alg.basis))
                dense = np.linalg.solve(assemble_A_numeric(alg, uv), av)
                err = np.linalg.norm(staged - dense)
                assert err < 1e-10 * max(np.linalg.norm(dense), 1.0), (
                    f"N={N}: staged-dense mismatch {err:.3e}"
                )


def test_end_to_end_unitary_evolution():
    """20 seeded random anti-Hermitian signals per dimension, ||M|| <= 5."""
    with _Budget(120.0):
        cfg = IntegrationConfig(t0=0.0, t1=1.0, samples=21)
        worst_dk = worst_unit = worst_det = 0.0
        for N in (2, 3, 4, 5):
            rng = np.random.default_rng(7000 + N)
            for _ in range(20):
                sig = random_antihermitian_signal(N, rng, sup_norm=5.0)
                traj = integrate_wn(sig, cfg)
                oracle = integrate_direct(sig, cfg)
                rep = compare(traj, oracle)
                worst_dk = max(worst_dk, rep.max_frobenius)
                worst_unit = max(worst_unit, max(traj.unitarity_defect))
                worst_det = max(worst_det, max(traj.det_defect))
        assert worst_dk < 1e-6, f"max ||K_wn - K_direct||_F = {worst_dk:.3e}"
        assert worst_unit < 1e-7, f"max ||K*K - I||_F = {worst_unit:.3e}"
        assert worst_det < 1e-8, f"max |det K - 1| = {worst_det:.3e}"


def test_singularity_detection_and_reanchor():
    """The tangent-escape signal: breakdown at pi/2, clean continuation."""
    with _Budget(5.0):
        from weinorman import ConstantSignal

        sig = ConstantSignal(2, [1.0, 0.0, -1.0])
        # a trust region wide enough that u_1 = tan t runs up to its pole
        cfg = IntegrationConfig(
            t0=0.0, t1=2.0, samples=41, u_threshold=1e6, cond_threshold=1e12
        )
        traj = integrate_wn(sig, cfg)
        assert traj.chart_events, "no chart breakdown detected"
        assert abs(traj.chart_events[0].time - np.pi / 2) < 1e-3
        assert traj.t[-1] == 2.0 and traj.chart_index[-1] >= 1
        oracle = integrate_direct(sig, cfg)
        end_err = np.linalg.norm(np.asarray(traj.K[-1]) - np.asarray(oracle.K[-1]))
        assert end_err < 1e-5, f"mismatch vs direct oracle at t=2: {end_err:.3e}"


def test_rk4_convergence_order():
    """Fixed-step RK4 on the rotation case: error ratio in [12, 20] per halving.

    M = [[0, -1], [1, 0]] runs on both routes, each through chart switches:
    as a ConstantSignal on the general route, and as a HamiltonianSignal on
    the unitary route, whose only integrated coordinate is u_1 = -tan t, so
    its error is that of RK4 on the Riccati equation u' = -(1 + u^2) itself
    (its ratio at h = 0.1 / 0.05 over a chart [0, 0.5] is 21.6, still short
    of the asymptotic 16).  Both run at h = 0.47 / 8, / 16, / 32 on
    [0, 0.94]: every run switches at the same times (0.47 and 0.94), so the
    ratios measure the order alone and not a chart layout that moves with h.
    """
    with _Budget(5.0):
        from weinorman import ConstantSignal, HamiltonianSignal

        t1, steps = 0.94, (0.47 / 8, 0.47 / 16, 0.47 / 32)
        K_exact = np.array([[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]])
        layouts = []
        for sig in (
            ConstantSignal(2, [-1.0, 0.0, 1.0]),
            HamiltonianSignal(2, np.array([[0.0, -1j], [1j, 0.0]])),
        ):
            errs, switches = [], []
            for h in steps:
                cfg = IntegrationConfig(
                    t0=0.0, t1=t1, method="rk4", fixed_step=h, samples=2
                )
                traj = integrate_wn(sig, cfg)
                errs.append(np.linalg.norm(np.asarray(traj.K[-1]) - K_exact))
                switches.append([round(ev.time, 9) for ev in traj.chart_events])
            assert switches[0], f"{sig.kind}: no chart switch"
            assert switches == [switches[0]] * 3, f"switch times {switches}"
            layouts.append(switches[0])
            ratios = [errs[0] / errs[1], errs[1] / errs[2]]
            for r in ratios:
                assert 12.0 < r < 20.0, f"{sig.kind}: convergence ratios {ratios}"
        assert layouts[0] == layouts[1], f"switch times {layouts}"
