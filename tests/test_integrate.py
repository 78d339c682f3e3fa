"""Product-of-exponentials integration against closed forms and the dense oracle."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from weinorman import (
    ChartSingularityError,
    ConstantSignal,
    HamiltonianSignal,
    IntegrationConfig,
    PiecewiseSignal,
    Trajectory,
    algebra,
    compare,
    integrate_direct,
    integrate_wn,
    random_antihermitian_signal,
    reconstruct_K,
)
from weinorman import hierarchy, integrate
from weinorman.hierarchy import assemble_A_gauss, rhs, riccati_rhs
from weinorman.integrate import (
    _drive,
    _GaussChart,
    _UnitaryChart,
    condition_estimate,
)
from weinorman.signals import _fourier_twin

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def _rotation_signal():
    # M(t) = -i sigma_y = [[0, -1], [1, 0]]; K(t) is a planar rotation
    return HamiltonianSignal(2, SIGMA_Y)


def _rotation_K(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


# -- chart factors ---------------------------------------------------------------


def factor_exp(alg, m: int, u: complex) -> np.ndarray:
    """exp(u X_m) in closed form, the reference for reconstruct_K.

    Root units square to zero (I + u E_pq); Cartan elements exponentiate to
    diag(1, ..., e^u, e^{-u}, ..., 1) at slots (l, l+1).
    """
    el = alg.basis.element(m)
    N = alg.N
    if el.role == "cartan":
        l = el.position[0]
        d = np.ones(N, dtype=complex)
        d[l - 1] = np.exp(u)
        d[l] = np.exp(-u)
        return np.diag(d)
    return np.eye(N, dtype=complex) + u * el.matrix


def test_factor_exp_root(alg2):
    F = factor_exp(alg2, 1, 0.5 + 0.25j)
    assert np.array_equal(F, np.array([[1.0, 0.5 + 0.25j], [0.0, 1.0]]))
    G = factor_exp(alg2, 3, 2.0)
    assert np.array_equal(G, np.array([[1.0, 0.0], [2.0, 1.0]]))


def test_factor_exp_cartan(alg2):
    F = factor_exp(alg2, 2, 0.3 - 0.1j)
    assert np.allclose(F, np.diag([np.exp(0.3 - 0.1j), np.exp(-0.3 + 0.1j)]))


def test_factor_exp_cartan_n3(alg3):
    F = factor_exp(alg3, 5, 1.0)  # H_2 = diag(0, 1, -1)
    assert np.allclose(F, np.diag([1.0, np.e, 1.0 / np.e]))


def test_reconstruct_is_ordered_product():
    rng = np.random.default_rng(0)
    for N in range(2, 9):
        alg = algebra(N)
        u = rng.uniform(0, 3, alg.n) * np.exp(2j * np.pi * rng.uniform(size=alg.n))
        want = np.eye(N, dtype=complex)
        for m in range(1, alg.n + 1):
            want = want @ factor_exp(alg, m, u[m - 1])
        got = reconstruct_K(alg, u)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), N
        assert np.array_equal(reconstruct_K(alg, np.zeros(alg.n)), np.eye(N))


# -- closed-form checks ------------------------------------------------------------


def test_zero_signal_gives_identity():
    sig = ConstantSignal(3, np.zeros(8))
    traj = integrate_wn(sig, IntegrationConfig(t1=1.0, samples=11))
    for K in traj.K:
        assert np.allclose(K, np.eye(3), atol=1e-12)
    assert max(traj.unitarity_defect) < 1e-12
    assert max(traj.det_defect) < 1e-12
    assert not traj.chart_events


def test_constant_cartan_signal():
    c = 0.8
    sig = ConstantSignal(2, [0.0, c, 0.0])
    traj = integrate_wn(sig, IntegrationConfig(t1=1.0, samples=21))
    for t, K in zip(traj.t, traj.K):
        assert np.allclose(K, np.diag([np.exp(c * t), np.exp(-c * t)]), atol=1e-9)


def test_rotation_closed_form():
    traj = integrate_wn(_rotation_signal(), IntegrationConfig(t1=1.2, samples=25))
    for t, K in zip(traj.t, traj.K):
        assert np.linalg.norm(K - _rotation_K(t)) < 1e-8
    assert max(traj.unitarity_defect) < 1e-9
    assert max(traj.det_defect) < 1e-9


def test_wn_matches_direct_oracle():
    sig = _rotation_signal()
    cfg = IntegrationConfig(t1=1.0, samples=11)
    rep = compare(integrate_wn(sig, cfg), integrate_direct(sig, cfg))
    assert rep.max_frobenius < 1e-8
    assert rep.max_unitarity_diff < 1e-8
    assert rep.n_points == 11


def test_nontraceless_hamiltonian_phase_split():
    # tr H != 0: the engine works on the traceless part, the phase is exact
    h0 = np.array([[2.0, 1.0], [1.0, 0.0]])
    sig = HamiltonianSignal(2, h0)
    cfg = IntegrationConfig(t1=1.0, samples=9)
    rep = compare(integrate_wn(sig, cfg), integrate_direct(sig, cfg))
    assert rep.max_frobenius < 1e-8
    traj = integrate_wn(sig, cfg)
    # det K = exp(-i tr(H) t), not 1 -- the det defect tracks the engine part
    assert max(traj.det_defect) < 1e-10
    assert max(traj.unitarity_defect) < 1e-9
    # phase factor integrates tr(M)/N = -i tr(H)/N exactly
    assert abs(traj.phase_factor[-1] - np.exp(-1j * 1.0)) < 1e-9


# -- singular charts ---------------------------------------------------------------


def _tan_signal():
    # u_1(t) = tan(t) in the initial chart: blows up at pi/2
    return ConstantSignal(2, [1.0, 0.0, -1.0])


def _tan_K(t):
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


# a trust region wide enough that u_1 = tan t runs up to its pole at pi/2,
# for the tests that exercise pole handling
POLE_TRUST_REGION = {"u_threshold": 1e6, "cond_threshold": 1e12}


def test_reanchor_walks_through_singularity():
    cfg = IntegrationConfig(t1=2.0, samples=41, u_threshold=1e6)
    traj = integrate_wn(_tan_signal(), cfg)
    assert traj.chart_events
    ev = traj.chart_events[0]
    assert abs(ev.time - np.pi / 2) < 1e-3
    assert ev.trigger in ("u-growth", "condition")
    assert traj.chart_index[-1] >= 1
    assert traj.chart_index[0] == 0
    # accuracy survives the chart switch; the re-anchor product near the
    # trust-region edge costs a few digits, so the budget here is 1e-5
    K_end = traj.K[-1]
    assert np.linalg.norm(K_end - _tan_K(2.0)) < 1e-5
    assert max(traj.unitarity_defect) < 1e-5


def test_no_reanchor_aborts_with_report():
    cfg = IntegrationConfig(
        t1=2.0, samples=11, reanchor=False, **POLE_TRUST_REGION
    )
    with pytest.raises(ChartSingularityError) as info:
        integrate_wn(_tan_signal(), cfg)
    report = info.value.report
    assert abs(report.time - np.pi / 2) < 1e-3
    assert report.trigger in ("u-growth", "condition")
    assert report.generator_index is not None
    assert "chart" in report.describe()


def test_u_growth_breakdown_reports_generator_and_stage():
    # only a_3 = 1 on sl(3): u_3 = t is the sole growing coordinate, in J_2
    a = np.zeros(8)
    a[2] = 1.0
    cfg = IntegrationConfig(t1=1.0, samples=11, u_threshold=0.5, reanchor=False)
    with pytest.raises(ChartSingularityError) as info:
        integrate_wn(ConstantSignal(3, a), cfg)
    report = info.value.report
    assert report.trigger == "u-growth"
    assert report.generator_index == 3
    assert report.stage == 2
    assert report.value == pytest.approx(report.time) and report.value > 0.5


def test_integrate_wn_never_calls_oracle_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle route called from integrate_wn")

    monkeypatch.setattr("weinorman.hierarchy.apply_exp_ad", forbidden)
    monkeypatch.setattr("weinorman.integrate.assemble_A_numeric", forbidden)
    traj = integrate_wn(_tan_signal(), IntegrationConfig(t1=2.0, samples=41))
    assert traj.chart_events
    assert np.linalg.norm(traj.K[-1] - _tan_K(2.0)) < 1e-5


def test_many_chart_switches_stay_accurate():
    # u_threshold = 1 re-anchors whenever |u| passes 1: 7 switches on [0, 6]
    cfg = IntegrationConfig(t1=6.0, samples=61, u_threshold=1.0)
    traj = integrate_wn(_tan_signal(), cfg)
    oracle = integrate_direct(_tan_signal(), cfg)
    assert len(traj.chart_events) == 7
    assert all(ev.trigger == "u-growth" for ev in traj.chart_events)
    # measured 8.3e-10 (error) and 1.3e-9 (unitarity); 1e-8 leaves 7x margin
    err = np.linalg.norm(traj.K - oracle.K, axis=(1, 2)).max()
    assert err < 1e-8
    assert max(traj.unitarity_defect) < 1e-8
    # a switch that lands on a sample time keeps the step that reached it
    assert (traj.step_size[1:] > 0).all()


def test_non_unitary_signal_across_many_switches():
    # a growing sl(3) propagator (eigenvalues 4.02, -0.39, -3.63): each new
    # chart composes on the right of the frozen factor, so the ill-conditioned
    # K(t_s) is never inverted
    sig = ConstantSignal(3, [3, 1, 2, 1, 0.5, 2, 1, 3])
    traj = integrate_wn(sig, IntegrationConfig(t1=10.0, samples=11))
    assert len(traj.chart_events) >= 50  # measured 58
    M = sig.matrix(0.0)
    exact = np.array([scipy.linalg.expm(M * t) for t in traj.t])
    rel = np.linalg.norm(traj.K - exact, axis=(1, 2)) / np.linalg.norm(
        exact, axis=(1, 2)
    )
    assert rel.max() < 1e-8  # measured 5.9e-10


def test_default_small_charts_through_the_pole():
    # at the default trust region every chart is left once |u| > 0.5, long
    # before the pole: 12 switches on [0, 6]
    cfg = IntegrationConfig(t1=6.0, samples=61)
    traj = integrate_wn(_tan_signal(), cfg)
    oracle = integrate_direct(_tan_signal(), cfg)
    assert traj.chart_events
    assert all(ev.trigger == "u-growth" for ev in traj.chart_events)
    # measured 5.1e-10 (error) and 8.5e-10 (unitarity)
    err = np.linalg.norm(traj.K - oracle.K, axis=(1, 2)).max()
    assert err < 1e-8
    assert max(traj.unitarity_defect) < 1e-8


def test_default_estimates_condition_only_at_switches(monkeypatch):
    # at the default u_threshold the monitor's cond(A) gate is never open
    # without a switch, and a switch's report computes cond(A) when it is
    # first read: no SVD during the run, one per event on the first read,
    # from the coordinates the chart held at the switch
    calls, switched_at = [], []
    rebuild = _UnitaryChart.rebuild

    def counting(A):
        calls.append(A.shape)
        return condition_estimate(A)

    def keep_u(self, y, f, K=True):
        out = rebuild(self, y, f, K)
        if not K:  # the u of a breakdown check, here only at a switch
            switched_at.append(out[1].copy())
        return out

    monkeypatch.setattr("weinorman.integrate.condition_estimate", counting)
    monkeypatch.setattr(_UnitaryChart, "rebuild", keep_u)
    alg = algebra(6)
    sig = random_antihermitian_signal(6, np.random.default_rng(6), sup_norm=5.0)
    for first_read in ("describe", "to_json"):
        switched_at.clear()
        traj = integrate_wn(sig, IntegrationConfig(t1=1.0, samples=11))
        events = traj.chart_events
        assert len(events) == len(switched_at) >= 2
        assert calls == []
        if first_read == "describe":
            [ev.describe() for ev in events]
        else:
            traj.to_json()
        assert calls == [(alg.n, alg.n)] * len(events)
        # a second read, of either kind, computes nothing
        [ev.describe() for ev in events], traj.to_json()
        assert calls == [(alg.n, alg.n)] * len(events)
        calls.clear()
        for ev, u in zip(events, switched_at):
            assert ev.condition == condition_estimate(assemble_A_gauss(alg, u)) >= 1


def _count_stage_times(monkeypatch) -> list:
    # every time at which the stepper asks a ConstantSignal for M
    times = []
    original = ConstantSignal.matrices

    def matrices(self, ts):
        times.extend(ts)
        return original(self, ts)

    monkeypatch.setattr(ConstantSignal, "matrices", matrices)
    return times


def test_adaptive_steps_reuse_last_stage(monkeypatch):
    # first same as last: 5 new stage times per step plus the start's
    times = _count_stage_times(monkeypatch)
    cfg = IntegrationConfig(t1=1.0, samples=11, **POLE_TRUST_REGION)
    traj = integrate_wn(_tan_signal(), cfg)
    assert not traj.chart_events
    assert len(times) == 5 * (traj.n_steps + traj.n_rejected) + 1


def test_rejected_steps_reuse_first_stage(monkeypatch):
    # a rejected step keeps M at its start and asks again for its shorter
    # times; a chart switch leaves M as it is, so a new chart asks for none
    times = _count_stage_times(monkeypatch)
    cfg = IntegrationConfig(t1=6.0, samples=61, **POLE_TRUST_REGION)
    traj = integrate_wn(_tan_signal(), cfg)
    assert traj.n_rejected == 3 and len(traj.chart_events) == 3
    assert len(times) == 5 * (traj.n_steps + traj.n_rejected) + 1


def test_oracle_keeps_its_step_sequence(monkeypatch):
    times = _count_stage_times(monkeypatch)
    traj = integrate_direct(_tan_signal(), IntegrationConfig(t1=6.0, samples=61))
    assert len(times) == 5 * (traj.n_steps + traj.n_rejected) + 1
    # the accepted and rejected counts of the stepper that re-evaluated the
    # first stage of every step
    assert (traj.n_steps, traj.n_rejected) == (369, 1)


def test_error_norm_is_the_rms_formula_bit_for_bit():
    # the stepper hands _error_norm |y_old| and |y_new| and it sums rather
    # than calling np.mean: the same bits as the formula on draws with zero
    # entries, all-zero errors and non-finite entries, and a non-finite norm
    # never passes the acceptance test
    rng = np.random.default_rng(27)
    for size in (1, 4, 9, 16, 36, 144, 200):
        for draw in range(8):
            shape = (3, size)
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            z *= 10.0 ** rng.integers(-14, 3, shape)
            z[rng.random(shape) < 0.2] = 0
            if draw == 1:
                z[0] = 0
            elif draw >= 2:
                bad = (np.nan, np.inf, -np.inf, complex(0, np.inf), np.nan, np.inf)[draw - 2]
                z[draw % 3, rng.integers(size)] = bad
            err, y_old, y_new = z
            atol, rtol = 10.0 ** rng.integers(-12, -5, 2)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
                want = float(np.sqrt(np.mean((np.abs(err) / scale) ** 2)))
                got = integrate._error_norm(err, np.abs(y_old), np.abs(y_new), atol, rtol)
            assert type(got) is float
            assert got == want or (np.isnan(got) and np.isnan(want))
            if draw == 1:
                assert got == 0.0
            if not np.isfinite(want):
                assert not got <= 1.0


def _drive_exp(f):
    # y' = f(y) from y(0) = 1 to t = 1, first trial step 0.5; returns the
    # end state, the (accepted, rejected) step counts and the stage times
    # asked for, per call
    cfg = IntegrationConfig(t1=1.0, first_step=0.5, atol=1e-3, rtol=1e-3)
    hooked, asked = [], []

    def evaluate(ts):
        asked.append(ts.copy())
        return np.zeros((ts.size, 1, 1)), np.zeros(ts.size)

    def stage(M, rate, y, out):
        out[:] = f(y)

    def after(t, y, h_last, on_target):
        hooked.append((t, y, on_target))
        return y

    counts = _drive(stage, evaluate, 0.0, np.ones(1, dtype=complex), [1.0], cfg, after)
    # one call per accepted step, on the target only for the last
    assert len(hooked) == counts[0]
    assert [on for _, _, on in hooked] == [False] * (counts[0] - 1) + [True]
    t, y, _ = hooked[-1]
    assert t == 1.0
    return y, counts, asked


def test_non_finite_last_stage_rejects_the_step():
    # y' = y, but the 7th stage (the last one of the first trial step, at
    # its end point) is nan, as for a trial that jumps a pole; y_new is
    # built from the first six stages only and stays finite
    y, (accepted, rejected), _ = _drive_exp(lambda y: y)
    assert rejected == 0  # the trial step is accurate enough

    calls = []

    def f(y):
        calls.append(y)
        return np.full_like(y, np.nan) if len(calls) == 7 else y

    y, (accepted, rejected), asked = _drive_exp(f)
    assert rejected == 1
    # the retry is a quarter of the trial step and keeps its first stage:
    # it asks for 5 new times and evaluates 6 more stages
    assert asked[2][0] == pytest.approx(0.2 * 0.5 / 4)
    assert len(asked[2]) == 5
    assert len(calls) == 7 + 6 * (accepted + rejected - 1)
    assert abs(y[0] - np.e) < 1e-2


def test_targets_reached_without_a_step_repeat_the_sample():
    # t0 and a target within the resolvable scale of the last are sampled
    # without a step: the second of a close pair repeats the first's state
    cfg = IntegrationConfig(t1=1.0, sample_times=(0.0, 0.5, 0.5 + 1e-15, 1.0))
    hamiltonian = random_antihermitian_signal(3, np.random.default_rng(5), sup_norm=2.0)
    for sig in (_tan_signal(), hamiltonian):
        for traj in (integrate_wn(sig, cfg), integrate_direct(sig, cfg)):
            assert np.array_equal(traj.t, cfg.sample_times)
            assert np.array_equal(traj.K[0], np.eye(sig.N)) and traj.step_size[0] == 0
            assert np.array_equal(traj.K[1], traj.K[2])
            assert np.array_equal(traj.step_size[1], traj.step_size[2])
            if traj.u is not None:
                assert np.array_equal(traj.u[1], traj.u[2])
                assert traj.chart_index[1] == traj.chart_index[2]


def test_sample_grid_is_preserved_across_charts():
    cfg = IntegrationConfig(t1=2.0, samples=41)
    traj = integrate_wn(_tan_signal(), cfg)
    assert np.allclose(traj.t, np.linspace(0, 2, 41))
    assert len(traj.K) == len(traj.t) == len(traj.chart_index)


# -- fixed-step walker --------------------------------------------------------------


def test_rk4_agrees_with_adaptive():
    sig = _rotation_signal()
    fixed = integrate_wn(sig, IntegrationConfig(t1=1.0, method="rk4", fixed_step=1e-3, samples=6))
    adaptive = integrate_wn(sig, IntegrationConfig(t1=1.0, samples=6))
    assert compare(fixed, adaptive).max_frobenius < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_stepping_over_a_pole_raises():
    # the step at 1e-2 jumps the pole of u_1 = tan t at pi/2; the chart
    # frozen there is blown up and later steps turn non-finite
    cfg = IntegrationConfig(
        t1=3.0, samples=7, method="rk4", fixed_step=1e-2, **POLE_TRUST_REGION
    )
    with pytest.raises(RuntimeError, match="fixed_step = 0.01"):
        integrate_wn(_tan_signal(), cfg)


def test_rk4_through_the_pole_with_small_charts():
    # at the default trust region the chart is left at |u_1| = 0.5, far from
    # the pole of tan t, so fixed-step RK4 tracks K exactly across it
    cfg = IntegrationConfig(t1=3.0, samples=31, method="rk4", fixed_step=1e-3)
    traj = integrate_wn(_tan_signal(), cfg)
    assert traj.chart_events
    err = [np.linalg.norm(K - _tan_K(t)) for t, K in zip(traj.t, traj.K)]
    assert max(err) < 1e-9  # measured 1.4e-13


def test_rk4_error_scales_with_h4():
    sig = _rotation_signal()
    errs = []
    for h in (0.1, 0.05):
        cfg = IntegrationConfig(t1=1.0, method="rk4", fixed_step=h, samples=2)
        traj = integrate_wn(sig, cfg)
        errs.append(np.linalg.norm(traj.K[-1] - _rotation_K(1.0)))
    assert errs[0] / errs[1] > 10  # fourth order: nominal 16


# -- sampling and validation ----------------------------------------------------------


def test_custom_sample_times():
    # the second grid starts after t0, so its first sample takes steps
    for pts in ((0.0, 0.125, 0.5, 0.9), (0.3, 0.9)):
        cfg = IntegrationConfig(t1=1.0, sample_times=pts)
        traj = integrate_wn(_rotation_signal(), cfg)
        assert np.array_equal(traj.t, np.array(pts))
        assert np.linalg.norm(traj.K[0] - _rotation_K(pts[0])) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="t1"):
        IntegrationConfig(t0=1.0, t1=0.5).validate()
    with pytest.raises(ValueError, match="method"):
        IntegrationConfig(method="euler").validate()
    with pytest.raises(ValueError, match="samples"):
        IntegrationConfig(samples=1).validate()
    with pytest.raises(ValueError, match="sample_times"):
        IntegrationConfig(sample_times=(0.5, 0.2)).validate()
    with pytest.raises(ValueError, match="sample_times"):
        IntegrationConfig(t1=1.0, sample_times=(0.0, 2.0)).validate()
    with pytest.raises(ValueError):
        IntegrationConfig(atol=-1.0).validate()
    for bad in (
        {"t1": np.inf},
        {"max_step": 0.0},
        {"max_step": -1.0},
        {"first_step": -0.1},
        {"fixed_step": np.nan},
        {"atol": np.nan},
        {"rtol": np.inf},
        {"max_steps": 0},
        {"u_threshold": np.nan},
        {"cond_threshold": 1.0},
        {"cond_threshold": 0.5},
    ):
        field = next(iter(bad))
        with pytest.raises(ValueError, match="tolerances" if "tol" in field else field):
            IntegrationConfig(**bad).validate()
    IntegrationConfig(max_step=np.inf, u_threshold=np.inf).validate()


def test_step_budget_is_enforced():
    cfg = IntegrationConfig(t1=1.0, max_steps=3, samples=5)
    with pytest.raises(RuntimeError, match="step"):
        integrate_wn(_rotation_signal(), cfg)


def test_piecewise_domain_is_enforced():
    times = np.linspace(0, 1, 5)
    vals = -1j * np.array([np.eye(2)] * 5)
    sig = PiecewiseSignal(2, times, vals)
    with pytest.raises(ValueError, match="domain"):
        integrate_wn(sig, IntegrationConfig(t1=2.0))
    integrate_wn(sig, IntegrationConfig(t1=1.0, samples=5))  # inside: fine


# -- unitary route -------------------------------------------------------------------


def _reduced_state(alg, rng, size=0.5):
    """A random reduced state: upper |u| <= size, Cartan i Im in i[-size, size]."""
    maps = alg.basis.maps
    y = np.zeros(maps.cartan.stop, dtype=complex)
    k = maps.upper.stop
    y[:k] = size * rng.uniform(0, 1, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    y[maps.cartan] = 1j * size * rng.uniform(-1, 1, alg.N - 1)
    return y


def test_reduced_rhs_is_the_upper_and_cartan_part_of_rhs():
    # each chart's stage, built once and called on a run of states, writes
    # bit for bit what the checked public functions give, the trace rate in
    # the last slot: the unitary chart riccati_rhs on the state's U (the
    # upper and Cartan part of rhs, whatever the Cartan and lower coordinates
    # hold), the general chart rhs itself; a NaN in an upper, then in a lower
    # coordinate shows where it reaches, and the later draws that the
    # buffers keep no trace of it
    rng = np.random.default_rng(21)
    for N in range(2, 9):
        alg = algebra(N)
        maps = alg.basis.maps
        charts = _UnitaryChart(alg), _GaussChart(alg)
        stages = [chart.stage() for chart in charts]
        for draw in range(6):
            u = 0.7 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
            if draw in (1, 2):
                slots = np.arange(alg.n)[maps.upper if draw == 1 else maps.lower]
                u[rng.choice(slots)] = np.nan
            H = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            M = -0.5j * (H + H.conj().T)
            M -= np.trace(M) / N * np.eye(N)
            rate = complex(*rng.standard_normal(2))
            full = rhs(alg, u, M)
            _, upper, cartan = riccati_rhs(alg, maps.upper_factor(u), M)
            want = (
                np.concatenate([upper, 1j * cartan.imag, [rate]]),
                np.append(full, rate),
            )
            assert np.array_equal(want[0][maps.upper], full[maps.upper], equal_nan=True)
            assert np.array_equal(
                want[0][maps.cartan].imag, full[maps.cartan].imag, equal_nan=True
            )
            assert np.isfinite(full).all() == (draw not in (1, 2))
            for chart, stage, w in zip(charts, stages, want):
                y = np.append(u[: chart.size], 0.25j)  # the phase slot is not read
                out = np.full(chart.size + 1, np.nan, dtype=complex)
                stage(M, rate, y, out)
                assert np.array_equal(out, w, equal_nan=True)


def test_unitary_chart_rebuilds_a_unitary_K():
    rng = np.random.default_rng(22)
    for N in range(2, 9):
        alg = algebra(N)
        for _ in range(10):
            y = _reduced_state(alg, rng)
            chart = _UnitaryChart(alg)
            f = chart.factor(y)
            abs_u = chart.abs_u(y, f)  # from R alone
            K, u = chart.rebuild(y, f)
            # measured at most 1.6e-15, 1.6e-15 and 1.7e-15
            assert np.linalg.norm(K.conj().T @ K - np.eye(N)) < 1e-14
            assert abs(np.linalg.det(K) - 1) < 1e-14
            assert np.linalg.norm(K - reconstruct_K(alg, u)) < 1e-13
            assert u.shape == (alg.n,)
            assert np.array_equal(u[: chart.size].imag, y.imag)
            assert np.allclose(abs_u, np.abs(u), rtol=0, atol=1e-14)
            # a cond(A) check reads u without forming Q: the same bits
            assert np.array_equal(chart.rebuild(y, f, K=False)[1], u)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_private_lapack_gufuncs_match_the_public_calls():
    # the stage solve and the per-step inverse and QR call numpy's private
    # numpy.linalg._umath_linalg gufuncs: they must give the public calls'
    # bits on unit upper triangular U (and on the U^-H that the unitary chart
    # factorises), one matrix at a time and stacked, and, under the run's
    # errstate, the same non-finite result, without raising, on NaN or inf
    rng = np.random.default_rng(26)
    for N in range(2, 13):
        shape = (6, N, N)
        U = np.triu(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 1)
        U += np.eye(N)
        above = np.flatnonzero(np.triu(np.ones((N, N)), 1))
        for k, bad in enumerate((np.nan, np.inf, -np.inf), start=3):
            U[k].put(rng.choice(above), bad)
        B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            X = np.linalg.inv(U).conj().swapaxes(-1, -2)
            stack = X.copy()
            tau = integrate._qr_r_raw(stack)
            stacked = (
                hierarchy._solve(U, B), integrate._inv(U), stack, tau,
                integrate._qr_reduced(stack, tau),
            )
            for i in range(len(U)):
                one = X[i].copy()
                tau_one = integrate._qr_r_raw(one)
                got = (
                    hierarchy._solve(U[i], B[i]), integrate._inv(U[i]), one,
                    tau_one, integrate._qr_reduced(one, tau_one),
                )
                raw, raw_tau = np.linalg.qr(X[i], mode="raw")
                want = (
                    np.linalg.solve(U[i], B[i]), np.linalg.inv(U[i]), raw.T,
                    raw_tau, np.linalg.qr(X[i])[0],
                )
                assert np.isfinite(want[0]).all() == (i < 3)
                for g, s, w in zip(got, stacked, want):
                    assert _bits(g) == _bits(w) == _bits(s[i])


def test_both_routes_match_the_oracle():
    # each random signal runs on the unitary route and, as its FourierSignal
    # twin, on the general route; both meet the pinned acceptance bounds
    cfg = IntegrationConfig(t1=1.0, samples=11)
    for N in range(2, 7):
        rng = np.random.default_rng(8000 + N)
        for _ in range(2):
            sig = random_antihermitian_signal(N, rng, sup_norm=5.0)
            oracle = integrate_direct(sig, cfg)
            unitary = integrate_wn(sig, cfg)
            general = integrate_wn(_fourier_twin(sig), cfg)
            for traj in (unitary, general):
                assert traj.u.shape == (11, N * N - 1)
                assert compare(traj, oracle).max_frobenius < 1e-6
                assert max(traj.unitarity_defect) < 1e-7
                assert max(traj.det_defect) < 1e-8
            assert max(unitary.unitarity_defect) < 1e-13
            assert max(unitary.det_defect) < 1e-13
            # the first chart holds the same coordinates on both routes
            first = (unitary.chart_index == 0) & (general.chart_index == 0)
            assert np.abs(unitary.u[first] - general.u[first]).max() < 1e-8


def test_unitary_route_through_the_pole():
    # the tangent case as a Hamiltonian: u_1 = tan t runs up to its pole
    sig = HamiltonianSignal(2, np.array([[0.0, 1j], [-1j, 0.0]]))
    cfg = IntegrationConfig(t1=2.0, samples=41, **POLE_TRUST_REGION)
    traj = integrate_wn(sig, cfg)
    assert abs(traj.chart_events[0].time - np.pi / 2) < 1e-3
    # measured 1.1e-10 and 8.9e-16; K rebuilt as U C with C the Cholesky
    # factor of (U^H U)^-1, instead of by QR, has a unitarity defect of 1.4e-8
    assert np.linalg.norm(traj.K[-1] - _tan_K(2.0)) < 1e-5
    assert max(traj.unitarity_defect) < 1e-12


def test_unitary_route_takes_neither_rhs_nor_reconstruct_K(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("general-route layer called on the unitary route")

    sig = random_antihermitian_signal(3, np.random.default_rng(3), sup_norm=5.0)
    twin = _fourier_twin(sig)
    cfg = IntegrationConfig(t1=1.0, samples=5)
    general = integrate_wn(twin, cfg)
    # the general chart's stage runs rhs's unchecked core, _peel
    monkeypatch.setattr("weinorman.integrate.rhs", forbidden)
    monkeypatch.setattr("weinorman.integrate._peel", forbidden)
    monkeypatch.setattr("weinorman.integrate.reconstruct_K", forbidden)
    assert compare(integrate_wn(sig, cfg), general).max_frobenius < 1e-8
    with pytest.raises(AssertionError, match="general-route"):
        integrate_wn(twin, cfg)


def _counting_qr(monkeypatch) -> dict:
    """Count the unitary route's R factorisations and its Q stacks' shapes."""
    calls = {"R": 0, "Q": []}
    raw, reduced = integrate._qr_r_raw, integrate._qr_reduced

    def counting_raw(a):
        calls["R"] += 1
        return raw(a)

    def counting_reduced(a, tau):
        calls["Q"].append(a.shape[:-2])
        return reduced(a, tau)

    monkeypatch.setattr(integrate, "_qr_r_raw", counting_raw)
    monkeypatch.setattr(integrate, "_qr_reduced", counting_reduced)
    return calls


def test_unitary_samples_reuse_the_step_factorisation(monkeypatch):
    # one R per accepted step, plus t0's, and none more for a sample; Q is
    # formed once per run, for all samples in one stacked call
    calls = _counting_qr(monkeypatch)
    sig = random_antihermitian_signal(4, np.random.default_rng(4), sup_norm=1.0)
    for samples in (201, 2):  # every step ends on a sample; only the last does
        calls.update(R=0, Q=[])
        traj = integrate_wn(sig, IntegrationConfig(t1=1.0, samples=samples))
        assert not traj.chart_events
        assert calls == {"R": traj.n_steps + 1, "Q": [(samples,)]}
    assert traj.n_steps > 1
    # a switch forms Q once, for the one state it freezes, and a sample on
    # its step factorises the new chart's first state: here every step ends
    # on a sample, so every switch does
    calls.update(R=0, Q=[])
    traj = integrate_wn(_tan_hamiltonian(), IntegrationConfig(t1=6.0, samples=601))
    switches = len(traj.chart_events)
    assert traj.n_steps == 600 and switches == 12
    assert calls == {"R": traj.n_steps + 1 + switches, "Q": [()] * switches + [(601,)]}


def _tan_hamiltonian():
    # the tangent case on the unitary route
    return HamiltonianSignal(2, np.array([[0.0, 1j], [-1j, 0.0]]))


def _dense_switched_run(signal, monkeypatch):
    """A run whose every step ends on a sample, with at least one switch.

    Returns the trajectory, its sample rows and rebuild, and the K_chart of
    each frozen state.
    """
    kept, frozen = [], []
    trajectory = integrate._trajectory
    chart = _UnitaryChart if isinstance(signal, HamiltonianSignal) else _GaussChart
    chart_rebuild = chart.rebuild

    def keep(N, rows, rebuild, *args):
        kept.append((rows, rebuild))
        return trajectory(N, rows, rebuild, *args)

    def freeze(self, y, f, K=True):
        out = chart_rebuild(self, y, f, K)
        if K and y.ndim == 1:  # a switch rebuilds the one state it freezes
            frozen.append(out[0])
        return out

    monkeypatch.setattr(integrate, "_trajectory", keep)
    monkeypatch.setattr(chart, "rebuild", freeze)
    traj = integrate_wn(signal, IntegrationConfig(t1=1.0, samples=401))
    assert traj.n_steps == 400 and traj.chart_events
    assert len(frozen) == len(traj.chart_events)
    monkeypatch.undo()
    return traj, *kept.pop(), frozen


@pytest.mark.parametrize("N", [3, 6])
def test_stacked_sample_rebuild_equals_each_sample_alone(N, monkeypatch):
    sig = random_antihermitian_signal(N, np.random.default_rng(N), sup_norm=5.0)
    for signal in (sig, _fourier_twin(sig)):
        traj, rows, rebuild, _ = _dense_switched_run(signal, monkeypatch)
        for i, (t, y, h, f, chart) in enumerate(rows):
            phase = np.exp(y[None, -1])
            one = tuple(part[None] for part in f)
            K, _, u = rebuild(y[None], one, np.array([chart]), phase)
            assert traj.t[i] == t and traj.chart_index[i] == chart
            assert np.array_equal(traj.phase_factor[i], phase[0])
            assert traj.K[i].tobytes() == K[0].tobytes()
            assert traj.u[i].tobytes() == u[0].tobytes()


@pytest.mark.parametrize("route", ["unitary", "general"])
def test_switch_on_a_sample_records_the_new_chart(route, monkeypatch):
    # every step ends on a sample, so every switch does: that sample records
    # the next chart's first state, u = 0, and K = phase K_base, with K_base
    # the product of the frozen factors
    sig = random_antihermitian_signal(3, np.random.default_rng(3), sup_norm=5.0)
    if route == "general":
        sig = _fourier_twin(sig)
    traj, _, _, frozen = _dense_switched_run(sig, monkeypatch)
    base = np.eye(3, dtype=complex)
    for c, (event, K_chart) in enumerate(zip(traj.chart_events, frozen), start=1):
        (j,) = np.flatnonzero(traj.t == event.time)
        base = K_chart @ base
        assert traj.chart_index[j - 1] == c - 1 and traj.chart_index[j] == c
        assert not traj.u[j].any()
        assert np.array_equal(traj.K[j], traj.phase_factor[j] * base)


def test_unitary_route_reports_from_all_coordinates():
    # H = diag(1, 0.5, -1.5): only the Cartan coordinates move, u(H_2) the
    # fastest (|u| = 1.5 t); the reduced state holds just its imaginary part
    alg = algebra(3)
    sig = HamiltonianSignal(3, np.diag([1.0, 0.5, -1.5]))
    cfg = IntegrationConfig(t1=1.0, samples=11, reanchor=False)
    with pytest.raises(ChartSingularityError) as info:
        integrate_wn(sig, cfg)
    report = info.value.report
    assert report.trigger == "u-growth"
    assert report.generator_index == 5 and report.stage == 3
    assert report.value == pytest.approx(1.5 * report.time, rel=1e-9)
    assert report.condition == pytest.approx(
        condition_estimate(assemble_A_gauss(alg, np.zeros(alg.n))), rel=1e-12
    )
    # a random signal reports the same coordinate, cond(A) and time as its
    # twin on the general route
    sig = random_antihermitian_signal(3, np.random.default_rng(31), sup_norm=5.0)
    reports = []
    for s in (sig, _fourier_twin(sig)):
        with pytest.raises(ChartSingularityError) as info:
            integrate_wn(s, cfg)
        reports.append(info.value.report)
    unitary, general = reports
    assert unitary.generator_index == general.generator_index
    assert unitary.stage == general.stage
    assert abs(unitary.time - general.time) < 0.05
    assert unitary.condition == pytest.approx(general.condition, rel=0.1)


def test_unitary_route_rk4_matches_the_oracle():
    sig = random_antihermitian_signal(4, np.random.default_rng(4), sup_norm=5.0)
    cfg = IntegrationConfig(t1=1.0, samples=11, method="rk4", fixed_step=1e-3)
    traj = integrate_wn(sig, cfg)
    assert traj.chart_events
    # measured 3.4e-12 (the general route's twin: 3.1e-12) and 1.9e-15
    assert compare(traj, integrate_direct(sig, cfg)).max_frobenius < 1e-10
    assert max(traj.unitarity_defect) < 1e-13


def test_unitary_route_keeps_the_global_phase():
    # tr H != 0 in every mode: the phase is exp(-i int tr H / N dt)
    sig = random_antihermitian_signal(
        3, np.random.default_rng(3), sup_norm=5.0, traceless=False
    )
    cfg = IntegrationConfig(t1=1.0, samples=11)
    traj = integrate_wn(sig, cfg)
    oracle = integrate_direct(sig, cfg)
    assert abs(np.log(oracle.phase_factor[-1])) > 0.05  # 0.093 here
    assert compare(traj, oracle).max_frobenius < 1e-8
    assert np.abs(traj.phase_factor - oracle.phase_factor).max() < 1e-10
    assert max(traj.det_defect) < 1e-13
    assert max(traj.unitarity_defect) < 1e-13


def test_defects_taken_over_the_stack_match_the_per_sample_formulas():
    # the trajectory takes both defects over all samples at once; per sample
    # they are ||K^+ K - I||_F and |det(K / phase) - 1|, which the stacked
    # routines round differently by a few ulps (of the norm, and of det ~ 1)
    rng = np.random.default_rng(3)
    sig = random_antihermitian_signal(3, rng, sup_norm=5.0, traceless=False)
    twin = _fourier_twin(random_antihermitian_signal(3, rng, sup_norm=5.0))
    cfg = IntegrationConfig(t1=1.0, samples=11)
    eps = np.finfo(float).eps
    for traj in (integrate_wn(sig, cfg), integrate_wn(twin, cfg),
                 integrate_direct(sig, cfg), integrate_wn(_tan_signal(), cfg)):
        unitarity = [np.linalg.norm(K.conj().T @ K - np.eye(traj.N)) for K in traj.K]
        det = [abs(np.linalg.det(K / p) - 1) for K, p in zip(traj.K, traj.phase_factor)]
        assert np.allclose(traj.unitarity_defect, unitarity, rtol=8 * eps, atol=0)
        assert np.allclose(traj.det_defect, det, rtol=0, atol=8 * eps)


def test_det_defect_survives_an_underflowing_phase():
    # M = -20 I on [0, 40]: the phase exp(-20 t) underflows to 0 past
    # t ~ 37, and so does the physical K, but the traceless engine factor is
    # I throughout, so its det defect stays 0; neither route warns
    times = np.linspace(0.0, 40.0, 5)
    sig = PiecewiseSignal(2, times, np.tile(-20.0 * np.eye(2), (5, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = IntegrationConfig(t1=40.0, samples=5)
        traj = integrate_wn(sig, cfg)
        integrate_direct(sig, cfg)  # its defects are non-finite here, silently
    assert traj.phase_factor[-1] == 0 and not traj.K[-1].any()
    assert np.array_equal(traj.det_defect, np.zeros(5))


# -- persistence -------------------------------------------------------------------


def test_json_roundtrip_and_stability():
    cfg = IntegrationConfig(t1=2.0, samples=11)
    traj = integrate_wn(_tan_signal(), cfg, seed=123)
    text = traj.to_json()
    back = Trajectory.from_json(text)
    assert back.N == traj.N
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(np.asarray(back.K), np.asarray(traj.K))
    assert np.array_equal(back.chart_index, traj.chart_index)
    assert np.array_equal(back.step_size, traj.step_size)
    assert back.seed == 123
    assert len(back.chart_events) == len(traj.chart_events)
    assert back.chart_events[0].time == traj.chart_events[0].time
    assert back.to_json() == text  # byte-stable re-export
    # schema /1 exports carry a constant "jump" per event; it is ignored
    obj = json.loads(text)
    obj["schema"] = "wn-trajectory/1"
    for ev in obj["chart_events"]:
        ev["jump"] = 0.0
    old = Trajectory.from_json(json.dumps(obj))
    assert old.chart_events == traj.chart_events
    assert old.to_json() == text


def test_json_reads_the_indented_layout():
    # files written with json.dumps(..., indent=2) before the compact layout
    traj = integrate_wn(_tan_signal(), IntegrationConfig(t1=2.0, samples=11), seed=7)
    text = traj.to_json()
    old = Trajectory.from_json(json.dumps(json.loads(text), indent=2) + "\n")
    for name in ("t", "K", "u", "phase_factor", "chart_index",
                 "unitarity_defect", "det_defect", "step_size"):
        assert np.array_equal(getattr(old, name), getattr(traj, name)), name
    assert old.chart_events == traj.chart_events
    assert (old.N, old.method, old.seed, old.n_steps, old.n_rejected) == (
        traj.N, traj.method, traj.seed, traj.n_steps, traj.n_rejected
    )
    assert old.to_json() == text


def test_csv_roundtrip():
    cfg = IntegrationConfig(t1=1.0, samples=7)
    traj = integrate_wn(_rotation_signal(), cfg)
    back = Trajectory.from_csv(traj.to_csv())
    assert np.allclose(np.asarray(back.K), np.asarray(traj.K), atol=1e-15)
    assert np.allclose(back.u, traj.u, atol=1e-15)
    assert np.allclose(back.unitarity_defect, traj.unitarity_defect, atol=1e-15)


def test_csv_headers():
    traj = integrate_wn(_rotation_signal(), IntegrationConfig(t1=0.5, samples=3))
    header = traj.to_csv().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "u_1_re" in header and "K_1_1_re" in header
    assert header[-2:] == ["unitarity_defect", "det_defect"]


# -- trajectory comparison ------------------------------------------------------------


def test_compare_self_is_zero():
    traj = integrate_wn(_rotation_signal(), IntegrationConfig(t1=1.0, samples=9))
    rep = compare(traj, traj)
    assert rep.max_frobenius == 0.0
    assert rep.rms_frobenius == 0.0
    assert rep.max_unitarity_diff == 0.0
    assert rep.max_relative == 0.0
    assert "max ||dK||_F" in rep.describe()
    assert "max ||dK||_F / ||K||_F" in rep.describe()


def test_compare_reports_relative_error():
    traj = integrate_wn(_rotation_signal(), IntegrationConfig(t1=1.0, samples=3))
    scaled = dataclasses.replace(traj, K=2 * traj.K)
    rep = compare(traj, scaled)
    # ||K - 2K|| / ||2K|| = 1/2 for every sample
    assert rep.max_relative == pytest.approx(0.5)
    assert rep.max_frobenius == pytest.approx(np.sqrt(2))


def test_compare_rejects_mismatch():
    t2 = integrate_wn(_rotation_signal(), IntegrationConfig(t1=1.0, samples=5))
    sig3 = ConstantSignal(3, np.zeros(8))
    t3 = integrate_wn(sig3, IntegrationConfig(t1=1.0, samples=5))
    with pytest.raises(ValueError, match="dimension"):
        compare(t2, t3)
    late = integrate_wn(
        _rotation_signal(), IntegrationConfig(t0=2.0, t1=3.0, samples=5)
    )
    with pytest.raises(ValueError, match="overlap"):
        compare(t2, late)


def test_direct_oracle_ignores_loose_config_tolerances():
    sig = _rotation_signal()
    sloppy = IntegrationConfig(t1=1.0, samples=5, method="rk4", fixed_step=0.5)
    ref = integrate_direct(sig, sloppy)  # always adaptive at oracle tolerances
    for t, K in zip(ref.t, ref.K):
        assert np.linalg.norm(K - _rotation_K(t)) < 1e-9
