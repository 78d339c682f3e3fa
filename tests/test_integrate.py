"""Product-of-exponentials integration against closed forms and the dense oracle."""

import json

import numpy as np
import pytest

from weinorman import (
    ChartSingularityError,
    ConstantSignal,
    HamiltonianSignal,
    IntegrationConfig,
    PiecewiseSignal,
    Trajectory,
    algebra,
    compare,
    factor_exp,
    integrate_direct,
    integrate_wn,
    reconstruct_K,
)
from weinorman.integrate import _drive, _StepBudget

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def _rotation_signal():
    # M(t) = -i sigma_y = [[0, -1], [1, 0]]; K(t) is a planar rotation
    return HamiltonianSignal(2, SIGMA_Y)


def _rotation_K(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


# -- chart factors ---------------------------------------------------------------


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
    cfg = IntegrationConfig(t1=2.0, samples=11, reanchor=False)
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


def _count_matrix_calls(monkeypatch) -> list:
    calls = []
    original = ConstantSignal.matrix

    def matrix(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(ConstantSignal, "matrix", matrix)
    return calls


def test_adaptive_steps_reuse_last_stage(monkeypatch):
    # first same as last: 6 evaluations per step plus the first one
    calls = _count_matrix_calls(monkeypatch)
    traj = integrate_wn(_tan_signal(), IntegrationConfig(t1=1.0, samples=11))
    assert not traj.chart_events
    assert len(calls) == 6 * (traj.n_steps + traj.n_rejected) + 1


def test_rejected_steps_reuse_first_stage(monkeypatch):
    # a rejected step keeps f(t, y); each chart evaluates it once afresh
    calls = _count_matrix_calls(monkeypatch)
    traj = integrate_wn(_tan_signal(), IntegrationConfig(t1=6.0, samples=61))
    assert traj.n_rejected == 3 and len(traj.chart_events) == 3
    charts = len(traj.chart_events) + 1
    assert len(calls) == 6 * (traj.n_steps + traj.n_rejected) + charts


def test_oracle_keeps_its_step_sequence(monkeypatch):
    calls = _count_matrix_calls(monkeypatch)
    traj = integrate_direct(_tan_signal(), IntegrationConfig(t1=6.0, samples=61))
    assert len(calls) == 6 * (traj.n_steps + traj.n_rejected) + 1
    # the accepted and rejected counts of the stepper that re-evaluated the
    # first stage of every step
    assert (traj.n_steps, traj.n_rejected) == (369, 1)


def _drive_exp(f):
    # y' = f(t, y) from y(0) = 1 to t = 1, first trial step 0.5
    cfg = IntegrationConfig(t1=1.0, first_step=0.5, atol=1e-3, rtol=1e-3)
    budget = _StepBudget(cfg.max_steps)
    t, y, report = _drive(
        f, 0.0, np.ones(1, dtype=complex), [1.0], cfg, budget,
        lambda target, y, h: None, lambda t, y: None,
    )
    assert report is None and t == 1.0
    return y, budget


def test_non_finite_last_stage_rejects_the_step():
    # y' = y, but the 7th evaluation (the last stage of the first trial
    # step, f at its end point) is nan, as for a trial that jumps a pole;
    # y_new is built from the first six stages only and stays finite
    y, budget = _drive_exp(lambda t, y: y)
    assert budget.rejected == 0  # the trial step is accurate enough

    calls = []

    def f(t, y):
        calls.append(t)
        return np.full_like(y, np.nan) if len(calls) == 7 else y

    y, budget = _drive_exp(f)
    assert budget.rejected == 1
    # the retry is a quarter of the trial step and keeps its first stage
    assert calls[7] == pytest.approx(0.2 * 0.5 / 4)
    assert abs(y[0] - np.e) < 1e-2


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
    cfg = IntegrationConfig(t1=3.0, samples=7, method="rk4", fixed_step=1e-2)
    with pytest.raises(RuntimeError, match="fixed_step = 0.01"):
        integrate_wn(_tan_signal(), cfg)


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
    assert "max ||dK||_F" in rep.describe()


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
