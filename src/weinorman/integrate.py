"""Time integration of the factorized flow and its direct-product oracle.

`integrate_wn` evolves the chart coordinates u(t) of
K = exp(u_1 X_1) ... exp(u_n X_n) through the staged right-hand sides,
reconstructing K at the requested sample times only, as its Gauss factors
K = U diag(exp w) L (the upper coordinates fill U, the lower ones L, and w
comes from the Cartan ones).  Charts are local: when coordinates blow up or
the stage system turns ill-conditioned, the accumulated K is frozen as a
left factor, u resets to zero, and the remaining evolution continues in a
fresh chart (the traceless driving matrix gets conjugated by the frozen
factor, K_base^-1 M_0 K_base, which is exactly what restarting the
factorization at that point requires).

`integrate_direct` integrates the matrix equation K' = M(t) K entry-wise
with the same embedded pair at oracle tolerances — an independent route
used for cross-checking, never mixed into the factorized path.

Both steppers are deliberately plain: an embedded Dormand-Prince 5(4) pair
with a standard controller (adaptive default; first-same-as-last, so an
accepted step's last stage is the next step's first and a step costs 6
right-hand sides), and classic RK4 with a fixed step.  Steps are clamped to
land exactly on sample times, so trajectories on the same grid compare
sample-by-sample without interpolation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .adjoint import Algebra, algebra
# assemble_A_numeric is the oracle and is never called here; the name stays
# importable so that tests and the benchmark tracer can patch it and see no
# calls.
from .hierarchy import (
    assemble_A_gauss,
    assemble_A_numeric,
    condition_estimate,
    rhs,
)
from .signals import CoefficientSignal

__all__ = [
    "ChartSingularityError",
    "ComparisonReport",
    "IntegrationConfig",
    "SingularityReport",
    "StepSizeUnderflow",
    "Trajectory",
    "compare",
    "factor_exp",
    "integrate_direct",
    "integrate_wn",
    "reconstruct_K",
]


class StepSizeUnderflow(RuntimeError):
    """The controller drove the step below the resolvable scale."""


@dataclass(frozen=True)
class SingularityReport:
    """Where and why a chart was abandoned (and, on re-anchoring, switched)."""

    time: float
    trigger: str                 # "u-growth" or "condition"
    value: float                 # |u| or condition estimate that fired
    generator_index: int | None  # worst coordinate (1-based)
    stage: int | None            # its stage (1-based, elimination order)
    condition: float             # cond_2(A(u)) at detection

    def describe(self) -> str:
        where = (
            f"u_{self.generator_index} (stage {self.stage})"
            if self.generator_index
            else "unknown coordinate"
        )
        return (
            f"chart breakdown at t = {self.time:.9f}: {self.trigger} "
            f"({self.value:.3e}) on {where}, cond(A) = {self.condition:.3e}"
        )


class ChartSingularityError(RuntimeError):
    """Chart breakdown with re-anchoring disabled."""

    def __init__(self, report: SingularityReport):
        super().__init__(report.describe())
        self.report = report


@dataclass(frozen=True)
class IntegrationConfig:
    """Knobs for both integration routes.

    ``samples`` output points are placed uniformly on [t0, t1] unless
    ``sample_times`` pins them explicitly.  ``u_threshold`` and
    ``cond_threshold`` are the chart trust-region bounds; ``reanchor``
    selects between transparent chart switching and aborting with a
    :class:`ChartSingularityError`.
    """

    t0: float = 0.0
    t1: float = 1.0
    method: str = "adaptive"          # "adaptive" (DP 5(4)) or "rk4"
    atol: float = 1e-10
    rtol: float = 1e-10
    max_step: float = np.inf
    first_step: float | None = None
    fixed_step: float = 1e-2
    samples: int = 201
    sample_times: tuple[float, ...] | None = None
    reanchor: bool = True
    u_threshold: float = 1e6
    cond_threshold: float = 1e12
    max_steps: int = 1_000_000

    def grid(self) -> np.ndarray:
        if self.sample_times is not None:
            g = np.asarray(self.sample_times, dtype=float)
            if g.ndim != 1 or g.size < 1 or np.any(np.diff(g) <= 0):
                raise ValueError("sample_times must be strictly increasing")
            if g[0] < self.t0 - 1e-12 or g[-1] > self.t1 + 1e-12:
                raise ValueError(
                    f"sample_times must lie within [{self.t0}, {self.t1}]"
                )
            return g
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.samples}")
        return np.linspace(self.t0, self.t1, self.samples)

    def validate(self) -> None:
        # every check is a comparison that NaN fails, so NaN is rejected too
        if not (np.isfinite(self.t0) and np.isfinite(self.t1) and self.t1 > self.t0):
            raise ValueError(f"need finite t1 > t0, got [{self.t0}, {self.t1}]")
        if self.method not in ("adaptive", "rk4"):
            raise ValueError(
                f"unknown method {self.method!r} (expected adaptive or rk4)"
            )
        if not (0 < self.atol < np.inf and 0 < self.rtol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        for name in ("fixed_step", "max_step", "first_step", "u_threshold"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.cond_threshold > 1:
            raise ValueError(
                f"cond_threshold must exceed 1 (cond(A) >= 1 always), "
                f"got {self.cond_threshold}"
            )
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        self.grid()  # surfaces samples / sample_times problems early


# ---------------------------------------------------------------------------
# factor reconstruction
# ---------------------------------------------------------------------------


def factor_exp(alg: Algebra, m: int, u: complex) -> np.ndarray:
    """exp(u X_m) in closed form.

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


def reconstruct_K(alg: Algebra, u: np.ndarray) -> np.ndarray:
    """K = exp(u_1 X_1) ... exp(u_n X_n), as its Gauss factors U diag(exp w) L."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (alg.n,):
        raise ValueError(f"expected a {alg.n}-vector, got shape {u.shape}")
    U, w, L = alg.basis.maps.gauss_factors(u)
    return (U * np.exp(w)) @ L


# ---------------------------------------------------------------------------
# stepper cores
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4

_MIN_STEP_REL = 1e-14


def _error_norm(err, y_old, y_new, atol, rtol) -> float:
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((np.abs(err) / scale) ** 2)))


class _StepBudget:
    """Accepted/rejected step counters shared across charts."""

    def __init__(self, limit: int):
        self.limit = limit
        self.accepted = 0
        self.rejected = 0

    def accept(self) -> None:
        self.accepted += 1
        if self.accepted > self.limit:
            raise RuntimeError(
                f"step budget exceeded ({self.limit} accepted steps)"
            )


def _drive(f, t, y, targets, cfg, budget, record, monitor):
    """Advance through ``targets`` (strictly increasing, all >= t).

    Calls ``record(target, y, h_last)`` exactly at each target and
    ``monitor(t, y)`` after every accepted step.  Returns ``(t, y, report)``:
    ``report`` is the first non-None value the monitor returned (the run
    stops right after that step, before recording), or None once every
    target is recorded.  The adaptive pair is first-same-as-last: the last
    stage of an accepted step is f at its end point, which is the first
    stage of the next step, so a step costs 6 evaluations of f.
    """
    adaptive = cfg.method == "adaptive"
    if adaptive:
        h = cfg.first_step or (cfg.t1 - cfg.t0) / 100.0
        h = float(min(h, cfg.max_step))
    else:
        h = cfg.fixed_step
    tiny = _MIN_STEP_REL * max(abs(cfg.t0), abs(cfg.t1), 1.0)
    h_last = 0.0
    k1 = None  # f(t, y) once needed; kept across rejections

    for target in targets:
        while t < target - tiny:
            h_try = min(h, target - t)
            t_new = t + h_try
            if abs(t_new - target) <= tiny:
                t_new = target
            if adaptive:
                if h_try < tiny:
                    raise StepSizeUnderflow(
                        f"step {h_try:.3e} below resolvable scale at t = {t:.9f}"
                    )
                if k1 is None:
                    k1 = f(t, y)
                k = [k1]
                for i in range(1, 6):
                    yi = y + h_try * (_DP_A[i] @ np.array(k))
                    k.append(f(t + _DP_C[i] * h_try, yi))
                # the last stage's input is the 5th-order solution (its
                # weights are _DP_B5), taken at the step's end point
                y_new = y + h_try * (_DP_A[6] @ np.array(k))
                k.append(f(t_new, y_new))
                k = np.array(k)
                err = h_try * (_DP_ERR @ k)
                # any non-finite stage rejects the step: y_new does not see
                # the last one, and a nan errnorm must not pass the test below
                if not (np.isfinite(k).all() and np.isfinite(y_new).all()):
                    errnorm = np.inf
                else:
                    errnorm = _error_norm(err, y, y_new, cfg.atol, cfg.rtol)
                if not errnorm <= 1.0:
                    budget.rejected += 1
                    shrink = 0.25 if not np.isfinite(errnorm) else max(
                        0.1, min(0.5, 0.9 * errnorm ** -0.2)
                    )
                    h = h_try * shrink
                    continue
                factor = 5.0 if errnorm == 0 else min(
                    5.0, max(0.2, 0.9 * errnorm ** -0.2)
                )
                h = min(h_try * factor, cfg.max_step)
                k1 = k[6]
            else:
                k1 = f(t, y)
                k2 = f(t + h_try / 2, y + (h_try / 2) * k1)
                k3 = f(t + h_try / 2, y + (h_try / 2) * k2)
                k4 = f(t + h_try, y + h_try * k3)
                y_new = y + (h_try / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                if not np.all(np.isfinite(y_new.view(float))):
                    raise RuntimeError(
                        f"RK4 step from t = {t:.9f} gave a non-finite state; "
                        f"fixed_step = {cfg.fixed_step} is too coarse here"
                    )
            t, y, h_last = t_new, y_new, h_try
            budget.accept()
            report = monitor(t, y)
            if report is not None:
                return t, y, report
        record(target, y, h_last)
    return t, y, None


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of K' = M(t) K.

    ``K`` holds the physical propagator (any trace of M enters as the
    scalar factor ``phase_factor``); ``u`` holds chart coordinates at each
    sample for the factorized route (None for the direct route), valid in
    the chart identified by ``chart_index``.  ``det_defect`` is measured on
    the traceless engine factor K_0 = K / phase_factor, where det = 1 is
    the exact invariant; ``unitarity_defect`` is ||K^+ K - I||_F of the
    physical K.
    """

    N: int
    t: np.ndarray
    K: np.ndarray
    u: np.ndarray | None
    phase_factor: np.ndarray
    chart_index: np.ndarray | None
    unitarity_defect: np.ndarray
    det_defect: np.ndarray
    step_size: np.ndarray
    chart_events: tuple[SingularityReport, ...]
    method: str
    n_steps: int
    n_rejected: int
    seed: int | None = None

    def to_csv(self) -> str:
        return trajectory_to_csv(self)

    def to_json(self) -> str:
        return trajectory_to_json(self)

    @staticmethod
    def from_csv(text: str) -> "Trajectory":
        return trajectory_from_csv(text)

    @staticmethod
    def from_json(text: str) -> "Trajectory":
        return trajectory_from_json(text)


class _Samples:
    """Sample rows recorded by either route, assembled into a Trajectory."""

    def __init__(self, N: int, charted: bool):
        self.N = N
        self.charted = charted
        self.t: list[float] = []
        self.K: list[np.ndarray] = []
        self.phase: list[complex] = []
        self.unitarity: list[float] = []
        self.det: list[float] = []
        self.step: list[float] = []
        self.u: list[np.ndarray] = []
        self.chart: list[int] = []

    def __len__(self) -> int:
        return len(self.t)

    def add(self, t, K_phys, K_engine, scale, h_last, u=None, chart=0) -> None:
        """One sample; the det defect is taken on the traceless K_engine."""
        self.t.append(t)
        self.K.append(K_phys)
        self.phase.append(complex(scale))
        self.unitarity.append(
            float(np.linalg.norm(K_phys.conj().T @ K_phys - np.eye(self.N)))
        )
        self.det.append(float(abs(np.linalg.det(K_engine) - 1.0)))
        self.step.append(h_last)
        if self.charted:
            self.u.append(u.copy())
            self.chart.append(chart)

    def trajectory(self, method, budget, seed, events=()) -> Trajectory:
        return Trajectory(
            N=self.N,
            t=np.array(self.t),
            K=np.array(self.K),
            u=np.array(self.u) if self.charted else None,
            phase_factor=np.array(self.phase),
            chart_index=np.array(self.chart, dtype=int) if self.charted else None,
            unitarity_defect=np.array(self.unitarity),
            det_defect=np.array(self.det),
            step_size=np.array(self.step),
            chart_events=tuple(events),
            method=method,
            n_steps=budget.accepted,
            n_rejected=budget.rejected,
            seed=seed,
        )


def _sample_grid(signal: CoefficientSignal, config: IntegrationConfig) -> list[float]:
    """Validate ``config`` against the signal's domain; the sample times."""
    config.validate()
    if signal.domain is not None:
        lo, hi = signal.domain
        if config.t0 < lo - 1e-12 or config.t1 > hi + 1e-12:
            raise ValueError(
                f"integration window [{config.t0}, {config.t1}] outside the "
                f"signal domain [{lo}, {hi}]"
            )
    return config.grid().tolist()


def integrate_wn(
    signal: CoefficientSignal,
    config: IntegrationConfig,
    *,
    seed: int | None = None,
) -> Trajectory:
    """Integrate the factorized flow; see the module docstring.

    Starts from K(t0) = I (all chart coordinates zero).  Raises
    :class:`ChartSingularityError` on breakdown when re-anchoring is
    disabled, :class:`StepSizeUnderflow` if the controller stalls.
    """
    grid = _sample_grid(signal, config)
    alg = algebra(signal.N)
    n = alg.n
    samples = _Samples(alg.N, charted=True)
    events: list[SingularityReport] = []

    eye = np.eye(alg.N, dtype=complex)
    K_base = eye
    K_base_inv = eye
    chart_no = 0
    budget = _StepBudget(config.max_steps)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        M = signal.matrix(t)
        rate = np.trace(M) / alg.N
        M0 = M - rate * eye
        if chart_no:
            M0 = K_base_inv @ M0 @ K_base
        return np.concatenate([rhs(alg, y[:n], M0), [rate]])

    def record(t: float, y: np.ndarray, h_last: float) -> None:
        K_engine = K_base @ reconstruct_K(alg, y[:n])
        scale = np.exp(y[n])
        samples.add(t, scale * K_engine, K_engine, scale, h_last, y[:n], chart_no)

    def monitor(t: float, y: np.ndarray) -> SingularityReport | None:
        """The trust-region check: u-growth first, then cond(A) once |u| > 0.5."""
        u = y[:n]
        absu = np.abs(u)
        worst = int(np.argmax(absu))
        grown = absu[worst] > config.u_threshold
        if not (grown or absu[worst] > 0.5):
            return None
        cond = condition_estimate(assemble_A_gauss(alg, u))
        if grown:
            trigger, value = "u-growth", float(absu[worst])
        elif cond > config.cond_threshold:
            trigger, value = "condition", cond
        else:
            return None
        return SingularityReport(
            time=float(t),
            trigger=trigger,
            value=value,
            generator_index=worst + 1,
            stage=alg.partition.stage_of(worst + 1),
            condition=cond,
        )

    t = float(config.t0)
    y = np.zeros(n + 1, dtype=complex)
    # records land strictly in grid order, so len(samples) tracks progress
    # through the grid across chart switches
    while True:
        t, y, report = _drive(
            f, t, y, grid[len(samples) :], config, budget, record, monitor
        )
        if report is None:
            break
        if not config.reanchor:
            raise ChartSingularityError(report)
        K_base = K_base @ reconstruct_K(alg, y[:n])
        K_base_inv = np.linalg.inv(K_base)
        chart_no += 1
        events.append(report)
        y = np.concatenate([np.zeros(n, dtype=complex), [y[n]]])

    return samples.trajectory(config.method, budget, seed, events)


def integrate_direct(
    signal: CoefficientSignal,
    config: IntegrationConfig,
    *,
    atol: float = 1e-12,
    rtol: float = 1e-12,
    seed: int | None = None,
) -> Trajectory:
    """Oracle route: integrate K' = M(t) K entrywise at tight tolerances.

    Always uses the adaptive pair at (atol, rtol), regardless of
    ``config.method`` — the oracle must dominate whatever it is checking.
    Shares the sample grid with ``config`` so comparisons are gridwise.
    """
    grid = _sample_grid(signal, config)
    N = signal.N
    oracle_cfg = replace(
        config, method="adaptive", atol=atol, rtol=rtol, first_step=None
    )
    samples = _Samples(N, charted=False)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        M = signal.matrix(t)
        dK = M @ y[: N * N].reshape(N, N)
        return np.concatenate([dK.ravel(), [np.trace(M) / N]])

    def record(t: float, y: np.ndarray, h_last: float) -> None:
        K = y[: N * N].reshape(N, N)
        scale = np.exp(y[N * N])
        samples.add(t, K.copy(), K / scale, scale, h_last)

    y = np.concatenate([np.eye(N, dtype=complex).ravel(), [0j]])
    budget = _StepBudget(config.max_steps)
    _drive(f, float(config.t0), y, grid, oracle_cfg, budget, record,
           lambda t, y: None)
    return samples.trajectory("adaptive", budget, seed)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Gridwise distance between two trajectories."""

    n_points: int
    t_lo: float
    t_hi: float
    max_frobenius: float
    rms_frobenius: float
    max_unitarity_diff: float

    def describe(self) -> str:
        return (
            f"{self.n_points} samples on [{self.t_lo:.6g}, {self.t_hi:.6g}]: "
            f"max ||dK||_F = {self.max_frobenius:.3e}, "
            f"rms = {self.rms_frobenius:.3e}, "
            f"max |d unitarity| = {self.max_unitarity_diff:.3e}"
        )


def compare(a: Trajectory, b: Trajectory) -> ComparisonReport:
    """Frobenius error on K over the overlapping time window.

    Samples of ``a`` inside the overlap are compared against ``b``
    linearly interpolated (entrywise) between its bracketing samples;
    coincident grids therefore compare exactly sample-by-sample.
    """
    if a.N != b.N:
        raise ValueError(f"dimension mismatch: N = {a.N} vs {b.N}")
    lo = max(a.t[0], b.t[0])
    hi = min(a.t[-1], b.t[-1])
    if not lo <= hi:
        raise ValueError(
            f"no overlap: [{a.t[0]}, {a.t[-1]}] vs [{b.t[0]}, {b.t[-1]}]"
        )
    sel = (a.t >= lo - 1e-12) & (a.t <= hi + 1e-12)
    times = a.t[sel]
    if times.size == 0:
        raise ValueError("no samples of the first trajectory in the overlap")
    diffs = []
    uni_diffs = []
    for idx, (t, Ka) in enumerate(zip(times, a.K[sel])):
        j = int(np.clip(np.searchsorted(b.t, t) - 1, 0, b.t.size - 2))
        t0, t1 = b.t[j], b.t[j + 1]
        theta = 0.0 if t1 == t0 else float((t - t0) / (t1 - t0))
        theta = min(max(theta, 0.0), 1.0)
        Kb = (1 - theta) * b.K[j] + theta * b.K[j + 1]
        diffs.append(float(np.linalg.norm(Ka - Kb)))
        ub = (1 - theta) * b.unitarity_defect[j] + theta * b.unitarity_defect[j + 1]
        uni_diffs.append(abs(float(a.unitarity_defect[sel][idx]) - float(ub)))
    diffs = np.array(diffs)
    return ComparisonReport(
        n_points=int(diffs.size),
        t_lo=float(times[0]),
        t_hi=float(times[-1]),
        max_frobenius=float(diffs.max()),
        rms_frobenius=float(np.sqrt(np.mean(diffs**2))),
        max_unitarity_diff=float(max(uni_diffs)),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TRAJECTORY_SCHEMA = "wn-trajectory/2"
# /1 files also carried a chart-event "jump" (always 0); the reader ignores it
_READABLE_SCHEMAS = ("wn-trajectory/1", TRAJECTORY_SCHEMA)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Flat sample table: t, chart u (if any), K entries, defects.

    The CSV holds samples only; chart events, phases and metadata live in
    the JSON format.
    """
    N = traj.N
    cols = ["t"]
    n = 0 if traj.u is None else traj.u.shape[1]
    for i in range(1, n + 1):
        cols += [f"u_{i}_re", f"u_{i}_im"]
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            cols += [f"K_{p}_{q}_re", f"K_{p}_{q}_im"]
    cols += ["unitarity_defect", "det_defect"]
    lines = [",".join(cols)]
    for s in range(traj.t.size):
        row = [repr(float(traj.t[s]))]
        for i in range(n):
            row += [repr(float(traj.u[s, i].real)), repr(float(traj.u[s, i].imag))]
        for p in range(N):
            for q in range(N):
                row += [
                    repr(float(traj.K[s, p, q].real)),
                    repr(float(traj.K[s, p, q].imag)),
                ]
        row += [
            repr(float(traj.unitarity_defect[s])),
            repr(float(traj.det_defect[s])),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    k_cols = [c for c in header if c.startswith("K_") and c.endswith("_re")]
    N = int(round(np.sqrt(len(k_cols))))
    if N * N != len(k_cols):
        raise ValueError(f"cannot infer N from {len(k_cols)} K columns")
    u_cols = [c for c in header if c.startswith("u_") and c.endswith("_re")]
    n = len(u_cols)
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.shape[1] != len(header):
        raise ValueError("row width does not match header")
    pos = 0
    t = data[:, pos]
    pos += 1
    u = None
    if n:
        u = data[:, pos : pos + 2 * n : 2] + 1j * data[:, pos + 1 : pos + 2 * n : 2]
        pos += 2 * n
    K = (
        data[:, pos : pos + 2 * N * N : 2]
        + 1j * data[:, pos + 1 : pos + 2 * N * N : 2]
    ).reshape(-1, N, N)
    pos += 2 * N * N
    unito = data[:, pos]
    deto = data[:, pos + 1]
    return Trajectory(
        N=N,
        t=t,
        K=K,
        u=u,
        phase_factor=np.ones(t.size, dtype=complex),
        chart_index=None,
        unitarity_defect=unito,
        det_defect=deto,
        step_size=np.zeros(t.size),
        chart_events=(),
        method="unknown",
        n_steps=0,
        n_rejected=0,
    )


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def trajectory_to_json(traj: Trajectory) -> str:
    obj = {
        "schema": TRAJECTORY_SCHEMA,
        "N": traj.N,
        "method": traj.method,
        "seed": traj.seed,
        "n_steps": traj.n_steps,
        "n_rejected": traj.n_rejected,
        "t": [float(x) for x in traj.t],
        "u": None
        if traj.u is None
        else [[_c2pair(z) for z in row] for row in traj.u],
        "K": [[[_c2pair(z) for z in row] for row in Ks] for Ks in traj.K],
        "phase_factor": [_c2pair(z) for z in traj.phase_factor],
        "chart_index": None
        if traj.chart_index is None
        else [int(c) for c in traj.chart_index],
        "unitarity_defect": [float(x) for x in traj.unitarity_defect],
        "det_defect": [float(x) for x in traj.det_defect],
        "step_size": [float(x) for x in traj.step_size],
        "chart_events": [asdict(ev) for ev in traj.chart_events],
    }
    return json.dumps(obj, indent=2) + "\n"


def trajectory_from_json(text: str) -> Trajectory:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("schema") not in _READABLE_SCHEMAS:
        raise ValueError(
            f"unsupported schema {obj.get('schema')!r} "
            f"(expected {TRAJECTORY_SCHEMA!r})"
        )

    def pairs(rows):
        return np.array([complex(re, im) for re, im in rows])

    t = np.array(obj["t"], dtype=float)
    K = np.array(
        [[[complex(re, im) for re, im in row] for row in Ks] for Ks in obj["K"]]
    )
    u = None
    if obj["u"] is not None:
        u = np.array([[complex(re, im) for re, im in row] for row in obj["u"]])
    names = [fld.name for fld in fields(SingularityReport)]
    events = tuple(
        SingularityReport(**{k: ev[k] for k in names}) for ev in obj["chart_events"]
    )
    return Trajectory(
        N=int(obj["N"]),
        t=t,
        K=K,
        u=u,
        phase_factor=pairs(obj["phase_factor"]),
        chart_index=None
        if obj["chart_index"] is None
        else np.array(obj["chart_index"], dtype=int),
        unitarity_defect=np.array(obj["unitarity_defect"], dtype=float),
        det_defect=np.array(obj["det_defect"], dtype=float),
        step_size=np.array(obj["step_size"], dtype=float),
        chart_events=events,
        method=obj["method"],
        n_steps=int(obj["n_steps"]),
        n_rejected=int(obj["n_rejected"]),
        seed=obj["seed"],
    )
