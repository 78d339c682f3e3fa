"""Time integration of the factorized flow and its direct-product oracle.

`integrate_wn` evolves the chart coordinates u(t) of
K = exp(u_1 X_1) ... exp(u_n X_n) through the staged right-hand sides and
rebuilds K at the requested sample times only, as its Gauss factors
K = U diag(exp w) L (the upper coordinates fill U, the lower ones L, and w
comes from the Cartan ones).  A sample keeps the state and the chart's
factor of it; when the run ends, K, u and the phases of all samples are
rebuilt in one stacked computation.  Charts are kept small: once a coordinate
leaves |u| <= SMALL_CHART_U (or, with a raised ``u_threshold``, the stage
system turns ill-conditioned), the accumulated K is frozen as a right
factor and u resets to zero inside the same step loop.  Propagators compose,
K(t, t0) = K(t, t_s) K(t_s, t0), so the fresh chart solves K_c' = M_0 K_c
from K_c(t_s) = I with the driving matrix unchanged: no factor is inverted,
and after a switch u holds the coordinates of K(t) K(t_s)^-1.  A switch on
u-growth keeps u on its report, which computes cond(A) when first read.

For a :class:`HamiltonianSignal` (M = -iH with H Hermitian, so K is
unitary) the state shrinks to the paper's reduction: the upper coordinates,
which obey a hierarchy of matrix Riccati equations closed in themselves,
and the imaginary parts of the Cartan ones, a quadrature.  K is rebuilt from
a QR factorisation, unitary to round-off by construction, and the remaining
coordinates follow algebraically (see `_UnitaryChart`).  Every other signal
integrates all n coordinates.  Both share the stepper, the trust region on
all n coordinates, chart switching and sampling.  Each chart builds its
stage once per run, with its factor buffers and index maps bound, and calls
the unchecked cores in `hierarchy` (`riccati_rhs`, and ``_peel`` behind the
checked `rhs`).  The per-stage solve and
the per-step inverse and QR call numpy's LAPACK gufuncs
(``numpy.linalg._umath_linalg``) directly, without the public functions'
per-call checks; they are private numpy API, and
``tests/test_integrate.py`` pins them bit for bit against the public calls.

`integrate_direct` integrates the matrix equation K' = M(t) K entry-wise
with the same embedded pair at oracle tolerances — an independent route
used for cross-checking, never mixed into the factorized path.

The factorized flow and the oracle step with one stage loop, each with its
own right-hand side, and its two schemes are deliberately plain and are
data (`_Tableau`): an embedded Dormand-Prince 5(4) pair with a standard
controller (adaptive default; first-same-as-last, so an accepted step's
last stage is the next step's first and a step costs 6 right-hand sides),
and classic RK4 with a fixed step.  M(t) does not depend on the state, so
each attempted step asks the signal once for all its new stage times (5 for
DP5(4), 2 for RK4) and the factorized route removes the trace from that
batch at once; the stages of a run share one buffer, and |y| of an
accepted state is carried into the next error norm.  Steps are clamped to
land exactly on sample times, so trajectories on the same grid compare
sample-by-sample without interpolation.  The loop counts its own steps and
hands each accepted state to one hook, saying whether it is a sample; the
factorized route's hook checks the trust region, records the sample and may
hand back a new chart's state.  The defects are taken over all samples at
once.  Floating-point warnings are silenced for a run: a blow-up shows as a
non-finite stage or state, which rejects the step or raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np
# LAPACK gufuncs behind np.linalg.inv and np.linalg.qr, called without the
# public functions' per-call checks and errstate
from numpy.linalg._umath_linalg import inv as _inv
from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw
from numpy.linalg._umath_linalg import qr_reduced as _qr_reduced

from .adjoint import Algebra, algebra
# assemble_A_numeric is the oracle and rhs the checked form of the general
# chart's stage; neither is called here, and the names stay importable so that
# tests and the benchmark tracer can patch them and see no calls.
from .hierarchy import (
    _peel,
    assemble_A_gauss,
    assemble_A_numeric,
    condition_estimate,
    rhs,
    riccati_rhs,
)
from .signals import CoefficientSignal, HamiltonianSignal

__all__ = [
    "ChartSingularityError",
    "ComparisonReport",
    "IntegrationConfig",
    "SingularityReport",
    "StepSizeUnderflow",
    "Trajectory",
    "compare",
    "integrate_direct",
    "integrate_wn",
    "reconstruct_K",
]


class StepSizeUnderflow(RuntimeError):
    """The controller drove the step below the resolvable scale."""


class _Deferred:
    """A dataclass field given as a value or as a function that computes it.

    The function runs the first time the field is read, and its value
    replaces it.  The field has no default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # tells dataclass: no default
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class SingularityReport:
    """Where and why a chart was abandoned (and, on re-anchoring, switched).

    ``condition`` may be given as a function of no arguments: ``integrate_wn``
    does so for a chart left on u-growth, so that cond(A) is computed when
    the report is first read, not during the run.
    """

    time: float
    trigger: str                 # "u-growth" or "condition"
    value: float                 # |u| or condition estimate that fired
    generator_index: int | None  # worst coordinate (1-based)
    stage: int | None            # its stage (1-based, elimination order)
    condition: float = _Deferred()  # cond_2(A(u)) at detection

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


# Above this |u| a chart's ODE stiffens and rebuilding K from U·D·L cancels
# digits: the default switch threshold, and the gate above which cond(A) is
# estimated every step when a user raises u_threshold past it.
SMALL_CHART_U = 0.5


@dataclass(frozen=True)
class IntegrationConfig:
    """Knobs for both integration routes.

    ``samples`` output points are placed uniformly on [t0, t1] unless
    ``sample_times`` pins them explicitly.  ``u_threshold`` and
    ``cond_threshold`` are the chart trust-region bounds: a chart is left
    once some |u_i| exceeds ``u_threshold`` (by default SMALL_CHART_U, so
    cond(A) is computed only for a switch's report, when it is read), or once
    cond(A(u)) exceeds ``cond_threshold`` while max |u| lies in
    (SMALL_CHART_U, u_threshold], which only a raised ``u_threshold``
    opens.  ``reanchor`` selects between transparent chart switching and
    aborting with a :class:`ChartSingularityError`.
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
    u_threshold: float = SMALL_CHART_U
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


def reconstruct_K(alg: Algebra, u: np.ndarray) -> np.ndarray:
    """K = exp(u_1 X_1) ... exp(u_n X_n), as its Gauss factors U diag(exp w) L.

    ``u`` may also be a stack (..., n) of coordinate vectors, which gives
    the stack (..., N, N) of their K.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-1:] != (alg.n,):
        raise ValueError(f"expected a {alg.n}-vector, got shape {u.shape}")
    maps = alg.basis.maps
    U = np.broadcast_to(maps.eye, u.shape[:-1] + maps.eye.shape).copy()
    L = U.copy()
    U.reshape(u.shape[:-1] + (-1,))[..., maps.upper_at] = u[..., maps.upper]
    L.reshape(u.shape[:-1] + (-1,))[..., maps.lower_at] = u[..., maps.lower]
    return (U * np.exp(maps.cartan_diagonal(u))[..., None, :]) @ L


# ---------------------------------------------------------------------------
# charts: what the state holds, and the coordinates and K it stands for
# ---------------------------------------------------------------------------
#
# Each chart has ``stage()``, which builds a run's stage function
# ``stage(M0, rate, y, out)`` with its buffers bound, ``factor(y)``, the
# factorisation of a state that the max-|u| test needs (a tuple of arrays),
# ``abs_u(y, f)``, and ``rebuild(y, f, K)``, which gives (K_chart, u) for one
# state or for stacks of states and their factors along leading axes; K_chart
# is None unless ``K``.  A stage writes the chart's rates and, in the last
# slot, the trace rate.


class _GaussChart:
    """All n coordinates, for any signal: u' = rhs(u, M), K = U·D·L."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.size = alg.n

    def stage(self):
        """``rhs`` on the state's Gauss factors, kept in buffers of the run."""
        alg, maps = self.alg, self.alg.basis.maps
        U, L = maps.eye.copy(), maps.eye.copy()
        upper, upper_at = maps.upper, maps.upper_at
        lower, lower_at = maps.lower, maps.lower_at
        cartan_diagonal = maps.cartan_diagonal

        def stage(M0: np.ndarray, rate: complex, y: np.ndarray, out: np.ndarray) -> None:
            U.put(upper_at, y[upper])
            L.put(lower_at, y[lower])
            _peel(alg, U, cartan_diagonal(y), L, M0, out)
            out[-1] = rate

        return stage

    def factor(self, y: np.ndarray) -> tuple:
        """Nothing: u is read off the state itself."""
        return ()

    def abs_u(self, y: np.ndarray, f: tuple) -> np.ndarray:
        return np.abs(y[: self.size])

    def rebuild(self, y: np.ndarray, f: tuple, K: bool = True) -> tuple:
        u = y[..., : self.size]
        return (reconstruct_K(self.alg, u) if K else None), u


class _UnitaryChart:
    """The reduced chart of an anti-Hermitian M, whose K = U·D·L is unitary.

    The state holds the upper coordinates, integrated as the Riccati
    hierarchy U' = U triu(T) with T = U^-1 M U, and i Im of the Cartan ones,
    integrated as Im of the partial sums of diag(T).  As K is unitary,
    U^-H = K (D L)^H is a QR factorisation U^-H = Q R up to phases:
    K = Q diag(r_ii / |r_ii| e^{i Im w_i}), |d_i| = |r_ii| gives
    Re w_i = log |r_ii|, and L = D^-1 R^H diag(...) gives |L_ij| =
    |R_ji| / |R_ii|.  The max-|u| test therefore needs R alone, which it
    reads from LAPACK's raw QR output, and so does u for a cond(A) check.  Q
    is formed from the same raw output: once per switch, and once per run
    for all samples together.
    """

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.maps = alg.basis.maps
        self.size = self.maps.cartan.stop  # the upper slots, then the Cartan ones

    def stage(self):
        """``riccati_rhs`` on the state's U, kept in a buffer of the run."""
        alg, maps = self.alg, self.maps
        U = maps.eye.copy()
        upper, upper_at, cartan = maps.upper, maps.upper_at, maps.cartan

        def stage(M0: np.ndarray, rate: complex, y: np.ndarray, out: np.ndarray) -> None:
            U.put(upper_at, y[upper])
            _, out[upper], diagonal = riccati_rhs(alg, U, M0)
            out[cartan] = 1j * diagonal.imag
            out[-1] = rate

        return stage

    def factor(self, y: np.ndarray) -> tuple:
        """(R^T, tau): LAPACK's raw QR of U^-H = Q R for the state y.

        R^T sits in the lower triangle; above it lie the Householder
        vectors, which with tau give Q and which only :meth:`rebuild` reads.
        """
        a = _inv(self.maps.upper_factor(y)).conj()
        return a, _qr_r_raw(a.T)  # factorises U^-H = a^T in place

    def abs_u(self, y: np.ndarray, f: tuple) -> np.ndarray:
        Rt = f[0]
        r = np.abs(Rt.diagonal())
        lower = (np.abs(Rt) / r[:, None]).take(self.maps.lower_at)
        return np.concatenate([np.abs(self._head(y, r)), lower])

    def rebuild(self, y: np.ndarray, f: tuple, K: bool = True) -> tuple:
        Rt, tau = f
        d = Rt.diagonal(0, -2, -1)
        r = np.abs(d)
        head = self._head(y, r)
        w = self.maps.cartan_diagonal(head)
        phases = (d / r * np.exp(1j * w.imag))[..., None, :]  # scales columns
        L = (Rt.conj() * phases) / np.exp(w)[..., None]
        lower = L.reshape(L.shape[:-2] + (-1,))[..., self.maps.lower_at]
        u = np.concatenate([head, lower], axis=-1)
        return (_qr_reduced(Rt.swapaxes(-1, -2), tau) * phases if K else None), u

    def _head(self, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The upper and Cartan coordinates: y plus Re w_i = log |r_ii|."""
        head = y[..., : self.size].copy()
        head[..., self.maps.cartan] += np.log(r).cumsum(axis=-1)[..., : self.alg.N - 1]
        return head


# ---------------------------------------------------------------------------
# stepper
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An explicit Runge-Kutta scheme, as data for the one stage loop.

    ``c`` holds the stage times as fractions of the step, ``A[i]`` the
    weights of stage i's input (i entries), ``b`` the solution weights and
    ``err`` those of the embedded error estimate (None: a fixed step).  With
    ``fsal`` the last stage is taken at the new solution at the step's end,
    so it is the next step's first stage.  ``new_c`` are the distinct
    fractions past the step's start, which must end at 1 (the stepper takes
    that time as the step's end point), and ``row[i]`` is stage i's place in
    [start, *new_c].  The weights are stored complex, as the stages are.
    """

    c: np.ndarray
    A: tuple[np.ndarray, ...]
    b: np.ndarray
    err: np.ndarray | None
    fsal: bool

    def __post_init__(self):
        # sorted and set, not np.unique, which imports numpy.ma (1 MB)
        new_c = sorted({float(ci) for ci in self.c if ci > 0})
        rows = tuple(new_c.index(ci) + 1 if ci else 0 for ci in self.c)
        object.__setattr__(self, "new_c", np.array(new_c))
        object.__setattr__(self, "row", rows)
        # a float row times the complex stages is cast on every product
        object.__setattr__(self, "A", tuple(a.astype(complex) for a in self.A))
        object.__setattr__(self, "b", self.b.astype(complex))
        err = None if self.err is None else self.err.astype(complex)
        object.__setattr__(self, "err", err)


_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# Dormand-Prince 5(4), first same as last: the 7th stage's input is the
# 5th-order solution
_DP54 = _Tableau(
    c=np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]),
    A=(
        np.array([]),
        np.array([1 / 5]),
        np.array([3 / 40, 9 / 40]),
        np.array([44 / 45, -56 / 15, 32 / 9]),
        np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
        np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
        _DP_B5[:6],
    ),
    b=_DP_B5,
    err=_DP_B5 - _DP_B4,
    fsal=True,
)
# classic RK4, fixed step
_RK4 = _Tableau(
    c=np.array([0.0, 0.5, 0.5, 1.0]),
    A=(np.array([]), np.array([0.5]), np.array([0.0, 0.5]), np.array([0.0, 0.0, 1.0])),
    b=np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]),
    err=None,
    fsal=False,
)

_MIN_STEP_REL = 1e-14


def _error_norm(err, abs_old, abs_new, atol, rtol) -> float:
    """RMS of |err| / (atol + rtol max(|y_old|, |y_new|)), from |y_old| and |y_new|."""
    ratio = np.abs(err) / (atol + rtol * np.maximum(abs_old, abs_new))
    return math.sqrt((ratio**2).sum() / ratio.size)


def _matrices(signal: CoefficientSignal, ts: np.ndarray):
    """(M(ts), tr M(ts) / N): the full driving matrices and their trace rates."""
    M = signal.matrices(ts)
    return M, M.diagonal(0, 1, 2).sum(axis=1) / signal.N


def _traceless_matrices(signal: CoefficientSignal, ts: np.ndarray):
    """(M_0(ts), tr M(ts) / N) with M_0 = M - (tr M / N) I, which drives a chart."""
    M, rates = _matrices(signal, ts)
    return M - rates[:, None, None] * algebra(signal.N).basis.maps.eye, rates


def _drive(stage, evaluate, t, y, targets, cfg, after):
    """Advance through ``targets`` (strictly increasing, all >= t).

    ``evaluate(ts)`` gives the signal at the times ``ts`` as a pair of
    stacks (M, rate), and ``stage(M, rate, y, out)`` writes the right-hand
    side at one of them into ``out``.  M does not depend on y, so each
    attempted step asks once for all its new stage times; the step's start
    reuses the previous step's end.  The stages live in one buffer per run.
    DP5(4) is first-same-as-last: an accepted step's last stage is the next
    step's first, so a step costs 6 stages and 5 times; likewise |y| of the
    accepted state is the next error norm's.

    ``after(t, y, h_last, on_target)`` is called after every accepted step,
    with ``on_target`` true exactly when the step ends on its target, and as
    ``after(target, y, h_last, True)`` for a target reached without a step
    (t0's, or one within the resolvable scale of the last).  It returns the
    state to go on from: a new object is a chart switch, and the step size
    and first stage restart as at t; M at t stays, as the signal knows no
    chart.  Returns the (accepted, rejected) step counts; an accepted step
    past ``cfg.max_steps`` raises before its hook.  Floating-point warnings
    are silenced for the run: a blow-up shows as a non-finite stage, which
    rejects the step or raises.
    """
    tab = _RK4 if cfg.method == "rk4" else _DP54
    adaptive = tab.err is not None
    if adaptive:
        h_start = cfg.first_step or (cfg.t1 - cfg.t0) / 100.0
        h_start = float(min(h_start, cfg.max_step))
    else:
        h_start = cfg.fixed_step
    tiny = _MIN_STEP_REL * max(abs(cfg.t0), abs(cfg.t1), 1.0)
    h, h_last = h_start, 0.0
    accepted = rejected = 0
    k = np.empty((len(tab.c), y.size), dtype=complex)  # the stage buffer
    have_k1 = False  # k[0] holds the stage at (t, y); kept across rejections
    M, rate = evaluate(np.array([t]))
    start = (M[0], rate[0])  # the signal at the step's start
    abs_y = np.abs(y)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for target in targets:
            while t < target - tiny:
                h_try = min(h, target - t)
                t_new = t + h_try
                if abs(t_new - target) <= tiny:
                    t_new = target
                if adaptive and h_try < tiny:
                    raise StepSizeUnderflow(
                        f"step {h_try:.3e} below resolvable scale at t = {t:.9f}"
                    )
                ts = t + h_try * tab.new_c
                ts[-1] = t_new
                at = [start, *zip(*evaluate(ts))]  # (M, rate) per row of tab.row
                if not have_k1:
                    stage(*start, y, k[0])
                    have_k1 = True
                for i in range(1, len(tab.c)):
                    yi = y + h_try * (tab.A[i] @ k[:i])
                    stage(*at[tab.row[i]], yi, k[i])
                y_new = yi if tab.fsal else y + h_try * (tab.b @ k)
                if adaptive:
                    # any non-finite stage rejects the step: y_new does not see
                    # the last one, and a nan errnorm must not pass the test below
                    if not (np.isfinite(k).all() and np.isfinite(y_new).all()):
                        errnorm = np.inf
                    else:
                        err = h_try * (tab.err @ k)
                        abs_new = np.abs(y_new)
                        errnorm = _error_norm(err, abs_y, abs_new, cfg.atol, cfg.rtol)
                    if not errnorm <= 1.0:
                        rejected += 1
                        shrink = 0.25 if not np.isfinite(errnorm) else max(
                            0.1, min(0.5, 0.9 * errnorm ** -0.2)
                        )
                        h = h_try * shrink
                        continue
                    factor = 5.0 if errnorm == 0 else min(
                        5.0, max(0.2, 0.9 * errnorm ** -0.2)
                    )
                    h = min(h_try * factor, cfg.max_step)
                    abs_y = abs_new
                elif not np.isfinite(y_new).all():
                    raise RuntimeError(
                        f"RK4 step from t = {t:.9f} gave a non-finite state; "
                        f"fixed_step = {cfg.fixed_step} is too coarse here"
                    )
                if tab.fsal:
                    k[0] = k[-1]
                have_k1 = tab.fsal
                t, y, h_last, start = t_new, y_new, h_try, at[-1]
                accepted += 1
                if accepted > cfg.max_steps:
                    raise RuntimeError(
                        f"step budget exceeded ({cfg.max_steps} accepted steps)"
                    )
                # a step ends on its target or more than tiny short of it
                if t != target:
                    fresh = after(t, y, h_last, False)
                    if fresh is not y:
                        y, abs_y, h, have_k1 = fresh, np.abs(fresh), h_start, False
            fresh = after(target, y, h_last, True)
            if fresh is not y:
                y, abs_y, h, have_k1 = fresh, np.abs(fresh), h_start, False
    return accepted, rejected


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of K' = M(t) K.

    ``K`` holds the physical propagator (any trace of M enters as the
    scalar factor ``phase_factor``); ``u`` holds chart coordinates at each
    sample for the factorized route (None for the direct route), valid in
    the chart identified by ``chart_index``: after a switch at t_s they are
    the coordinates of K(t) K(t_s)^-1.  ``det_defect`` is measured on
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


def _trajectory(N, rows, rebuild, method, counts, seed, events=()) -> Trajectory:
    """Sample rows (t, y, h_last, f, chart) of either route, as a Trajectory.

    A row holds the state y at a sample and the chart's factor f of it, not
    matrices.  ``rebuild(y, f, chart, phase)`` turns the stacked rows, with
    phase = exp(y[:, -1]), into (K, K_engine, u) in one call per run, where
    K_engine = K / phase is the traceless engine factor and u is None on the
    route without charts.  The defects are taken over the stack at once.
    """
    t, y, step, f, chart = zip(*rows)
    t, y, step, chart = map(np.array, (t, y, step, chart))
    f = tuple(map(np.array, zip(*f)))
    # silenced as in the run: a blown-up sample shows as a non-finite defect
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phase = np.exp(y[:, -1])
        K, K_engine, u = rebuild(y, f, chart, phase)
        gram = K.conj().transpose(0, 2, 1) @ K - np.eye(N)
        unitarity = np.linalg.norm(gram, axis=(1, 2))
        det = np.abs(np.linalg.det(K_engine) - 1.0)
    return Trajectory(
        N=N,
        t=t,
        K=K,
        u=u,
        phase_factor=phase,
        chart_index=None if u is None else chart,
        unitarity_defect=unitarity,
        det_defect=det,
        step_size=step,
        chart_events=tuple(events),
        method=method,
        n_steps=counts[0],
        n_rejected=counts[1],
        seed=seed,
    )


def _condition(alg: Algebra, u: np.ndarray) -> float:
    """cond(A(u)), the monitor's estimate."""
    return condition_estimate(assemble_A_gauss(alg, u))


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

    Starts from K(t0) = I (all chart coordinates zero).  A
    :class:`HamiltonianSignal` takes the unitary route, any other signal the
    general one; ``Trajectory.u`` holds all n coordinates on both.  Raises
    :class:`ChartSingularityError` on breakdown when re-anchoring is
    disabled, :class:`StepSizeUnderflow` if the controller stalls.
    """
    grid = _sample_grid(signal, config)
    alg = algebra(signal.N)
    chart = (
        _UnitaryChart if isinstance(signal, HamiltonianSignal) else _GaussChart
    )(alg)
    rows: list[tuple] = []
    events: list[SingularityReport] = []
    # K(t_s, t0) at t0 and at each switch t_s; chart c holds K(t, t_s) of
    # the c-th switch
    bases = [np.eye(alg.N, dtype=complex)]

    def rebuild(y, f, index, phase):
        K_chart, u = chart.rebuild(y, f)
        K_engine = K_chart @ np.array(bases)[index]
        return phase[:, None, None] * K_engine, K_engine, u

    def after(t: float, y: np.ndarray, h_last: float, on_target: bool) -> np.ndarray:
        """The trust region (u-growth, then cond(A) once |u| > SMALL_CHART_U),
        then the sample on a target.  A breakdown freezes K into a new base
        and hands back the new chart's state, which a sample on this step
        records.  A sample keeps the state and its factor for the rebuild.
        """
        f = chart.factor(y)
        absu = chart.abs_u(y, f)
        worst = int(np.argmax(absu))
        grown = absu[worst] > config.u_threshold
        if grown or absu[worst] > SMALL_CHART_U:
            u = chart.rebuild(y, f, K=False)[1]
            # a grown chart is left whatever cond(A) reads: its report
            # computes it when read
            cond = partial(_condition, alg, u) if grown else _condition(alg, u)
            if grown or cond > config.cond_threshold:
                report = SingularityReport(
                    time=float(t),
                    trigger="u-growth" if grown else "condition",
                    value=float(absu[worst]) if grown else cond,
                    generator_index=worst + 1,
                    stage=alg.partition.stage_of(worst + 1),
                    condition=cond,
                )
                if not config.reanchor:
                    raise ChartSingularityError(report)
                base = chart.rebuild(y, f)[0] @ bases[-1]
                if not np.isfinite(base).all():
                    rk4 = f"; fixed_step = {config.fixed_step} is too coarse here"
                    raise RuntimeError(f"chart frozen at t = {t:.9f} is non-finite"
                                       + (rk4 if config.method == "rk4" else ""))
                bases.append(base)
                events.append(report)
                y = np.concatenate([np.zeros(chart.size, dtype=complex), [y[-1]]])
                if not on_target:
                    return y
                f = chart.factor(y)
        if on_target:
            rows.append((t, y, h_last, f, len(events)))
        return y

    y = np.zeros(chart.size + 1, dtype=complex)
    counts = _drive(chart.stage(), lambda ts: _traceless_matrices(signal, ts),
                    float(config.t0), y, grid, config, after)
    return _trajectory(alg.N, rows, rebuild, config.method, counts, seed, events)


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
    rows: list[tuple] = []

    def rebuild(y, f, index, phase):
        K = np.ascontiguousarray(y[:, : N * N].reshape(-1, N, N))
        return K, K / phase[:, None, None], None

    def stage(M: np.ndarray, rate: complex, y: np.ndarray, out: np.ndarray) -> None:
        np.matmul(M, y[: N * N].reshape(N, N), out=out[: N * N].reshape(N, N))
        out[-1] = rate

    def after(t: float, y: np.ndarray, h_last: float, on_target: bool) -> np.ndarray:
        if on_target:
            rows.append((t, y, h_last, (), 0))
        return y

    y = np.concatenate([np.eye(N, dtype=complex).ravel(), [0j]])
    counts = _drive(stage, lambda ts: _matrices(signal, ts), float(config.t0), y,
                    grid, oracle_cfg, after)
    return _trajectory(N, rows, rebuild, "adaptive", counts, seed)


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
    max_relative: float  # of ||K_a - K_b||_F / ||K_b||_F; K need not be unitary
    rms_frobenius: float
    max_unitarity_diff: float

    def describe(self) -> str:
        return (
            f"{self.n_points} samples on [{self.t_lo:.6g}, {self.t_hi:.6g}]: "
            f"max ||dK||_F = {self.max_frobenius:.3e}, "
            f"max ||dK||_F / ||K||_F = {self.max_relative:.3e}, "
            f"rms = {self.rms_frobenius:.3e}, "
            f"max |d unitarity| = {self.max_unitarity_diff:.3e}"
        )


def compare(a: Trajectory, b: Trajectory) -> ComparisonReport:
    """Frobenius error on K, absolute and relative to ``b``, over the overlap.

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
    # b's bracketing samples j, j + 1 and the weight of j + 1; a non-finite
    # sample shows in the report as NaN or inf, without a warning
    j = np.clip(np.searchsorted(b.t, times) - 1, 0, b.t.size - 2)
    t0, t1 = b.t[j], b.t[j + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta = np.clip(np.where(t1 == t0, 0.0, (times - t0) / (t1 - t0)), 0.0, 1.0)
        Kb = (1 - theta[:, None, None]) * b.K[j] + theta[:, None, None] * b.K[j + 1]
        # one norm call per matrix: the stacked norm sums in another order
        diffs = np.array(list(map(np.linalg.norm, a.K[sel] - Kb)))
        scales = np.array(list(map(np.linalg.norm, Kb)))
        ub = (1 - theta) * b.unitarity_defect[j] + theta * b.unitarity_defect[j + 1]
        uni_diffs = np.abs(a.unitarity_defect[sel] - ub).tolist()
        return ComparisonReport(
            n_points=int(diffs.size),
            t_lo=float(times[0]),
            t_hi=float(times[-1]),
            max_frobenius=float(diffs.max()),
            max_relative=float((diffs / scales).max()),
            rms_frobenius=float(np.sqrt(np.mean(diffs**2))),
            max_unitarity_diff=max(uni_diffs),  # Python max: a later NaN is skipped
        )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TRAJECTORY_SCHEMA = "wn-trajectory/2"
# /1 files also carried a chart-event "jump" (always 0); the reader ignores it
_READABLE_SCHEMAS = ("wn-trajectory/1", TRAJECTORY_SCHEMA)

# The JSON file after its schema tag, in order: each Trajectory field, its
# type and its shape in terms of S = len(t) samples, N and n = N^2 - 1 (N
# comes first, as the shapes read it).  A complex array is stored with a last
# axis [re, im].
_JSON_FIELDS = (
    ("N", int, ()), ("method", str, ()), ("seed", int, ()),
    ("n_steps", int, ()), ("n_rejected", int, ()),
    ("t", float, ("S",)), ("u", complex, ("S", "n")), ("K", complex, ("S", "N", "N")),
    ("phase_factor", complex, ("S",)), ("chart_index", int, ("S",)),
    ("unitarity_defect", float, ("S",)), ("det_defect", float, ("S",)),
    ("step_size", float, ("S",)), ("chart_events", SingularityReport, ()),
)
_NULLABLE = ("u", "chart_index", "seed")
# the numpy dtype kinds of the arrays json.loads gives for each type
_KINDS = {int: "i", float: "if", complex: "if"}
# the JSON types of a chart event's fields, by their annotations
_EVENT_TYPES = {"float": (int, float), "str": (str,), "int | None": (int, type(None))}


def _pairs(a) -> np.ndarray:
    """A complex array as floats with a last axis [re, im]."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(a.shape + (2,))


def _complex(pairs) -> np.ndarray:
    """The inverse of `_pairs`, exact: the same floats viewed as complex."""
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _increasing(t: np.ndarray, fmt: str) -> np.ndarray:
    """The sample times of a file, which `compare` needs strictly increasing."""
    if not (np.diff(t) > 0).all():
        raise ValueError(f"trajectory {fmt}: the sample times t must increase strictly")
    return t


def _csv_header(N: int, n: int) -> list[str]:
    """The CSV columns for N x N matrices and n chart coordinates (0: no u)."""
    names = [f"u_{i}" for i in range(1, n + 1)]
    names += [f"K_{p}_{q}" for p in range(1, N + 1) for q in range(1, N + 1)]
    return ["t", *(f"{c}_{part}" for c in names for part in ("re", "im")),
            "unitarity_defect", "det_defect"]


def trajectory_to_csv(traj: Trajectory) -> str:
    """Flat sample table: t, chart u (if any), K entries, defects.

    The CSV holds samples only; chart events, phases and metadata live in
    the JSON format.
    """
    S = traj.t.size
    u = np.empty((S, 0)) if traj.u is None else _pairs(traj.u).reshape(S, -1)
    table = np.column_stack([traj.t, u, _pairs(traj.K).reshape(S, -1),
                             traj.unitarity_defect, traj.det_defect])
    cells = map(repr, table.ravel().tolist())
    rows = map(",".join, zip(*[cells] * table.shape[1]))  # a row's cells at a time
    return "\n".join([",".join(_csv_header(traj.N, u.shape[1] // 2)), *rows]) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) < 2:
        raise ValueError("trajectory CSV holds no samples")
    header = lines[0].split(",")
    N = math.isqrt(sum(c.startswith("K_") for c in header) // 2)
    n = N * N - 1 if "u_1_re" in header else 0
    if not N or header != _csv_header(N, n):
        raise ValueError(f"trajectory CSV header is not the one written for N = {N}"
                         + (" with u" if n else ""))
    data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError("row width does not match header")
    S = len(data)
    t, u, K, unitarity, det = np.split(data, np.cumsum([1, 2 * n, 2 * N * N, 1]), 1)
    return Trajectory(
        N=N, t=_increasing(t[:, 0], "CSV"), K=_complex(K.reshape(S, N, N, 2)),
        u=_complex(u.reshape(S, n, 2)) if n else None,
        phase_factor=np.ones(S, dtype=complex), chart_index=None,
        unitarity_defect=unitarity[:, 0], det_defect=det[:, 0], step_size=np.zeros(S),
        chart_events=(), method="unknown", n_steps=0, n_rejected=0,
    )


def trajectory_to_json(traj: Trajectory) -> str:
    """One line per top-level key, each value written by the C encoder.

    ``json.dumps(..., indent=...)`` falls back to the pure-Python encoder;
    the layout differs from an indented file, the values do not.  The
    values are fresh lists built here, which hold no cycle, so the encoder
    skips its cycle check (a dict entry per list).
    """
    obj = {"schema": TRAJECTORY_SCHEMA}
    for key, kind, shape in _JSON_FIELDS:
        value = getattr(traj, key)
        if kind is SingularityReport:
            value = [asdict(ev) for ev in value]
        elif value is not None and shape:
            a = np.asarray(value, dtype=kind)
            value = (_pairs(a) if kind is complex else a).tolist()
        obj[key] = value
    lines = [f"{json.dumps(key)}: {json.dumps(value, check_circular=False)}"
             for key, value in obj.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def trajectory_from_json(text: str) -> Trajectory:
    """Each field must have its type and shape; only u, chart_index and seed
    may be null."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema not in _READABLE_SCHEMAS:
        raise ValueError(
            f"unsupported schema {schema!r} (expected {TRAJECTORY_SCHEMA!r})"
        )
    values: dict = {}
    try:
        S = len(obj["t"]) if isinstance(obj["t"], list) else 0
        if not S:
            raise ValueError("trajectory JSON: t must be a non-empty list")
        for key, kind, shape in _JSON_FIELDS:
            value = obj[key]
            if kind is SingularityReport:
                value = _events(value)
            elif value is None and key in _NULLABLE:
                pass
            elif not shape:
                if type(value) is not kind:  # a bool is no int here
                    raise ValueError(f"trajectory JSON: {key} must be {kind.__name__}, "
                                     f"got {value!r}")
            else:
                try:
                    a = np.array(value)
                except ValueError:  # a ragged list, kept to its even depth
                    a = np.array(value, dtype=object)
                want = tuple({"S": S, "N": values["N"], "n": values["N"] ** 2 - 1}[d]
                             for d in shape) + ((2,) if kind is complex else ())
                if a.dtype.kind not in _KINDS[kind] or a.shape != want:
                    raise ValueError(f"trajectory JSON: {key} must be {kind.__name__} of "
                                     f"shape {want}, got {a.dtype} of shape {a.shape}")
                value = _complex(a) if kind is complex else a.astype(kind)
            values[key] = value
    except KeyError as exc:
        raise ValueError(f"trajectory JSON lacks the key {exc}") from exc
    _increasing(values["t"], "JSON")
    return Trajectory(**values)


def _events(value) -> tuple:
    """chart_events read back: a list of objects of SingularityReport's fields."""
    fs = fields(SingularityReport)
    if not isinstance(value, list) or not all(
        isinstance(ev, dict) and all(type(ev[f.name]) in _EVENT_TYPES[f.type] for f in fs)
        for ev in value
    ):
        raise ValueError("trajectory JSON: chart_events must be a list of objects "
                         "holding the fields of SingularityReport with their types")
    return tuple(SingularityReport(**{f.name: ev[f.name] for f in fs}) for ev in value)
