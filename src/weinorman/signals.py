"""Time-dependent coefficient signals driving K' = M(t) K.

Vector kinds (``constant``, ``polynomial``, ``fourier``) specify the
expansion coefficients a(t) of a traceless M(t) directly.  Matrix kinds
(``piecewise``, ``hamiltonian``) specify M(t) itself; they may carry a
nonzero trace, which the integrator cannot absorb into the factorization —
the engine evolves the traceless part M_0(t) = M(t) - (tr M / N) I and the
physical propagator is recovered as exp(psi(t)) K_0(t) with
psi' = tr M / N.  ``trace_rate`` exposes exactly that scalar.

The ``hamiltonian`` kind takes Hermitian data H(t) (validated) and drives
M = -i H, the Schroedinger propagator convention; its trace rate is
-i tr H / N, i.e. the usual global phase.  Its propagator is unitary, and
``integrate_wn`` takes the unitary route for it, by its type.

Every kind evaluates M at many times in one call, ``matrices(ts)`` of shape
(len(ts), N, N), and ``matrix(t)`` is its one-row case.  The steppers ask
for all new stage times of a step at once, since M does not depend on the
state.  The kinds linear in a few fixed matrices (``polynomial``,
``fourier``, ``hamiltonian``) keep those matrices as one stack, built at
construction, and evaluate M(ts) as one product of their time weights with
it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .adjoint import algebra
from .basis import expand_in_basis, matrix_from_coefficients

__all__ = [
    "CoefficientSignal",
    "ConstantSignal",
    "FourierSignal",
    "HamiltonianSignal",
    "PiecewiseSignal",
    "PolynomialSignal",
    "random_antihermitian_signal",
]


class CoefficientSignal(ABC):
    """A time-dependent element of gl(N, C) split into sl(N) part + trace."""

    kind: str = "abstract"

    @property
    @abstractmethod
    def N(self) -> int: ...

    @abstractmethod
    def coefficients(self, t: float) -> np.ndarray:
        """Expansion a(t) of the traceless part of M(t) in the ordered basis."""

    @abstractmethod
    def matrices(self, ts: np.ndarray) -> np.ndarray:
        """Full M(t), trace included, at each time of ``ts``: (len(ts), N, N)."""

    def matrix(self, t: float) -> np.ndarray:
        """Full M(t), trace included: the one-row case of :meth:`matrices`."""
        return self.matrices(np.array([t], dtype=float))[0]

    def trace_rate(self, t: float) -> complex:
        """tr M(t) / N (zero for the vector kinds)."""
        return 0j

    @property
    def domain(self) -> tuple[float, float] | None:
        """Validity interval for t, or None if unrestricted."""
        return None


def _require_finite(v, what: str) -> None:
    # a NaN or inf in the data otherwise surfaces only as a stalled stepper
    if not np.isfinite(v).all():
        raise ValueError(f"{what} has a non-finite value")


def _as_coeff_vector(v, N: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    n = N * N - 1
    if v.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {v.shape}")
    _require_finite(v, what)
    return v


def _as_matrix(v, N: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (N, N):
        raise ValueError(f"{what} must have shape ({N}, {N}), got {v.shape}")
    _require_finite(v, what)
    return v


def _as_frequency(w, what: str) -> float:
    w = float(w)
    _require_finite(w, what)
    return w


def _require_hermitian(H: np.ndarray, what: str, tol: float = 1e-12) -> None:
    defect = float(np.linalg.norm(H - H.conj().T))
    scale = max(float(np.linalg.norm(H)), 1.0)
    if defect > tol * scale:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e}")


def _matrix_stack(vectors, N: int) -> np.ndarray:
    """(K, N*N): each coefficient vector as its flattened traceless matrix."""
    basis = algebra(N).basis
    return np.array([matrix_from_coefficients(v, basis).ravel() for v in vectors])


def _fourier_weights(omega: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(len(ts), 1 + 2 m): [1, cos(w_m t)..., sin(w_m t)...] per time."""
    wt = np.multiply.outer(ts, omega)
    return np.concatenate((np.ones((ts.size, 1)), np.cos(wt), np.sin(wt)), axis=1)


@dataclass(frozen=True, eq=False)
class ConstantSignal(CoefficientSignal):
    """a(t) = a, a fixed coefficient vector."""

    _N: int
    a: np.ndarray

    kind = "constant"

    def __post_init__(self):
        a = _as_coeff_vector(self.a, self._N, "a")
        M = matrix_from_coefficients(a, algebra(self._N).basis)
        M.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_matrix", M)

    @property
    def N(self) -> int:
        return self._N

    def coefficients(self, t: float) -> np.ndarray:
        return self.a

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._matrix, (np.size(ts), self._N, self._N))


@dataclass(frozen=True, eq=False)
class PolynomialSignal(CoefficientSignal):
    """a(t) = sum_k v_k t^k with vector coefficients v_k."""

    _N: int
    powers: tuple[np.ndarray, ...]

    kind = "polynomial"

    def __post_init__(self):
        if not self.powers:
            raise ValueError("polynomial signal needs at least one coefficient")
        object.__setattr__(
            self,
            "powers",
            tuple(
                _as_coeff_vector(v, self._N, f"power-{k} coefficient")
                for k, v in enumerate(self.powers)
            ),
        )
        object.__setattr__(self, "_stack", _matrix_stack(self.powers, self._N))

    @property
    def N(self) -> int:
        return self._N

    def coefficients(self, t: float) -> np.ndarray:
        out = np.zeros_like(self.powers[0])
        for k in range(len(self.powers) - 1, -1, -1):  # Horner
            out = out * t + self.powers[k]
        return out

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        weights = np.vander(np.asarray(ts, dtype=float), len(self.powers),
                            increasing=True)
        return (weights @ self._stack).reshape(-1, self._N, self._N)


@dataclass(frozen=True, eq=False)
class FourierSignal(CoefficientSignal):
    """a(t) = a0 + sum_m (c_m cos(w_m t) + s_m sin(w_m t))."""

    _N: int
    a0: np.ndarray
    modes: tuple[tuple[float, np.ndarray, np.ndarray], ...]

    kind = "fourier"

    def __post_init__(self):
        object.__setattr__(self, "a0", _as_coeff_vector(self.a0, self._N, "a0"))
        object.__setattr__(
            self,
            "modes",
            tuple(
                (
                    _as_frequency(w, f"frequency of mode {i}"),
                    _as_coeff_vector(c, self._N, f"cos vector of mode {i}"),
                    _as_coeff_vector(s, self._N, f"sin vector of mode {i}"),
                )
                for i, (w, c, s) in enumerate(self.modes)
            ),
        )
        object.__setattr__(self, "_omega", np.array([w for w, _, _ in self.modes]))
        vectors = [self.a0, *(c for _, c, _ in self.modes),
                   *(s for _, _, s in self.modes)]
        object.__setattr__(self, "_stack", _matrix_stack(vectors, self._N))

    @property
    def N(self) -> int:
        return self._N

    def coefficients(self, t: float) -> np.ndarray:
        out = self.a0.copy()
        for w, c, s in self.modes:
            out += c * np.cos(w * t) + s * np.sin(w * t)
        return out

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        weights = _fourier_weights(self._omega, np.asarray(ts, dtype=float))
        return (weights @ self._stack).reshape(-1, self._N, self._N)


class _MatrixSignal(CoefficientSignal):
    """Matrix-valued kinds: coefficients come from expanding M minus its trace."""

    def coefficients(self, t: float) -> np.ndarray:
        alg = algebra(self.N)
        M = self.matrix(t)
        M0 = M - (np.trace(M) / self.N) * np.eye(self.N)
        return expand_in_basis(M0, alg.basis)

    def trace_rate(self, t: float) -> complex:
        return complex(np.trace(self.matrix(t)) / self.N)


@dataclass(frozen=True, eq=False)
class PiecewiseSignal(_MatrixSignal):
    """M(t) interpolated entrywise through samples (rule: cubic or linear).

    The signal is only defined on [times[0], times[-1]]; integrating outside
    that window is a validation error.
    """

    _N: int
    times: np.ndarray
    values: np.ndarray
    rule: str = "cubic"

    kind = "piecewise"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or values.shape != (times.size, self._N, self._N):
            raise ValueError(
                f"need times (S,) and values (S, {self._N}, {self._N}); got "
                f"{times.shape} and {values.shape}"
            )
        _require_finite(times, "times")
        _require_finite(values, "values")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if self.rule == "cubic":
            if times.size < 4:
                raise ValueError("cubic interpolation needs >= 4 samples "
                                 "(use rule='linear' for fewer)")
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(times, values.reshape(times.size, -1), axis=0)
            object.__setattr__(self, "_spline", spline)
        elif self.rule != "linear":
            raise ValueError(f"unknown interpolation rule {self.rule!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def N(self) -> int:
        return self._N

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.times[0]), float(self.times[-1]))

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.rule == "cubic":
            return self._spline(ts).reshape(-1, self._N, self._N)
        flat = self.values.reshape(self.times.size, -1)
        out = np.array(
            [
                np.interp(ts, self.times, flat[:, j].real)
                + 1j * np.interp(ts, self.times, flat[:, j].imag)
                for j in range(flat.shape[1])
            ],
            dtype=complex,
        )
        return out.T.reshape(-1, self._N, self._N)


@dataclass(frozen=True, eq=False)
class HamiltonianSignal(_MatrixSignal):
    """M(t) = -i H(t), H(t) = h0 + sum_m (Hc_m cos(w_m t) + Hs_m sin(w_m t)).

    All matrix data must be Hermitian; tracelessness is NOT required — the
    trace becomes the usual global phase via ``trace_rate``.
    """

    _N: int
    h0: np.ndarray
    modes: tuple[tuple[float, np.ndarray, np.ndarray], ...] = ()

    kind = "hamiltonian"

    def __post_init__(self):
        h0 = _as_matrix(self.h0, self._N, "h0")
        _require_hermitian(h0, "h0")
        clean = []
        for i, (w, Hc, Hs) in enumerate(self.modes):
            Hc = _as_matrix(Hc, self._N, f"cos matrix of mode {i}")
            Hs = _as_matrix(Hs, self._N, f"sin matrix of mode {i}")
            _require_hermitian(Hc, f"cos matrix of mode {i}")
            _require_hermitian(Hs, f"sin matrix of mode {i}")
            clean.append((_as_frequency(w, f"frequency of mode {i}"), Hc, Hs))
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "modes", tuple(clean))
        # M(t) = [1, cos w t, sin w t] @ -i [h0, Hc..., Hs...], one product
        stack = [h0, *(Hc for _, Hc, _ in clean), *(Hs for _, _, Hs in clean)]
        object.__setattr__(self, "_omega", np.array([w for w, _, _ in clean]))
        object.__setattr__(
            self, "_stack", -1j * np.array(stack).reshape(len(stack), -1)
        )

    @property
    def N(self) -> int:
        return self._N

    def hamiltonian(self, t: float) -> np.ndarray:
        H = self.h0.copy()
        for w, Hc, Hs in self.modes:
            H += Hc * np.cos(w * t) + Hs * np.sin(w * t)
        return H

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        weights = _fourier_weights(self._omega, np.asarray(ts, dtype=float))
        return (weights @ self._stack).reshape(-1, self._N, self._N)


def _fourier_twin(signal: HamiltonianSignal) -> FourierSignal:
    """The same M(t) = -i H(t) as a :class:`FourierSignal`.

    ``integrate_wn`` takes the unitary route only for a HamiltonianSignal,
    so the twin runs the same evolution on the general route.  H must be
    traceless (a FourierSignal carries no trace); otherwise ValueError.
    """
    basis = algebra(signal.N).basis

    def coefficients(H: np.ndarray) -> np.ndarray:
        return expand_in_basis(-1j * H, basis)

    return FourierSignal(
        signal.N,
        coefficients(signal.h0),
        tuple((w, coefficients(Hc), coefficients(Hs)) for w, Hc, Hs in signal.modes),
    )


def random_antihermitian_signal(
    N: int,
    rng: np.random.Generator,
    *,
    sup_norm: float = 5.0,
    modes: int = 2,
    traceless: bool = True,
) -> HamiltonianSignal:
    """Random smooth anti-Hermitian generator M(t) = -i H(t), ||M||_F <= sup_norm.

    H is a constant plus ``modes`` Fourier modes with random Hermitian
    amplitudes and frequencies in [0.5, 3]; the whole signal is rescaled so
    the Frobenius norm stays below ``sup_norm`` on a dense scan of [0, 1].
    """

    def herm() -> np.ndarray:
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        H = (A + A.conj().T) / 2
        if traceless:
            H -= (np.trace(H).real / N) * np.eye(N)
        return H

    h0 = herm()
    mode_data = tuple(
        (float(rng.uniform(0.5, 3.0)), herm(), herm()) for _ in range(modes)
    )
    sig = HamiltonianSignal(N, h0, mode_data)
    grid = np.linspace(0.0, 1.0, 257)
    worst = float(np.linalg.norm(sig.matrices(grid), axis=(1, 2)).max())
    scale = sup_norm / worst if worst > sup_norm else 1.0
    if scale != 1.0:
        sig = HamiltonianSignal(
            N,
            h0 * scale,
            tuple((w, Hc * scale, Hs * scale) for w, Hc, Hs in mode_data),
        )
    return sig
