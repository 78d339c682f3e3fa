"""Driving-signal constructors and their coefficient/matrix views."""

import numpy as np
import pytest

from weinorman import (
    ConstantSignal,
    FourierSignal,
    HamiltonianSignal,
    PiecewiseSignal,
    PolynomialSignal,
    matrix_from_coefficients,
    random_antihermitian_signal,
)
from weinorman.signals import _fourier_twin


def test_constant_signal():
    sig = ConstantSignal(2, [1.0, 2.0, 3.0])
    assert sig.N == 2
    assert np.array_equal(sig.coefficients(0.0), [1, 2, 3])
    assert np.array_equal(sig.coefficients(17.3), [1, 2, 3])
    assert sig.trace_rate(0.0) == 0
    assert sig.domain is None


def test_constant_signal_matrix_view(alg2):
    a = np.array([1.0, -0.5j, 2.0])
    sig = ConstantSignal(2, a)
    assert np.allclose(sig.matrix(1.0), matrix_from_coefficients(a, alg2.basis))


def test_constant_signal_rejects_wrong_length():
    with pytest.raises(ValueError):
        ConstantSignal(2, [1.0, 2.0])


def test_polynomial_signal_horner():
    v0, v1, v2 = np.array([1.0, 0, 0]), np.array([0, 2.0, 0]), np.array([0, 0, -1.0])
    sig = PolynomialSignal(2, (v0, v1, v2))
    for t in (0.0, 0.5, 2.0):
        assert np.allclose(sig.coefficients(t), v0 + v1 * t + v2 * t * t)


def test_polynomial_signal_needs_coefficients():
    with pytest.raises(ValueError):
        PolynomialSignal(2, ())


def test_fourier_signal():
    a0 = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0])
    sig = FourierSignal(2, a0, ((2.0, c, s),))
    for t in (0.0, 0.3, 1.7):
        want = a0 + c * np.cos(2 * t) + s * np.sin(2 * t)
        assert np.allclose(sig.coefficients(t), want)


def test_hamiltonian_signal_is_antihermitian():
    h0 = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
    hc = np.array([[0.0, 1j], [-1j, 0.0]])
    sig = HamiltonianSignal(2, h0, ((1.5, hc, np.zeros((2, 2))),))
    for t in (0.0, 0.9):
        M = sig.matrix(t)
        assert np.allclose(M + M.conj().T, 0, atol=1e-14)
        assert np.allclose(M, -1j * sig.hamiltonian(t))
    # h0 here is traceless, so no phase drift
    assert sig.trace_rate(0.3) == 0


def test_hamiltonian_signal_trace_rate():
    sig = HamiltonianSignal(2, np.eye(2))
    assert sig.trace_rate(0.0) == pytest.approx(-1j)  # tr(M)/N with M = -iI


def test_hamiltonian_signal_rejects_nonhermitian():
    with pytest.raises(ValueError, match=r"[Hh]ermitian"):
        HamiltonianSignal(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"[Hh]ermitian"):
        HamiltonianSignal(
            2, np.eye(2), ((1.0, np.array([[0, 1j], [1j, 0]]), np.zeros((2, 2))),)
        )


def test_coefficients_of_matrix_signal(alg2):
    h0 = np.array([[0.5, 1.0 - 2.0j], [1.0 + 2.0j, -0.5]])
    sig = HamiltonianSignal(2, h0)
    a = sig.coefficients(0.0)
    M0 = matrix_from_coefficients(a, alg2.basis)
    # the coefficient view captures the traceless part exactly
    assert np.allclose(M0 + sig.trace_rate(0.0) * np.eye(2), sig.matrix(0.0))


def test_piecewise_signal_hits_nodes():
    times = np.array([0.0, 0.4, 0.8, 1.2])
    rng = np.random.default_rng(5)
    H = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    vals = -1j * (H + H.conj().transpose(0, 2, 1)) / 2
    sig = PiecewiseSignal(2, times, vals)
    for t, V in zip(times, vals):
        assert np.allclose(sig.matrix(t), V, atol=1e-12)
    assert sig.domain == (0.0, 1.2)


def test_piecewise_linear_rule():
    times = np.array([0.0, 1.0])
    vals = np.array([np.zeros((2, 2)), -1j * np.eye(2)])
    sig = PiecewiseSignal(2, times, vals, rule="linear")
    assert np.allclose(sig.matrix(0.5), -0.5j * np.eye(2))


def test_piecewise_validation():
    good = -1j * np.array([np.eye(2)] * 4)
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseSignal(2, [0.0, 0.5, 0.5, 1.0], good)
    with pytest.raises(ValueError, match=">= 4 samples"):
        PiecewiseSignal(2, [0.0, 1.0], good[:2])
    with pytest.raises(ValueError, match="rule"):
        PiecewiseSignal(2, [0.0, 0.3, 0.6, 1.0], good, rule="nearest")


def _h(x):
    return np.array([[x, 0.0], [0.0, 1.0]])


_V = np.ones(3)
_H = np.eye(2)
# (field the error must name, constructor given the bad value)
_NON_FINITE_CASES = [
    ("a", lambda x: ConstantSignal(2, [1.0, x, -1.0])),
    ("power-1", lambda x: PolynomialSignal(2, (_V, [0.0, 0.0, x]))),
    ("a0", lambda x: FourierSignal(2, [x, 0.0, 0.0], ())),
    ("sin vector", lambda x: FourierSignal(2, _V, ((1.0, _V, [x, 0, 0]),))),
    ("frequency", lambda x: FourierSignal(2, _V, ((x, _V, _V),))),
    ("h0", lambda x: HamiltonianSignal(2, _h(x))),
    ("cos matrix", lambda x: HamiltonianSignal(2, _H, ((1.0, _h(x), _H),))),
    ("frequency", lambda x: HamiltonianSignal(2, _H, ((x, _H, _H),))),
    ("times", lambda x: PiecewiseSignal(2, [0.0, x], [_H, _H], rule="linear")),
    ("values", lambda x: PiecewiseSignal(2, [0, 1], [_H, _h(x)], rule="linear")),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field, build", _NON_FINITE_CASES, ids=[f for f, _ in _NON_FINITE_CASES]
)
def test_non_finite_data_is_rejected_by_name(field, build, bad):
    with pytest.raises(ValueError, match=f"{field}.*non-finite"):
        build(bad)


def test_random_signal_norm_bound_and_reproducibility():
    for N in (2, 3, 4):
        sig = random_antihermitian_signal(N, np.random.default_rng(42), sup_norm=5.0)
        for t in np.linspace(0, 1, 41):
            M = sig.matrix(t)
            assert np.linalg.norm(M) <= 5.0 + 1e-9
            assert np.allclose(M + M.conj().T, 0, atol=1e-12)
            assert abs(np.trace(M)) < 1e-12
    s1 = random_antihermitian_signal(3, np.random.default_rng(9))
    s2 = random_antihermitian_signal(3, np.random.default_rng(9))
    assert np.allclose(s1.matrix(0.37), s2.matrix(0.37))


def test_hamiltonian_matrix_is_minus_i_h():
    # M(t) is one product of the stacked data; it must stay -i H(t)
    sig = random_antihermitian_signal(5, np.random.default_rng(5), modes=3)
    for t in np.linspace(-3.0, 3.0, 61):
        H = sig.hamiltonian(t)
        # measured at most 2.0e-16 relative
        assert np.linalg.norm(sig.matrix(t) + 1j * H) <= 1e-15 * np.linalg.norm(H)
    ts = np.linspace(-3.0, 3.0, 61)
    for t, M in zip(ts, sig.matrices(ts)):
        H = sig.hamiltonian(t)
        assert np.linalg.norm(M + 1j * H) <= 1e-15 * np.linalg.norm(H)
    constant = HamiltonianSignal(2, np.array([[1.0, 2j], [-2j, 0.0]]))
    assert np.array_equal(constant.matrix(0.7), -1j * constant.h0)


def test_fourier_twin_carries_the_same_matrix():
    sig = random_antihermitian_signal(3, np.random.default_rng(3))
    twin = _fourier_twin(sig)
    assert isinstance(twin, FourierSignal)
    for t in (0.0, 0.4, 1.3):
        assert np.allclose(twin.matrix(t), sig.matrix(t), rtol=0, atol=1e-14)
    ts = np.array([0.0, 0.4, 1.3])
    assert np.allclose(twin.matrices(ts), sig.matrices(ts), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="traceless"):
        _fourier_twin(HamiltonianSignal(2, np.eye(2)))


def _signal_of_each_kind(kind: str):
    rng = np.random.default_rng(31)

    def vec():
        return rng.standard_normal(8) + 1j * rng.standard_normal(8)

    if kind == "constant":
        return ConstantSignal(3, vec())
    if kind == "polynomial":
        return PolynomialSignal(3, (vec(), vec(), vec()))
    if kind == "fourier":
        return FourierSignal(3, vec(), ((1.3, vec(), vec()), (2.9, vec(), vec())))
    if kind == "hamiltonian":
        return random_antihermitian_signal(3, rng, modes=2, traceless=False)
    times = np.linspace(0.0, 2.0, 6)
    values = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    return PiecewiseSignal(3, times, values, rule=kind.split("-")[1])


@pytest.mark.parametrize(
    "kind",
    ["constant", "polynomial", "fourier", "hamiltonian", "piecewise-cubic",
     "piecewise-linear"],
)
def test_matrices_rows_are_the_matrix_at_each_time(kind, alg3):
    # the steppers ask for all stage times of a step in one call
    sig = _signal_of_each_kind(kind)
    ts = np.array([0.0, 0.1, 0.35, 0.35, 1.0, 1.7, 2.0])
    Ms = sig.matrices(ts)
    assert Ms.shape == (ts.size, 3, 3)
    for t, M in zip(ts, Ms):
        want = sig.matrix(t)
        assert np.linalg.norm(M - want) <= 1e-15 * np.linalg.norm(want)
        if kind in ("constant", "polynomial", "fourier"):
            # the stacked basis matrices carry the coefficient route's M
            via = matrix_from_coefficients(sig.coefficients(t), alg3.basis)
            assert np.linalg.norm(M - via) <= 1e-14 * np.linalg.norm(via)
