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
