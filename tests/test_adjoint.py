"""Adjoint matrices, closed-form exponentials, and the property battery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from weinorman import (
    BasisElement,
    OrderedBasis,
    algebra,
    all_ad_matrices,
    apply_exp_ad,
    build_ordered_basis,
    check_algebraic_properties,
    exp_ad,
)

EXPECTED_CHECKS = {
    "nilpotency-generators",
    "cartan-adjoint-diagonal",
    "root-sector-triangularity",
    "squared-adjoint-image",
    "block-diagonality",
    "nilpotency-random-elements",
    "invariant-subspaces",
    "exp-ad-oracle",
    "exp-ad-inverse",
}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_property_battery_passes(N):
    alg = algebra(N)
    report = check_algebraic_properties(alg.basis, alg.partition, alg.ads, seed=7)
    assert report.passed, report.summary()
    assert {c.name for c in report.checks} == EXPECTED_CHECKS


def test_n2_adjoint_of_raising_generator(alg2):
    # [X_1, X_2] = -2 X_1 and [X_1, X_3] = X_2; nothing else
    assert alg2.ads[0].coordinates == ((1, 2, -2), (2, 3, 1))


def test_n2_cartan_exponential(alg2):
    ad_h = alg2.ads[1]
    assert ad_h.role == "cartan"
    u = 0.3 - 0.7j
    expected = np.diag([np.exp(2 * u), 1.0, np.exp(-2 * u)])
    assert np.allclose(exp_ad(ad_h, u), expected, atol=1e-14)


def test_n3_squared_adjoint_is_rank_one(alg3):
    # (ad X_1)^2 kills everything except the transpose partner X_8,
    # which it sends to -2 X_1.
    A = alg3.ads[0].entries
    A2 = A @ A
    expected = np.zeros_like(A2)
    expected[0, 7] = -2
    assert np.array_equal(A2, expected)


def test_root_adjoints_cube_to_zero():
    for N in (2, 3, 4, 5):
        for ad in algebra(N).ads:
            if ad.role == "cartan":
                continue
            A = ad.entries
            assert not (A @ A @ A).any()


def test_random_root_block_elements_are_nilpotent(alg4):
    rng = np.random.default_rng(11)
    for blk in alg4.partition.upper_blocks + alg4.partition.lower_blocks:
        c = rng.standard_normal(len(blk)) + 1j * rng.standard_normal(len(blk))
        A = sum(ci * alg4.ads[i - 1].entries.astype(complex) for ci, i in zip(c, blk))
        assert np.linalg.norm(A @ A @ A) < 1e-12 * max(np.linalg.norm(A) ** 3, 1.0)


@given(
    N=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exp_ad_matches_generic_expm(N, m, seed):
    alg = algebra(N)
    ad = alg.ads[m % alg.n]
    rng = np.random.default_rng(seed)
    u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    ours = exp_ad(ad, u)
    ref = expm(u * ad.entries.astype(complex))
    assert np.allclose(ours, ref, atol=1e-11, rtol=1e-11)


@given(
    m=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apply_exp_ad_matches_dense(m, seed):
    alg = algebra(3)
    ad = alg.ads[m]
    rng = np.random.default_rng(seed)
    u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    v = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
    assert np.allclose(apply_exp_ad(ad, u, v), exp_ad(ad, u) @ v, atol=1e-12)


def test_exp_ad_inverse(alg3):
    for ad in alg3.ads:
        P = exp_ad(ad, 0.37 + 0.21j) @ exp_ad(ad, -(0.37 + 0.21j))
        assert np.allclose(P, np.eye(alg3.n), atol=1e-13)


def test_corrupted_ordering_fails_battery():
    from weinorman.verify import _corrupted_algebra

    bad = _corrupted_algebra()
    report = check_algebraic_properties(bad.basis, bad.partition, bad.ads)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "root-sector-triangularity" in failing


def test_closure_failure_raises():
    # X_2 = E_13 replaced by a copy of X_1 = E_23: then
    # [X_1, X_3] = [E_23, E_12] = -E_13 no longer expands in the basis
    good = build_ordered_basis(3)
    first = good.elements[0]
    els = list(good.elements)
    els[1] = BasisElement(2, first.role, first.position, first.matrix)
    with pytest.raises(RuntimeError, match=r"\[X_1, X_3\] does not close"):
        all_ad_matrices(OrderedBasis(N=3, elements=tuple(els)))
