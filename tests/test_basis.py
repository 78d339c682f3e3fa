"""Ordered basis, block partition, and brackets read off the ad matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weinorman import (
    all_ad_matrices,
    build_ordered_basis,
    build_partition,
    expand_in_basis,
    matrix_from_coefficients,
)


def _bracket_matrix(basis, p, q):
    Xp, Xq = basis.matrix(p), basis.matrix(q)
    return Xp @ Xq - Xq @ Xp


def _bracket(ads, p, q):
    """Nonzero coefficients {r: c} of [X_p, X_q]: column q of ad X_p."""
    col = ads[p - 1].entries[:, q - 1]
    return {int(r) + 1: int(col[r]) for r in np.flatnonzero(col)}


def test_dimension_count():
    for N in range(2, 7):
        assert build_ordered_basis(N).n == N * N - 1


def test_n3_ordering_is_pinned():
    basis = build_ordered_basis(3)
    got = [(e.role, e.position) for e in basis.elements]
    assert got == [
        ("upper", (2, 3)),
        ("upper", (1, 3)),
        ("upper", (1, 2)),
        ("cartan", (1, 1)),
        ("cartan", (2, 2)),
        ("lower", (2, 1)),
        ("lower", (3, 1)),
        ("lower", (3, 2)),
    ]


def test_n4_upper_ordering_is_pinned():
    basis = build_ordered_basis(4)
    got = [e.position for e in basis.elements if e.role == "upper"]
    # columns right-to-left, row index descending inside each column
    assert got == [(3, 4), (2, 4), (1, 4), (2, 3), (1, 3), (1, 2)]


def test_matrices_are_elementary_or_cartan():
    basis = build_ordered_basis(3)
    E = np.zeros((3, 3))
    E[1, 2] = 1.0
    assert np.array_equal(basis.matrix(1), E)
    assert np.array_equal(basis.matrix(4), np.diag([1.0, -1.0, 0.0]))
    assert np.array_equal(basis.matrix(5), np.diag([0.0, 1.0, -1.0]))
    assert np.array_equal(basis.matrix(6), basis.matrix(3).T)


def test_transpose_pairing_for_roots():
    for N in (2, 3, 4, 5):
        basis = build_ordered_basis(N)
        for m in range(1, basis.n + 1):
            if basis.element(m).role == "cartan":
                continue
            partner = basis.transpose_partner(m)
            assert partner == basis.n + 1 - m
            assert np.array_equal(basis.matrix(partner), basis.matrix(m).T)


def test_traceless():
    for N in (2, 3, 4):
        basis = build_ordered_basis(N)
        for m in range(1, basis.n + 1):
            assert abs(np.trace(basis.matrix(m))) == 0


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_partition_blocks(N):
    basis = build_ordered_basis(N)
    part = build_partition(basis)
    assert len(part.upper_blocks) == N - 1
    assert len(part.lower_blocks) == N - 1
    for k in range(1, N):
        assert len(part.upper_blocks[k - 1]) == N - k
        assert len(part.lower_blocks[k - 1]) == N - k
    assert len(part.cartan) == N - 1
    flat = [i for blk in part.upper_blocks for i in blk]
    flat += list(part.cartan)
    # lower blocks appear in index order ~J_(N-1), ..., ~J_1
    flat += [i for blk in reversed(part.lower_blocks) for i in blk]
    assert flat == list(range(1, basis.n + 1))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_root_blocks_are_abelian(N):
    basis = build_ordered_basis(N)
    part = build_partition(basis)
    for blk in list(part.upper_blocks) + list(part.lower_blocks):
        for p in blk:
            for q in blk:
                assert not _bracket_matrix(basis, p, q).any()


@pytest.mark.parametrize("N", [3, 4, 5])
def test_bracket_of_root_blocks_lands_in_earlier_block(N):
    # [J_i, J_j] is contained in J_min(i,j); same on the lower side.
    basis = build_ordered_basis(N)
    part = build_partition(basis)
    ads = all_ad_matrices(basis)
    for blocks in (part.upper_blocks, part.lower_blocks):
        for i, bi in enumerate(blocks, start=1):
            for j, bj in enumerate(blocks, start=1):
                if i == j:
                    continue
                target = set(blocks[min(i, j) - 1])
                for p in bi:
                    for q in bj:
                        assert set(_bracket(ads, p, q)) <= target


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_block_prefixes_are_ideals_of_upper_triangulars(N):
    # span(J_1 .. J_k) is an ideal of the full upper-triangular subalgebra
    basis = build_ordered_basis(N)
    part = build_partition(basis)
    ads = all_ad_matrices(basis)
    upper_all = [i for blk in part.upper_blocks for i in blk]
    for k in range(1, N):
        prefix = {i for blk in part.upper_blocks[:k] for i in blk}
        for p in prefix:
            for q in upper_all:
                assert set(_bracket(ads, p, q)) <= prefix


def test_ad_columns_match_matrix_brackets():
    for N in (2, 3, 4):
        basis = build_ordered_basis(N)
        ads = all_ad_matrices(basis)
        n = basis.n
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                M = sum(
                    (c * basis.matrix(r) for r, c in _bracket(ads, p, q).items()),
                    np.zeros((N, N)),
                )
                assert np.array_equal(M, _bracket_matrix(basis, p, q))


def test_ad_columns_antisymmetric():
    basis = build_ordered_basis(4)
    ads = all_ad_matrices(basis)
    for p in range(1, basis.n + 1):
        for q in range(1, basis.n + 1):
            fwd = _bracket(ads, p, q)
            rev = _bracket(ads, q, p)
            assert fwd == {r: -c for r, c in rev.items()}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_stage_of_follows_block_order(N):
    part = build_partition(build_ordered_basis(N))
    for s, ref in enumerate(part.blocks_in_index_order(), start=1):
        assert [part.stage_of(m) for m in ref.indices] == [s] * len(ref.indices)
    for m in (0, N * N):
        with pytest.raises(ValueError, match="outside"):
            part.stage_of(m)


@given(
    N=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_expand_roundtrip(N, seed):
    basis = build_ordered_basis(N)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
    M = matrix_from_coefficients(a, basis)
    loop = sum(c * el.matrix for c, el in zip(a, basis.elements))
    assert np.array_equal(M, loop)  # the vectorised assembly is exact
    back = expand_in_basis(M, basis)
    assert np.allclose(back, a, atol=1e-12)
    assert np.allclose(matrix_from_coefficients(back, basis), M, atol=1e-12)


def test_expand_rejects_nonzero_trace():
    basis = build_ordered_basis(3)
    with pytest.raises(ValueError, match="trace"):
        expand_in_basis(np.eye(3), basis)


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        build_ordered_basis(1)
    with pytest.raises(ValueError):
        build_ordered_basis(True)
