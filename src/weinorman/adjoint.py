"""Adjoint representation of the ordered basis and closed-form exponentials.

For each generator X_m the matrix of ad X_m = [X_m, .] in the ordered basis
has exact small-integer entries.  Root generators are nilpotent of order
three in the adjoint representation ((ad X)^3 = 0, and the same holds for
any element of an abelian root block), so exp(u ad X) is the exact quadratic
I + u ad X + (u^2/2) (ad X)^2; Cartan generators act diagonally, so their
exponential is an entrywise scalar exponential.  No generic matrix
exponential appears anywhere in the production path — the generic
scaling-and-squaring routine is used only as an independent oracle inside
:func:`check_algebraic_properties`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    OrderedBasis,
    Role,
    SubalgebraPartition,
    _expand,
    _gather,
    build_ordered_basis,
    build_partition,
)

__all__ = [
    "AdjointMatrix",
    "Algebra",
    "PropertyCheck",
    "PropertyReport",
    "algebra",
    "all_ad_matrices",
    "apply_exp_ad",
    "check_algebraic_properties",
    "exp_ad",
]


@dataclass(frozen=True, eq=False)
class AdjointMatrix:
    """Matrix of ad X_m in the ordered basis, with exact integer entries.

    ``entries[r, q] = c`` means [X_m, X_(q+1)] contains c * X_(r+1)
    (the array is 0-based; ``coordinates`` lists the nonzero entries
    1-based as (row, column, value)).
    """

    index: int
    role: Role
    entries: np.ndarray

    @property
    def coordinates(self) -> tuple[tuple[int, int, int], ...]:
        rows, cols = np.nonzero(self.entries)
        return tuple(
            (int(r) + 1, int(q) + 1, int(self.entries[r, q]))
            for r, q in zip(rows, cols)
        )

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)


def all_ad_matrices(basis: OrderedBasis) -> tuple[AdjointMatrix, ...]:
    """Adjoint matrices of every generator, read off its commutators.

    Column q of ad X_m is the expansion of [X_m, X_q]; the commutators with
    all X_q are one stacked integer product per generator.  Raises
    ``RuntimeError`` if a commutator does not re-expand exactly in the basis
    (a closure failure, impossible for sl(N) but guarded).
    """
    X = np.array([el.matrix for el in basis.elements])
    # small integers throughout, so the float product below is exact
    flat = X.reshape(basis.n, -1).astype(float)
    gather = _gather(basis)
    ads = []
    for el in basis.elements:
        C = el.matrix @ X - X @ el.matrix
        coeff = _expand(C, gather)  # coeff[q, r]: X_r in [X_m, X_q]
        C = C.reshape(basis.n, -1)
        rebuilt = coeff @ flat
        if not np.array_equal(rebuilt, C):
            q = (rebuilt != C).any(axis=1).argmax() + 1
            raise RuntimeError(
                f"commutator [X_{el.index}, X_{q}] does not close in the basis"
            )
        ads.append(AdjointMatrix(el.index, el.role, np.ascontiguousarray(coeff.T)))
    return tuple(ads)


@dataclass(frozen=True, eq=False)
class Algebra:
    """Everything that is fixed once N is: basis, blocks and adjoints."""

    basis: OrderedBasis
    partition: SubalgebraPartition
    ads: tuple[AdjointMatrix, ...]

    @property
    def N(self) -> int:
        return self.basis.N

    @property
    def n(self) -> int:
        return self.basis.n


@lru_cache(maxsize=None)
def algebra(N: int) -> Algebra:
    """Build (and cache) the full algebra bundle for sl(N, C)."""
    basis = build_ordered_basis(N)
    return Algebra(
        basis=basis,
        partition=build_partition(basis),
        ads=all_ad_matrices(basis),
    )


# ---------------------------------------------------------------------------
# closed-form exponentials
# ---------------------------------------------------------------------------


def apply_exp_ad(ad: AdjointMatrix, u: complex, v: np.ndarray) -> np.ndarray:
    """exp(u * ad X_m) @ v without forming the matrix.

    Root generators: the adjoint action is nilpotent of order three, so the
    series terminates at the quadratic term, two sparse integer products.
    Cartan generators: the adjoint matrix is diagonal, so the exponential
    scales the rows of v by exp(u * root_weight).  The workhorse of the
    dense oracle ``assemble_A_numeric``; ``v`` is a vector or a block of
    columns.
    """
    if ad.role == "cartan":
        return (np.exp(u * np.diagonal(ad.entries).astype(complex)) * v.T).T
    Av = ad.entries @ v
    return v + u * Av + (0.5 * u * u) * (ad.entries @ Av)


def exp_ad(ad: AdjointMatrix, u: complex) -> np.ndarray:
    """exp(u * ad X_m) in closed form: :func:`apply_exp_ad` on the identity.

    So the property battery, which checks this matrix against a generic
    ``expm``, checks the code the oracle runs.  For a Cartan generator whose
    exponential overflows, a row with an overflowing entry comes out NaN off
    the diagonal (inf * 0) where the matrix is 0; the battery clamps
    |u| <= ``max_u``, so it never sees this.
    """
    return apply_exp_ad(ad, u, np.eye(ad.entries.shape[0], dtype=complex))


# ---------------------------------------------------------------------------
# algebraic property battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the algebraic property battery for one N."""

    N: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"sl({self.N}): {'PASS' if self.passed else 'FAIL'}"]
        lines += [
            f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}"
            for c in self.checks
        ]
        return "\n".join(lines)


def _middle_range(partition: SubalgebraPartition, k: int) -> tuple[int, ...]:
    """Indices of J_k + ... + J_(N-1) + Cartan + ~J_(N-1) + ... + ~J_k.

    Contiguous by construction of the ordering.
    """
    lo = partition.upper_blocks[k - 1][0]
    hi = partition.lower_blocks[k - 1][-1]
    return tuple(range(lo, hi + 1))


def _mask_outside(A: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Largest magnitude of A restricted to rows outside `rows`, columns in `cols`."""
    keep = np.zeros(A.shape[0], dtype=bool)
    keep[rows] = True
    sub = A[~keep][:, cols]
    return float(np.max(np.abs(sub))) if sub.size else 0.0


def check_algebraic_properties(
    basis: OrderedBasis,
    partition: SubalgebraPartition,
    ads: tuple[AdjointMatrix, ...],
    *,
    draws: int = 10,
    max_u: float = 10.0,
    seed: int = 0,
    rtol: float = 1e-12,
) -> PropertyReport:
    """Verify the structural facts the staged solve relies on.

    Exact integer checks: order-three nilpotency of root generators,
    diagonality of Cartan adjoints, the sector-restricted triangular fine
    structure of root adjoints, the image structure of the squared adjoint,
    block-diagonality of root-block adjoints with respect to the refining
    partition.  Seeded floating-point checks: nilpotency and subspace
    invariance for random elements of each root block, and agreement of the
    closed-form exponential with a generic scaling-and-squaring matrix
    exponential (the independent oracle).
    """
    from scipy.linalg import expm  # oracle only; keep out of module import path

    rng = np.random.default_rng(seed)
    n = basis.n
    checks: list[PropertyCheck] = []

    def record(name: str, worst: float, bound: float, extra: str = "") -> None:
        detail = f"worst {worst:.3e} vs bound {bound:.3e}"
        if extra:
            detail += f" ({extra})"
        checks.append(PropertyCheck(name, worst <= bound, detail))

    root_blocks = [("upper", ref) for ref in partition.upper_blocks] + [
        ("lower", ref) for ref in partition.lower_blocks
    ]

    # --- exact integer checks on generators -------------------------------
    worst = 0
    for ad in ads:
        if ad.role == "cartan":
            continue
        A = ad.entries
        worst = max(worst, int(np.max(np.abs(A @ A @ A))))
    record("nilpotency-generators", float(worst), 0.0, "exact integer cube")

    worst = 0
    for ad in ads:
        if ad.role != "cartan":
            continue
        A = ad.entries
        worst = max(worst, int(np.max(np.abs(A - np.diag(np.diagonal(A))))))
    record("cartan-adjoint-diagonal", float(worst), 0.0, "exact integer entries")

    # Root adjoints restricted to their own root sector carry an exact
    # triangular fine structure: arguments from later blocks land in the
    # generator's own, strictly earlier block; arguments from earlier blocks
    # stay inside their block and move strictly later within it (toward the
    # corner); the generator's own block is annihilated; nothing leaves the
    # sector.  Lower-sector adjoints mirror this with the within-block
    # direction reversed.  (Global strict triangularity fails: with the
    # corner-first within-column order that the staged systems fix, a later
    # upper generator can move an earlier one forward within its own block.)
    worst = 0
    for ad in ads:
        if ad.role == "cartan":
            continue
        A = ad.entries
        blocks = (
            partition.upper_blocks if ad.role == "upper" else partition.lower_blocks
        )
        k_m = next(
            (k for k, idx in enumerate(blocks, start=1) if ad.index in idx), None
        )
        if k_m is None:
            worst = max(worst, 1)  # generator sits in a slot of the wrong role
            continue
        sector = {i for idx in blocks for i in idx}
        for i, idx_j in enumerate(blocks, start=1):
            for j in idx_j:
                for r in range(1, n + 1):
                    v = int(A[r - 1, j - 1])
                    if v == 0:
                        continue
                    if r not in sector or i == k_m:
                        ok = False
                    elif i < k_m:
                        moved_later = r > j if ad.role == "upper" else r < j
                        ok = r in idx_j and moved_later
                    else:
                        ok = r in blocks[k_m - 1]
                    if not ok:
                        worst = max(worst, abs(v))
    record(
        "root-sector-triangularity",
        float(worst),
        0.0,
        "exact block filtration, strict within-block motion",
    )

    worst = 0
    for ad in ads:
        if ad.role == "cartan":
            continue
        A2 = ad.entries @ ad.entries
        partner = basis.transpose_partner(ad.index) - 1
        cols = A2.copy()
        cols[:, partner] = 0
        rows = A2.copy()
        rows[ad.index - 1, :] = 0
        worst = max(worst, int(np.max(np.abs(cols))), int(np.max(np.abs(rows))))
    record(
        "squared-adjoint-image",
        float(worst),
        0.0,
        "rank-one onto the generator, supported on its transpose",
    )

    worst = 0
    for kind, block in root_blocks:
        k = (
            partition.upper_blocks.index(block) + 1
            if kind == "upper"
            else partition.lower_blocks.index(block) + 1
        )
        groups = (
            [np.array(b) - 1 for b in partition.upper_blocks[: k - 1]]
            + [np.array(_middle_range(partition, k)) - 1]
            + [np.array(b) - 1 for b in partition.lower_blocks[: k - 1]]
        )
        mask = np.zeros((n, n), dtype=bool)
        for g in groups:
            mask[np.ix_(g, g)] = True
        for m in block:
            A = ads[m - 1].entries
            worst = max(worst, int(np.max(np.abs(A[~mask]))) if (~mask).any() else 0)
    record("block-diagonality", float(worst), 0.0, "refining partition per block")

    # --- seeded random elements of each root block ------------------------
    worst_nil = 0.0
    worst_inv = 0.0
    for _, block in root_blocks:
        for _ in range(draws):
            c = rng.standard_normal(len(block)) + 1j * rng.standard_normal(len(block))
            A = sum(
                ci * ads[m - 1].entries.astype(complex) for ci, m in zip(c, block)
            )
            scale = max(float(np.linalg.norm(A)), 1.0)
            worst_nil = max(
                worst_nil, float(np.linalg.norm(A @ A @ A)) / scale**3
            )
    record("nilpotency-random-elements", worst_nil, rtol, f"{draws} draws per block")

    for kind, blocks in (("upper", partition.upper_blocks), ("lower", partition.lower_blocks)):
        for k in range(1, len(blocks) + 1):
            block = blocks[k - 1]
            invariant = (
                [np.array(b) - 1 for b in partition.upper_blocks[: k - 1]]
                + [np.array(b) - 1 for b in partition.lower_blocks[: k - 1]]
                + [np.array(_middle_range(partition, k)) - 1]
            )
            for _ in range(draws):
                c = rng.standard_normal(len(block)) + 1j * rng.standard_normal(
                    len(block)
                )
                A = sum(
                    ci * ads[m - 1].entries.astype(complex)
                    for ci, m in zip(c, block)
                )
                scale = max(float(np.linalg.norm(A)), 1.0)
                for g in invariant:
                    worst_inv = max(
                        worst_inv, _mask_outside(A, g, g) / scale
                    )
    record(
        "invariant-subspaces",
        worst_inv,
        rtol,
        f"{draws} draws per block; lower-indexed blocks and the middle sum",
    )

    # --- closed-form exponentials vs the generic oracle -------------------
    worst_exp = 0.0
    worst_inverse = 0.0
    eye = np.eye(n)
    for ad in ads:
        for _ in range(draws):
            u = complex(rng.uniform(-max_u, max_u), rng.uniform(-max_u, max_u))
            u *= max_u / max(abs(u), max_u)  # clamp |u| <= max_u
            E = exp_ad(ad, u)
            R = expm(u * ad.entries.astype(complex))
            worst_exp = max(
                worst_exp,
                float(np.linalg.norm(E - R)) / max(float(np.linalg.norm(R)), 1.0),
            )
            worst_inverse = max(
                worst_inverse,
                float(np.linalg.norm(E @ exp_ad(ad, -u) - eye)),
            )
    record("exp-ad-oracle", worst_exp, rtol, f"{draws} draws per generator, |u|<={max_u:g}")
    record("exp-ad-inverse", worst_inverse, 1e-10, "exp(u ad) exp(-u ad) = I")

    return PropertyReport(N=basis.N, checks=tuple(checks))
