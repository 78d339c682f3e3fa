"""Self-contained verification battery.

Bundles every cross-check the package can run on itself into one seeded,
deterministic report: the algebraic property battery, exactness of the
staged elimination against a dense linear solve, block structure of the
symbolic factor matrix, byte-equality of the derived hierarchies with the
frozen golden files for small N, and agreement of the factorized
integration route with the direct matrix-ODE oracle.  A deliberately
corrupted basis ordering is run as a negative control — the battery must
catch it, or the battery itself is broken.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass

import numpy as np

from .adjoint import (
    Algebra,
    algebra,
    all_ad_matrices,
    check_algebraic_properties,
)
from .basis import (
    BasisElement,
    OrderedBasis,
    build_ordered_basis,
    build_partition,
    matrix_from_coefficients,
    structure_constants,
)
from .hierarchy import (
    assemble_A_numeric,
    check_A_block_structure,
    derive_hierarchy,
    emit,
    rhs,
)
from .integrate import IntegrationConfig, compare, integrate_direct, integrate_wn
from .signals import random_antihermitian_signal

__all__ = [
    "GOLDEN_N",
    "VerificationItem",
    "VerificationSummary",
    "load_golden",
    "run_battery",
]

VERIFY_SCHEMA = "wn-verify/1"

GOLDEN_N = (2, 3, 4)
_GOLDEN_SUFFIX = {"plain": "txt", "latex": "tex", "json": "json"}


@dataclass(frozen=True)
class VerificationItem:
    name: str
    n: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationSummary:
    seed: int
    passed: bool
    items: tuple[VerificationItem, ...]

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "schema": VERIFY_SCHEMA,
                    "seed": self.seed,
                    "passed": self.passed,
                    "items": [
                        {
                            "name": it.name,
                            "n": it.n,
                            "passed": it.passed,
                            "detail": it.detail,
                        }
                        for it in self.items
                    ],
                },
                indent=2,
            )
            + "\n"
        )

    def describe(self) -> str:
        lines = [f"seed {self.seed}"]
        for it in self.items:
            mark = "PASS" if it.passed else "FAIL"
            lines.append(f"[{mark}] N={it.n} {it.name}: {it.detail}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def load_golden(N: int, fmt: str) -> str:
    """Frozen derive output shipped with the package."""
    if fmt not in _GOLDEN_SUFFIX:
        raise ValueError(f"unknown golden format {fmt!r}")
    if N not in GOLDEN_N:
        raise ValueError(f"no frozen output for N={N} (have {GOLDEN_N})")
    suffix = _GOLDEN_SUFFIX[fmt]
    res = importlib.resources.files("weinorman") / "_golden" / f"derive_n{N}.{suffix}"
    return res.read_text(encoding="utf-8")


def _corrupted_algebra(N: int = 3) -> Algebra:
    """Clean basis with the first and last generators swapped.

    Swapping an upper root into a lower slot wrecks the block filtration
    without breaking closure, so every structural check downstream of the
    ordering must fail on it.  Internal negative-control hook only.
    """
    good = build_ordered_basis(N)
    els = list(good.elements)
    first, last = els[0], els[-1]
    els[0] = BasisElement(
        index=first.index, role=last.role, position=last.position, matrix=last.matrix
    )
    els[-1] = BasisElement(
        index=last.index, role=first.role, position=first.position, matrix=first.matrix
    )
    bad_basis = OrderedBasis(N=N, elements=tuple(els))
    tensor = structure_constants(bad_basis)
    partition = build_partition(bad_basis)
    ads = all_ad_matrices(bad_basis, tensor)
    return Algebra(basis=bad_basis, partition=partition, tensor=tensor, ads=ads)


def run_battery(
    n_values: tuple[int, ...],
    *,
    trials: int = 10,
    seed: int = 0,
    tol_abs: float = 1e-10,
    tol_rel: float = 1e-10,
) -> VerificationSummary:
    """Run every check for each N in ``n_values``; deterministic given seed."""
    if not n_values or any(N < 2 for N in n_values):
        raise ValueError(f"need dimensions >= 2, got {n_values}")
    rng = np.random.default_rng(seed)
    items: list[VerificationItem] = []

    def add(name: str, N: int, passed: bool, detail: str) -> None:
        items.append(VerificationItem(name, N, bool(passed), detail))

    for N in n_values:
        alg = algebra(N)

        rep = check_algebraic_properties(
            alg.basis,
            alg.partition,
            alg.ads,
            draws=trials,
            seed=int(rng.integers(2**62)),
        )
        failed = [c.name for c in rep.checks if not c.passed]
        add(
            "algebraic-properties",
            N,
            rep.passed,
            f"{len(rep.checks)} checks" + (f"; failed: {failed}" if failed else ""),
        )

        A0 = assemble_A_numeric(alg, np.zeros(alg.n, dtype=complex))
        add(
            "factor-matrix-at-origin",
            N,
            bool(np.array_equal(A0, np.eye(alg.n))),
            "A(0) == identity, exact",
        )

        worst = 0.0
        for _ in range(trials):
            u = 0.6 * (rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n))
            a = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
            dense = np.linalg.solve(assemble_A_numeric(alg, u), a)
            staged = rhs(alg, u, matrix_from_coefficients(a, alg.basis))
            scale = max(1.0, float(np.max(np.abs(dense))))
            worst = max(worst, float(np.max(np.abs(dense - staged))) / scale)
        bound = max(tol_rel, 1e-10)
        add(
            "staged-matches-dense",
            N,
            worst <= bound,
            f"{trials} draws, worst rel {worst:.3e} vs {bound:.1e}",
        )

        violations = check_A_block_structure(alg)
        add(
            "factor-matrix-block-structure",
            N,
            not violations,
            "symbolic block triangularity, identity diagonal blocks"
            + (f"; violations: {violations[:3]}" if violations else ""),
        )

        if N in GOLDEN_N:
            bad_fmt = [
                fmt
                for fmt in ("plain", "latex", "json")
                if emit(derive_hierarchy(N), fmt) != load_golden(N, fmt)
            ]
            add(
                "golden-derivation",
                N,
                not bad_fmt,
                "byte-stable emit across formats"
                + (f"; mismatch: {bad_fmt}" if bad_fmt else ""),
            )

        sig = random_antihermitian_signal(N, rng, sup_norm=3.0)
        cfg = IntegrationConfig(
            t0=0.0, t1=1.0, samples=11, atol=tol_abs, rtol=tol_rel
        )
        rep_cmp = compare(integrate_wn(sig, cfg), integrate_direct(sig, cfg))
        oracle_bound = max(1e-6, 50.0 * max(tol_abs, tol_rel))
        add(
            "integration-matches-oracle",
            N,
            rep_cmp.max_frobenius < oracle_bound,
            f"max ||dK||_F {rep_cmp.max_frobenius:.3e} vs {oracle_bound:.1e}",
        )

    bad = _corrupted_algebra(3)
    bad_rep = check_algebraic_properties(
        bad.basis, bad.partition, bad.ads, draws=trials, seed=seed
    )
    bad_struct = check_A_block_structure(bad)
    caught = (not bad_rep.passed) and bool(bad_struct)
    add(
        "corrupted-ordering-detected",
        3,
        caught,
        "negative control: battery must fail on a swapped basis "
        f"(properties failed: {not bad_rep.passed}, "
        f"structure violations: {len(bad_struct)})",
    )

    return VerificationSummary(
        seed=seed, passed=all(it.passed for it in items), items=tuple(items)
    )
