"""Staged right-hand sides for the product-of-exponentials factorization.

Writing K(t) = exp(u_1 X_1) ... exp(u_n X_n) for the solution of
K' = M(t) K, K(0) = I, and expanding M(t) = sum_m a_m(t) X_m in the ordered
basis, the unknowns satisfy the linear system A(u) u' = a with

    A(u) column l = exp(u_1 ad X_1) ... exp(u_(l-1) ad X_(l-1)) X_l.

The block structure of the ordered basis makes A block upper triangular
with identity diagonal blocks for the upper and Cartan stages, so the
system resolves stage by stage without ever inverting A:

* each upper block J_k yields a matrix Riccati stage
  u' = c + C u + u (u^T b), with c, C, b depending only on a and unknowns
  of earlier stages;
* the Cartan stage is a pure quadrature (its rhs involves no Cartan
  unknowns);
* each lower block ~J_k is a linear read-off whose Cartan dependence
  enters only through exponential factors exp(integer linear form).

Two independent routes to u' coexist on purpose and are cross-checked in
the test suite.  The production path works on the N x N matrix M: in the
ordered basis the product is a Gauss factorisation K = U D L (unit upper
triangular, diagonal, unit lower triangular), so :func:`rhs` reads u' off
the triangular parts of the one similarity U^-1 M U, and
:func:`assemble_A_gauss` builds A(u) for the trust-region monitor in
closed form of the same factors.  The oracle is :func:`assemble_A_numeric`,
built from closed-form adjoint exponentials, followed by a dense solve.
:func:`derive_hierarchy` runs the adjoint peel over exact symbolic
expressions and returns the closed-form stage data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np
# the LAPACK gufunc behind np.linalg.solve, without its per-call checks and
# errstate; tests/test_integrate.py pins it bit for bit against the public call
from numpy.linalg._umath_linalg import solve as _solve

from .adjoint import AdjointMatrix, Algebra, algebra, apply_exp_ad
from .symexpr import SymbolicExpr

__all__ = [
    "CartanStage",
    "HierarchySchedule",
    "LinearStage",
    "RiccatiStage",
    "StageLocalityError",
    "assemble_A_gauss",
    "assemble_A_numeric",
    "assemble_A_symbolic",
    "check_A_block_structure",
    "condition_estimate",
    "derive_hierarchy",
    "emit",
    "parse_hierarchy_json",
    "rhs",
    "riccati_rhs",
]

JSON_SCHEMA = "wn-hierarchy/1"

_HALF = Fraction(1, 2)


class StageLocalityError(RuntimeError):
    """A stage's equations involve unknowns of a later stage (ordering bug)."""


# ---------------------------------------------------------------------------
# stage data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiStage:
    """u' = c + C u + u (u^T b) for the unknowns of one upper block."""

    k: int
    unknowns: tuple[int, ...]
    c: tuple[SymbolicExpr, ...]
    C: tuple[tuple[SymbolicExpr, ...], ...]
    b: tuple[SymbolicExpr, ...]

    kind = "riccati"

    def rhs_exprs(self) -> tuple[SymbolicExpr, ...]:
        us = [SymbolicExpr.u(i) for i in self.unknowns]
        quad = SymbolicExpr.sum_of(b * u for b, u in zip(self.b, us))
        return tuple(
            SymbolicExpr.sum_of([c, *(C_ij * u for C_ij, u in zip(row, us)), u_i * quad])
            for c, row, u_i in zip(self.c, self.C, us)
        )


@dataclass(frozen=True)
class CartanStage:
    """Pure quadrature for the Cartan unknowns."""

    unknowns: tuple[int, ...]
    rhs: tuple[SymbolicExpr, ...]

    k = 0
    kind = "cartan"

    def rhs_exprs(self) -> tuple[SymbolicExpr, ...]:
        return self.rhs


@dataclass(frozen=True)
class LinearStage:
    """Linear read-off for one lower block (Cartan enters via exponentials)."""

    k: int
    unknowns: tuple[int, ...]
    rhs: tuple[SymbolicExpr, ...]

    kind = "linear"

    def rhs_exprs(self) -> tuple[SymbolicExpr, ...]:
        return self.rhs


Stage = RiccatiStage | CartanStage | LinearStage


@dataclass(frozen=True)
class HierarchySchedule:
    """All stages for one N, in elimination (basis-index) order."""

    N: int
    stages: tuple[Stage, ...]

    @property
    def n(self) -> int:
        return self.N * self.N - 1

    def equations(self) -> tuple[tuple[int, SymbolicExpr], ...]:
        """(unknown index, rhs expression) pairs in basis order."""
        out: list[tuple[int, SymbolicExpr]] = []
        for stage in self.stages:
            out.extend(zip(stage.unknowns, stage.rhs_exprs()))
        out.sort(key=lambda pair: pair[0])
        return tuple(out)

    def evaluate_rhs(self, u: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Numeric u' from the symbolic equations (cross-check route)."""
        up = np.zeros(self.n, dtype=complex)
        for i, expr in self.equations():
            up[i - 1] = expr.evaluate(a, u)
        return up


# ---------------------------------------------------------------------------
# symbolic derivation
# ---------------------------------------------------------------------------


def _ad_rows(ad: AdjointMatrix) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Nonzero rows of an adjoint matrix as (row, ((col, coeff), ...))."""
    rows: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for r in range(ad.entries.shape[0]):
        cols = np.nonzero(ad.entries[r])[0]
        if cols.size:
            rows.append((r, tuple((int(q), int(ad.entries[r, q])) for q in cols)))
    return rows


def _apply_ad_symbolic(
    rows: list[tuple[int, tuple[tuple[int, int], ...]]],
    T: list[SymbolicExpr],
) -> list[SymbolicExpr]:
    out = [SymbolicExpr.zero()] * len(T)
    for r, cols in rows:
        out[r] = SymbolicExpr.sum_of(c * T[q] for q, c in cols if not T[q].is_zero)
    return out


def _peel_generator_symbolic(
    ad: AdjointMatrix, l: int, T: list[SymbolicExpr], sign: int
) -> list[SymbolicExpr]:
    """T <- exp(sign * u_l ad X_l) T, exactly."""
    if ad.role == "cartan":
        diag = ad.diagonal
        return [
            T[r].times_exp({l: sign * int(diag[r])}) if diag[r] else T[r]
            for r in range(len(T))
        ]
    rows = _ad_rows(ad)
    ul = SymbolicExpr.u(l)
    first, second = sign * ul, _HALF * (ul * ul)
    AT = _apply_ad_symbolic(rows, T)
    AAT = _apply_ad_symbolic(rows, AT)
    return [
        e if at.is_zero and aat.is_zero
        else SymbolicExpr.sum_of([e, first * at, second * aat])
        for e, at, aat in zip(T, AT, AAT)
    ]


def _check_locality(
    expr: SymbolicExpr,
    allowed_poly: set[int],
    cartan: set[int],
    label: str,
) -> None:
    bad = expr.u_indices() - allowed_poly
    if bad:
        raise StageLocalityError(
            f"{label}: unknowns u_{sorted(bad)} appear before their stage"
        )
    if expr.u_indices() & cartan:
        raise StageLocalityError(
            f"{label}: Cartan unknowns appear polynomially"
        )
    if expr.exp_indices() - cartan:
        raise StageLocalityError(
            f"{label}: non-Cartan unknowns appear inside exponentials"
        )


def _split_riccati(
    k: int, indices: tuple[int, ...], exprs: list[SymbolicExpr]
) -> RiccatiStage:
    dim = len(indices)
    own = set(indices)
    pos = {l: i for i, l in enumerate(indices)}
    # each entry collects its single-term pieces, summed once at the end
    c: list[list[SymbolicExpr]] = [[] for _ in range(dim)]
    C = [[[] for _ in range(dim)] for _ in range(dim)]
    b_reads = [[[] for _ in range(dim)] for _ in range(dim)]

    for i, expr in enumerate(exprs):
        for (form, mono), coeff in expr.terms():
            own_syms = [
                (idx, p) for (kind, idx), p in mono if kind == "u" and idx in own
            ]
            deg = sum(p for _, p in own_syms)
            rest = tuple(
                (sym, p)
                for sym, p in mono
                if not (sym[0] == "u" and sym[1] in own)
            )
            piece = SymbolicExpr({(form, rest): coeff})
            if deg == 0:
                c[i].append(piece)
            elif deg == 1:
                j = own_syms[0][0]
                C[i][pos[j]].append(piece)
            elif deg == 2:
                idxs = sorted(
                    idx for idx, p in own_syms for _ in range(p)
                )
                if indices[i] not in idxs:
                    raise StageLocalityError(
                        f"stage J_{k}: quadratic term in equation {i + 1} "
                        f"lacks the rank-one structure (monomial u_{idxs})"
                    )
                idxs.remove(indices[i])
                j = idxs[0]
                b_reads[i][pos[j]].append(piece)
            else:
                raise StageLocalityError(
                    f"stage J_{k}: degree-{deg} term in own unknowns"
                )

    total = SymbolicExpr.sum_of
    b = [total(pieces) for pieces in b_reads[0]]
    for i in range(1, dim):
        if [total(pieces) for pieces in b_reads[i]] != b:
            raise StageLocalityError(
                f"stage J_{k}: quadratic part is not rank-one "
                f"(equations disagree on the shared vector)"
            )

    stage = RiccatiStage(
        k=k,
        unknowns=indices,
        c=tuple(total(pieces) for pieces in c),
        C=tuple(tuple(total(pieces) for pieces in row) for row in C),
        b=tuple(b),
    )
    # lossless-split guard: reassembled equations must match the peel exactly
    for got, want in zip(stage.rhs_exprs(), exprs):
        if got != want:
            raise StageLocalityError(
                f"stage J_{k}: Riccati split does not reassemble"
            )
    return stage


def derive_hierarchy(N: int) -> HierarchySchedule:
    """Closed-form stage data for sl(N), by exact symbolic block peeling.

    Raises :class:`StageLocalityError` if the elimination leaves a
    later-stage unknown inside an earlier stage — that would mean the basis
    ordering violates the triangular structure the peel relies on.
    """
    return _derive_from_algebra(algebra(N))


def _derive_from_algebra(alg: Algebra) -> HierarchySchedule:
    n = alg.n
    cartan = set(alg.partition.cartan)
    T: list[SymbolicExpr] = [SymbolicExpr.a(m) for m in range(1, n + 1)]
    stages: list[Stage] = []
    done_poly: set[int] = set()

    for ref in alg.partition.blocks_in_index_order():
        for l in ref.indices:
            T = _peel_generator_symbolic(alg.ads[l - 1], l, T, sign=-1)
        exprs = [T[l - 1] for l in ref.indices]
        for l in ref.indices:
            T[l - 1] = SymbolicExpr.zero()

        if ref.kind == "upper":
            allowed = done_poly | set(ref.indices)
            for i, e in enumerate(exprs):
                _check_locality(e, allowed, cartan, f"J_{ref.k} eq {i + 1}")
            stages.append(_split_riccati(ref.k, ref.indices, exprs))
        elif ref.kind == "cartan":
            for i, e in enumerate(exprs):
                _check_locality(e, done_poly, cartan, f"cartan eq {i + 1}")
                if e.exp_indices():
                    raise StageLocalityError(
                        "cartan stage: unexpected exponential factors"
                    )
            stages.append(CartanStage(unknowns=ref.indices, rhs=tuple(exprs)))
        else:
            for i, e in enumerate(exprs):
                _check_locality(e, done_poly, cartan, f"~J_{ref.k} eq {i + 1}")
            stages.append(
                LinearStage(k=ref.k, unknowns=ref.indices, rhs=tuple(exprs))
            )
        done_poly |= set(ref.indices)

    # every T entry must be consumed
    for m, e in enumerate(T, start=1):
        if not e.is_zero:
            raise StageLocalityError(f"residual coefficient on X_{m} after peel")
    return HierarchySchedule(N=alg.N, stages=tuple(stages))


# ---------------------------------------------------------------------------
# numeric routes
# ---------------------------------------------------------------------------


def riccati_rhs(
    alg: Algebra, U: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, upper u', Cartan u') for the unit upper Gauss factor U of a chart.

    T = U^-1 M U.  The upper rates come from U' = U triu(T), which is closed
    in U: the paper's hierarchy of matrix Riccati equations, one per column
    block.  The Cartan rates are the partial sums of diag(T), a quadrature
    once U is known.  :func:`rhs` and the stages of both charts of
    ``integrate_wn`` read these two slices from here.  T comes from the
    LAPACK gufunc behind ``np.linalg.solve``: a unit triangular U is never
    singular, and a non-finite one gives a non-finite T, not an error.
    """
    maps = alg.basis.maps
    T = _solve(U, M @ U)
    upper = (U @ (T * maps.above)).take(maps.upper_at)
    return T, upper, T.diagonal().cumsum()[: alg.N - 1]


def rhs(alg: Algebra, u: np.ndarray, M: np.ndarray) -> np.ndarray:
    """u' for chart coordinates u and a traceless driving matrix M.

    Equivalent to solving A(u) u' = a for the expansion a of M; never forms
    A.  The chart is the Gauss factorisation K = U D L (see
    :meth:`IndexMaps.gauss_factors`), and K' = M K splits along the
    triangular parts of T = U^-1 M U: U' = U triu(T), (log D)' = diag(T)
    and L' = D^-1 tril(T) D L, with triu/tril the strict parts.  The
    coefficients are read off as matrix entries (partial sums of diag(T)
    for the Cartan block).  Non-finite u gives a non-finite u'.  The trace
    of M is not checked; callers remove it (it lies outside sl(N) and would
    bias the Cartan read-off).
    """
    u = np.asarray(u, dtype=complex)
    N = alg.N
    if u.shape != (alg.n,) or np.shape(M) != (N, N):
        raise ValueError(
            f"expected a {alg.n}-vector u and a {N}x{N} matrix M, got "
            f"u{u.shape} and M{np.shape(M)}"
        )
    up = np.empty(alg.n, dtype=complex)
    _peel(alg, *alg.basis.maps.gauss_factors(u), M, up)
    return up


def _peel(
    alg: Algebra, U: np.ndarray, w: np.ndarray, L: np.ndarray, M: np.ndarray,
    out: np.ndarray,
) -> None:
    """:func:`rhs` from the Gauss factors (U, w, L) of u, unchecked: u' into
    ``out[:n]``.  The general chart's stage calls it with its own buffers."""
    maps = alg.basis.maps
    T, out[maps.upper], out[maps.cartan] = riccati_rhs(alg, U, M)
    # D^-1 X D scales X_ij by exp(w_j - w_i); the exponent is masked too, so
    # that an overflow above the diagonal cannot turn into 0 * inf = nan
    scale = maps.below * np.exp((w - w[:, None]) * maps.below)
    out[maps.lower] = ((T * scale) @ L).take(maps.lower_at)


def assemble_A_gauss(alg: Algebra, u: np.ndarray) -> np.ndarray:
    """A(u) from the Gauss factors K = U D L (the trust-region monitor's route).

    Column l is X_l conjugated by the factors before X_l's block (factors
    inside one block commute, so they drop out), expanded in the basis.  In
    U, D and L this reads K' K^-1 = U (U^-1 U' + diag w' + D L' L^-1 D^-1)
    U^-1, with U', L' the upper and lower parts of u': the column of E_pq is
    e_p (x) U^-1[q, :] above the diagonal and (U D)[:, p] (x) K^-1[q, :]
    below it, with K^-1 = L^-1 D^-1 U^-1, and that of H_l is
    U[:, l] (x) U^-1[l, :] minus the same term at l + 1.  Matches
    :func:`assemble_A_numeric` up to round-off.
    """
    u = np.asarray(u, dtype=complex)
    N, n = alg.N, alg.n
    if u.shape != (n,):
        raise ValueError(f"expected a {n}-vector, got shape {u.shape}")
    maps = alg.basis.maps
    U, w, L = maps.gauss_factors(u)
    d = np.exp(w)
    Ui = np.linalg.inv(U)
    # L^-1 as the transpose of the inverse of the upper triangular L^T: its
    # LU pivots are the unit diagonal, so overflowed entries give nan, not a
    # singular-matrix error
    Ki = np.linalg.inv(L.T).T @ (Ui / d[:, None])
    # E_pq maps to col[p, q] (x) row[p, q], stored at stack[p N + q]; H_l at
    # stack[N^2 + l - 1]; maps.gather reads them in basis order
    above = maps.above[:, :, None]  # nonzero (true) strictly above the diagonal
    col = np.where(above, np.eye(N)[:, None, :], (U * d).T[:, None, :])
    row = np.where(above, Ui, Ki)
    P = U.T[:, :, None] * Ui[:, None, :]  # P[j] = U[:, j] (x) U^-1[j, :]
    roots = (col[..., :, None] * row[..., None, :]).reshape(N * N, N, N)
    stack = np.concatenate([roots, P[:-1] - P[1:]])
    return maps.expand(stack.take(maps.gather, axis=0)).T


def assemble_A_numeric(alg: Algebra, u: np.ndarray) -> np.ndarray:
    """The coefficient matrix A(u) of A(u) u' = a (oracle route).

    Column l is exp(u_1 ad X_1) ... exp(u_(l-1) ad X_(l-1)) applied to the
    l-th coordinate vector; A(0) = I.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (alg.n,):
        raise ValueError(f"expected a {alg.n}-vector, got shape {u.shape}")
    n = alg.n
    A = np.eye(n, dtype=complex)
    # each factor acts once, on the block of all later columns, the
    # innermost (largest k) first
    for k in range(n - 1, 0, -1):
        A[:, k:] = apply_exp_ad(alg.ads[k - 1], u[k - 1], A[:, k:])
    return A


def condition_estimate(A: np.ndarray) -> float:
    """2-norm condition number of an assembled A(u); inf if A is not finite."""
    if not np.isfinite(A).all():
        return float("inf")
    return float(np.linalg.cond(A))


def assemble_A_symbolic(alg: Algebra) -> list[list[SymbolicExpr]]:
    """A(u) with exact symbolic entries, indexed [row][column] (0-based)."""
    n = alg.n
    cols: list[list[SymbolicExpr]] = []
    for l in range(1, n + 1):
        v = [SymbolicExpr.zero()] * n
        v[l - 1] = SymbolicExpr.number(1)
        for k in range(l - 1, 0, -1):
            v = _peel_generator_symbolic(alg.ads[k - 1], k, v, sign=+1)
        cols.append(v)
    return [[cols[l][r] for l in range(n)] for r in range(n)]


def check_A_block_structure(
    alg: Algebra, A: list[list[SymbolicExpr]] | None = None
) -> list[str]:
    """Violations of the block-triangular shape of symbolic A (empty = ok).

    Checks every entry below the block diagonal is the zero expression and
    that the diagonal blocks of upper and Cartan stages are identities.
    """
    if A is None:
        A = assemble_A_symbolic(alg)
    refs = alg.partition.blocks_in_index_order()
    stages = alg.partition.stages
    violations: list[str] = []
    n = alg.n
    one = SymbolicExpr.number(1)
    zero = SymbolicExpr.zero()
    for r in range(1, n + 1):
        for l in range(1, n + 1):
            entry = A[r - 1][l - 1]
            s_r, s_l = stages[r - 1], stages[l - 1]
            if s_r > s_l and not entry.is_zero:
                violations.append(
                    f"A[{r},{l}] below the block diagonal is nonzero: "
                    f"{entry.render_plain()}"
                )
            elif s_r == s_l and refs[s_r - 1].kind in ("upper", "cartan"):
                want = one if r == l else zero
                if entry != want:
                    violations.append(
                        f"A[{r},{l}] in a {refs[s_r - 1].kind} diagonal "
                        f"block is {entry.render_plain()}"
                    )
    return violations


# ---------------------------------------------------------------------------
# emission / parsing
# ---------------------------------------------------------------------------


def _stage_title(stage: Stage) -> str:
    if stage.kind == "riccati":
        return f"riccati, block J_{stage.k}"
    if stage.kind == "cartan":
        return "cartan"
    return f"linear, block ~J_{stage.k}"


def emit(schedule: HierarchySchedule, fmt: str = "plain") -> str:
    """Render a schedule as ``"plain"``, ``"latex"`` or ``"json"`` text."""
    if fmt == "plain":
        lines = [
            f"# staged right-hand sides for the exponential-product "
            f"factorization on sl({schedule.N})",
            f"# unknowns: {schedule.n}",
        ]
        for s_idx, stage in enumerate(schedule.stages, start=1):
            lines.append(f"# stage {s_idx} ({_stage_title(stage)}):")
            for i, expr in zip(stage.unknowns, stage.rhs_exprs()):
                lines.append(f"u{i}' = {expr.render_plain()}")
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        rows = []
        for stage in schedule.stages:
            for i, expr in zip(stage.unknowns, stage.rhs_exprs()):
                rows.append(f"u_{{{i}}}' &= {expr.render_latex()} \\\\")
        rows[-1] = rows[-1][:-3]
        return "\\begin{aligned}\n" + "\n".join(rows) + "\n\\end{aligned}\n"
    if fmt == "json":
        return _json_text(_schedule_to_obj(schedule, expr=lambda e: e)) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected plain, latex or json)")


def _schedule_to_obj(schedule: HierarchySchedule, expr=SymbolicExpr.to_json_obj) -> dict:
    """The JSON document of a schedule; ``expr`` gives each expression's value."""
    stages = []
    for stage in schedule.stages:
        obj: dict = {
            "kind": stage.kind,
            "k": stage.k,
            "unknowns": list(stage.unknowns),
        }
        if stage.kind == "riccati":
            obj["c"] = [expr(e) for e in stage.c]
            obj["C"] = [[expr(e) for e in row] for row in stage.C]
            obj["b"] = [expr(e) for e in stage.b]
        else:
            obj["rhs"] = [expr(e) for e in stage.rhs]
        stages.append(obj)
    return {"schema": JSON_SCHEMA, "N": schedule.N, "stages": stages}


def _json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)`` nested ``depth`` levels deep, written
    directly, for str, int, list and dict values and for expressions, which
    write themselves (:meth:`SymbolicExpr.to_json_text`)."""
    if isinstance(obj, SymbolicExpr):
        return obj.to_json_text(depth)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_quote(k)}: {_json_text(v, depth + 1)}" for k, v in obj.items()]
    else:
        brackets = "[]"
        items = [_json_text(v, depth + 1) for v in obj]
    if not items:
        return brackets
    nl = "\n" + "  " * depth
    return brackets[0] + nl + "  " + ("," + nl + "  ").join(items) + nl + brackets[1]


def parse_hierarchy_json(text: str) -> HierarchySchedule:
    """Inverse of ``emit(..., "json")``; validates the schema tag.  Any file
    it cannot read raises ValueError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != JSON_SCHEMA:
        raise ValueError(f"unsupported schema {schema!r} (expected {JSON_SCHEMA!r})")
    try:
        return _schedule_from_obj(obj)
    except KeyError as exc:
        raise ValueError(f"hierarchy JSON lacks the key {exc}") from exc
    except (IndexError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed hierarchy JSON: {exc}") from exc


def _schedule_from_obj(obj: dict) -> HierarchySchedule:
    stages: list[Stage] = []
    for s in obj["stages"]:
        unknowns = tuple(int(i) for i in s["unknowns"])
        if s["kind"] == "riccati":
            stages.append(
                RiccatiStage(
                    k=int(s["k"]),
                    unknowns=unknowns,
                    c=tuple(SymbolicExpr.from_json_obj(e) for e in s["c"]),
                    C=tuple(
                        tuple(SymbolicExpr.from_json_obj(e) for e in row)
                        for row in s["C"]
                    ),
                    b=tuple(SymbolicExpr.from_json_obj(e) for e in s["b"]),
                )
            )
        elif s["kind"] == "cartan":
            stages.append(
                CartanStage(
                    unknowns=unknowns,
                    rhs=tuple(SymbolicExpr.from_json_obj(e) for e in s["rhs"]),
                )
            )
        elif s["kind"] == "linear":
            stages.append(
                LinearStage(
                    k=int(s["k"]),
                    unknowns=unknowns,
                    rhs=tuple(SymbolicExpr.from_json_obj(e) for e in s["rhs"]),
                )
            )
        else:
            raise ValueError(f"unknown stage kind {s['kind']!r}")
    return HierarchySchedule(N=int(obj["N"]), stages=tuple(stages))
