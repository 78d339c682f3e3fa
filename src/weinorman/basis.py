"""Ordered root-space basis of sl(N, C) and exact expansion utilities.

The traceless complex N x N matrices are spanned by the matrix units E_pq
(p != q) together with the diagonal differences H_l = E_ll - E_(l+1)(l+1).
Everything downstream — the adjoint representation, the block-triangular
shape of the coefficient matrix A(u), the staged solve of A(u) u' = a —
depends on one specific enumeration of that basis, so this module owns it:

* strictly upper units first, grouped by column q = N, N-1, ..., 2, and
  inside a column by row p = q-1, q-2, ..., 1;
* then the diagonal differences H_1, ..., H_(N-1);
* then the strictly lower units: the transposes of the upper run, reversed,
  so that X_(n+1-m) = X_m^T holds throughout (n = N^2 - 1).

The upper run of column q is the abelian block J_(N-q+1); together with the
Cartan block and the transposed blocks ~J_k it forms the partition that the
equation-deriving layer peels stage by stage.  Two facts carried by this
enumeration are load-bearing and are enforced by the test suite: each block
is abelian, and commutators of distinct upper blocks land in the
lower-indexed block ([J_i, J_j] subset of J_min(i,j)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

__all__ = [
    "BasisElement",
    "BlockRef",
    "IndexMaps",
    "OrderedBasis",
    "StructureTensor",
    "SubalgebraPartition",
    "build_ordered_basis",
    "build_partition",
    "expand_in_basis",
    "matrix_from_coefficients",
    "structure_constants",
]

Role = Literal["upper", "cartan", "lower"]


# ---------------------------------------------------------------------------
# basis construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BasisElement:
    """One generator of sl(N, C).

    Attributes
    ----------
    index:
        1-based position in the ordered basis.
    role:
        ``"upper"`` for E_pq with p < q, ``"cartan"`` for H_l,
        ``"lower"`` for E_pq with p > q.
    position:
        ``(p, q)`` of the single nonzero entry for root elements;
        ``(l, l)`` for the Cartan element H_l.
    matrix:
        Exact integer N x N realization.
    """

    index: int
    role: Role
    position: tuple[int, int]
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class OrderedBasis:
    """The ordered basis (X_1, ..., X_n) of sl(N, C), n = N^2 - 1."""

    N: int
    elements: tuple[BasisElement, ...]

    @property
    def n(self) -> int:
        return len(self.elements)

    def element(self, m: int) -> BasisElement:
        """Return X_m (1-based)."""
        if not 1 <= m <= self.n:
            raise ValueError(f"generator index {m} outside 1..{self.n}")
        return self.elements[m - 1]

    def matrix(self, m: int) -> np.ndarray:
        return self.element(m).matrix

    def transpose_partner(self, m: int) -> int:
        """Index of (X_m)^T; the enumeration guarantees it is n + 1 - m."""
        if not 1 <= m <= self.n:
            raise ValueError(f"generator index {m} outside 1..{self.n}")
        return self.n + 1 - m

    @cached_property
    def maps(self) -> "IndexMaps":
        """Where each generator sits in the N x N matrix (built once)."""
        return _build_index_maps(self)


def _unit(N: int, p: int, q: int) -> np.ndarray:
    M = np.zeros((N, N), dtype=np.int64)
    M[p - 1, q - 1] = 1
    return M


def _upper_positions(N: int) -> list[tuple[int, int]]:
    # Column-major from the rightmost column, rows bottom-up within a column.
    return [(p, q) for q in range(N, 1, -1) for p in range(q - 1, 0, -1)]


def build_ordered_basis(N: int) -> OrderedBasis:
    """Construct the ordered basis of sl(N, C) for N >= 2."""
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    N = int(N)

    upper = _upper_positions(N)
    elements: list[BasisElement] = []
    for i, (p, q) in enumerate(upper, start=1):
        elements.append(BasisElement(i, "upper", (p, q), _unit(N, p, q)))
    base = len(upper)
    for l in range(1, N):
        H = _unit(N, l, l) - _unit(N, l + 1, l + 1)
        elements.append(BasisElement(base + l, "cartan", (l, l), H))
    base += N - 1
    for j, (p, q) in enumerate(reversed(upper), start=1):
        elements.append(BasisElement(base + j, "lower", (q, p), _unit(N, q, p)))
    return OrderedBasis(N=N, elements=tuple(elements))


# ---------------------------------------------------------------------------
# block partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRef:
    """A contiguous index block of the ordered basis.

    ``kind`` is ``"upper"``/``"cartan"``/``"lower"``; ``k`` is the block
    label (J_k or ~J_k; 0 for the Cartan block); ``indices`` are 1-based.
    """

    kind: Role
    k: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class SubalgebraPartition:
    """Index blocks of the ordered basis.

    ``upper_blocks[k-1]`` holds J_k (the upper run of column N - k + 1,
    dimension N - k), ``cartan`` holds H_1..H_(N-1), ``lower_blocks[k-1]``
    holds ~J_k = transposes of J_k.  All indices are 1-based.
    """

    N: int
    upper_blocks: tuple[tuple[int, ...], ...]
    cartan: tuple[int, ...]
    lower_blocks: tuple[tuple[int, ...], ...]

    def blocks_in_index_order(self) -> tuple[BlockRef, ...]:
        """All blocks in increasing basis-index order.

        This is the elimination order of the staged solve:
        J_1, ..., J_(N-1), Cartan, ~J_(N-1), ..., ~J_1.
        """
        refs = [
            BlockRef("upper", k, idx)
            for k, idx in enumerate(self.upper_blocks, start=1)
        ]
        refs.append(BlockRef("cartan", 0, self.cartan))
        refs.extend(
            BlockRef("lower", k + 1, self.lower_blocks[k])
            for k in range(len(self.lower_blocks) - 1, -1, -1)
        )
        return tuple(refs)

    def stage_of(self, m: int) -> int:
        """1-based position, in elimination order, of the block holding X_m."""
        for s, ref in enumerate(self.blocks_in_index_order(), start=1):
            if m in ref.indices:
                return s
        raise ValueError(f"generator index {m} outside 1..{self.N ** 2 - 1}")


def build_partition(basis: OrderedBasis) -> SubalgebraPartition:
    """Partition the basis indices into (J_1..J_(N-1), Cartan, ~J_(N-1)..~J_1)."""
    N = basis.N
    upper: list[tuple[int, ...]] = []
    i = 1
    for k in range(1, N):
        upper.append(tuple(range(i, i + N - k)))
        i += N - k
    cartan = tuple(range(i, i + N - 1))
    i += N - 1
    lower_desc: list[tuple[int, ...]] = []
    for k in range(N - 1, 0, -1):
        lower_desc.append(tuple(range(i, i + N - k)))
        i += N - k
    return SubalgebraPartition(
        N=N,
        upper_blocks=tuple(upper),
        cartan=cartan,
        lower_blocks=tuple(reversed(lower_desc)),
    )


@dataclass(frozen=True, eq=False)
class IndexMaps:
    """Index arrays that place the ordered basis in the N x N matrix.

    ``cartan`` selects the slots of H_1, ..., H_(N-1), and ``upper``/``lower``
    the slots of the units above/below the diagonal, whose entries in the
    flattened matrix are ``upper_at``/``lower_at``; the masks
    ``above``/``below`` are 1 strictly above/below the diagonal and 0
    elsewhere.  ``gather`` maps each slot into the flattened matrix followed
    by its N - 1 partial diagonal sums.
    """

    N: int
    cartan: slice
    upper: slice
    lower: slice
    upper_at: np.ndarray
    lower_at: np.ndarray
    above: np.ndarray
    below: np.ndarray
    gather: np.ndarray

    def cartan_diagonal(self, a: np.ndarray) -> np.ndarray:
        """Diagonal of sum_l a(H_l) H_l for a coefficient vector a."""
        # H_l puts +a_l at (l, l) and -a_l at (l+1, l+1)
        h = np.zeros(self.N + 1, dtype=complex)
        h[1 : self.N] = a[self.cartan]
        return h[1:] - h[:-1]

    def gauss_factors(
        self, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, w, L) with exp(u_1 X_1) ... exp(u_n X_n) = U diag(exp w) L.

        U is unit upper triangular with the upper coordinates as its
        entries, L unit lower triangular with the lower ones, and w is
        :meth:`cartan_diagonal`.  Within the upper (or lower) run, any two
        root units taken in basis order multiply to zero, so the product of
        the factors I + u_m X_m is I + sum_m u_m X_m.
        """
        U = np.eye(self.N, dtype=complex)
        L = U.copy()
        U.flat[self.upper_at] = u[self.upper]
        L.flat[self.lower_at] = u[self.lower]
        return U, self.cartan_diagonal(u), L

    def expand(self, M: np.ndarray) -> np.ndarray:
        """Coefficients of traceless matrices M (..., N, N), shape (..., n).

        Root coefficients are matrix entries; the H_l coefficient is the
        partial sum of the first l diagonal entries.
        """
        N = self.N
        flat = M.reshape(M.shape[:-2] + (N * N,))
        sums = np.cumsum(flat[..., :: N + 1], axis=-1)[..., : N - 1]
        return np.concatenate([flat, sums], axis=-1).take(self.gather, axis=-1)


def _build_index_maps(basis: OrderedBasis) -> IndexMaps:
    """Index maps of a basis; raises if a block is not shaped as documented."""
    N = basis.N
    for ref in build_partition(basis).blocks_in_index_order():
        pos = [basis.element(m).position for m in ref.indices]
        pos = [(p - 1, q - 1) for p, q in pos]
        if ref.kind == "cartan":
            ok = pos == [(l, l) for l in range(N - 1)]
            cartan = slice(ref.indices[0] - 1, ref.indices[-1])
        elif ref.kind == "upper":
            line = pos[0][1]
            ok = pos == [(p, line) for p in range(line - 1, -1, -1)]
        else:
            line = pos[0][0]
            ok = pos == [(line, p) for p in range(line)]
        if not ok:
            raise ValueError(f"{ref.kind} block {ref.k} is not one matrix line")
    rows, cols = np.array([el.position for el in basis.elements]).T - 1
    gather = rows * N + cols
    gather[cartan] = N * N + np.arange(N - 1)
    upper = slice(0, cartan.start)
    lower = slice(cartan.stop, basis.n)
    # stored, not np.triu/np.tril per call (each builds a fresh mask); complex,
    # so the products need no cast
    below = np.tri(N, k=-1, dtype=complex)
    return IndexMaps(
        N, cartan, upper, lower, gather[upper], gather[lower], below.T.copy(),
        below, gather,
    )


# ---------------------------------------------------------------------------
# exact expansion and structure constants
# ---------------------------------------------------------------------------


def _expand_exact(M: np.ndarray, basis: OrderedBasis) -> np.ndarray:
    """Exact integer expansion of an integer traceless matrix."""
    N = basis.N
    coeff = np.zeros(basis.n, dtype=np.int64)
    diag_partial = np.cumsum(np.diagonal(M))
    for el in basis.elements:
        p, q = el.position
        if el.role == "cartan":
            # coefficient of H_l is the partial trace sum_{j<=l} M_jj
            coeff[el.index - 1] = diag_partial[p - 1]
        else:
            coeff[el.index - 1] = M[p - 1, q - 1]
    return coeff


def structure_constants(basis: OrderedBasis) -> "StructureTensor":
    """Exact integer structure constants of the ordered basis.

    Raises ``RuntimeError`` if any commutator fails to re-expand exactly in
    the basis (a closure failure, impossible for sl(N) but guarded).
    """
    n = basis.n
    table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    mats = [el.matrix for el in basis.elements]
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            C = mats[p - 1] @ mats[q - 1] - mats[q - 1] @ mats[p - 1]
            coeff = _expand_exact(C, basis)
            rebuilt = np.zeros_like(C)
            for r, c in enumerate(coeff):
                if c != 0:
                    rebuilt = rebuilt + int(c) * mats[r]
            if not np.array_equal(rebuilt, C):
                raise RuntimeError(
                    f"commutator [X_{p}, X_{q}] does not close in the basis"
                )
            entries = tuple(
                (r + 1, int(c)) for r, c in enumerate(coeff) if c != 0
            )
            if entries:
                table[(p, q)] = entries
    return StructureTensor(N=basis.N, n=n, _table=table)


@dataclass(frozen=True, eq=False)
class StructureTensor:
    """Structure constants c^r_pq with [X_p, X_q] = sum_r c^r_pq X_r.

    Entries are exact (small) integers; antisymmetry is resolved at lookup.
    """

    N: int
    n: int
    _table: dict[tuple[int, int], tuple[tuple[int, int], ...]]

    def bracket(self, p: int, q: int) -> tuple[tuple[int, int], ...]:
        """Nonzero coefficients of [X_p, X_q] as ((r, c^r_pq), ...)."""
        if p == q:
            return ()
        if p < q:
            return self._table.get((p, q), ())
        return tuple((r, -c) for r, c in self._table.get((q, p), ()))


def expand_in_basis(
    M: np.ndarray, basis: OrderedBasis, *, rtol: float = 1e-12
) -> np.ndarray:
    """Coefficients a with M = sum_m a_m X_m for a traceless N x N matrix.

    Off-diagonal coefficients are read directly from the corresponding
    entries; the H_l coefficient is the partial sum of the first l diagonal
    entries (exact because the basis realizes each diagonal difference once).

    Raises
    ------
    ValueError
        If the shape is not (N, N), or |tr M| > rtol * max(||M||_F, 1).
    """
    N = basis.N
    M = np.asarray(M)
    if M.shape != (N, N):
        raise ValueError(f"expected a {N}x{N} matrix, got shape {M.shape}")
    M = M.astype(complex)
    trace = complex(np.trace(M))
    scale = max(float(np.linalg.norm(M)), 1.0)
    if abs(trace) > rtol * scale:
        raise ValueError(
            f"matrix is not traceless: |tr M| = {abs(trace):.3e} exceeds "
            f"{rtol:.1e} * max(||M||_F, 1) = {rtol * scale:.3e}"
        )
    return basis.maps.expand(M)


def matrix_from_coefficients(a: np.ndarray, basis: OrderedBasis) -> np.ndarray:
    """Assemble sum_m a_m X_m (the inverse of :func:`expand_in_basis`)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (basis.n,):
        raise ValueError(f"expected {basis.n} coefficients, got shape {a.shape}")
    N = basis.N
    maps = basis.maps
    M = np.zeros((N, N), dtype=complex)
    flat = M.reshape(N * N)
    flat[maps.upper_at] = a[maps.upper]
    flat[maps.lower_at] = a[maps.lower]
    np.fill_diagonal(M, maps.cartan_diagonal(a))
    return M
