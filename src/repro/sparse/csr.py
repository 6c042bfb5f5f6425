"""Compressed-sparse-row matrix: the compute format of :mod:`repro`.

The implementation follows the HPC-in-Python rules the package is built
around: no Python-level loops over rows or nonzeros in any hot path; all
temporaries are reused through ``out=`` parameters where the call sites are
hot.  Products run over an ELL-style row-length-class packing (see
:meth:`CSRMatrix._ell_plan`) whose summation order per row depends on that
row's length alone, so a matrix and every matrix restacked from its rows
give bitwise-equal row products; ``np.add.reduceat`` remains for rows too
wide to pack and for plain segment reductions.  Residuals of matrices
with a few, well-filled column offsets run on diagonal-offset planes
instead (see :meth:`CSRMatrix.residual` and :mod:`repro.sparse.dia`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .._util import as_float_array, as_index_array
from .dia import DiagonalPlane, offset_planes, plane_residual, tile_length

__all__ = ["CSRMatrix"]


def _segment_sums(values: np.ndarray, indptr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Segment sums of *values* over the rows given by *indptr*, written into *out*.

    Handles empty rows exactly: ``np.add.reduceat`` is applied to the
    starts of the *nonempty* rows only, so consecutive reduceat boundaries
    are the true row boundaries and no clipping corrections are needed.
    Note the reduceat order is NOT plain left-to-right for segments of 8+
    entries, which is why the packed kernel below must be used either for
    both of a comparison's sides or for neither.
    """
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    out[...] = 0.0
    if len(values):
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


class CSRMatrix:
    """Sparse matrix in CSR format with canonical (sorted, unique) columns.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``nrows + 1``; row *i* owns the half-open
        nonzero range ``[indptr[i], indptr[i+1])``.
    indices:
        Column indices, sorted and unique within each row.
    data:
        Nonzero values (``float64``).
    shape:
        ``(nrows, ncols)``.
    check:
        Validate the invariants (on by default; internal call sites that
        construct already-valid arrays pass ``check=False``).
    """

    __slots__ = (
        "indptr", "indices", "data", "shape",
        "_ell", "_ell_builds", "_dia", "_dia_reason", "_dia_builds", "_erows",
    )

    def __init__(self, indptr, indices, data, shape: Tuple[int, int], *, check: bool = True):
        self.indptr = as_index_array(indptr, "indptr")
        self.indices = as_index_array(indices, "indices")
        self.data = as_float_array(data, "data")
        self.shape = (int(shape[0]), int(shape[1]))
        self._ell = None
        self._ell_builds = 0
        self._dia = None
        self._dia_reason = ""
        self._dia_builds = 0
        self._erows = None
        if check:
            self._validate()

    def _validate(self) -> None:
        m, n = self.shape
        if len(self.indptr) != m + 1:
            raise ValueError(f"indptr must have length nrows+1={m + 1}, got {len(self.indptr)}")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have equal length")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise ValueError("column index out of bounds")
            # Sorted & strictly increasing within each row: the only allowed
            # non-increase points are row boundaries.
            notinc = np.flatnonzero(np.diff(self.indices) <= 0) + 1
            if len(notinc) and not np.all(np.isin(notinc, self.indptr[1:-1])):
                raise ValueError("column indices must be sorted and unique within rows")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build from a :class:`repro.sparse.COOMatrix`."""
        return coo.tocsr()

    @classmethod
    def from_dense(cls, dense, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with ``|a_ij| <= tol``."""
        from .coo import COOMatrix

        return COOMatrix.from_dense(dense, tol=tol).tocsr()

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any ``scipy.sparse`` matrix."""
        m = mat.tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(
            m.indptr.astype(np.int64),
            m.indices.astype(np.int64),
            m.data.astype(np.float64),
            m.shape,
            check=False,
        )

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n-by-n identity."""
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx, np.ones(n), (n, n), check=False)

    @classmethod
    def diagonal_matrix(cls, d) -> "CSRMatrix":
        """A square matrix with *d* on the diagonal."""
        d = as_float_array(d, "diagonal")
        n = len(d)
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx, d.copy(), (n, n), check=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts."""
        return np.diff(self.indptr)

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape, check=False)

    def _expanded_rows(self) -> np.ndarray:
        """Row index of every stored entry (COO row array), cached.

        Like the ELL plan, the cache assumes the matrix is not mutated in
        place after first use (nothing in the package does).
        """
        if self._erows is None:
            self._erows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        return self._erows

    # ------------------------------------------------------------------ #
    # core kernels
    # ------------------------------------------------------------------ #

    #: Widest row packed into a length-class panel; longer rows go through
    #: reduceat (the panel reduction is a Python loop over the width).
    _ELL_MAX_WIDTH = 64

    def _ell_plan(self):
        """Entries regrouped by row nonzero count, built lazily on first use.

        reduceat pays a per-*segment* dispatch cost, so a product over
        many short rows would be segment-bound.  The plan permutes the
        entries so rows of equal length L sit in one contiguous run: a
        product then does a single flat gather/multiply over all
        nonzeros and reduces each run as an ELL-style panel (the
        classic GPU SpMV layout), stored column-major — ``(L, n_c)``, so
        each of its L-1 vectorized column additions reads a contiguous
        run — strict left-to-right accumulation per row.  Rows wider
        than :data:`_ELL_MAX_WIDTH` keep using reduceat over their run
        (their segments dominate their own cost anyway).

        How a row is summed is therefore a function of that row's length
        *alone*.  This keeps every product in the package bitwise
        consistent: matrices sharing rows agree — a per-block external
        part and the whole-system restacked external matrix produce
        identical row results, which the executors' backend ≡ reference
        contract relies on.  Assumes the matrix is not mutated in place
        after first use (nothing in the package does).

        Plan layout: ``(cols, data, runs, where)`` where *cols*/*data*
        are the permuted entry arrays, each run is ``(rows, lo, hi,
        width, seg_starts)`` — entries ``[lo, hi)``, panel width (0 = use
        reduceat at the run-relative *seg_starts*) — and *where* gives
        every row's place among the row sums, which the runs fill one
        after another; an empty row's place is ``nrows``, the sums'
        trailing ``+0.0``.
        """
        if self._ell is None:
            lengths = np.diff(self.indptr)
            starts = self.indptr[:-1]
            runs = []
            parts = []
            off = 0
            for L in np.unique(lengths):
                if L == 0:
                    continue
                rows_c = np.flatnonzero(lengths == L)
                if L <= self._ELL_MAX_WIDTH:
                    # Column-major: the run's j-th entries of every row are contiguous.
                    entry = (starts[rows_c] + np.arange(L)[:, None]).ravel()
                    runs.append((rows_c, off, off + len(entry), int(L), None))
                else:
                    entry = np.concatenate(
                        [np.arange(starts[r], self.indptr[r + 1]) for r in rows_c]
                    )
                    seg_starts = np.zeros(len(rows_c), dtype=np.int64)
                    np.cumsum(lengths[rows_c][:-1], out=seg_starts[1:])
                    runs.append((rows_c, off, off + len(entry), 0, seg_starts))
                parts.append(entry)
                off += len(entry)
            perm = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            )
            where = np.full(self.nrows, self.nrows, dtype=np.int64)
            if runs:
                filled = np.concatenate([run[0] for run in runs])
                where[filled] = np.arange(len(filled))
            self._ell = (self.indices[perm], self.data[perm], runs, where)
            self._ell_builds += 1
        return self._ell

    def warm_plan(self) -> "CSRMatrix":
        """Eagerly build the ELL gather plan (normally built lazily).

        Sweep-plan compilation (:mod:`repro.perf`) calls this so the first
        sweep pays no plan-construction cost; ``_ell_builds`` counts how
        many times the plan was constructed (it must stay 1 across sweeps —
        asserted by the test suite).
        """
        self._ell_plan()
        return self

    def _packed_product(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """SpMV of the ``(ncols,)`` operand *x* over the length-class entry runs.

        The plan's flat column array gathers *x* once; the products are
        then reduced run by run, packed runs left to right along the row,
        long-row runs via reduceat, into one buffer of row sums that a
        single ``take`` puts in row order.
        """
        cols, data, runs, where = self._ell_plan()
        if len(cols) == 0:
            # Zero-width plan (an empty block, e.g. from a clustered
            # partition): the product is identically zero — skip the
            # gather so no zero-length float intermediate is built per call.
            out[...] = 0.0
            return out
        vals = x.take(cols)
        vals *= data
        sums = np.empty(self.nrows + 1)
        sums[-1] = 0.0
        at = 0
        for rows_c, lo, hi, width, seg_starts in runs:
            acc = sums[at : at + len(rows_c)]
            at += len(rows_c)
            if width:
                v = vals[lo:hi].reshape(width, len(rows_c))
                np.copyto(acc, v[0])
                for j in range(1, width):
                    acc += v[j]
            else:
                np.add.reduceat(vals[lo:hi], seg_starts, out=acc)
        return sums.take(where, out=out, mode="wrap")

    def offset_planes(self) -> Tuple[Optional[List[DiagonalPlane]], str]:
        """``(planes, "")`` in ascending offset order, or ``(None, reason)``.

        The one plane build of :func:`repro.sparse.dia.offset_planes`,
        run on first use and cached like the ELL plan (same no-mutation
        assumption).  Planes are ``None`` when the structure fails
        :func:`repro.sparse.dia.plane_gate` — too many distinct column
        offsets, or too little of their plane filled — and *reason* says
        which.  :meth:`residual` and the stencil sweep kernels
        (:mod:`repro.perf.stencil`) both run these planes.
        ``_dia_builds`` counts accepted constructions.  An accepted
        matrix's rows hold at most ``MAX_OFFSETS`` entries, under
        :data:`_ELL_MAX_WIDTH`, so its ELL product sums every row left to
        right — the order the planes reproduce.
        """
        if self._dia is None:
            planes, self._dia_reason = offset_planes(self)
            self._dia = planes if planes is not None else False
            if planes is not None:
                self._dia_builds += 1
        return self._dia or None, self._dia_reason

    def _operand(self, x, out: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Validate a ``(ncols,)`` operand and an ``(nrows,)`` *out*, allocated when not given."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if out is None:
            out = np.empty(self.nrows)
        elif out.shape != (self.nrows,):
            raise ValueError(f"out must have shape ({self.nrows},), got {out.shape}")
        return x, out

    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Sparse matrix-vector product ``y = A @ x`` of an ``(ncols,)`` vector.

        ``out``, if given, must have shape ``(nrows,)`` and is overwritten
        and returned.
        """
        x, out = self._operand(x, out)
        return self._packed_product(x, out)

    def __matmul__(self, x):
        return self.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transpose product ``x = Aᵀ @ y`` (scatter-add over columns)."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"y must have shape ({self.nrows},), got {y.shape}")
        contrib = self.data * np.repeat(y, self.row_nnz())
        return np.bincount(self.indices, weights=contrib, minlength=self.ncols)

    def residual(self, x: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Residual ``r = b - A @ x`` of ``(ncols,)`` and ``(nrows,)`` vectors.

        *out*, if given, must have shape ``(nrows,)`` and not alias *x*.

        A matrix with a few, well-filled column offsets (see
        :meth:`offset_planes`) evaluates ``A @ x`` as offset-shifted slice
        multiply-adds in ascending-offset order — ascending column order,
        the order the ELL panels of :meth:`matvec` sum each row in — so the
        result equals ``b - A.matvec(x)`` under ``np.array_equal`` for
        finite operands, differing at most in the sign of an exact zero.
        The planes run one row tile at a time
        (:func:`repro.sparse.dia.row_tiles`): each tile of ``A @ x`` lands
        in *r*'s tile and is subtracted from *b*'s while still in cache,
        with a tile-sized product scratch.  A plane whose weights are
        mostly one value runs as a scalar ufunc plus a fix-up of its other
        rows (:mod:`repro.sparse.dia`), with the same bits.
        :meth:`matvec` itself stays on the ELL plan, the kernel it shares
        with the per-block parts the sweep executors multiply, so every
        product stays bitwise consistent across them, zero signs and
        non-finite rows included.  Matrices the plan gate rejects take the
        ELL product here too.
        """
        x, r = self._operand(x, out)
        b = np.asarray(b)
        if b.shape != (self.nrows,):
            raise ValueError(f"b must have shape ({self.nrows},), got {b.shape}")
        planes, _ = self.offset_planes()
        if planes is None:
            np.subtract(b, self._packed_product(x, r), out=r)
            return r
        # A per-call scratch, not a cached one: the matrix is shared by
        # concurrent solves (threaded solver, serve).
        return plane_residual(planes, x, b, r, np.empty(tile_length(len(r))))

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored)."""
        d = np.zeros(min(self.shape))
        rows = self._expanded_rows()
        mask = rows == self.indices
        d[rows[mask]] = self.data[mask]
        return d

    # ------------------------------------------------------------------ #
    # structural surgery
    # ------------------------------------------------------------------ #

    def _mask_select(self, keep: np.ndarray) -> "CSRMatrix":
        """New matrix keeping only the entries flagged in boolean *keep*."""
        rows = self._expanded_rows()[keep]
        counts = np.bincount(rows, minlength=self.nrows).astype(np.int64)
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[keep], self.data[keep], self.shape, check=False)

    def split_diagonal(self) -> Tuple[np.ndarray, "CSRMatrix"]:
        """Split into ``(d, R)`` with ``A = diag(d) + R`` (R has a zero diagonal)."""
        rows = self._expanded_rows()
        offdiag = rows != self.indices
        return self.diagonal(), self._mask_select(offdiag)

    def lower_triangle(self, *, strict: bool = True) -> "CSRMatrix":
        """The (strictly, by default) lower-triangular part."""
        rows = self._expanded_rows()
        keep = self.indices < rows if strict else self.indices <= rows
        return self._mask_select(keep)

    def upper_triangle(self, *, strict: bool = True) -> "CSRMatrix":
        """The (strictly, by default) upper-triangular part."""
        rows = self._expanded_rows()
        keep = self.indices > rows if strict else self.indices >= rows
        return self._mask_select(keep)

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Contiguous row block ``A[start:stop, :]`` (column space unchanged)."""
        if not (0 <= start <= stop <= self.nrows):
            raise ValueError(f"invalid row range [{start}, {stop}) for {self.nrows} rows")
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.ncols),
            check=False,
        )

    def column_range_split(self, lo: int, hi: int) -> Tuple["CSRMatrix", "CSRMatrix"]:
        """Split columns into ``[lo, hi)`` (local) and the rest (global).

        Returns ``(local, global)``; both keep the *full* column space so
        they can be multiplied against full-length vectors — the split is by
        entry membership, which is what the two-stage block update needs.
        """
        if not (0 <= lo <= hi <= self.ncols):
            raise ValueError(f"invalid column range [{lo}, {hi})")
        in_range = (self.indices >= lo) & (self.indices < hi)
        return self._mask_select(in_range), self._mask_select(~in_range)

    def transpose(self) -> "CSRMatrix":
        """The transpose, as a canonical CSR matrix."""
        from .coo import COOMatrix

        coo = COOMatrix(self.indices, self._expanded_rows(), self.data, (self.ncols, self.nrows))
        return coo.tocsr()

    def abs(self) -> "CSRMatrix":
        """Entrywise absolute value ``|A|`` (same pattern)."""
        return CSRMatrix(self.indptr, self.indices, np.abs(self.data), self.shape, check=False)

    def scale_rows(self, v: np.ndarray) -> "CSRMatrix":
        """Row scaling ``diag(v) @ A``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.nrows,):
            raise ValueError("scale vector length must equal nrows")
        return CSRMatrix(
            self.indptr, self.indices, self.data * np.repeat(v, self.row_nnz()), self.shape, check=False
        )

    def scale_cols(self, v: np.ndarray) -> "CSRMatrix":
        """Column scaling ``A @ diag(v)``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.ncols,):
            raise ValueError("scale vector length must equal ncols")
        return CSRMatrix(self.indptr, self.indices, self.data * v[self.indices], self.shape, check=False)

    def add(self, other: "CSRMatrix", alpha: float = 1.0) -> "CSRMatrix":
        """Matrix sum ``A + alpha * B`` via COO concatenation."""
        if other.shape != self.shape:
            raise ValueError("shape mismatch in add")
        from .coo import COOMatrix

        coo = COOMatrix(
            np.concatenate([self._expanded_rows(), other._expanded_rows()]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, alpha * other.data]),
            self.shape,
        )
        return coo.tocsr()

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|a_ij| <= tol``."""
        return self._mask_select(np.abs(self.data) > tol)

    # ------------------------------------------------------------------ #
    # norms / reductions
    # ------------------------------------------------------------------ #

    def row_abs_sums(self) -> np.ndarray:
        """Per-row sums of absolute values (∞-norm contributions)."""
        out = np.empty(self.nrows)
        return _segment_sums(np.abs(self.data), self.indptr, out)

    def norm_inf(self) -> float:
        """Matrix ∞-norm (max absolute row sum)."""
        return float(self.row_abs_sums().max()) if self.nrows else 0.0

    def norm_fro(self) -> float:
        """Frobenius norm."""
        return float(np.sqrt(np.sum(self.data * self.data)))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        out = np.zeros(self.shape)
        out[self._expanded_rows(), self.indices] = self.data
        return out

    def to_coo(self):
        """Convert to :class:`repro.sparse.COOMatrix` (already canonical)."""
        from .coo import COOMatrix

        coo = COOMatrix(self._expanded_rows(), self.indices, self.data.copy(), self.shape)
        coo._canonical = True
        return coo

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix``."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CSRMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz}>"
