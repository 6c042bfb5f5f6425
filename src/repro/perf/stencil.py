"""Matrix-free stencil kernels: offset-shifted sweeps over diagonal planes.

The fv*/Laplacian and 3-D grid systems of the suite are **stencil
matrices**: their nonzeros sit on a handful of column offsets
``col - row``, so the whole operator is a few diagonal planes — the
regime where constant-memory GPU stencil kernels beat every sparse
format, because the "sparse structure" is a compile-time constant and
the gather becomes a shifted contiguous read.

This module is the CPU analogue of that kernel family, split in two:

* :func:`detect_stencil` — run once per compiled
  :class:`repro.perf.SweepPlan`, it decides whether the view's matrix
  runs the plane kernels and, if so, records a
  :class:`StencilDescriptor` (offsets, fill and the matrix's own planes)
  on the plan; on failure it records the reason, and dispatch falls back
  to the level/reference CSR paths.
* :class:`StencilKernels` — the **executor kernels**: the matrix's
  offset planes split into external and block-local parts along the
  view's partition, applied with offset-shifted slice arithmetic.  One
  sweep performs no CSR gather and no per-block Python loop: per row
  tile, each plane is a scalar ufunc over a contiguous slice plus a
  fix-up of its few deviating rows (*constant* mode: the Laplacians'
  −1 couplings), a weight-vector multiply-add (*vector* mode: fv*'s
  variable coefficients) or, for sparse diagonals (block-crossing
  couplings), one short fancy-indexed update; the tile's Jacobi update
  follows while it is in cache.  The plane kernel, its modes and the
  offset-plane gate (:data:`MAX_OFFSETS`, :data:`MIN_FILL`) live in
  :mod:`repro.sparse.dia`, shared with
  :meth:`repro.sparse.CSRMatrix.residual`.

**Detection contract.**  A view runs the stencil kernels iff its
(partition-order) matrix has finite entries and passes
:func:`repro.sparse.dia.plane_gate`, the gate under which
:meth:`repro.sparse.CSRMatrix.residual` runs the same planes.  Both read
the one plane build :meth:`repro.sparse.CSRMatrix.offset_planes` caches
on the matrix.

**Exactness.**  The kernels read their weights from the matrix entries
themselves, so they compute each row's sum over exactly the row's
entries, in ascending-column order — the same order the packed CSR
kernels (:meth:`repro.sparse.CSRMatrix._packed_product`) accumulate.
The one deviation: rows missing an offset that their diagonal's slice
range covers contribute a ``0.0 * x`` term, which is exact for every
finite operand but may flip the *sign* of an exact-zero accumulator.
Signed zeros never propagate into value differences through the sweep's
``+,-,*,/`` data flow, so iterates agree with the reference loop under
``np.array_equal`` (the package's bitwise gates) and bit-for-bit in
every nonzero component; see :mod:`repro.perf.backends` for the regime
gating (:func:`repro.perf.whole_sweep_exact`), which the level
executor's one-level sweeps share.  A plane's mode, and a
diagonal that is one value (divided as a scalar), change no bit: each
row gets the operations of a weight-vector pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..sparse import BlockRowView
from ..sparse.dia import (
    MAX_OFFSETS,
    MIN_FILL,
    DiagonalPlane,
    accumulate_planes,
    plane_modes,
    plane_residual,
    row_tiles,
    tile_length,
)

__all__ = [
    "MAX_OFFSETS",
    "MIN_FILL",
    "StencilDescriptor",
    "detect_stencil",
    "StencilKernels",
]


@dataclass(frozen=True)
class StencilDescriptor:
    """The offset planes of a matrix the stencil kernels accept.

    Attributes
    ----------
    offsets:
        Sorted distinct column offsets (``col - row``), diagonal included.
    fill:
        ``nnz / (len(offsets) × n)``, the filled share of the offset plane.
    planes:
        The matrix's own :class:`repro.sparse.dia.DiagonalPlane` list
        (:meth:`repro.sparse.CSRMatrix.offset_planes`), shared with its
        residual; :class:`StencilKernels` splits it along the partition.
    """

    offsets: np.ndarray = field(repr=False)
    fill: float
    planes: List[DiagonalPlane] = field(repr=False, compare=False)

    def telemetry(self) -> dict:
        """JSON-friendly summary for the run-telemetry annotation.

        ``residual`` is :func:`repro.sparse.dia.plane_modes` of the
        matrix planes: how many run constant, and each slice plane's
        deviation-row fraction.
        """
        return {
            "offsets": [int(o) for o in self.offsets],
            "fill": self.fill,
            "residual": plane_modes(self.planes),
        }


def detect_stencil(view: BlockRowView) -> Tuple[Optional[StencilDescriptor], str]:
    """Whether *view*'s matrix runs the stencil kernels.

    Returns ``(descriptor, "")`` on success or ``(None, reason)`` on
    failure; the reason string is recorded in the partition telemetry so
    a fallback is always explainable.  The kernels read
    ``view.matrix`` itself, so a permuted or finely cut view is accepted
    whenever its matrix is.  The gate verdict and the planes come from
    the matrix's cached :meth:`~repro.sparse.CSRMatrix.offset_planes`,
    so a matrix shared by many views and its residual pays one offset
    pass in all; each call adds a finite-entries check.
    """
    A = view.matrix
    if not np.all(np.isfinite(A.data)):
        # Holes compute 0.0 * x, NaN once a non-finite weight has made x
        # non-finite; the reference loop's products skip holes.
        return None, "matrix entries are not finite"
    planes, reason = A.offset_planes()
    if planes is None:
        return None, reason
    offsets = np.array([d.offset for d in planes])
    return StencilDescriptor(offsets, A.nnz / (len(planes) * A.shape[0]), planes), ""


# --------------------------------------------------------------------- #
# execution kernels
# --------------------------------------------------------------------- #


class StencilKernels:
    """Offset-shifted sweep kernels of one decomposition that passes the gate.

    The matrix's planes (:attr:`StencilDescriptor.planes`) are split
    into **external** (column outside the row's block) and **local**
    (inside the block, off-diagonal) planes along the partition's
    row-to-block map, mirroring the E/L split every executor consumes;
    each part picks its own plane mode.  Both application methods take
    one ``(n,)`` iterate and raise :class:`ValueError` on any other
    shape.

    Planes accumulate in ascending-offset order — ascending column
    order, the same per-row order as the packed CSR kernels.  Both
    methods run one row tile at a time (:func:`repro.sparse.dia.row_tiles`)
    with tile-sized accumulators, so a tile's plane products and its
    elementwise update stay in cache; per row the operations are those of
    a whole-vector pass, bit for bit.
    """

    def __init__(self, view: BlockRowView, desc: StencilDescriptor):
        n = view.n
        self.n = n
        self.diag = view.diagonal_vector()
        bits = self.diag.view(np.int64)
        #: The diagonal as one scalar divisor when every row shares it
        #: (bitwise a division by the vector), else ``None``.
        self.diag_value = float(self.diag[0]) if n and np.all(bits == bits[0]) else None
        block_of = view.classification.block_of_row
        self._external: List[DiagonalPlane] = []
        self._local: List[DiagonalPlane] = []
        for plane in desc.planes:
            o, lo, hi = plane.offset, plane.lo, plane.hi
            if o == 0:
                continue
            same_block = block_of[lo:hi] == block_of[lo + o : hi + o]
            # A plane wholly inside or wholly across blocks is shared as is
            # (planes are read-only); only a cut plane is split and rebuilt.
            if same_block.all():
                self._local.append(plane)
            elif not same_block.any():
                self._external.append(plane)
            else:
                r, v = plane.entries()
                same_block = same_block[r - lo]
                for mask, planes in ((~same_block, self._external), (same_block, self._local)):
                    if mask.any():
                        planes.append(DiagonalPlane(o, r[mask], v[mask]))
        # Work buffers, sized once — tile-sized plane accumulator and
        # product scratch, two full-length intermediate iterates: freshly
        # mapped temporaries cost page faults on every sweep, which at
        # fine decompositions rivals the arithmetic itself.
        t = tile_length(n)
        self._acc, self._plane = np.empty(t), np.empty(t)
        self._z = (np.empty(n), np.empty(n))

    def _check(self, name: str, v: np.ndarray) -> None:
        if v.shape != (self.n,):
            raise ValueError(f"{name} must have shape ({self.n},), got {v.shape}")

    @property
    def n_diagonals(self) -> Tuple[int, int]:
        """(external, local) plane counts (diagnostics)."""
        return len(self._external), len(self._local)

    def telemetry(self) -> dict:
        """:func:`repro.sparse.dia.plane_modes` of the external and local planes."""
        return {"external": plane_modes(self._external), "local": plane_modes(self._local)}

    def external_residual(self, x: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = b - E @ x`` — the external pass, matrix-free, a row tile at a time.

        Each tile's ``E @ x`` is subtracted from *b*'s tile while still in
        cache: bitwise the whole-vector product and subtraction.  *out*
        must not alias *x*.
        """
        for name, v in (("x", x), ("b", b), ("out", out)):
            self._check(name, v)
        return plane_residual(self._external, x, b, out, self._plane)

    def local_sweeps(self, s: np.ndarray, x: np.ndarray, sweeps: int, *, omega: float = 1.0) -> None:
        """*sweeps* Jacobi iterations against the local weight planes, updating *x* in place.

        Expression-identical to the level executor's local sweeps
        (:func:`repro.perf.program._jacobi_sweeps`) with the local
        off-diagonal product replaced by the shifted-slice accumulation.
        *s* must not alias *x*.

        Each iteration runs tile by tile: the tile's local product and its
        ``(s - L z) / d`` update (ω blend included) complete before the
        next tile starts.  A tile reads iterate rows outside itself, so no
        iteration writes into the iterate it reads: iterations alternate
        between two internal vectors, the last of two or more writes *x*,
        and a lone iteration's result is copied into *x*.
        """
        self._check("s", s)
        self._check("x", x)
        acc, scratch = self._acc, self._plane
        z = x
        for it in range(sweeps):
            new = x if it > 0 and it == sweeps - 1 else self._z[it & 1]
            for lo, hi in row_tiles(self.n):
                a = acc[: hi - lo]
                accumulate_planes(self._local, z, a, scratch, lo, hi)
                nt = new[lo:hi]
                np.subtract(s[lo:hi], a, out=a)
                d = self.diag[lo:hi] if self.diag_value is None else self.diag_value
                if omega == 1.0:
                    np.divide(a, d, out=nt)
                else:
                    np.divide(a, d, out=a)
                    np.multiply(a, omega, out=a)  # omega * new
                    np.multiply(z[lo:hi], 1.0 - omega, out=nt)
                    np.add(nt, a, out=nt)
            z = new
        if z is not x:
            x[...] = z
