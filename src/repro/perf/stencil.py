"""Matrix-free stencil kernels: offset-shifted sweeps over diagonal planes.

The fv*/Laplacian and 3-D grid systems of the suite are **stencil
matrices**: their nonzeros sit on a handful of column offsets
``col - row``, so the whole operator is a few diagonal weight planes —
the regime where constant-memory GPU stencil kernels beat every sparse
format, because the "sparse structure" is a compile-time constant and
the gather becomes a shifted contiguous read.

This module is the CPU analogue of that kernel family, split in two:

* :func:`detect_stencil` — run once per compiled
  :class:`repro.perf.SweepPlan`, it decides whether the view's matrix
  runs the plane kernels and, if so, records a
  :class:`StencilDescriptor` (offsets and coefficient plane) on the
  plan; on failure it records the reason, and dispatch falls back to
  the fused/reference CSR paths.
* :class:`StencilKernels` — the **executor kernels**: per-offset weight
  vectors (the diagonal-storage form of the matrix, split into external
  and block-local parts along the view's partition) applied with
  offset-shifted slice arithmetic.  One sweep performs no CSR gather and
  no per-block Python loop: per row tile, each diagonal is either one
  contiguous ``acc[lo:hi] += w * x[lo+o:hi+o]`` multiply-add or, for
  sparse diagonals (block-crossing couplings), one short fancy-indexed
  update, and the tile's Jacobi update follows while it is in cache.
  The plane kernel and the offset-plane gate (:data:`MAX_OFFSETS`,
  :data:`MIN_FILL`) live in :mod:`repro.sparse.dia`, shared with
  :meth:`repro.sparse.CSRMatrix.residual`.

**Detection contract.**  A view runs the stencil kernels iff its
(partition-order) matrix has finite entries and passes
:func:`repro.sparse.dia.plane_gate`, the gate under which
:meth:`repro.sparse.CSRMatrix.residual` runs the same planes.

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
gating, which is exactly the fused path's.
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
    entry_offsets,
    plane_gate,
    row_tiles,
    tile_shape,
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
    plane:
        ``(len(offsets), n)`` coefficient plane: row *j* holds every
        matrix row's stored coefficient at ``offsets[j]``, NaN where the
        row stores none.  :class:`StencilKernels` takes its weight
        vectors from it.
    """

    offsets: np.ndarray = field(repr=False)
    plane: np.ndarray = field(repr=False, compare=False)

    def telemetry(self) -> dict:
        """JSON-friendly summary for the run-telemetry annotation."""
        return {
            "offsets": [int(o) for o in self.offsets],
            "fill": float(np.mean(~np.isnan(self.plane))),
        }


def _coefficient_plane(A, rows, offs, offsets) -> np.ndarray:
    """The ``(W, n)`` plane of every row's coefficient at every offset.

    Row *j* holds each matrix row's coefficient at ``offsets[j]``, NaN
    where the row stores none.  Entries land through an offset lookup
    table (offset → flat plane start), one scatter in all.
    """
    n = A.shape[0]
    start = np.full(int(offsets[-1] - offsets[0]) + 1, -1, dtype=np.int64)
    start[offsets - offsets[0]] = np.arange(len(offsets), dtype=np.int64) * n
    plane = np.full(len(offsets) * n, np.nan)
    plane[start[offs - offsets[0]] + rows] = A.data
    return plane.reshape(len(offsets), n)


def detect_stencil(view: BlockRowView) -> Tuple[Optional[StencilDescriptor], str]:
    """Whether *view*'s matrix runs the stencil kernels.

    Returns ``(descriptor, "")`` on success or ``(None, reason)`` on
    failure; the reason string is recorded in the partition telemetry so
    a fallback is always explainable.  The kernels read
    ``view.matrix`` itself, so a permuted or finely cut view is accepted
    whenever its matrix is.  Cost is one counting pass and one scatter
    over the nonzeros — paid once per compiled plan, and only when
    stencil dispatch is actually considered.
    """
    A = view.matrix
    if not np.all(np.isfinite(A.data)):
        # The plane codes "no entry" as NaN.
        return None, "matrix entries are not finite"
    rows, offs, offsets = entry_offsets(A)
    reason = plane_gate(len(offsets), A.nnz, A.shape[0])
    if reason:
        return None, reason
    return StencilDescriptor(offsets, _coefficient_plane(A, rows, offs, offsets)), ""


# --------------------------------------------------------------------- #
# execution kernels
# --------------------------------------------------------------------- #


class StencilKernels:
    """Offset-shifted sweep kernels of one decomposition that passes the gate.

    Weights are the rows of the descriptor's coefficient plane
    (:attr:`StencilDescriptor.plane`), one per offset, split into
    **external** (column outside the row's block) and **local** (inside
    the block, off-diagonal) planes along the partition's row-to-block
    map, mirroring the E/L split every executor consumes.  Both
    application methods accept ``(n,)`` vectors and ``(R, n)``
    multi-vectors (the batched engines' stacked variant) — diagonals
    broadcast over leading axes, so the 2-D path is the 1-D arithmetic
    per replica row.

    Diagonals accumulate in ascending-offset order — ascending column
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
        block_of = view.classification.block_of_row
        self._external: List[DiagonalPlane] = []
        self._local: List[DiagonalPlane] = []
        for o, weights in zip(desc.offsets.tolist(), desc.plane):
            if o == 0:
                continue
            r = np.flatnonzero(~np.isnan(weights))
            v = weights[r]
            same_block = block_of[r] == block_of[r + o]
            for mask, planes in ((~same_block, self._external), (same_block, self._local)):
                if mask.any():
                    planes.append(DiagonalPlane(o, r[mask], v[mask]))
        # Reusable work buffers, keyed by shape — tile-sized plane
        # accumulator and product scratch, full-length z0/z1 iterates:
        # freshly mapped temporaries cost page faults on every sweep,
        # which at fine decompositions rivals the arithmetic itself.
        self._bufs: dict = {}

    def _scratch(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        buf = self._bufs.get((key, shape))
        if buf is None:
            buf = self._bufs[key, shape] = np.empty(shape)
        return buf

    @property
    def n_diagonals(self) -> Tuple[int, int]:
        """(external, local) weight-plane counts (diagnostics)."""
        return len(self._external), len(self._local)

    def apply_external(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = E @ x`` — the whole-system external gather, matrix-free."""
        scratch = self._scratch("plane", tile_shape(out.shape))
        for lo, hi in row_tiles(self.n):
            accumulate_planes(self._external, x, out[..., lo:hi], scratch[..., : hi - lo], lo, hi)
        return out

    def local_sweeps(
        self,
        s: np.ndarray,
        z: np.ndarray,
        sweeps: int,
        *,
        omega: float = 1.0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """*sweeps* Jacobi iterations against the local weight planes.

        Expression-identical to
        :func:`repro.solvers.block_jacobi.local_jacobi_sweeps` with the
        local off-diagonal product replaced by the shifted-slice
        accumulation; *z* is not modified (unless it aliases *out*) and
        the final iterate is returned.  When *out* is given the final
        iterate lands there — *out* may alias *z* (the engine's in-place
        update) but must not alias *s*; intermediate iterates live in
        internal reused buffers.

        Each iteration runs tile by tile: the tile's local product and its
        ``(s - L z) / d`` update (ω blend included) complete before the
        next tile starts.  A tile reads *z* rows outside itself, so no
        iteration writes into its own *z*: an *out* that aliases *z* gets
        the iterate from a scratch vector once the last iteration is done.
        """
        acc = self._scratch("acc", tile_shape(s.shape))
        scratch = self._scratch("plane", acc.shape)
        for it in range(sweeps):
            if it == sweeps - 1 and out is not None and not np.may_share_memory(out, z):
                new = out
            else:
                new = self._scratch("z0" if it & 1 == 0 else "z1", s.shape)
            for lo, hi in row_tiles(self.n):
                a = acc[..., : hi - lo]
                accumulate_planes(self._local, z, a, scratch[..., : hi - lo], lo, hi)
                nt = new[..., lo:hi]
                np.subtract(s[..., lo:hi], a, out=a)
                if omega == 1.0:
                    np.divide(a, self.diag[lo:hi], out=nt)
                else:
                    np.divide(a, self.diag[lo:hi], out=a)
                    np.multiply(a, omega, out=a)  # omega * new
                    np.multiply(z[..., lo:hi], 1.0 - omega, out=nt)
                    np.add(nt, a, out=nt)
            z = new
        if out is not None and sweeps and z is not out:
            out[...] = z
            z = out
        return z
