"""Matrix-free stencil detection and offset-shifted sweep kernels.

The fv*/Laplacian and 3-D grid systems of the suite are **stencil
matrices**: every interior row carries the same small set of column
offsets with the same coefficients, boundary rows are clipped variants,
and the whole operator is described by a handful of ``(offset, coeff)``
pairs — the regime where constant-memory GPU stencil kernels beat every
sparse format, because the "sparse structure" is a compile-time constant
and the gather becomes a shifted contiguous read.

This module is the CPU analogue of that kernel family, split in two:

* :func:`detect_stencil` — a **structure detector** run once per compiled
  :class:`repro.perf.SweepPlan`.  It classifies the rows of a
  :class:`repro.sparse.BlockRowView`'s matrix by their exact
  ``(offsets, coefficients)`` pattern and accepts the matrix as
  *stencil-regular* when the patterns collapse to a few well-populated
  interior classes plus clipped boundary variants (the contract below).
  On success it records a :class:`StencilDescriptor` — offsets,
  interior coefficients, best-effort grid shape — on the plan; on failure
  it records the reason, and dispatch falls back to the fused/reference
  CSR paths.
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

**Detection contract.**  A view is stencil-regular iff

1. it carries no row permutation (``rcm``/``clustered`` partitions fail
   cleanly and fall back — offsets are meaningless after reordering);
2. the distinct column offsets number at most :data:`MAX_OFFSETS` and
   cover at least :data:`MIN_FILL` of the ``offsets × rows`` plane
   (Chem97ZtZ's scattered structure and s1rmt3m1's wide band exit here);
3. the rows collapse to at most :data:`MAX_CLASSES` distinct
   ``(offsets, coeffs)`` patterns (Trefethen's per-row prime diagonal
   makes every row unique and exits here);
4. the **full-pattern** classes (rows carrying every offset) that hold at
   least ``min_interior_rows`` members — the *interior* classes — cover
   at least :data:`MIN_INTERIOR` of all rows.  Several interior classes
   are allowed: fv*'s two-material coefficient field yields one class per
   material plus a few interface patterns, all constant-coefficient;
5. every remaining row is an exact **clipped variant** of an interior
   class: its offsets are a subset and its coefficients are bit-identical
   to that class at every offset it carries.  A near-miss matrix — one
   perturbed coefficient anywhere — either forms an under-populated
   full-pattern class or a non-matching variant, and detection fails.

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
from typing import List, Optional, Sequence, Set, Tuple

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
    "MIN_INTERIOR",
    "MAX_CLASSES",
    "StencilDescriptor",
    "detect_stencil",
    "StencilKernels",
]

#: Minimum fraction of rows that must belong to interior (full-pattern,
#: well-populated) classes.
MIN_INTERIOR = 0.5

#: Most distinct ``(offsets, coeffs)`` row patterns overall (interior
#: classes + boundary variants).
MAX_CLASSES = 64


@dataclass(frozen=True)
class StencilDescriptor:
    """The recovered structure of a stencil-regular decomposition.

    Attributes
    ----------
    offsets:
        Sorted distinct column offsets (``col - row``), diagonal included.
    coeffs:
        Coefficients of the **dominant** interior class, aligned with
        :attr:`offsets` — the constant-coefficient core of the operator.
        (Execution does not consume these: the kernels read per-row
        weights from :attr:`plane`, so coefficient-field scalings like
        fv*'s two-material diagonal are handled exactly.)
    grid_shape:
        Best-effort inferred grid extents (slowest axis first), verified
        against the offset validity masks; ``None`` when inference is not
        certain.  Metadata only — execution never needs it.
    interior_fraction:
        Fraction of rows in interior classes.
    n_classes:
        Distinct row patterns overall.
    n_interior_classes:
        Full-pattern classes accepted as interior.
    n_variants:
        Clipped boundary-row variants.
    plane:
        ``(len(offsets), n)`` coefficient plane the detection grouped the
        rows by: row *j* holds every matrix row's stored coefficient at
        ``offsets[j]``, NaN where the row stores none.
        :class:`StencilKernels` takes its weight vectors from it.
    """

    offsets: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    grid_shape: Optional[Tuple[int, ...]]
    interior_fraction: float
    n_classes: int
    n_interior_classes: int
    n_variants: int
    plane: np.ndarray = field(repr=False, compare=False)

    def telemetry(self) -> dict:
        """JSON-friendly summary for the run-telemetry annotation."""
        return {
            "offsets": [int(o) for o in self.offsets],
            "grid_shape": list(self.grid_shape) if self.grid_shape else None,
            "interior_fraction": float(self.interior_fraction),
            "classes": int(self.n_classes),
            "interior_classes": int(self.n_interior_classes),
            "variants": int(self.n_variants),
        }


# --------------------------------------------------------------------- #
# detection
# --------------------------------------------------------------------- #


def _generated_offsets(strides: Sequence[int]) -> Set[int]:
    """Positive offsets reachable as ±stride combinations (one per axis)."""
    gen = {0}
    for s in strides:
        gen = {g + c * s for g in gen for c in (-1, 0, 1)}
    return {g for g in gen if g > 0}


def _search_strides(
    strides: List[int], pos_set: Set[int], n: int
) -> Optional[List[int]]:
    """Grid extents for the first stride set generating *pos_set*, or ``None``.

    Depth-first over up to three axis strides, extending *strides* by the
    smallest offsets not yet generated.
    """
    if pos_set <= _generated_offsets(strides):
        dims = []
        for i, s in enumerate(strides):
            nxt = strides[i + 1] if i + 1 < len(strides) else n
            if nxt % s:
                return None
            dims.append(nxt // s)
        return dims if all(d >= 2 for d in dims) else None
    if len(strides) >= 3:
        return None
    for cand in sorted(pos_set - _generated_offsets(strides)):
        found = _search_strides(strides + [cand], pos_set, n)
        if found is not None:
            return found
    return None


def _infer_grid_shape(
    offsets: np.ndarray, plane: np.ndarray, n: int
) -> Optional[Tuple[int, ...]]:
    """Best-effort grid extents from the offset set, mask-verified.

    Axis strides are searched so every positive offset is a ±1
    combination of them (the cross/box neighbourhoods of 5/7/9/19/27
    point stencils); extents follow from consecutive stride ratios.  The
    result is checked against the actual per-offset presence masks of the
    coefficient *plane* — offset ``+stride`` must vanish exactly on the
    axis's last coordinate — and ``None`` is returned whenever anything
    is uncertain.
    """
    pos = [int(o) for o in offsets if o > 0]
    neg = sorted(int(-o) for o in offsets if o < 0)
    if not pos or pos != neg or pos[0] != 1:
        return None
    dims = _search_strides([1], set(pos), n)
    if dims is None:
        return None
    # Verify: entry (i, i + stride) must exist exactly where the axis
    # coordinate is not the last one.
    idx = np.arange(n)
    for stride, extent in zip([1] + list(np.cumprod(dims))[:-1], dims):
        k = int(np.searchsorted(offsets, stride))
        if k >= len(offsets) or offsets[k] != stride:
            return None
        expected = (idx // stride) % extent < extent - 1
        if not np.array_equal(~np.isnan(plane[k]), expected):
            return None
    return tuple(reversed(dims))


def _coefficient_plane(A, rows, offs, offsets) -> np.ndarray:
    """The ``(W, n)`` plane of every row's coefficient at every offset.

    Row *j* holds each matrix row's coefficient at ``offsets[j]``, NaN
    where the row stores none — one shared bit pattern, so comparing
    bits compares patterns exactly, signed zeros included.  Entries land
    through an offset lookup table (offset → flat plane start), one
    scatter in all.
    """
    n = A.shape[0]
    start = np.full(int(offsets[-1] - offsets[0]) + 1, -1, dtype=np.int64)
    start[offsets - offsets[0]] = np.arange(len(offsets), dtype=np.int64) * n
    plane = np.full(len(offsets) * n, np.nan)
    plane[start[offs - offsets[0]] + rows] = A.data
    return plane.reshape(len(offsets), n)


#: Odd 64-bit multiplier of the row-pattern hash (the golden-ratio constant).
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


def _row_hash(bits: np.ndarray) -> np.ndarray:
    """A 64-bit hash per row of the ``(W, n)`` coefficient-bit plane.

    Multiply-xorshift over the row's W words; equal patterns hash equal,
    and :func:`detect_stencil` checks every row bit for bit against its
    class representative, so a collision can never merge two patterns.
    """
    h = np.zeros(bits.shape[1], dtype=np.uint64)
    for word in bits:
        h ^= word
        h *= _HASH_MUL
        h ^= h >> np.uint64(31)
    return h


def detect_stencil(
    view: BlockRowView,
    *,
    max_offsets: int = MAX_OFFSETS,
    min_fill: float = MIN_FILL,
    min_interior: float = MIN_INTERIOR,
    max_classes: int = MAX_CLASSES,
) -> Tuple[Optional[StencilDescriptor], str]:
    """Test *view* for stencil regularity.

    Returns ``(descriptor, "")`` on success or ``(None, reason)`` on
    failure; the reason string is recorded in the partition telemetry so
    a fallback is always explainable.  Cost is a few vectorized passes
    over the nonzeros (the coefficient plane) plus a hash grouping of the
    rows — paid once per compiled plan, and only when stencil dispatch is
    actually considered.
    """
    if view.partition.perm is not None:
        return None, "partition carries a row permutation (offsets undefined)"
    A = view.matrix
    n = A.shape[0]
    if n < 4 or A.nnz == 0:
        return None, "matrix too small for stencil dispatch"
    if not np.all(np.isfinite(A.data)):
        return None, "matrix entries are not finite"

    rows, offs, offsets = entry_offsets(A)
    W = len(offsets)
    reason = plane_gate(W, A.nnz, n, max_offsets=max_offsets, min_fill=min_fill)
    if reason:
        return None, reason
    if 0 not in offsets:
        return None, "no diagonal offset"

    # Row patterns: group rows by a hash of their plane bits, then check
    # every row against its class representative bit for bit.
    plane = _coefficient_plane(A, rows, offs, offsets)
    bits = plane.view(np.uint64)
    _, first, inverse, counts = np.unique(
        _row_hash(bits), return_index=True, return_inverse=True, return_counts=True
    )
    k = len(first)
    if k > max_classes:
        return None, f"{k} distinct row patterns exceed the cap of {max_classes}"
    rep_bits = bits[:, first]
    if not all(np.array_equal(word, rep[inverse]) for word, rep in zip(bits, rep_bits)):
        return None, "row-pattern hash collision"
    # Classes in pattern-byte order, the order an exact byte-wise grouping
    # yields, so a tie between equally populated interior classes still
    # picks the same dominant class.
    pat = np.ascontiguousarray(plane[:, first].T)  # (k, W) class patterns
    _, order = np.unique(pat.view(np.dtype((np.void, 8 * W))).ravel(), return_index=True)
    first, counts, pat = first[order], counts[order], pat[order]

    present = ~np.isnan(pat)
    full = present.all(axis=1)
    # An interior class must be populated: a single perturbed coefficient
    # forms its own 1-row full-pattern class and must not count.
    min_rows = max(2, min(8, n // 8))
    interior_cls = full & (counts >= min_rows)
    if not interior_cls.any():
        return None, f"no full-pattern class with >= {min_rows} rows"
    interior_fraction = float(counts[interior_cls].sum() / n)
    if interior_fraction < min_interior:
        return (
            None,
            f"interior fraction {interior_fraction:.3f} below {min_interior}",
        )

    # Every other class must clip an interior class exactly: offsets a
    # subset, coefficients bit-identical where present.
    anchor_bits = pat[interior_cls].view(np.uint64)
    for c in np.flatnonzero(~interior_cls):
        mask = present[c]
        row_bits = np.ascontiguousarray(pat[c, mask]).view(np.uint64)
        if not any(np.array_equal(row_bits, anchor[mask]) for anchor in anchor_bits):
            return None, "row pattern is not a clipped variant of any interior class"

    dominant = int(np.flatnonzero(interior_cls)[np.argmax(counts[interior_cls])])
    desc = StencilDescriptor(
        offsets=offsets,
        coeffs=pat[dominant].copy(),
        grid_shape=_infer_grid_shape(offsets, plane, n),
        interior_fraction=interior_fraction,
        n_classes=int(k),
        n_interior_classes=int(interior_cls.sum()),
        n_variants=int(k - interior_cls.sum()),
        plane=plane,
    )
    return desc, ""


# --------------------------------------------------------------------- #
# execution kernels
# --------------------------------------------------------------------- #


class StencilKernels:
    """Offset-shifted sweep kernels of one stencil-regular decomposition.

    Weights are the rows of the detection's coefficient plane
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
