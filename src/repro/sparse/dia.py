"""Diagonal-offset weight planes: the offset-shifted slice kernel.

A matrix whose nonzeros sit on a few column offsets ``col - row`` — the
grid Laplacians, fv*, Trefethen's power-of-two band — is stored here the
way constant-coefficient stencil codes store it: one weight vector per
distinct offset, trimmed to the rows that offset occurs in.  A product
then needs no gather at all: each offset is one contiguous
``acc[lo:hi] += w * x[lo+o:hi+o]`` multiply-add (or, for an offset whose
rows are sparse within their range, one short fancy-indexed update).
Such operators are bandwidth-bound, and this is the layout that streams.

Two consumers share the kernel: :meth:`repro.sparse.CSRMatrix.residual`
(whole-matrix planes) and :class:`repro.perf.stencil.StencilKernels`
(planes split into external and block-local parts along a partition).

**Row tiles.**  Both consumers run the planes one row tile of
:data:`_TILE_ROWS` rows at a time (:func:`row_tiles`): every plane of a
tile lands in a tile-sized accumulator before the next tile starts, and
the caller's elementwise tail (``b - A x``, the Jacobi update) runs on
that tile while it is still in cache.  A whole-vector pass per plane
would instead write each product to DRAM and read it back.  A system of
at most one tile runs as a single tile.  Each row still sees the same
IEEE operations in the same plane order, so tiling changes no bit of
any result.

**When the layout applies.**  :func:`plane_gate` accepts a matrix whose
distinct offsets number at most :data:`MAX_OFFSETS` and whose nonzeros
fill at least :data:`MIN_FILL` of the ``offsets × rows`` plane.
Chem97ZtZ's scattered structure and s1rmt3m1's wide band fail it.

**Exactness.**  :func:`accumulate_planes` applies planes in the order
given, per tile; in ascending-offset order that is ascending column
order, the order in which the packed CSR kernels
(:meth:`repro.sparse.CSRMatrix._packed_product`) sum each row.  Rows
missing an offset that their plane's slice range covers contribute a
``0.0 * x`` term, which is exact for every finite operand but may flip
the *sign* of an exact-zero accumulator — so results agree with the CSR
product under ``np.array_equal`` and bit for bit in every nonzero
component.  For a non-finite operand a hole's ``0.0 * inf`` is NaN: the
plane product is then non-finite wherever the CSR one is, and possibly
in a few more rows.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "MAX_OFFSETS",
    "MIN_FILL",
    "DiagonalPlane",
    "entry_offsets",
    "plane_gate",
    "accumulate_planes",
    "row_tiles",
    "tile_shape",
]

#: Most distinct column offsets the plane layout takes (27-point = 27).
MAX_OFFSETS = 32

#: Minimum nnz / (offsets × rows) fill of the diagonal-storage plane.
MIN_FILL = 0.5

#: A plane whose nonzero rows cover at least this fraction of its
#: trimmed row range runs as one contiguous slice multiply-add; sparser
#: planes (e.g. block-crossing couplings) use a fancy-indexed update.
_DENSE_SLICE = 0.25

#: Rows per tile of the plane kernels.  Every plane of a tile is applied
#: before the next tile starts, so the tile's accumulator, product
#: scratch and operand slices — 256 KiB per float64 vector — stay in a
#: 2 MiB-per-core L2 instead of streaming each plane product through DRAM.
_TILE_ROWS = 32768


def entry_offsets(A) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, offs, offsets)`` of a :class:`~repro.sparse.CSRMatrix`.

    *rows* and *offs* give every stored entry's row and column offset
    ``col - row``; *offsets* are the sorted distinct offsets, found with
    one counting pass instead of a sort.
    """
    rows = A._expanded_rows()
    offs = A.indices - rows
    shift = A.shape[0] - 1
    offsets = np.flatnonzero(np.bincount(offs + shift)) - shift
    return rows, offs, offsets


def plane_gate(n_offsets: int, nnz: int, nrows: int, *,
               max_offsets: int = MAX_OFFSETS, min_fill: float = MIN_FILL) -> str:
    """``""`` when the offset plane is compact enough, else the reason."""
    if n_offsets > max_offsets:
        return f"{n_offsets} distinct offsets exceed the cap of {max_offsets}"
    if n_offsets == 0:
        return "no stored entries"
    fill = nnz / (n_offsets * nrows)
    if fill < min_fill:
        return f"offset-plane fill {fill:.3f} below {min_fill}"
    return ""


class DiagonalPlane:
    """One offset's weights: slice-applied or gather-applied.

    *rows* are the (ascending) rows carrying the offset and *vals* their
    weights.  :meth:`write` and :meth:`apply` touch one row tile
    ``[r0, r1)`` at a time: *out* and *scratch* are tile-sized (row
    ``r0`` at index 0), *x* the whole operand.
    """

    __slots__ = ("offset", "lo", "hi", "w", "idx", "wi")

    def __init__(self, offset: int, rows: np.ndarray, vals: np.ndarray):
        self.offset = offset
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        self.lo, self.hi = lo, hi  # first row, last row + 1
        if len(rows) >= _DENSE_SLICE * (hi - lo):
            # Dense within its trimmed range: one contiguous multiply-add.
            # Holes carry weight 0.0 (exact for finite operands; zero-sign
            # caveat in the module docstring).
            w = np.zeros(hi - lo)
            w[rows - lo] = vals
            self.w = w
            self.idx = self.wi = None
        else:
            self.w = None
            self.idx, self.wi = rows, vals

    def _clip(self, r0: int, r1: int) -> Optional[Tuple[int, int, np.ndarray]]:
        """``(lo, hi, w)``: the slice plane's rows and weights inside ``[r0, r1)``.

        ``None`` when the plane has no row there.
        """
        if r0 <= self.lo and self.hi <= r1:
            return self.lo, self.hi, self.w
        lo, hi = max(self.lo, r0), min(self.hi, r1)
        if lo >= hi:
            return None
        return lo, hi, self.w[lo - self.lo : hi - self.lo]

    def _gather(self, x: np.ndarray, out: np.ndarray, r0: int, r1: int) -> None:
        """``out[..., r - r0] += w_r * x[..., r + offset]`` for the plane's rows in the tile."""
        idx, wi = self.idx, self.wi
        if r0 > self.lo or self.hi > r1:
            a, b = np.searchsorted(idx, (r0, r1))
            idx, wi = idx[a:b], wi[a:b]
        out[..., idx - r0] += wi * x[..., idx + self.offset]

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray, r0: int, r1: int) -> None:
        """``out[..., r - r0] += w_r * x[..., r + offset]`` over this plane's rows in ``[r0, r1)``.

        *scratch* is a tile-sized buffer: the product lands there instead
        of a freshly mapped temporary, and stays in cache for the add.
        """
        if self.w is None:
            self._gather(x, out, r0, r1)
            return
        span = self._clip(r0, r1)
        if span is None:
            return
        lo, hi, w = span
        o = self.offset
        t = scratch[..., : hi - lo]
        np.multiply(w, x[..., lo + o : hi + o], out=t)
        sl = out[..., lo - r0 : hi - r0]
        np.add(sl, t, out=sl)

    def write(self, x: np.ndarray, out: np.ndarray, r0: int, r1: int) -> None:
        """``out = this plane's product`` on rows ``[r0, r1)`` — the first-plane fast path.

        Bitwise the zero-initialised accumulate for every product value
        except an exact ``-0.0``, where the fold ``0.0 + (-0.0)`` would
        have flipped the sign — a zero-sign difference of the kind the
        module contract already carries.
        """
        if self.w is None:
            out[...] = 0.0
            self._gather(x, out, r0, r1)
            return
        span = self._clip(r0, r1)
        if span is None:
            out[...] = 0.0
            return
        lo, hi, w = span
        o = self.offset
        out[..., : lo - r0] = 0.0
        out[..., hi - r0 :] = 0.0
        np.multiply(w, x[..., lo + o : hi + o], out=out[..., lo - r0 : hi - r0])


def row_tiles(n: int) -> Iterator[Tuple[int, int]]:
    """The ``[lo, hi)`` row tiles of an *n*-row operand, in order."""
    for lo in range(0, n, _TILE_ROWS):
        yield lo, min(lo + _TILE_ROWS, n)


def tile_shape(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Shape of a tile-sized buffer for operands shaped ``(..., n)``."""
    return shape[:-1] + (min(shape[-1], _TILE_ROWS),)


def accumulate_planes(
    planes: List[DiagonalPlane],
    x: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    r0: int,
    r1: int,
) -> np.ndarray:
    """``out = sum of planes applied to x`` on rows ``[r0, r1)``, in list order.

    *x* is ``(..., ncols)``; *out* and *scratch* are ``(..., r1 - r0)``
    tiles.  Planes broadcast over leading axes, so an ``(R, n)`` stack
    runs the 1-D arithmetic per row.  *out* must not alias *x*.
    """
    if not planes:
        out[...] = 0.0
        return out
    planes[0].write(x, out, r0, r1)
    for d in planes[1:]:
        d.apply(x, out, scratch, r0, r1)
    return out
