"""Diagonal-offset weight planes: the offset-shifted slice kernel.

A matrix whose nonzeros sit on a few column offsets ``col - row`` — the
grid Laplacians, fv*, Trefethen's power-of-two band — is stored here the
way constant-coefficient stencil codes store it: one plane per distinct
offset, trimmed to the rows that offset occurs in.  A product then needs
no gather at all: each offset is one contiguous multiply-add over
``x[lo+o:hi+o]``.  Such operators are bandwidth-bound, and this is the
layout that streams.

**Plane modes.**  A :class:`DiagonalPlane` runs in one of three modes,
picked once when it is built:

* *constant* — most rows of the trimmed range ``[lo, hi)`` share one
  weight ``c`` (every off-diagonal of the Laplacians is −1, Trefethen's
  band is all 1).  The plane keeps ``c`` and a short sorted list of
  *deviation rows*: holes (rows without the offset, weight 0.0) and rows
  with any other weight.  A tile is one scalar ufunc over the slice, then
  a fix-up of the deviation rows; no weight vector streams from DRAM.
* *vector* — too many rows deviate from the modal weight (fv*'s variable
  coefficients, Trefethen's prime diagonal): one weight vector over
  ``[lo, hi)``, holes 0.0, multiplied into the slice.
* *gather* — the offset's rows are sparse within their range (e.g.
  block-crossing couplings): one short fancy-indexed update.

The cut-offs are :data:`_DENSE_SLICE` (slice or gather) and
:data:`_CONSTANT_DEVIATIONS` (constant or vector); :func:`plane_modes`
reports the outcome and each slice plane's deviation-row fraction.

Two consumers share the kernel: :meth:`repro.sparse.CSRMatrix.residual`
(whole-matrix planes, built once by :func:`offset_planes`) and
:class:`repro.perf.stencil.StencilKernels` (those planes split into
external and block-local parts along a partition).

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

The three modes compute the same bits.  A constant plane gives every row
of its slice exactly the vector plane's operation: ``out - x`` for
``c = −1`` and ``out + x`` for ``c = +1`` are IEEE-identical to
``out + c·x``, any other ``c`` multiplies first, and each deviation row is
recomputed from its kept accumulator as ``keep + w·x`` with its own
weight (0.0 for a hole), zero signs included.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "MAX_OFFSETS",
    "MIN_FILL",
    "DiagonalPlane",
    "entry_offsets",
    "offset_planes",
    "plane_gate",
    "plane_modes",
    "accumulate_planes",
    "plane_residual",
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

#: A slice plane runs constant while at most this fraction of its rows
#: deviate from the modal weight.  Each deviation row costs two gathers,
#: a multiply-add and a scatter; the weight vector it saves costs 8 bytes
#: a row from DRAM.  On 262144-row planes in 32768-row tiles (2-core
#: host) constant mode won up to 6.2% deviation rows and lost from 8%,
#: so lap3d 64³'s block-cut local ±64 planes (6.2%) run constant.
_CONSTANT_DEVIATIONS = 0.07

#: Samples drawn to pick a plane's modal weight (see :func:`_modal_bits`).
_MODE_SAMPLES = 16

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


def offset_planes(A) -> Tuple[Optional[List["DiagonalPlane"]], str]:
    """``(planes, "")`` in ascending offset order, or ``(None, reason)``.

    One offset pass: :func:`entry_offsets` and :func:`plane_gate`, then a
    counting sort of the entries on their ``(offset, row)`` slot.  Each
    slot holds at most one entry, so scattering the entries into an
    ``offsets × rows`` presence plane sorts them: each offset's rows are
    its segment's set slots, ascending, in linear time.
    """
    rows, offs, offsets = entry_offsets(A)
    n = A.shape[0]
    reason = plane_gate(len(offsets), A.nnz, n)
    if reason:
        return None, reason
    first = int(offsets[0])
    base = np.zeros(int(offsets[-1]) - first + 1, dtype=np.int64)
    base[offsets - first] = np.arange(len(offsets), dtype=np.int64) * n
    offs -= first
    slot = base[offs]
    del offs
    slot += rows
    present = np.zeros(len(offsets) * n, dtype=bool)
    present[slot] = True
    weights = np.empty(len(offsets) * n)
    weights[slot] = A.data
    del slot
    planes = []
    for j, o in enumerate(offsets.tolist()):
        r = np.flatnonzero(present[j * n : (j + 1) * n])
        planes.append(DiagonalPlane(o, r, weights[j * n + r]))
    return planes, ""


def _modal_bits(bits: np.ndarray) -> np.int64:
    """The most common of :data:`_MODE_SAMPLES` weights of a plane (as bits).

    Samples sit at golden-ratio (Weyl) positions, which follow no grid's
    power-of-two period, so a weight that fills nearly every row — the
    only kind a constant plane needs — is found with near certainty.  A
    miss only keeps the plane on its vector: a speed decision, never a
    change of bits.
    """
    k = np.arange(1, _MODE_SAMPLES + 1)
    pos = ((k * 0.6180339887498949) % 1.0 * len(bits)).astype(np.intp)
    values, counts = np.unique(bits[pos], return_counts=True)
    return values[np.argmax(counts)]


class DiagonalPlane:
    """One offset's weights, in constant, vector or gather mode.

    Built from the (ascending) rows carrying the offset and their
    weights; the module docstring gives the modes and their cut-offs.
    :meth:`write` and :meth:`apply` touch one row tile ``[r0, r1)`` at a
    time: *out* and *scratch* are tile-sized (row ``r0`` at index 0), *x*
    the whole operand.  A plane is read-only after construction, so
    concurrent callers can share it.

    Attributes
    ----------
    offset, lo, hi:
        The column offset and the trimmed row range ``[lo, hi)``.
    mode:
        ``"constant"``, ``"vector"`` or ``"gather"``.
    deviation:
        Fraction of ``[lo, hi)`` whose weight differs from the modal one
        (holes included); ``None`` for a gather plane.
    """

    __slots__ = (
        "offset", "lo", "hi", "mode", "deviation",
        "c", "dev", "wdev", "w", "holes", "idx", "wi",
    )

    def __init__(self, offset: int, rows: np.ndarray, vals: np.ndarray):
        self.offset = offset
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        self.lo, self.hi = lo, hi  # first row, last row + 1
        self.c = self.dev = self.wdev = self.w = self.holes = None
        self.idx = self.wi = self.deviation = None
        if len(rows) < _DENSE_SLICE * (hi - lo):
            self.mode = "gather"
            # Copies: the caller's arrays may be views of a larger buffer.
            self.idx, self.wi = np.array(rows), np.array(vals, dtype=np.float64)
            return
        # Holes carry weight 0.0 (exact for finite operands; zero-sign
        # caveat in the module docstring).
        if len(rows) == hi - lo:
            w = np.array(vals, dtype=np.float64)
            self.holes = np.empty(0, dtype=np.int64)
        else:
            pos = rows - lo
            w = np.zeros(hi - lo)
            w[pos] = vals
            hole = np.ones(hi - lo, dtype=bool)
            hole[pos] = False
            self.holes = lo + np.flatnonzero(hole)
        bits = w.view(np.int64)
        modal = _modal_bits(bits)
        off = bits != modal
        ndev = int(np.count_nonzero(off))
        self.deviation = ndev / (hi - lo)
        if ndev <= _CONSTANT_DEVIATIONS * (hi - lo):
            self.mode = "constant"
            self.c = float(modal.view(np.float64))
            self.dev = lo + np.flatnonzero(off)
            self.wdev = w[self.dev - lo]
        else:
            self.mode = "vector"
            self.w = w

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, weights)`` the plane was built from (ascending rows)."""
        if self.mode == "gather":
            return self.idx, self.wi
        lo, hi = self.lo, self.hi
        if self.mode == "vector":
            w = self.w
        else:
            w = np.full(hi - lo, self.c)
            w[self.dev - lo] = self.wdev
        keep = np.ones(hi - lo, dtype=bool)
        keep[self.holes - lo] = False
        return lo + np.flatnonzero(keep), w[keep]

    def _span(self, r0: int, r1: int) -> Optional[Tuple[int, int]]:
        """The slice plane's rows ``[lo, hi)`` inside ``[r0, r1)``; ``None`` if none."""
        lo, hi = max(self.lo, r0), min(self.hi, r1)
        return (lo, hi) if lo < hi else None

    def _deviations(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """A constant plane's deviation rows in ``[lo, hi)`` and their weights."""
        dev, wdev = self.dev, self.wdev
        if len(dev) and (lo > self.lo or hi < self.hi):
            a, b = dev.searchsorted((lo, hi))
            dev, wdev = dev[a:b], wdev[a:b]
        return dev, wdev

    def _gather(self, x: np.ndarray, out: np.ndarray, r0: int, r1: int) -> None:
        """``out[..., r - r0] += w_r * x[..., r + offset]`` for the plane's rows in the tile."""
        idx, wi = self.idx, self.wi
        if r0 > self.lo or self.hi > r1:
            a, b = idx.searchsorted((r0, r1))
            idx, wi = idx[a:b], wi[a:b]
        out[_last(idx - r0, out)] += wi * x[_last(idx + self.offset, x)]

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray, r0: int, r1: int) -> None:
        """``out[..., r - r0] += w_r * x[..., r + offset]`` over this plane's rows in ``[r0, r1)``.

        *scratch* is a tile-sized buffer: a product lands there instead
        of a freshly mapped temporary, and stays in cache for the add.
        """
        if self.mode == "gather":
            self._gather(x, out, r0, r1)
            return
        span = self._span(r0, r1)
        if span is None:
            return
        lo, hi = span
        o = self.offset
        xs = x[..., lo + o : hi + o]
        sl = out[..., lo - r0 : hi - r0]
        if self.mode == "vector":
            t = scratch[..., : hi - lo]
            np.multiply(self.w[lo - self.lo : hi - self.lo], xs, out=t)
            np.add(sl, t, out=sl)
            return
        dev, wdev = self._deviations(lo, hi)
        if len(dev):
            at = _last(dev - r0, out)
            keep = out[at]
        c = self.c
        if c == -1.0:
            np.subtract(sl, xs, out=sl)
        elif c == 1.0:
            np.add(sl, xs, out=sl)
        else:
            t = scratch[..., : hi - lo]
            np.multiply(xs, c, out=t)
            np.add(sl, t, out=sl)
        if len(dev):
            # keep + w·x: the vector plane's own operations on these rows.
            t = x[_last(dev + o, x)]
            t *= wdev
            t += keep
            out[at] = t

    def write(self, x: np.ndarray, out: np.ndarray, r0: int, r1: int) -> None:
        """``out = this plane's product`` on rows ``[r0, r1)`` — the first-plane fast path.

        Bitwise the zero-initialised accumulate for every product value
        except an exact ``-0.0``, where the fold ``0.0 + (-0.0)`` would
        have flipped the sign — a zero-sign difference of the kind the
        module contract already carries.
        """
        if self.mode == "gather":
            out[...] = 0.0
            self._gather(x, out, r0, r1)
            return
        span = self._span(r0, r1)
        if span is None:
            out[...] = 0.0
            return
        lo, hi = span
        o = self.offset
        out[..., : lo - r0] = 0.0
        out[..., hi - r0 :] = 0.0
        xs = x[..., lo + o : hi + o]
        sl = out[..., lo - r0 : hi - r0]
        if self.mode == "vector":
            np.multiply(self.w[lo - self.lo : hi - self.lo], xs, out=sl)
            return
        np.multiply(xs, self.c, out=sl)
        dev, wdev = self._deviations(lo, hi)
        if len(dev):
            t = x[_last(dev + o, x)]
            t *= wdev
            out[_last(dev - r0, out)] = t


def _last(idx: np.ndarray, a: np.ndarray):
    """Index *idx* along *a*'s last axis.

    Bare for a 1-D *a*: NumPy's fancy-index fast path takes it about 3×
    quicker than ``a[..., idx]``, which the deviation-row fix-ups feel.
    """
    return idx if a.ndim == 1 else (Ellipsis, idx)


def plane_modes(planes: List[DiagonalPlane]) -> dict:
    """Decision telemetry of a plane list: how many run constant, and why not.

    ``deviation`` maps each slice plane's offset to its deviation-row
    fraction — a vector plane's is above :data:`_CONSTANT_DEVIATIONS`.
    """
    return {
        "planes": len(planes),
        "constant": sum(d.mode == "constant" for d in planes),
        "gather": sum(d.mode == "gather" for d in planes),
        "deviation": {
            str(d.offset): round(d.deviation, 4) for d in planes if d.deviation is not None
        },
    }


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


def plane_residual(
    planes: List[DiagonalPlane], x: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``out = b - (sum of planes applied to x)``, one row tile at a time.

    Each tile's product is subtracted from *b*'s tile while it is still
    in cache — bitwise the whole-vector product and subtraction.  *b*
    broadcasts against *out*; *scratch* is ``tile_shape(out.shape)``;
    *out* must not alias *x*.
    """
    for lo, hi in row_tiles(out.shape[-1]):
        t = out[..., lo:hi]
        accumulate_planes(planes, x, t, scratch[..., : hi - lo], lo, hi)
        np.subtract(b[..., lo:hi], t, out=t)
    return out
