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

**When the layout applies.**  :func:`plane_gate` accepts a matrix whose
distinct offsets number at most :data:`MAX_OFFSETS` and whose nonzeros
fill at least :data:`MIN_FILL` of the ``offsets × rows`` plane.
Chem97ZtZ's scattered structure and s1rmt3m1's wide band fail it.

**Exactness.**  :func:`accumulate_planes` applies planes in the order
given; in ascending-offset order that is ascending column order, the
order in which the packed CSR kernels
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

from typing import List, Tuple

import numpy as np

__all__ = [
    "MAX_OFFSETS",
    "MIN_FILL",
    "DiagonalPlane",
    "entry_offsets",
    "plane_gate",
    "accumulate_planes",
]

#: Most distinct column offsets the plane layout takes (27-point = 27).
MAX_OFFSETS = 32

#: Minimum nnz / (offsets × rows) fill of the diagonal-storage plane.
MIN_FILL = 0.5

#: A plane whose nonzero rows cover at least this fraction of its
#: trimmed row range runs as one contiguous slice multiply-add; sparser
#: planes (e.g. block-crossing couplings) use a fancy-indexed update.
_DENSE_SLICE = 0.25


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
    weights.
    """

    __slots__ = ("offset", "lo", "hi", "w", "idx", "wi")

    def __init__(self, offset: int, rows: np.ndarray, vals: np.ndarray):
        self.offset = offset
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        if len(rows) >= _DENSE_SLICE * (hi - lo):
            # Dense within its trimmed range: one contiguous multiply-add.
            # Holes carry weight 0.0 (exact for finite operands; zero-sign
            # caveat in the module docstring).
            w = np.zeros(hi - lo)
            w[rows - lo] = vals
            self.lo, self.hi, self.w = lo, hi, w
            self.idx = self.wi = None
        else:
            self.lo = self.hi = 0
            self.w = None
            self.idx, self.wi = rows, vals

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """``out[..., r] += w_r * x[..., r + offset]`` over this plane.

        *scratch* is a buffer shaped like *out* — the product lands there
        instead of a freshly mapped temporary, which is what keeps the hot
        sweep free of per-call page faults.
        """
        o = self.offset
        if self.w is not None:
            lo, hi = self.lo, self.hi
            t = scratch[..., lo:hi]
            np.multiply(self.w, x[..., lo + o : hi + o], out=t)
            sl = out[..., lo:hi]
            np.add(sl, t, out=sl)
        else:
            out[..., self.idx] += self.wi * x[..., self.idx + o]

    def write(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out = this plane's product`` — the first-plane fast path.

        Bitwise the zero-initialised accumulate for every product value
        except an exact ``-0.0``, where the fold ``0.0 + (-0.0)`` would
        have flipped the sign — a zero-sign difference of the kind the
        module contract already carries.
        """
        o = self.offset
        if self.w is not None:
            out[..., : self.lo] = 0.0
            out[..., self.hi :] = 0.0
            np.multiply(
                self.w, x[..., self.lo + o : self.hi + o], out=out[..., self.lo : self.hi]
            )
        else:
            out[...] = 0.0
            out[..., self.idx] += self.wi * x[..., self.idx + o]


def accumulate_planes(
    planes: List[DiagonalPlane], x: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``out = sum of planes applied to x``, in list order, first plane writing.

    *x* is ``(..., ncols)`` and *out* ``(..., nrows)``; planes broadcast
    over leading axes, so an ``(R, n)`` stack runs the 1-D arithmetic per
    row.  *out* must not alias *x*; *scratch* is a buffer shaped like
    *out*.
    """
    if not planes:
        out[...] = 0.0
        return out
    planes[0].write(x, out)
    for d in planes[1:]:
        d.apply(x, out, scratch)
    return out
