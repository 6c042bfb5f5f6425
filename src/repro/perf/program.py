"""Level programs: a frozen schedule's block updates as precompiled dependency levels.

On the paper's GPU there is no barrier between iterations: a thread block
of the next sweep starts as soon as it is scheduled, and only reads of
already finished neighbours are ordered (§3.3, Eq. (4)).  A schedule
without draws — no per-entry races, no deferred writes — is a fixed,
straight-line sequence of block updates, so that ordering can be worked
out once.  :class:`LevelProgram` compiles such a sequence, any number of
sweeps in any orders, into dependency levels of independent updates:

* each update goes to the lowest level that respects every
  read-after-write (it reads the version of every block it couples to,
  and of its own block, that the sequence gives it), write-after-read (no
  later writer of a block it reads may run before it reads) and
  write-after-write (successive updates of one block, ordered by the
  read-after-write on the block's own rows) — across sweep boundaries too;
* within a level, every read comes before any write;
* each level's operands are precomputed — the row slice or index, the
  level's rows of the plan's padded-ELL panels
  (:meth:`repro.perf.SweepPlan.panel_rows`) rebased to the level, the
  diagonal — so running a level is arithmetic only.

The result is bitwise the per-block loop: every row is updated by the
same IEEE operations, summed in the same strict left-to-right order
(:func:`_row_sums`), on the same operand values.

:class:`repro.krylov.AsyncSweepPreconditioner` runs one whole application
(``sweeps`` forward plus ``sweeps`` reverse) as one program, cached on the
plan (:meth:`repro.perf.SweepPlan.level_program`).  The module also holds
the kernels it shares with :class:`repro.perf.LevelSweepExecutor`: the
lane fold :func:`_row_sums`, the level relaxation :func:`_longest_paths`
and the local Jacobi sweeps :func:`_jacobi_sweeps`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._util import cumulative_segments

__all__ = ["LevelProgram"]


def _row_sums(vals: np.ndarray) -> np.ndarray:
    """Strict left-to-right sum over the lanes of a ``(W, m)`` panel product.

    The packed ELL kernel's order, one addition at a time; accumulates
    into ``vals[0]``, which it returns.

    ``np.add.reduce(vals, axis=0)`` is not a drop-in replacement: NumPy
    does not promise a summation order for reductions, and on NumPy 2.4.6
    it sums in a different order for ``m = 1``, and for Fortran-ordered
    panels once ``W >= 8`` — which changes the last bits of the result.
    """
    acc = vals[0]
    for row in vals[1:]:
        acc += row
    return acc


def _longest_paths(nnodes: int, src: list, dst: list, w: list) -> np.ndarray:
    """Smallest levels with ``level[dst] >= level[src] + w`` on every edge.

    Edges come as lists of arrays.  They form a DAG (each points forward
    in its lane's order), so synchronous relaxation settles after at most
    its longest path; levels only grow, so a round that leaves their sum
    unchanged changed none.
    """
    lv = np.zeros(nnodes, dtype=np.int64)
    if not src:
        return lv
    src, dst, w = np.concatenate(src), np.concatenate(dst), np.concatenate(w)
    total = 0
    while len(src):
        np.maximum.at(lv, dst, lv[src] + w)
        grown = int(lv.sum())
        if grown == total:
            break
        total = grown
    return lv


def _jacobi_sweeps(s, zbuf, z, lcols, ldata, d, vals, vrows, k: int, omega: float) -> np.ndarray:
    """*k* Jacobi sweeps ``z ← (s − L z) / d`` over padded-ELL panels, in place.

    *zbuf* holds the iterate ``z`` — a view of some of its slots, shaped
    like *s* and *d* — and the pads' ``+0.0`` in its last slot, which
    every pad of *lcols* reaches (directly or clipped).  *vals* is the
    *lcols*-shaped product buffer and *vrows* its lanes — *vals* itself,
    or a prepared list of its row views.  Every step is one IEEE
    operation in the order of the reference loop's block update
    (:class:`repro.perf.ReferenceSweepExecutor`): ``z ← (s − L z) / d``,
    then ``(1 − ω) z + ω z_new`` for ω ≠ 1.  *lcols* ``None`` marks
    panels of one all-pad lane (no local entries): their product is
    ``+0.0 × ldata[0]`` whatever the iterate, and *ldata* is that product.
    Returns ``z``.
    """
    for _ in range(k):
        if lcols is None:
            acc = np.subtract(s, ldata, out=vrows[0])
        else:
            zbuf.take(lcols, out=vals, mode="clip")
            vals *= ldata
            acc = np.subtract(s, _row_sums(vrows), out=vrows[0])
        if omega != 1.0:
            acc /= d
            acc *= omega
            z *= 1.0 - omega
            z += acc
        else:
            np.divide(acc, d, out=z)
    return z


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``starts[i] : starts[i] + sizes[i]``."""
    off = cumulative_segments(sizes)
    return np.repeat(starts - off[:-1], sizes) + np.arange(off[-1], dtype=np.int64)


class LevelProgram:
    """A straight-line sequence of block updates, compiled into dependency levels.

    Parameters
    ----------
    plan:
        The :class:`repro.perf.SweepPlan` of the decomposition; it must
        have padded panels (see :func:`repro.perf.backends.resolve_backend`).
    orders:
        One block order per sweep; the program runs the sweeps one after
        another, each block update reading live memory (γ = 1).
    local_iterations, omega:
        *k* and ω of every block update.

    Attributes
    ----------
    nlevels:
        Number of dependency levels — what one :meth:`run` pays the
        per-level overhead for.

    A program owns its work buffers (one per level size), so one program
    runs one application at a time.
    """

    def __init__(
        self,
        plan,
        orders: Sequence[np.ndarray],
        local_iterations: int,
        omega: float,
    ):
        view = plan.view
        n, nb = view.n, view.nblocks
        starts = view.boundaries[:-1]
        sizes = np.diff(view.boundaries)
        blk = np.concatenate([np.asarray(o, dtype=np.int64) for o in orders])
        self.n = n
        self.k = int(local_iterations)
        self.omega = float(omega)

        lv = self._update_levels(plan, blk, nb)
        self.nlevels = int(lv.max()) + 1

        # Each level's block set, ascending; equal sets share operands.
        by_level = np.lexsort((blk, lv))
        cut = cumulative_segments(np.bincount(lv, minlength=self.nlevels))
        sets = [tuple(blk[by_level[a:b]].tolist()) for a, b in zip(cut[:-1], cut[1:])]
        operands = self._operands(plan, list(dict.fromkeys(sets)), n, starts, sizes)
        self._work = np.zeros(n + 1)
        buffers = {}
        self._levels = []
        for key in sets:
            rows, lcols, ldata, d, ecols, edata = operands[key]
            m = len(d)
            if m not in buffers:
                vals, evals, zbuf = np.empty(lcols.shape), np.empty(ecols.shape), np.zeros(m + 1)
                # The panel buffers' row views are listed once, for the folds.
                buffers[m] = (vals, list(vals), evals, list(evals), zbuf, zbuf[:m], np.empty(m))
            self._levels.append(
                (rows, isinstance(rows, slice), lcols, ldata, d, ecols, edata) + buffers[m]
            )

    @staticmethod
    def _update_levels(plan, blk: np.ndarray, nb: int) -> np.ndarray:
        """The lowest dependency level of every update.

        Update *u* of block *b* reads the latest earlier write of *b* and
        of every block its external part couples to (read-after-write: one
        level above), and must read before the next write of each of those
        blocks (write-after-read: no level above it).
        """
        U = len(blk)
        idx = np.arange(U, dtype=np.int64)
        # Writes grouped by block, in sequence order within each block.
        wkey = np.sort(blk * U + idx)
        writer = wkey % U
        same = np.diff(wkey // U) == 0
        src = [writer[:-1][same]]  # the previous write of the own block
        dst = [writer[1:][same]]
        wgt = [np.ones(len(src[0]), dtype=np.int64)]

        readers, owners = plan.coupling
        cptr = cumulative_segments(np.bincount(readers, minlength=nb))
        cnt = cptr[blk + 1] - cptr[blk]
        pu = np.repeat(idx, cnt)
        pj = owners[_ranges(cptr[blk], cnt)]
        # First write of block j at or after u (u itself writes another block).
        q = np.searchsorted(wkey, pj * U + pu)
        has_prev = q > 0
        has_prev[has_prev] = wkey[q[has_prev] - 1] // U == pj[has_prev]
        has_next = q < U
        has_next[has_next] = wkey[q[has_next]] // U == pj[has_next]
        src += [writer[q[has_prev] - 1], pu[has_next]]
        dst += [pu[has_prev], writer[q[has_next]]]
        wgt += [
            np.ones(int(has_prev.sum()), dtype=np.int64),
            np.zeros(int(has_next.sum()), dtype=np.int64),
        ]
        return _longest_paths(U, src, dst, wgt)

    @staticmethod
    def _operands(plan, sets, n: int, starts: np.ndarray, sizes: np.ndarray) -> dict:
        """``(rows, lcols, ldata, diag, ecols, edata)`` of every update set.

        One gather of the plan's panels serves all sets: rows in set
        order, local columns rebased to the set's concatenated rows.  Pads
        point at the exact ``+0.0`` slot of their operand — the set's local
        work vector, or the work vector — so the gathers need no clipping.
        """
        gb = np.array([b for blocks in sets for b in blocks], dtype=np.int64)
        nset = np.array([len(blocks) for blocks in sets], dtype=np.int64)
        first = cumulative_segments(nset)[:-1]
        gsz = sizes[gb]
        bounds = cumulative_segments(np.add.reduceat(gsz, first))
        # Row offset of every block inside its set's concatenated rows.
        within = cumulative_segments(gsz)[:-1]
        within -= np.repeat(within[first], nset)
        rows = _ranges(starts[gb], gsz)
        g_lcols, g_ldata = plan.panel_rows(rows, external=False)
        g_ecols, g_edata = plan.panel_rows(rows, external=True)
        pad = g_lcols == plan.PAD_SENTINEL
        g_lcols += np.repeat(within, gsz)
        np.copyto(g_lcols, np.repeat(np.diff(bounds), np.diff(bounds)), where=pad)
        np.copyto(g_ecols, n, where=g_ecols == plan.PAD_SENTINEL)
        g_diag = plan.diag[rows]
        out = {}
        for blocks, a, b in zip(sets, bounds[:-1], bounds[1:]):
            if blocks[-1] - blocks[0] == len(blocks) - 1:
                r = slice(int(starts[blocks[0]]), int(starts[blocks[0]]) + int(b - a))
            else:
                r = rows[a:b]
            out[blocks] = (r, g_lcols[:, a:b], g_ldata[:, a:b], g_diag[a:b], g_ecols[:, a:b], g_edata[:, a:b])
        return out

    def run(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Run the program on iterate *x* (in place) with right-hand side *b*."""
        n, k, omega = self.n, self.k, self.omega
        XW = self._work
        XW[:n] = x
        # Every gather index is in range; "wrap" is the mode that then
        # writes *out* directly (the default "raise" buffers it).
        for level in self._levels:
            rows, contiguous, lcols, ldata, d, ecols, edata, vals, vrows, evals, erows, zbuf, z, s = level
            XW.take(ecols, out=evals, mode="wrap")
            evals *= edata
            ext = _row_sums(erows)
            if contiguous:
                np.subtract(b[rows], ext, out=s)
                z[...] = XW[rows]
            else:
                b.take(rows, out=s)
                s -= ext
                XW.take(rows, out=z)
            XW[rows] = _jacobi_sweeps(s, zbuf, z, lcols, ldata, d, vals, vrows, k, omega)
        x[...] = XW[:n]
        return x
