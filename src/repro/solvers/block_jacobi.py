"""Synchronous two-stage / block-Jacobi methods.

The paper's async-(k) is the *asynchronous* member of the two-stage family
of Bai, Migallón, Penadés and Szyld (its reference [5]).  This module
provides the synchronous members, which make the cleanest ablation
baselines for "what does the asynchronism itself buy":

* **block-Jacobi** (``inner="exact"``): every block solves its diagonal
  block exactly (dense LU, factorized once) against off-block values frozen
  at the previous iterate;
* **two-stage block-Jacobi** (``inner="jacobi"``, q inner sweeps): the
  blocks' solves are replaced by q Jacobi sweeps — exactly async-(q)'s
  block update, but with all blocks synchronized on the previous iterate.

async-(k) with a ``"synchronous"`` schedule coincides with the two-stage
method (a test fixture); with the GPU schedule it interleaves blocks and
typically converges a little faster per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..partition import Partition, make_partition
from ..sparse import BlockRowView, CSRMatrix
from .base import IterativeSolver, StoppingCriterion

__all__ = ["BlockJacobiSolver", "local_jacobi_sweeps"]


def local_jacobi_sweeps(
    local_off: CSRMatrix,
    diag: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    sweeps: int,
    *,
    omega: float = 1.0,
) -> np.ndarray:
    """*sweeps* Jacobi iterations on one block with the off-block part frozen.

    The shared inner kernel of the two-stage methods and the asynchronous
    engines (Algorithm 1's inner loop): iterate ``z ← (s − L z) / d`` with
    optional ω-relaxation, where *local_off* is the block's in-block
    off-diagonal part in **block-local column numbering**
    (:meth:`repro.sparse.RowBlock.local_off_compressed`) and ``s`` is the
    frozen contribution ``b_block − A_external · x_read``.

    ``s`` and ``z`` broadcast: pass ``(bs,)`` vectors for a single iterate
    or ``(R, bs)`` multi-vectors to advance R replicas at once — the
    multi-vector path is bitwise identical to R separate 1-D calls.  *z*
    is not modified; the final iterate is returned.
    """
    for _ in range(sweeps):
        new = (s - local_off.matvec(z)) / diag
        if omega != 1.0:
            new = (1.0 - omega) * z + omega * new
        z = new
    return z


@dataclass
class _BJState:
    view: BlockRowView
    b: np.ndarray
    lu: Optional[List[Tuple[np.ndarray, np.ndarray]]]  # per-block LU (exact inner)
    scratch: np.ndarray


class BlockJacobiSolver(IterativeSolver):
    """Synchronous block-Jacobi with exact or inner-Jacobi block solves.

    Parameters
    ----------
    block_size:
        Rows per diagonal block.
    inner:
        ``"exact"`` — direct solve of each diagonal block (classical
        block-Jacobi); ``"jacobi"`` — *inner_sweeps* Jacobi iterations on
        the block (two-stage method).
    inner_sweeps:
        Inner iteration count for ``inner="jacobi"``.
    partition:
        Row-block decomposition: a ``strategy[:param]`` spec string (see
        :mod:`repro.partition.strategies`) or a ready-made
        :class:`repro.partition.Partition`; the default ``"uniform"`` is
        bitwise the historical *block_size* cuts.  Permuting strategies
        iterate on the permuted system (histories in partition order) and
        report the solution in original row order.
    """

    name = "block-jacobi"

    def __init__(
        self,
        block_size: int = 128,
        *,
        inner: str = "exact",
        inner_sweeps: int = 5,
        partition: Union[str, Partition] = "uniform",
        stopping: Optional[StoppingCriterion] = None,
        **loop_options,
    ):
        super().__init__(stopping, **loop_options)
        if inner not in ("exact", "jacobi"):
            raise ValueError(f"inner must be 'exact' or 'jacobi', got {inner!r}")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if inner_sweeps < 1:
            raise ValueError("inner_sweeps must be positive")
        self.block_size = block_size
        self.inner = inner
        self.inner_sweeps = inner_sweeps
        self.partition = partition
        self.name = (
            f"block-jacobi({block_size})"
            if inner == "exact"
            else f"two-stage({block_size},q={inner_sweeps})"
        )

    def _view(self, A: CSRMatrix) -> BlockRowView:
        part = make_partition(A, self.partition, block_size=self.block_size)
        return BlockRowView(A, partition=part)

    def _setup(self, A: CSRMatrix, b: np.ndarray, view: BlockRowView) -> _BJState:
        import scipy.linalg

        lu = None
        if self.inner == "exact":
            lu = []
            for blk in view.blocks:
                # Dense diagonal block: local_off covers the off-diagonal
                # in-block entries (global column space -> slice it down).
                size = blk.nrows
                dense = blk.local_off.to_dense()[:, blk.start : blk.stop]
                dense[np.arange(size), np.arange(size)] = blk.diag
                lu.append(scipy.linalg.lu_factor(dense, check_finite=False))
        else:
            # The two-stage iterate runs fused over the whole system
            # (see _iterate); build the stacked kernels outside the
            # timed iterations.
            view.warm_stacked_kernels()
        return _BJState(view=view, b=b, lu=lu, scratch=np.empty_like(b))

    def _iterate(self, state: _BJState, x: np.ndarray) -> np.ndarray:
        view = state.view
        if self.inner == "jacobi":
            # Fused two-stage update: one stacked external SpMV and q
            # stacked Jacobi sweeps advance every block at once — bitwise
            # the per-block loop (the length-class kernels sum each row
            # identically in the restacked and per-block matrices, and the
            # synchronous outer step reads only the previous iterate).
            ext = view.external_matrix().matvec(x, out=state.scratch)
            s_all = np.subtract(state.b, ext, out=ext)
            x[:] = local_jacobi_sweeps(
                view.local_offdiag_matrix(),
                view.diagonal_vector(),
                s_all,
                x,
                self.inner_sweeps,
            )
            return x

        import scipy.linalg

        new = state.scratch
        for bid, blk in enumerate(view.blocks):
            s = state.b[blk.rows] - blk.external.matvec(x)
            new[blk.rows] = scipy.linalg.lu_solve(state.lu[bid], s, check_finite=False)
        x[:] = new
        return x
