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
  It *is* async-(q) with the ``"synchronous"`` schedule: every iteration
  is one :class:`repro.core.AsyncEngine` sweep in that order, so it runs
  the engine's whole-sweep executors (stencil, or one-level ``levels``).

With the GPU schedule async-(k) interleaves blocks and typically
converges a little faster per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.engine import AsyncEngine
from ..core.schedules import AsyncConfig
from ..partition import Partition, make_partition
from ..sparse import BlockRowView, CSRMatrix
from .base import IterativeSolver, StoppingCriterion

__all__ = ["BlockJacobiSolver"]


@dataclass
class _BJState:
    view: BlockRowView
    b: np.ndarray
    #: Per-block LU factors and the new iterate (exact inner).
    lu: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    scratch: Optional[np.ndarray] = None
    #: The synchronous async-(q) engine (jacobi inner).
    engine: Optional[AsyncEngine] = None


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
        report the solution in original row order.  An ``+oK`` overlap
        suffix is refused at solve time: overlap belongs to the async
        solve (async-RAS).
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
        if part.overlap > 0:
            raise ValueError(
                "BlockJacobiSolver solves disjoint blocks; drop the '+oK' suffix "
                f"from partition {part.spec!r} (overlap belongs to the async solve)"
            )
        return BlockRowView(A, partition=part)

    def _setup(self, A: CSRMatrix, b: np.ndarray, view: BlockRowView) -> _BJState:
        if self.inner == "jacobi":
            config = AsyncConfig(
                order="synchronous", local_iterations=self.inner_sweeps, block_size=self.block_size
            )
            return _BJState(view=view, b=b, engine=AsyncEngine(view, b, config))

        import scipy.linalg

        lu = []
        for blk in view.blocks:
            # Dense diagonal block: local_off covers the off-diagonal
            # in-block entries (global column space -> slice it down).
            size = blk.nrows
            dense = blk.local_off.to_dense()[:, blk.start : blk.stop]
            dense[np.arange(size), np.arange(size)] = blk.diag
            lu.append(scipy.linalg.lu_factor(dense, check_finite=False))
        return _BJState(view=view, b=b, lu=lu, scratch=np.empty_like(b))

    def _iterate(self, state: _BJState, x: np.ndarray) -> np.ndarray:
        if state.engine is not None:
            return state.engine.sweep(x)

        import scipy.linalg

        new = state.scratch
        for bid, blk in enumerate(state.view.blocks):
            s = state.b[blk.rows] - blk.external.matvec(x)
            new[blk.rows] = scipy.linalg.lu_solve(state.lu[bid], s, check_finite=False)
        x[:] = new
        return x
