"""``async-(k)``: the block-asynchronous relaxation solver.

:class:`BlockAsyncSolver` wires the pieces together — block decomposition,
wave scheduler, asynchronous engine, optional fault scenario — behind the
package-wide :class:`repro.solvers.IterativeSolver` interface, so its
residual histories are directly comparable with the synchronous baselines'.
It is two hooks on that template: ``_view`` builds the configured
partition and block view, and ``_run`` drives one :class:`AsyncEngine`
through :meth:`AsyncEngine.run` — the engine run loop that serve, the
ensembles and the self-healing solver drive too.

Iteration counting follows the paper's convention (§4.3): one *global
iteration* updates every component once at the outer level, regardless of
how many local Jacobi sweeps (*k*) run inside each block — the local sweeps
"almost come for free" on the hardware, and the timing model
(:mod:`repro.gpu.timing`) prices them accordingly.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..partition import Partition, make_partition
from ..runtime.recorder import RunRecorder
from ..solvers.base import IterativeSolver, SolveResult, StoppingCriterion
from ..sparse import BlockRowView, CSRMatrix
from .engine import AsyncEngine
from .fault import FaultScenario
from .schedules import AsyncConfig, method_tag

__all__ = ["BlockAsyncSolver"]


class BlockAsyncSolver(IterativeSolver):
    """Block-asynchronous relaxation (paper Algorithm 1 / Eq. (4)).

    Parameters
    ----------
    config:
        Full asynchronism configuration; alternatively pass the common
        shortcuts below and a default config is built.
    local_iterations, block_size, seed, omega:
        Shortcuts overriding the corresponding :class:`AsyncConfig` fields
        (ignored if *config* is given).
    fault:
        Optional :class:`FaultScenario` (§4.5 experiments).  With a
        permuting partition, frozen rows are interpreted in partition
        order (the order the blocks actually sweep).
    partition:
        Row-block decomposition: a ``strategy[:param][+oK]`` spec string
        (see :mod:`repro.partition.strategies`) or a ready-made
        :class:`repro.partition.Partition`.  Overrides
        ``config.partition``; the default ``"uniform"`` reproduces the
        historical ``block_size`` cuts bitwise.  An ``+oK`` overlap
        suffix (K > 0) runs asynchronous restricted additive Schwarz
        (async-RAS) sweeps on the extended blocks.  Strategies carrying a
        row permutation (``rcm``, ``clustered``) iterate on the permuted
        system — residual histories are reported in that (partition)
        order, matching a direct solve of the permuted system bitwise —
        while the returned solution is mapped back to original row order.
    stopping:
        Shared stopping rule.
    residual_every:
        Full-residual recording cadence (see
        :class:`repro.runtime.RunLoop`); defaults to
        ``config.residual_every``.
    recorder:
        Optional :class:`repro.runtime.RunRecorder` telemetry sink — also
        attached to the engine so fault/heal events are captured.

    Examples
    --------
    >>> from repro import BlockAsyncSolver, get_matrix, default_rhs
    >>> A = get_matrix("fv1"); b = default_rhs(A)
    >>> result = BlockAsyncSolver(local_iterations=5, seed=42).solve(A, b)
    >>> result.method
    'async-(5)'
    """

    name = "async-(1)"

    def __init__(
        self,
        config: Optional[AsyncConfig] = None,
        *,
        local_iterations: int = 1,
        block_size: int = 128,
        seed=0,
        omega: float = 1.0,
        fault: Optional[FaultScenario] = None,
        partition: Optional[Union[str, Partition]] = None,
        stopping: Optional[StoppingCriterion] = None,
        residual_every: Optional[int] = None,
        recorder: Optional[RunRecorder] = None,
    ):
        if config is None:
            config = AsyncConfig(
                local_iterations=local_iterations,
                block_size=block_size,
                seed=seed,
                omega=omega,
            )
        super().__init__(
            stopping,
            residual_every=(
                config.residual_every if residual_every is None else residual_every
            ),
            recorder=recorder,
        )
        self.config = config
        self.fault = fault
        self.partition = partition if partition is not None else config.partition
        self.name = config.method_name

    def _view(self, A: CSRMatrix) -> BlockRowView:
        part = make_partition(A, self.partition, block_size=self.config.block_size)
        return BlockRowView(A, partition=part)

    def _run(
        self, A: CSRMatrix, b: np.ndarray, x: np.ndarray, view: BlockRowView
    ) -> SolveResult:
        # The partition actually cut names the run: a ``partition=``
        # override with an ``+oK`` suffix is async-RAS.
        self.name = method_tag(self.config.local_iterations, view.partition.overlap)
        engine = AsyncEngine(view, b, self.config, fault=self.fault)
        result = engine.run(
            x,
            stopping=self.stopping,
            residual_every=self.residual_every,
            recorder=self.recorder,
            method=self.name,
        )
        result.info.update(
            {
                "nblocks": view.nblocks,
                "block_size": self.config.block_size,
                "local_iterations": self.config.local_iterations,
                "update_counts": engine.update_counts.copy(),
                "staleness_bound": engine.scheduler.staleness_bound(),
                "off_block_fraction": view.off_block_fraction(),
                "order": self.config.order,
                "partition": view.partition_telemetry(),
            }
        )
        if self.fault is not None:
            result.info["fault"] = self.fault.label
        return result
