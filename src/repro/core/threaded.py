"""Truly asynchronous execution on CPU threads.

The seeded engine in :mod:`repro.core.engine` *models* asynchronism so
experiments are reproducible.  This module is the other end of the
spectrum: **genuinely chaotic** iteration, with one OS thread per simulated
"multiprocessor", all hammering one shared NumPy iterate with no locks and
no barriers.  NumPy kernels release the GIL, so reads and writes from
different workers really do interleave nondeterministically — the honest
CPU analogue of the paper's CUDA kernels, useful to validate that nothing
about the *simulated* schedule model is load-bearing for convergence.

Semantics per worker: loop over its assigned blocks; per block, gather the
off-block contribution from the live shared iterate (racy by design),
run *k* local Jacobi sweeps, write back.  A monitor samples the (racily
computed) residual; when a sample dips under tolerance it pauses the
workers and checks the residual of the quiet iterate, resuming them on a
miss.  The run ends on a race-free pass, divergence, or when every worker
has spent its pass budget.  The §2.2 well-posedness conditions hold by
construction: every block belongs to exactly one worker that updates it
every pass (condition 1), and staleness is bounded by one worker pass
(condition 2) as long as every worker keeps making progress.

This engine is **not reproducible** run to run — that is the point.  Tests
assert outcome properties (convergence, well-posedness, accuracy), never
exact histories.

Two honest CPython caveats, both *measured* rather than hidden: (a) the
GIL means workers interleave at the switch-interval granularity, so at toy
problem sizes many passes execute against frozen neighbours and the
per-pass rate degrades (the bounded-staleness rate penalty of asynchronous
theory, amplified); (b) effective parallel speed-up is limited to the
NumPy-kernel fraction that releases the GIL.  At the paper's problem
sizes (n ≈ 10⁴) behaviour matches the seeded engine closely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..runtime import RunLoop, StopRun
from ..runtime.recorder import RunRecorder
from ..solvers.base import IterativeSolver, SolveResult, StoppingCriterion
from ..sparse import BlockRowView, CSRMatrix

__all__ = ["ThreadedAsyncSolver"]


@dataclass
class _SharedState:
    """State shared across workers (deliberately lock-free where racy)."""

    x: np.ndarray
    stop: threading.Event = field(default_factory=threading.Event)
    #: Completed passes per worker (written by the owner only).
    passes: Optional[np.ndarray] = None


class ThreadedAsyncSolver(IterativeSolver):
    """async-(k) on real threads — genuinely nondeterministic.

    Parameters
    ----------
    local_iterations:
        *k* in async-(k).
    block_size:
        Rows per block.
    workers:
        Thread count (the "multiprocessors"); blocks are dealt round-robin.
    omega:
        Local relaxation weight (τ for ρ(B) > 1 systems).
    stopping:
        Tolerance / budget.  ``maxiter`` bounds each worker's number of
        passes over its blocks (the analogue of global iterations).
    poll_interval:
        Seconds between the monitor's residual checks.
    switch_interval:
        CPython thread-switch interval (seconds) installed for the
        duration of the solve.  The default 5 ms interval would let each
        worker burn ~dozens of passes against *frozen* neighbours per GIL
        slot — coarse block-coordinate descent rather than asynchronous
        iteration; 0.1 ms restores fine-grained interleaving.  The previous
        value is restored afterwards.
    recorder:
        Optional :class:`repro.runtime.RunRecorder` telemetry sink for the
        monitor's residual samples.

    Examples
    --------
    >>> from repro import get_matrix, default_rhs
    >>> from repro.core.threaded import ThreadedAsyncSolver
    >>> A = get_matrix("Trefethen_2000"); b = default_rhs(A)
    >>> result = ThreadedAsyncSolver(local_iterations=5, workers=4).solve(A, b)
    >>> result.converged
    True
    """

    name = "threaded-async"

    def __init__(
        self,
        local_iterations: int = 1,
        block_size: int = 448,
        *,
        workers: int = 4,
        omega: float = 1.0,
        stopping: Optional[StoppingCriterion] = None,
        poll_interval: float = 1e-3,
        switch_interval: float = 1e-4,
        recorder: Optional[RunRecorder] = None,
    ):
        if local_iterations < 1:
            raise ValueError("local_iterations must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if omega <= 0:
            raise ValueError("omega must be positive")
        if switch_interval <= 0:
            raise ValueError("switch_interval must be positive")
        super().__init__(stopping or StoppingCriterion(maxiter=500), recorder=recorder)
        self.local_iterations = local_iterations
        self.block_size = block_size
        self.workers = workers
        self.omega = omega
        self.poll_interval = poll_interval
        self.switch_interval = switch_interval
        self.name = f"threaded-async-({local_iterations})"

    # ------------------------------------------------------------------ #

    def _worker(self, wid: int, blocks, b: np.ndarray, state: _SharedState) -> None:
        x = state.x  # the shared iterate — all reads/writes are racy
        k = self.local_iterations
        omega = self.omega
        while state.passes[wid] < self.stopping.maxiter:
            if state.stop.is_set():
                break
            for blk in blocks:
                rows = blk.rows
                # Racy gather: other workers may write mid-read. That is
                # the chaotic shift function, for real.
                s = b[rows] - blk.external.matvec(x)
                for _ in range(k):
                    old = x[rows]
                    new = (s - blk.local_off.matvec(x)) / blk.diag
                    if omega != 1.0:
                        new = (1.0 - omega) * old + omega * new
                    x[rows] = new
            state.passes[wid] += 1
        # A finished worker lets the others keep refining until the
        # monitor stops the run; it simply exits (its components stay).

    def _view(self, A: CSRMatrix) -> BlockRowView:
        return BlockRowView(A, block_size=self.block_size)

    def _run(
        self, A: CSRMatrix, b: np.ndarray, x: np.ndarray, view: BlockRowView
    ) -> SolveResult:
        """Run the threaded iteration until tolerance or pass budget."""
        assignment: List[List] = [[] for _ in range(self.workers)]
        for blk in view.blocks:
            assignment[blk.index % self.workers].append(blk)
        # Workers with no blocks would idle forever at tiny sizes; the
        # pass counters are sized to the *filtered* assignment so
        # worker_passes always has exactly info["workers"] entries (no
        # trailing zeros for threads that were never spawned).
        assignment = [a for a in assignment if a]
        state = _SharedState(x=x)
        state.passes = np.zeros(len(assignment), dtype=np.int64)

        b_norm = float(np.linalg.norm(b))
        threshold = self.stopping.threshold(b_norm)
        residual0 = float(np.linalg.norm(A.residual(x, b)))
        residuals = [residual0]
        converged = self.stopping.converged(residual0, threshold)

        threads: List[threading.Thread] = []

        def start() -> None:
            # Workers with passes left (re)start; the pass counters carry on.
            state.stop.clear()
            threads[:] = [
                threading.Thread(target=self._worker, args=(w, blocks, b, state), daemon=True)
                for w, blocks in enumerate(assignment)
                if state.passes[w] < self.stopping.maxiter
            ]
            for t in threads:
                t.start()

        def halt() -> None:
            state.stop.set()
            for t in threads:
                t.join()

        if not converged:
            import dataclasses
            import sys

            previous_switch = sys.getswitchinterval()
            sys.setswitchinterval(self.switch_interval)
            start()

            def step(x, it):
                # The monitor performs no numerical work: workers own the
                # iterate; each "step" waits one polling interval (ending
                # the run once every worker exhausted its pass budget) and
                # the loop then samples the racy residual.
                if all(not t.is_alive() for t in threads):
                    raise StopRun("workers-exhausted")
                time.sleep(self.poll_interval)

            def sample(x) -> float:
                res = float(np.linalg.norm(A.residual(x, b)))
                if self.stopping.converged(res, threshold):
                    # A sample taken while workers write can dip under the
                    # threshold while the iterate does not: check the
                    # paused workers' iterate, and resume them on a miss.
                    halt()
                    res = float(np.linalg.norm(A.residual(x, b)))
                    if not self.stopping.converged(res, threshold):
                        start()
                return res

            # The monitor's pass budget lives with the workers, not here:
            # it keeps sampling until a race-free pass, divergence, or
            # worker exhaustion ends the run.
            monitor = RunLoop(
                dataclasses.replace(self.stopping, maxiter=sys.maxsize),
                recorder=self.recorder,
            )
            try:
                outcome = monitor.run(
                    x,
                    step,
                    sample,
                    b_norm=b_norm,
                    method=self.name,
                    r0=residual0,
                )
            finally:
                halt()
                sys.setswitchinterval(previous_switch)
            residuals = list(outcome.residuals)
            # Final, race-free residual.
            residuals.append(float(np.linalg.norm(A.residual(x, b))))
            converged = self.stopping.converged(residuals[-1], threshold)
            if self.recorder is not None:
                self.recorder.record_residual(outcome.sweeps, residuals[-1])
                self.recorder.annotate(
                    workers=len(assignment),
                    worker_passes=state.passes.tolist(),
                    final_residual=residuals[-1],
                )

        return SolveResult(
            x=x,
            residuals=np.array(residuals),
            converged=converged,
            method=self.name,
            b_norm=b_norm,
            info={
                "diverged": bool(self.stopping.diverged(residuals[-1])),
                "workers": len(assignment),
                "worker_passes": state.passes.copy(),
                "nblocks": view.nblocks,
            },
        )
