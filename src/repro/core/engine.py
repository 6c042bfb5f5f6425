"""The asynchronous execution engine.

This is the software analogue of the paper's CUDA kernel (§3.3): the system
is decomposed into row blocks (:class:`repro.sparse.BlockRowView`), and each
global sweep executes every block once, in a scheduler-determined order,
against the shared iterate ``x``:

1. **Off-block gather** — the block computes
   ``s = b_block − A_external · x_read`` where ``x_read`` is either the
   sweep-start snapshot (that neighbour block is running *concurrently*;
   probability given by the scheduler's effective staleness, derived from
   device occupancy) or live memory (it already finished) — the shift
   function of Eq. (3)/(4), realised stochastically.
2. **Local iterations** — *k* Jacobi sweeps on the block's subdomain with
   the off-block part frozen (Algorithm 1's inner loop); reads and writes
   touch only the block's own rows.
3. **Write visibility** — results are published immediately, or (with the
   configured probability) deferred to the sweep end, modelling write-buffer
   latency.

With the ``"synchronous"`` order (staleness forced to 1) and ``k = 1``, one
sweep is *exactly* one synchronous Jacobi iteration — the engine degrades
gracefully to the textbook method, which the test suite exploits as an
oracle.

Fault injection (§4.5) freezes a set of rows: the affected components are
never recomputed while the failure is active — including inside local
iterations, where their neighbours keep reading the stale values — exactly
the "broken core" semantics of the paper's experiment.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .._util import as_rng, check_vector
from ..perf.backends import make_executor, resolve_backend, whole_sweep_exact
from ..perf.plan import compile_sweep_plan, rhs_preserves_fold
from ..runtime import BatchedRunOutcome, RunLoop, StoppingCriterion
from ..runtime.recorder import RunRecorder
from ..solvers.base import SolveResult
from ..sparse import BlockRowView
from .fault import FaultScenario
from .schedules import AsyncConfig, WaveScheduler, replica_rngs

__all__ = ["AsyncEngine", "BatchedAsyncEngine"]


class _SweepLanes:
    """Lane state and backend dispatch shared by both engines.

    A *lane* is one replica's schedule state — its generator and its
    scheduler — advanced through the shared sweep index.  The executors of
    :mod:`repro.perf.backends` are stateless across sweeps and read the
    lanes at every call (``rngs``, ``schedulers``, ``sweep_index``,
    :meth:`rhs`, ``fault``, :meth:`frozen_blocks`), so one
    executor object serves :class:`AsyncEngine` (R = 1) and
    :class:`BatchedAsyncEngine` alike.  Backend resolution — including the
    ``"ras"`` of an overlapped (``+oK``) partition — is one call for both engines.
    """

    def __init__(
        self,
        view: BlockRowView,
        b: np.ndarray,
        config: AsyncConfig,
        rngs: List[np.random.Generator],
        fault: Optional[FaultScenario] = None,
    ):
        if len(rngs) < 1:
            raise ValueError("nreplicas must be >= 1")
        self.view = view
        self.b = b
        self.config = config
        self.fault = fault
        self.rngs = rngs
        # Scheduler construction consumes RNG ("gpu" pattern pools) from
        # each lane's own stream, exactly as a sequential engine does.
        self.schedulers = [WaveScheduler(view.partition, config, rng) for rng in rngs]
        self.sweep_index = 0
        # The compiled sweep plan is shared with every engine built on this
        # view — index structures are compiled once per decomposition, not
        # per engine (repro.perf).
        self.plan = compile_sweep_plan(view)
        scheduler = self.schedulers[0]
        dispatch = dict(has_fault=fault is not None, rhs_fold_safe=rhs_preserves_fold(b))
        self.backend = resolve_backend(config, scheduler, plan=self.plan, **dispatch)
        self._executor = make_executor(
            self.backend, self.plan, config, scheduler.gamma_profile(),
            whole=whole_sweep_exact(config, scheduler, **dispatch),
        )

    def decisions(self) -> dict:
        """The resolved backend, plus ``levels_mean`` on ``"levels"``.

        ``levels_mean`` is the mean number of dependency levels per sweep
        so far — why a level-executor sweep costs what it does.
        """
        out = {"backend": self.backend}
        if self.backend == "levels":
            out["levels_mean"] = self._executor.levels_mean
        return out

    def rhs(self, r: int) -> np.ndarray:
        """Right-hand side of lane *r* (shared, or its row of a multi-rhs stack)."""
        return self.b[r] if self.b.ndim == 2 else self.b

    def frozen_blocks(self) -> Optional[List[np.ndarray]]:
        """Per-block local indices of fault-frozen rows, or ``None``."""
        return None


class AsyncEngine(_SweepLanes):
    """Executes block-asynchronous sweeps over a shared iterate.

    Parameters
    ----------
    view:
        Precomputed block decomposition of the system matrix.
    b:
        Right-hand side.  Kept by reference: executors read it at every
        sweep, so callers may update it in place between sweeps.
    config:
        Asynchronism configuration (ordering, staleness, local iterations).
    fault:
        Optional failure scenario.
    rng:
        Override generator; defaults to a fresh one from ``config.seed``.

    Attributes
    ----------
    update_counts:
        Per-block count of completed block updates — the data behind the
        Chazan–Miranker condition (1) check.
    sweep_index:
        Number of completed global sweeps.
    backend:
        Resolved sweep-execution backend (see :mod:`repro.perf`):
        ``"ras"`` on an overlapped (``+oK``) partition; otherwise, with
        ``config.backend="auto"``, ``"stencil"`` where the matrix passes
        the offset-plane gate and a whole sweep is bitwise the reference
        loop — snapshot-read regimes (γ ≡ 0) and all-deferred writes, with
        no fault — ``"levels"`` (the block loop as dependency levels, one
        level per sweep in those regimes) everywhere else, and
        ``"reference"`` (the per-block loop) under a fault, where a row
        outgrows the level panels, or when forced.
    plan:
        The compiled :class:`repro.perf.SweepPlan`, shared by every engine
        built on the same :class:`~repro.sparse.BlockRowView`.
    """

    def __init__(
        self,
        view: BlockRowView,
        b: np.ndarray,
        config: AsyncConfig,
        *,
        fault: Optional[FaultScenario] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.rng = rng if rng is not None else as_rng(config.seed)
        #: Optional telemetry sink (:class:`repro.runtime.RunRecorder`):
        #: fault activation/clearing and healing are reported as events.
        self.recorder: Optional[RunRecorder] = None
        # Fault support: per-block local indices of frozen rows, rebuilt
        # whenever the active frozen mask changes.
        self._frozen_mask: Optional[np.ndarray] = None
        self._frozen_local: List[np.ndarray] = []
        self._frozen_reported = False
        # Healed components: reassigned to healthy cores (self-healing
        # recovery, repro.core.recovery) — exempt from any future fault.
        self._healed = np.zeros(view.n, dtype=bool)
        super().__init__(view, check_vector(b, view.n, "b"), config, [self.rng], fault)
        self.scheduler = self.schedulers[0]
        self.update_counts = np.zeros(view.nblocks, dtype=np.int64)

    # ------------------------------------------------------------------ #

    def heal_rows(self, rows: np.ndarray) -> None:
        """Permanently exempt *rows* from the fault (reassignment)."""
        rows = np.asarray(rows, dtype=np.int64)
        self._healed[rows] = True
        if self.recorder is not None:
            self.recorder.record_event(self.sweep_index, "heal", rows=int(len(rows)))

    def _refresh_fault_state(self) -> None:
        mask = self.fault.frozen_rows(self.sweep_index, self.view.n) if self.fault else None
        if mask is not None and self._healed.any():
            mask = mask & ~self._healed
        prev = self._frozen_mask
        if (mask is None) != (prev is None) or (
            mask is not None and prev is not None and not np.array_equal(mask, prev)
        ):
            self._frozen_mask = mask
            if mask is None:
                self._frozen_local = []
            else:
                self._frozen_local = [
                    np.flatnonzero(mask[blk.rows]) for blk in self.view.blocks
                ]
            if self.recorder is not None:
                frozen = 0 if mask is None else int(mask.sum())
                if frozen or self._frozen_reported:
                    self.recorder.record_event(
                        self.sweep_index,
                        "fault-active" if frozen else "fault-cleared",
                        frozen_rows=frozen,
                        fault=self.fault.kind if self.fault else None,
                    )
                self._frozen_reported = frozen > 0

    def frozen_blocks(self) -> Optional[List[np.ndarray]]:
        self._refresh_fault_state()
        return self._frozen_local if self._frozen_mask is not None else None

    def sweep(self, x: np.ndarray) -> np.ndarray:
        """One global iteration: every block updated once, in schedule order.

        Each off-block component a block reads is, independently with the
        scheduler's freshness fraction γ, a value written earlier in this
        same sweep ("that neighbour finished before my read") and otherwise
        the sweep-start snapshot ("it ran concurrently with me").  γ = 0
        everywhere makes the sweep a synchronous block-Jacobi step; γ = 1 a
        block Gauss-Seidel sweep in schedule order; the GPU reality is in
        between.

        Execution is delegated to the shared executor of the backend
        resolved at construction (:attr:`backend`), called with this
        engine as its single lane; the semantics described above are
        backend-independent.
        """
        self._executor.sweep(x[None], self, (0,))
        self.update_counts += 1
        self.sweep_index += 1
        return x

    # ------------------------------------------------------------------ #

    def run(
        self,
        x0: Optional[np.ndarray] = None,
        *,
        stopping: Optional[StoppingCriterion] = None,
        residual_every: Optional[int] = None,
        recorder: Optional[RunRecorder] = None,
        observer=None,
        method: Optional[str] = None,
    ) -> SolveResult:
        """Drive sweeps through :class:`repro.runtime.RunLoop` to a result.

        This is the engine-level run loop (historically hand-rolled by each
        caller): sweeps until the stopping rule converges or diverges,
        recording the residual history at the configured cadence.
        ``residual_every``/``recorder`` default to ``config.residual_every``
        and the engine's own :attr:`recorder`; *observer* is forwarded to
        the loop (the self-healing solver's detect/heal hook).
        """
        A = self.view.matrix
        st = stopping if stopping is not None else StoppingCriterion()
        m = self.config.residual_every if residual_every is None else residual_every
        if recorder is not None:
            self.recorder = recorder
        x = (
            np.zeros(self.view.n)
            if x0 is None
            else check_vector(x0, self.view.n, "x0").copy()
        )
        b_norm = float(np.linalg.norm(self.b))
        tag = method if method is not None else self.config.method_name
        loop = RunLoop(st, residual_every=m, recorder=self.recorder)
        outcome = loop.run(
            x,
            lambda x, it: self.sweep(x),
            lambda x: float(np.linalg.norm(A.residual(x, self.b))),
            b_norm=b_norm,
            method=tag,
            observer=observer,
        )
        if self.recorder is not None:
            self.recorder.annotate(
                **self.decisions(),
                nblocks=self.view.nblocks,
                staleness_bound=self.scheduler.staleness_bound(),
                update_counts=self.update_counts.tolist(),
                partition=self.view.partition_telemetry(),
            )
        result = SolveResult(
            x=outcome.x,
            residuals=outcome.residuals,
            converged=outcome.converged,
            method=tag,
            b_norm=b_norm,
            info={
                "diverged": outcome.diverged,
                **self.decisions(),
                "sweeps": outcome.sweeps,
            },
        )
        if m != 1:
            result.residual_iters = outcome.residual_iters
        return result

    def min_updates(self) -> int:
        """Fewest updates any block has received (condition (1) diagnostics)."""
        return int(self.update_counts.min()) if len(self.update_counts) else 0




class BatchedAsyncEngine(_SweepLanes):
    """Advances R independent async-(k) replicas through each sweep at once.

    The §4.1/§4.3 ensemble experiments run the *same* configuration many
    times, varying only the schedule seed.  This engine stacks the R
    replica iterates as an ``(R, n)`` multi-vector and advances every
    replica through each global sweep, sharing one decomposition, one
    compiled plan and one executor across all of them — the same per-sweep
    amortisation batched asynchronous Richardson/Schwarz solvers use on
    GPUs.

    **Exactness contract**: replica *r* reproduces, bitwise, the iterates
    the sequential :class:`AsyncEngine` produces for
    ``dataclasses.replace(config, seed=seed0 + r)``.  Each replica owns a
    private generator (:func:`repro.core.schedules.replica_rngs`) and
    consumes it in exactly the sequential order — scheduler construction,
    per-sweep order jitter, per-block freshness masks, deferred-write
    draws.  Backend resolution is the sequential engine's, and every
    backend runs the sequential engine's executor over the replica lanes
    (:mod:`repro.perf.backends`) — the engine has no sweep kernel of its
    own.  In the mixed-γ regimes that executor is the level executor,
    which takes the ``(R, n)`` lanes natively: each dependency level runs
    every replica's independent blocks at once, so the interpreter cost of
    the block loop is paid per level, not per replica and block.

    Fault scenarios are not supported — a fault run is a per-seed
    :class:`repro.core.BlockAsyncSolver` solve (e.g. a
    :func:`repro.stats.run_ensemble` *factory*).

    Parameters
    ----------
    view:
        Precomputed block decomposition, shared by all replicas (the whole
        point: it is built once, not R times).
    b:
        Right-hand side: a length-n vector shared by all replicas (the
        ensemble case), or an ``(R, n)`` stack giving each replica its own
        right-hand side — the multi-rhs batching the serving layer
        (:mod:`repro.serve`) uses to run R independent requests on one
        matrix as one batched solve.  Replica *r* of a multi-rhs run is
        bitwise the sequential engine solving ``(A, b[r])`` with replica
        *r*'s seed.
    config:
        Asynchronism configuration.  ``config.seed`` is ignored — replica
        *r* runs with seed ``seed0 + r`` (or ``seeds[r]``).
    nreplicas:
        Ensemble size R (at least 1).
    seed0:
        First replica seed.
    seeds:
        Optional explicit per-replica seeds (length R), overriding the
        ``seed0 + r`` default — used when the replicas are independent
        requests each carrying its own seed.

    Attributes
    ----------
    update_counts:
        ``(R, nblocks)`` per-replica block-update counts.
    sweep_index:
        Number of completed global sweeps.
    backend:
        Resolved sweep-execution backend, exactly as
        :attr:`AsyncEngine.backend`.
    plan:
        The compiled :class:`repro.perf.SweepPlan` shared with every
        engine built on the same view.
    """

    def __init__(
        self,
        view: BlockRowView,
        b: np.ndarray,
        config: AsyncConfig,
        nreplicas: int,
        *,
        seed0: int = 0,
        seeds: Optional[List[int]] = None,
    ):
        self.nreplicas = int(nreplicas)
        b_arr = np.asarray(b, dtype=np.float64)
        if b_arr.ndim == 2:
            if b_arr.shape != (self.nreplicas, view.n):
                raise ValueError(
                    f"multi-rhs b must have shape ({self.nreplicas}, {view.n}), "
                    f"got {b_arr.shape}"
                )
            b = np.ascontiguousarray(b_arr)
        else:
            b = check_vector(b, view.n, "b")
        self.seed0 = int(seed0)
        if seeds is not None:
            if len(seeds) != self.nreplicas:
                raise ValueError(
                    f"seeds must list one seed per replica "
                    f"({self.nreplicas}), got {len(seeds)}"
                )
            rngs = [as_rng(s) for s in seeds]
        else:
            rngs = replica_rngs(self.seed0, self.nreplicas)
        super().__init__(view, b, config, rngs)
        self.update_counts = np.zeros((self.nreplicas, view.nblocks), dtype=np.int64)

    # ------------------------------------------------------------------ #

    def staleness_bound(self) -> int:
        """Shift-function bound of the schedules (condition (2) of §2.2)."""
        return self.schedulers[0].staleness_bound()

    def sweep(self, X: np.ndarray, replicas: Optional[np.ndarray] = None) -> np.ndarray:
        """One global iteration for every replica row listed in *replicas*.

        *X* is the ``(R, n)`` multi-vector of iterates, updated in place;
        *replicas* (default: all) selects the rows still being advanced —
        frozen rows are neither read nor written, and their generators are
        not consumed, exactly as a sequential run that stopped early.
        """
        if X.shape != (self.nreplicas, self.view.n):
            raise ValueError(
                f"X must have shape ({self.nreplicas}, {self.view.n}), got {X.shape}"
            )
        reps = (
            np.arange(self.nreplicas, dtype=np.int64)
            if replicas is None
            else np.asarray(replicas, dtype=np.int64)
        )
        if len(reps):
            self._executor.sweep(X, self, reps)
            self.update_counts[reps] += 1
        self.sweep_index += 1
        return X

    def run(
        self,
        *,
        stopping: StoppingCriterion,
        residual_every: int = 1,
        recorder: Optional[RunRecorder] = None,
        meta: Optional[dict] = None,
    ) -> BatchedRunOutcome:
        """Drive all R replicas from ``x0 = 0`` through the shared run loop.

        An active-set loop (:meth:`repro.runtime.RunLoop.run_batched`):
        per iteration one batched :meth:`sweep` over the replicas still
        running, then one cache-resident 1-D residual per active replica —
        bitwise the sequential solver's own evaluation.  Replicas whose
        residual passes the threshold (or diverges) freeze, exactly like a
        sequential early exit.  Histories are **absolute** residual norms;
        callers scale.

        With a multi-rhs engine each replica is stopped against its own
        ``||b_r||``-relative threshold, exactly as a sequential
        per-request run would be.  *meta* is forwarded to the telemetry
        run's metadata.
        """
        A = self.view.matrix
        n = self.view.n
        R = self.nreplicas
        X = np.zeros((R, n))
        res_row = np.empty(n)

        # x0 = 0 for every replica: the initial residual is shared for a
        # shared rhs and per-replica otherwise.
        if self.b.ndim == 2:
            zero = np.zeros(n)
            r0 = np.array(
                [float(np.linalg.norm(A.residual(zero, self.b[r]))) for r in range(R)]
            )
            b_norm = np.array([float(np.linalg.norm(self.b[r])) for r in range(R)])
        else:
            r0 = np.full(R, float(np.linalg.norm(A.residual(np.zeros(n), self.b))))
            b_norm = float(np.linalg.norm(self.b))

        def residual_norms(reps: np.ndarray) -> np.ndarray:
            out = np.empty(len(reps))
            for i, r in enumerate(reps):
                A.residual(X[r], self.rhs(r), out=res_row)
                out[i] = float(np.linalg.norm(res_row))
            return out

        loop = RunLoop(stopping, residual_every=residual_every, recorder=recorder)
        out = loop.run_batched(
            X,
            lambda reps: self.sweep(X, reps),
            residual_norms,
            b_norm=b_norm,
            method=f"batched-{self.config.method_name}",
            r0=r0,
            meta=meta,
        )
        if recorder is not None:
            recorder.annotate(
                **self.decisions(),
                partition=self.view.partition_telemetry(),
            )
        return out

    def min_updates(self) -> int:
        """Fewest updates any (replica, block) pair has received."""
        return int(self.update_counts.min()) if self.update_counts.size else 0
