"""The one run loop every solver and engine drives through.

Historically the package computed residual-vs-sweep histories in four
independently written loops (the :class:`~repro.solvers.base.IterativeSolver`
template, the custom Krylov loops, the engines' ensemble drivers, the
threaded monitor), each with its own stopping checks, divergence guards and
history bookkeeping.  :class:`RunLoop` owns all of that in one place:

* **stopping** — :class:`StoppingCriterion` (tolerance, budget, relative
  scaling, divergence limit) is defined here and applied identically
  everywhere;
* **history** — the recorded trace is the l2 residual norm at iteration 0
  and then every ``residual_every`` sweeps (always including the final
  sweep), with the recorded iteration numbers reported alongside.
  ``residual_every=1`` reproduces the historical per-sweep histories
  **bitwise**; larger cadences skip the dominant non-sweep cost (a full
  ``||b − A x||`` per sweep) on large systems;
* **telemetry** — an optional :class:`~repro.runtime.RunRecorder` receives
  per-sweep wall-clock, the residual trace and stop events with near-zero
  overhead when absent.

Three driving styles cover the package:

* :meth:`RunLoop.run` — single iterate (plain solvers, engines, the
  threaded monitor).  The step may raise :class:`StopRun` to end the run
  from inside (CG breakdown, workers exhausted).
* :meth:`RunLoop.run_batched` — an active-set loop over R replica iterates
  (the batched ensemble engine): early-stopped replicas freeze, the rest
  advance.
* :meth:`RunLoop.ledger` — a :class:`RunLedger` for loops whose shape the
  driver cannot own (GMRES records a recurrence residual estimate per inner
  step, then amends it with the true residual at each restart); the ledger
  still centralises thresholding, divergence checks and recording.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from .recorder import RunRecorder

__all__ = [
    "StoppingCriterion",
    "StopRun",
    "RunOutcome",
    "BatchedRunOutcome",
    "RunLedger",
    "RunLoop",
]


@dataclass(frozen=True)
class StoppingCriterion:
    """Residual-based stopping rule.

    ``relative=True`` (default) compares ``||r|| / ||b||`` against *tol*
    (with ``||b|| = 0`` falling back to the absolute residual); otherwise
    ``||r||`` itself is compared.  ``divergence_limit`` aborts runs whose
    residual exploded (used for the ρ(B) > 1 experiments, where divergence
    is the expected observation, not an error).
    """

    tol: float = 1e-14
    maxiter: int = 1000
    relative: bool = True
    divergence_limit: float = 1e100

    def __post_init__(self) -> None:
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.maxiter < 0:
            raise ValueError("maxiter must be non-negative")

    def threshold(self, b_norm: float) -> float:
        """Absolute residual threshold for a given right-hand-side norm."""
        if self.relative and b_norm > 0:
            return self.tol * b_norm
        return self.tol

    def converged(self, res_norm: float, threshold: float) -> bool:
        """Whether *res_norm* meets *threshold*; a non-finite one never does
        (not even against the infinite threshold of an overflowing ``||b||``)."""
        return math.isfinite(res_norm) and res_norm <= threshold

    def diverged(self, res_norm: float) -> bool:
        """Whether *res_norm* signals blow-up."""
        return not np.isfinite(res_norm) or res_norm > self.divergence_limit


class StopRun(Exception):
    """Raised by a step callback to end the run from inside.

    The loop stops *before* counting the interrupted sweep: no residual is
    recorded for it, and the outcome carries :attr:`reason` as its
    ``stop_reason`` (e.g. ``"breakdown"`` for CG's loss of positive
    definiteness, ``"workers-exhausted"`` for the threaded monitor).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class RunOutcome:
    """What one :meth:`RunLoop.run` produced.

    ``residuals[j]`` is the l2 residual norm after ``residual_iters[j]``
    sweeps (``residual_iters == [0, 1, 2, ...]`` at the default cadence);
    ``sweeps`` counts the steps actually taken, which can exceed
    ``residual_iters[-1]`` only when a :class:`StopRun` cut a cadence
    window short.
    """

    x: Any
    residuals: np.ndarray
    residual_iters: np.ndarray
    sweeps: int
    converged: bool
    diverged: bool
    stop_reason: Optional[str] = None


@dataclass
class BatchedRunOutcome:
    """What one :meth:`RunLoop.run_batched` produced.

    ``histories[r]`` is replica *r*'s recorded residual trace (frozen
    replicas stop contributing once converged or diverged);
    ``residual_iters`` gives the sweep numbers of the recorded cadence,
    shared by all replicas still active at each point.
    """

    X: np.ndarray
    histories: List[np.ndarray]
    residual_iters: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray
    sweeps: int


class RunLedger:
    """Stopping/recording services for loops the driver cannot own.

    GMRES(m) is the motivating customer: it records a *recurrence* residual
    estimate per inner step (no extra matvec), then replaces the last
    estimate with the true residual at each restart boundary — a shape
    :meth:`RunLoop.run` cannot express.  The ledger gives such loops the
    same thresholding, divergence logic and telemetry as everyone else
    while they keep their own control flow.
    """

    def __init__(
        self,
        stopping: StoppingCriterion,
        b_norm: float,
        *,
        recorder: Optional[RunRecorder] = None,
        method: str = "run",
    ):
        self.stopping = stopping
        self.b_norm = float(b_norm)
        self.threshold = stopping.threshold(b_norm)
        self.recorder = recorder
        self.residuals: List[float] = []
        self.converged = False
        self.diverged = False
        if recorder is not None:
            recorder.open_run(
                method=method,
                b_norm=self.b_norm,
                threshold=self.threshold,
                maxiter=stopping.maxiter,
                residual_every=1,
                tol=stopping.tol,
                relative=stopping.relative,
            )

    def start(self, res0: float) -> bool:
        """Record the initial residual; returns whether it already passes."""
        res0 = float(res0)
        self.residuals.append(res0)
        if self.recorder is not None:
            self.recorder.record_residual(0, res0)
        self.converged = self.stopping.converged(res0, self.threshold)
        return self.converged

    def record(self, iteration: int, res: float) -> None:
        """Append one residual sample (an estimate is fine; amend later)."""
        res = float(res)
        self.residuals.append(res)
        if self.recorder is not None:
            self.recorder.record_residual(iteration, res)

    def amend_last(self, res: float) -> None:
        """Replace the most recent sample (recurrence estimate → true)."""
        res = float(res)
        self.residuals[-1] = res
        if self.recorder is not None:
            self.recorder.amend_residual(res)

    def check(self, res: float) -> bool:
        """Apply the stopping rule to *res*; returns whether to stop."""
        res = float(res)
        if self.stopping.converged(res, self.threshold):
            self.converged = True
        elif self.stopping.diverged(res):
            self.diverged = True
        return self.converged or self.diverged

    def history(self) -> np.ndarray:
        """The recorded residual trace as an array."""
        return np.array(self.residuals)

    def finish(self, **summary: Any) -> None:
        """Close the recorder run (no-op without a recorder)."""
        if self.recorder is not None:
            self.recorder.close_run(
                converged=self.converged, diverged=self.diverged, **summary
            )


class RunLoop:
    """The instrumented driver behind every solve in the package.

    Parameters
    ----------
    stopping:
        The stopping rule (tolerance, budget, divergence limit).
    residual_every:
        Full-residual cadence *m*: ``||b − A x||`` is evaluated (and the
        stopping rule applied) every *m* sweeps, plus always on the final
        sweep of the budget.  ``m=1`` — the default, used by every paper
        figure — is bitwise-identical to evaluating each sweep; larger *m*
        trades stopping granularity for skipping the dominant non-sweep
        cost.  Steps never depend on evaluations, so the iterates visited
        are identical for every *m*.
    recorder:
        Optional telemetry sink; when ``None`` the loop takes no clock
        readings at all.
    """

    def __init__(
        self,
        stopping: StoppingCriterion,
        *,
        residual_every: int = 1,
        recorder: Optional[RunRecorder] = None,
    ):
        if residual_every < 1:
            raise ValueError("residual_every must be >= 1")
        self.stopping = stopping
        self.residual_every = int(residual_every)
        self.recorder = recorder

    # ------------------------------------------------------------------ #

    def run(
        self,
        x: Any,
        step: Callable[[Any, int], Any],
        residual_norm: Callable[[Any], float],
        *,
        b_norm: float,
        method: str = "run",
        r0: Optional[float] = None,
        observer: Optional[Callable[[int, Any, float], None]] = None,
    ) -> RunOutcome:
        """Drive ``step`` until convergence, divergence or the budget.

        Parameters
        ----------
        x:
            Initial iterate.  The loop is agnostic to its type: a vector, a
            multi-vector, anything ``step``/``residual_norm`` understand.
        step:
            ``step(x, it)`` performs global sweep ``it + 1`` and returns
            the new iterate (returning ``None`` means "updated in place").
            May raise :class:`StopRun` to end the run; the interrupted
            sweep is not counted.
        residual_norm:
            ``residual_norm(x)`` → the l2 residual norm (the recorded
            quantity).
        b_norm:
            Right-hand-side norm for relative thresholds.
        method:
            Tag for telemetry.
        r0:
            Precomputed initial residual norm (skips one evaluation; must
            equal ``residual_norm(x)``).
        observer:
            ``observer(it, x, res)`` called at every *recorded* residual
            that does not stop the run, plus unconditionally at iteration 0
            — the hook the self-healing solver's detect/localize/heal logic
            rides on.
        """
        st = self.stopping
        m = self.residual_every
        rec = self.recorder
        threshold = st.threshold(b_norm)
        if rec is not None:
            rec.open_run(
                method=method,
                b_norm=float(b_norm),
                threshold=threshold,
                maxiter=st.maxiter,
                residual_every=m,
                tol=st.tol,
                relative=st.relative,
            )
        res0 = float(residual_norm(x)) if r0 is None else float(r0)
        residuals: List[float] = [res0]
        riters: List[int] = [0]
        if rec is not None:
            rec.record_residual(0, res0)
        converged = st.converged(res0, threshold)
        diverged = False
        stop_reason: Optional[str] = None
        if observer is not None:
            observer(0, x, res0)

        it = 0
        while not converged and it < st.maxiter:
            t0 = time.perf_counter() if rec is not None else 0.0
            try:
                nx = step(x, it)
            except StopRun as stop:
                stop_reason = stop.reason
                if rec is not None:
                    rec.record_event(it, "stop", reason=stop.reason)
                break
            if nx is not None:
                x = nx
            it += 1
            res: Optional[float] = None
            if it % m == 0 or it >= st.maxiter:
                res = float(residual_norm(x))
            if rec is not None:
                rec.record_sweep(it, time.perf_counter() - t0, res)
            if res is None:
                continue
            residuals.append(res)
            riters.append(it)
            if st.converged(res, threshold):
                converged = True
            elif st.diverged(res):
                diverged = True
                break
            elif observer is not None:
                observer(it, x, res)

        if rec is not None:
            rec.close_run(
                converged=converged,
                diverged=diverged,
                sweeps=it,
                final_residual=residuals[-1],
                stop_reason=stop_reason,
            )
        return RunOutcome(
            x=x,
            residuals=np.array(residuals),
            residual_iters=np.array(riters, dtype=np.int64),
            sweeps=it,
            converged=converged,
            diverged=diverged,
            stop_reason=stop_reason,
        )

    # ------------------------------------------------------------------ #

    def run_batched(
        self,
        X: np.ndarray,
        sweep: Callable[[np.ndarray], Any],
        residual_norms: Callable[[np.ndarray], np.ndarray],
        *,
        b_norm,
        method: str = "batched",
        r0: Optional[np.ndarray] = None,
        meta: Optional[dict] = None,
    ) -> BatchedRunOutcome:
        """Active-set driver over R replica iterates (batched ensembles).

        ``sweep(reps)`` advances the replica rows listed in *reps* (an
        ``int64`` array) in place; ``residual_norms(reps)`` returns their
        residual norms in the same order.  A replica whose residual passes
        the threshold (or diverges) freezes — it leaves the active set and
        its history stops growing, exactly like a sequential early exit.

        ``b_norm`` may be a scalar (one shared right-hand side — the
        ensemble case) or a length-R array of per-replica norms (each
        replica solves its own right-hand side — the multi-rhs batching
        the serving layer uses); with an array, each replica is stopped
        against its own threshold, exactly as a sequential per-request
        run would be.  *meta* is merged into the telemetry run's metadata.
        """
        st = self.stopping
        m = self.residual_every
        rec = self.recorder
        b_arr = np.asarray(b_norm, dtype=float)
        per_replica = b_arr.ndim > 0
        R = int(X.shape[0])
        thresholds = [st.threshold(v) for v in np.broadcast_to(b_arr, (R,)).tolist()]
        if rec is not None:
            rec.open_run(
                method=method,
                b_norm=b_arr.tolist() if per_replica else float(b_arr),
                threshold=thresholds if per_replica else st.threshold(float(b_arr)),
                maxiter=st.maxiter,
                residual_every=m,
                tol=st.tol,
                relative=st.relative,
                replicas=R,
                **(meta or {}),
            )
        if r0 is None:
            r0 = residual_norms(np.arange(R, dtype=np.int64))
        r0 = np.asarray(r0, dtype=float)
        histories: List[List[float]] = [[float(r0[r])] for r in range(R)]
        riters: List[int] = [0]
        converged = np.array([st.converged(h[0], t) for h, t in zip(histories, thresholds)], dtype=bool)
        diverged = np.zeros(R, dtype=bool)
        active = [r for r in range(R) if not converged[r]]
        if rec is not None and R:
            rec.record_residual(0, float(np.max(r0)))

        it = 0
        while active and it < st.maxiter:
            reps = np.asarray(active, dtype=np.int64)
            t0 = time.perf_counter() if rec is not None else 0.0
            sweep(reps)
            it += 1
            res: Optional[np.ndarray] = None
            if it % m == 0 or it >= st.maxiter:
                res = residual_norms(reps)
                riters.append(it)
                still: List[int] = []
                for i, r in enumerate(active):
                    v = float(res[i])
                    histories[r].append(v)
                    if st.converged(v, thresholds[r]):
                        converged[r] = True
                    elif st.diverged(v):
                        diverged[r] = True
                    else:
                        still.append(r)
                active = still
            if rec is not None:
                rec.record_sweep(
                    it,
                    time.perf_counter() - t0,
                    None if res is None or not len(res) else float(np.max(res)),
                    active=len(reps),
                )

        if rec is not None:
            rec.close_run(
                converged=int(converged.sum()),
                diverged=int(diverged.sum()),
                sweeps=it,
            )
        return BatchedRunOutcome(
            X=X,
            histories=[np.asarray(h) for h in histories],
            residual_iters=np.asarray(riters, dtype=np.int64),
            converged=converged,
            diverged=diverged,
            sweeps=it,
        )

    # ------------------------------------------------------------------ #

    def ledger(self, b_norm: float, *, method: str = "run") -> RunLedger:
        """A :class:`RunLedger` sharing this loop's stopping and recorder.

        ``residual_every`` does not apply to ledger-driven loops: their
        recurrence estimates come for free, so there is no evaluation cost
        to amortise.
        """
        return RunLedger(
            self.stopping, b_norm, recorder=self.recorder, method=method
        )
