"""Common solver interface, result record and stopping logic.

All iterative methods in the package — the synchronous baselines here and
the block-asynchronous solvers in :mod:`repro.core` — share one contract:

    ``result = solver.solve(A, b, x0=None)``

returning a :class:`SolveResult` that records the *l2 residual norm at every
global iteration* (the quantity all of the paper's convergence figures
plot), plus convergence status and method-specific info.

The loop itself lives in :mod:`repro.runtime`: every solver delegates its
driving to :class:`repro.runtime.RunLoop`, which owns the stopping rule
(:class:`StoppingCriterion`, defined there and re-exported here), the
divergence guard, the ``residual_every`` recording cadence and the optional
:class:`repro.runtime.RunRecorder` telemetry.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .._util import check_system, check_vector
from ..runtime import RunLoop, RunOutcome, StoppingCriterion
from ..runtime.recorder import RunRecorder
from ..sparse import CSRMatrix

__all__ = ["StoppingCriterion", "SolveResult", "IterativeSolver"]


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x:
        Final iterate.
    residuals:
        l2 residual norms.  At the default recording cadence
        (``residual_every=1``), ``residuals[k]`` is the residual after *k*
        global iterations (``residuals[0]`` is the initial residual); at a
        sparser cadence, :attr:`residual_iters` gives each sample's
        iteration number.
    converged:
        Whether the stopping tolerance was reached.
    method:
        Human-readable method tag (e.g. ``"async-(5)"``).
    b_norm:
        l2 norm of the right-hand side (for relative-residual plots).
    info:
        Method-specific extras (schedules, timing-model output, ...).
    residual_iters:
        Iteration number of each recorded residual, set only when the
        recording cadence is sparser than every iteration
        (``residual_every > 1``); ``None`` means the dense default
        ``[0, 1, ..., len(residuals) - 1]``.
    """

    x: np.ndarray
    residuals: np.ndarray
    converged: bool
    method: str
    b_norm: float
    info: Dict[str, Any] = field(default_factory=dict)
    residual_iters: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        """Number of global iterations covered by the recorded history."""
        if self.residual_iters is not None:
            return int(self.residual_iters[-1])
        return len(self.residuals) - 1

    @property
    def final_residual(self) -> float:
        """Last recorded l2 residual norm."""
        return float(self.residuals[-1])

    def relative_residuals(self) -> np.ndarray:
        """Residual history scaled by ``||b||`` (or unscaled if b = 0)."""
        if self.b_norm > 0:
            return self.residuals / self.b_norm
        return self.residuals.copy()

    def asymptotic_rate(self, *, skip: int = 10, floor: float = 1e-15) -> Optional[float]:
        """Geometric-mean per-iteration residual contraction.

        Fitted over the history after the first *skip* iterations, ignoring
        everything at or below *floor* (the rounding plateau).  ``None``
        when fewer than two usable points remain.  Comparable directly to
        the spectral radius ρ of the iteration matrix.  Sparse recording
        cadences are handled: the fit uses each sample's true iteration
        number.
        """
        rel = self.residuals
        iters = (
            self.residual_iters
            if self.residual_iters is not None
            else np.arange(len(rel))
        )
        usable = np.flatnonzero(rel > floor)
        usable = usable[iters[usable] >= skip]
        if len(usable) < 2:
            return None
        first, last = usable[0], usable[-1]
        span = int(iters[last] - iters[first])
        if rel[first] <= 0 or span == 0:
            return None
        return float((rel[last] / rel[first]) ** (1.0 / span))

    def to_dict(self, *, include_solution: bool = False) -> Dict[str, Any]:
        """JSON-serialisable summary (history always, iterate on request)."""
        out: Dict[str, Any] = {
            "method": self.method,
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "final_residual": float(self.final_residual),
            "b_norm": float(self.b_norm),
            "residuals": [float(r) for r in self.residuals],
            "info": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.info.items()
            },
        }
        if self.residual_iters is not None:
            out["residual_iters"] = [int(i) for i in self.residual_iters]
        if include_solution:
            out["x"] = self.x.tolist()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SolveResult {self.method}: iters={self.iterations} "
            f"residual={self.final_residual:.3e} converged={self.converged}>"
        )


class IterativeSolver(abc.ABC):
    """Base class for all iterative solvers.

    Subclasses implement :meth:`_setup` (per-matrix precomputation) and
    :meth:`_iterate` (one global iteration, in place); the base class hands
    the driving to :class:`repro.runtime.RunLoop` so all methods stop,
    guard against divergence and report histories in exactly the same way.

    Parameters
    ----------
    stopping:
        Shared stopping rule.
    residual_every:
        Full-residual recording cadence *m* (see
        :class:`repro.runtime.RunLoop`); 1 — the default used by every
        paper figure — records each iteration.
    recorder:
        Optional :class:`repro.runtime.RunRecorder` telemetry sink.
    """

    #: Method tag used in results and reports; subclasses override.
    name = "iterative"

    #: A prebuilt block view handed from a partition-aware ``solve``
    #: override to ``_setup`` (see :meth:`_solve_partitioned`).
    _pending_view = None

    def __init__(
        self,
        stopping: Optional[StoppingCriterion] = None,
        *,
        residual_every: int = 1,
        recorder: Optional[RunRecorder] = None,
    ):
        self.stopping = stopping if stopping is not None else StoppingCriterion()
        if residual_every < 1:
            raise ValueError("residual_every must be >= 1")
        self.residual_every = int(residual_every)
        self.recorder = recorder

    # --- subclass protocol ------------------------------------------------

    @abc.abstractmethod
    def _setup(self, A: CSRMatrix, b: np.ndarray) -> Any:
        """Precompute per-system state (splittings, schedules, ...)."""

    @abc.abstractmethod
    def _iterate(self, state: Any, x: np.ndarray) -> np.ndarray:
        """Perform one global iteration, returning the new iterate."""

    # --- driver -----------------------------------------------------------

    def _run_loop(self) -> RunLoop:
        """The configured :class:`repro.runtime.RunLoop` for one solve."""
        return RunLoop(
            self.stopping,
            residual_every=self.residual_every,
            recorder=self.recorder,
        )

    def _result_from(self, outcome: RunOutcome, b_norm: float) -> SolveResult:
        """Shape a :class:`SolveResult` from a loop outcome."""
        result = SolveResult(
            x=outcome.x,
            residuals=outcome.residuals,
            converged=outcome.converged,
            method=self.name,
            b_norm=b_norm,
            info={"diverged": outcome.diverged},
        )
        if self.residual_every != 1:
            result.residual_iters = outcome.residual_iters
            result.info["sweeps"] = outcome.sweeps
        return result

    def solve(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Run the method on ``A x = b`` until convergence or maxiter.

        Raises :class:`ValueError` when *A*, *b* or *x0* has a non-finite
        entry.
        """
        b, x = self._checked_inputs(A, b, x0)
        state = self._setup(A, b)

        b_norm = float(np.linalg.norm(b))
        outcome = self._run_loop().run(
            x,
            lambda x, it: self._iterate(state, x),
            lambda x: float(np.linalg.norm(A.residual(x, b))),
            b_norm=b_norm,
            method=self.name,
        )
        result = self._result_from(outcome, b_norm)
        self._finalize(state, result)
        return result

    def _checked_inputs(
        self, A: CSRMatrix, b: np.ndarray, x0: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validated ``(b, x)`` of a solve: *x* is a copy of *x0*, or zeros.

        Raises :class:`ValueError` for a non-square *A*, a wrongly shaped
        *b* or *x0*, or a non-finite entry in any of the three.  Solvers
        that own their loop (CG, GMRES) call this exactly like
        :meth:`solve` does.
        """
        b, x0 = check_system(A, b, x0, f"{self.name} matrix")
        x = np.zeros(len(b)) if x0 is None else x0.copy()
        return b, x

    def _note_preconditioner(self, result: SolveResult, M) -> None:
        """Attach the preconditioner's decisions to *result* and the recorder.

        Preconditioners that explain their cost (``decisions()``: backend,
        levels per application) land in ``result.info["precond"]`` and in
        the current recorder run's annotations.
        """
        decisions = getattr(M, "decisions", None)
        if decisions is None:
            return
        facts = decisions()
        result.info["precond"] = facts
        if self.recorder is not None:
            self.recorder.annotate(precond=facts)

    def _solve_partitioned(
        self,
        view,
        A: CSRMatrix,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Run the standard solve on *view*'s (possibly permuted) system.

        Partition-aware solvers build a :class:`repro.sparse.BlockRowView`
        up front and route their ``solve`` through here.  When the view
        carries no row permutation this is exactly :meth:`solve` — same
        arrays, same flow, bitwise-identical histories.  With a
        permutation, the iteration runs in **partition order** (the
        residual history and stopping rule are evaluated on the permuted
        system, which is the system the blocks actually sweep) and the
        final iterate is mapped back to original row order before being
        returned.
        """
        self._pending_view = view
        try:
            if view.perm is None:
                return IterativeSolver.solve(self, A, b, x0)
            n = view.n
            x0p = None if x0 is None else view.permute_vector(check_vector(x0, n, "x0"))
            result = IterativeSolver.solve(self, view.matrix, view.permute_vector(b), x0p)
            result.x = view.unpermute_vector(result.x)
            result.info["permuted"] = True
            return result
        finally:
            self._pending_view = None

    def _finalize(self, state: Any, result: SolveResult) -> None:
        """Hook for subclasses to attach extra info to the result."""
