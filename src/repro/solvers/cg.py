"""Conjugate Gradient, with an optional preconditioner hook.

The paper's §4.4 compares against "a highly tuned GPU implementation of the
CG solver"; this is the algorithmic equivalent (Hestenes–Stiefel CG for SPD
systems), implemented on the package's own SpMV.  The preconditioner hook
exists for the X2 extension experiment — using the block-asynchronous
method itself as a preconditioner (the paper's §5 outlook).

Unlike the relaxation solvers, CG carries recurrence state across
iterations, so it overrides the template's ``_run`` with its own step
closure instead of a stateless ``_iterate`` — it still enters through the
shared ``solve`` and returns the same :class:`SolveResult` with the same
per-iteration residual recording.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..runtime import StopRun
from ..sparse import CSRMatrix
from .base import IterativeSolver, SolveResult, StoppingCriterion

__all__ = ["ConjugateGradientSolver"]

#: A preconditioner: x ≈ A⁻¹ r given r.
Preconditioner = Callable[[np.ndarray], np.ndarray]


class ConjugateGradientSolver(IterativeSolver):
    """(Preconditioned) Conjugate Gradient for SPD systems.

    Parameters
    ----------
    preconditioner:
        Optional callable applying ``M⁻¹`` to a residual.  It must represent
        a fixed SPD operator for CG theory to hold; the async-sweep
        preconditioner freezes its schedule to stay (approximately) within
        that contract, as discussed in :mod:`repro.krylov`.
    stopping:
        Shared stopping rule.

    Notes
    -----
    Residuals are tracked recursively (as in any production CG) but the
    *recorded* history re-evaluates ``||b − A x||`` every iteration to stay
    bit-comparable with the relaxation solvers' histories.
    """

    name = "cg"

    def __init__(
        self,
        preconditioner: Optional[Preconditioner] = None,
        stopping: Optional[StoppingCriterion] = None,
        **loop_options,
    ):
        super().__init__(stopping, **loop_options)
        self.preconditioner = preconditioner
        if preconditioner is not None:
            self.name = "pcg"

    def _run(self, A: CSRMatrix, b: np.ndarray, x: np.ndarray, view) -> SolveResult:
        b_norm = float(np.linalg.norm(b))
        M = self.preconditioner

        r = A.residual(x, b)
        z = M(r) if M else r
        state = {"r": r, "p": z.copy(), "rz": float(r @ z), "fresh": True}

        def step(x: np.ndarray, it: int) -> np.ndarray:
            # Refresh the search direction from the previous iteration's
            # residual — deferred from the end of that iteration (the
            # classical placement) to here, which runs the identical ops on
            # identical values whenever the loop continues, and skips them
            # (they were dead work) when it does not.
            if not state["fresh"]:
                r = state["r"]
                z = M(r) if M else r
                rz_new = float(r @ z)
                if state["rz"] == 0.0:
                    raise StopRun("breakdown")
                beta = rz_new / state["rz"]
                state["rz"] = rz_new
                state["p"] = z + beta * state["p"]
            state["fresh"] = False
            p = state["p"]
            Ap = A.matvec(p)
            pAp = float(p @ Ap)
            if pAp <= 0 or not np.isfinite(pAp):
                # Loss of positive definiteness (numerically or truly):
                # report what we have instead of dividing by garbage.
                raise StopRun("breakdown")
            alpha = state["rz"] / pAp
            x += alpha * p
            state["r"] -= alpha * Ap
            return x

        outcome = self._run_loop().run(
            x,
            step,
            lambda x: float(np.linalg.norm(A.residual(x, b))),
            b_norm=b_norm,
            method=self.name,
            r0=float(np.linalg.norm(r)),
        )
        result = self._result_from(outcome, b_norm)
        result.info["breakdown"] = outcome.stop_reason == "breakdown"
        self._note_preconditioner(result, M)
        return result
