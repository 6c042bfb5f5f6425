"""Restarted GMRES.

The paper's introduction motivates asynchronous methods by pointing at the
synchronization appetite of Krylov solvers: "when solving linear systems of
equations with iterative methods like the Conjugate Gradient or GMRES, the
parallelism is usually limited to the matrix-vector and the vector-vector
operations (with synchronization required between them)".  GMRES(m) is
implemented here to make that comparison concrete for nonsymmetric systems
(and as the general-matrix companion to :class:`ConjugateGradientSolver`):
every inner step is an Arnoldi orthogonalisation — a global reduction per
basis vector, the exact synchronisation pattern the paper contrasts with.

Standard formulation: Arnoldi with modified Gram-Schmidt, Givens rotations
maintaining the QR of the Hessenberg matrix, restart every *m* steps.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..sparse import CSRMatrix
from .base import IterativeSolver, SolveResult, StoppingCriterion

__all__ = ["GMRESSolver"]

Preconditioner = Callable[[np.ndarray], np.ndarray]


class GMRESSolver(IterativeSolver):
    """GMRES(m) with optional right preconditioning.

    Parameters
    ----------
    restart:
        Krylov basis size *m* before restarting.
    preconditioner:
        Optional callable applying ``M⁻¹`` (right preconditioning: solves
        ``A M⁻¹ u = b`` with ``x = M⁻¹ u``, so the reported residuals stay
        true residuals of the original system).
    stopping:
        ``maxiter`` counts *inner* iterations (matrix-vector products), so
        budgets are comparable with the relaxation solvers'.

    Notes
    -----
    GMRES records a *recurrence* residual estimate per inner step (the
    Givens-rotated ``|g[k+1]|`` — no extra matvec), amending it with the
    true residual at each restart boundary, so its loop drives a
    :class:`repro.runtime.RunLedger` rather than the standard
    :class:`repro.runtime.RunLoop`; the ``residual_every`` cadence does not
    apply (the estimates already come for free).
    """

    name = "gmres"

    def __init__(
        self,
        restart: int = 30,
        preconditioner: Optional[Preconditioner] = None,
        stopping: Optional[StoppingCriterion] = None,
        **loop_options,
    ):
        super().__init__(stopping, **loop_options)
        if restart < 1:
            raise ValueError("restart must be >= 1")
        self.restart = restart
        self.preconditioner = preconditioner
        self.name = f"gmres({restart})" if preconditioner is None else f"pgmres({restart})"

    def _run(self, A: CSRMatrix, b: np.ndarray, x: np.ndarray, view) -> SolveResult:
        n = len(b)
        M = self.preconditioner

        b_norm = float(np.linalg.norm(b))
        m = self.restart

        ledger = self._run_loop().ledger(b_norm, method=self.name)
        threshold = ledger.threshold
        ledger.start(float(np.linalg.norm(A.residual(x, b))))
        inner_done = 0

        while not ledger.converged and inner_done < self.stopping.maxiter:
            r = A.residual(x, b)
            beta = float(np.linalg.norm(r))
            if beta == 0.0:
                ledger.converged = True
                break
            V = np.zeros((m + 1, n))
            H = np.zeros((m + 1, m))
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            g[0] = beta
            V[0] = r / beta

            k_used = 0
            for k in range(m):
                if inner_done >= self.stopping.maxiter:
                    break
                z = M(V[k]) if M is not None else V[k]
                w = A.matvec(z)
                inner_done += 1
                # Modified Gram-Schmidt.
                for i in range(k + 1):
                    H[i, k] = float(V[i] @ w)
                    w -= H[i, k] * V[i]
                H[k + 1, k] = float(np.linalg.norm(w))
                if H[k + 1, k] > 1e-14:
                    V[k + 1] = w / H[k + 1, k]
                # Apply previous Givens rotations to the new column.
                for i in range(k):
                    t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                    H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                    H[i, k] = t
                # New rotation annihilating H[k+1, k].
                denom = np.hypot(H[k, k], H[k + 1, k])
                if denom == 0.0:
                    cs[k], sn[k] = 1.0, 0.0
                else:
                    cs[k], sn[k] = H[k, k] / denom, H[k + 1, k] / denom
                H[k, k] = denom
                H[k + 1, k] = 0.0
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]
                k_used = k + 1
                ledger.record(inner_done, abs(float(g[k + 1])))
                if abs(g[k + 1]) <= threshold:
                    break

            if k_used:
                # Solve the small triangular system and update x.
                y = np.zeros(k_used)
                for i in range(k_used - 1, -1, -1):
                    y[i] = (g[i] - H[i, i + 1 : k_used] @ y[i + 1 :]) / H[i, i]
                update = V[:k_used].T @ y
                x += M(update) if M is not None else update
            true_res = float(np.linalg.norm(A.residual(x, b)))
            ledger.amend_last(true_res)  # replace the recurrence estimate
            if ledger.check(true_res) and ledger.diverged:
                break
            if k_used == 0:
                break  # no progress possible (budget exhausted mid-cycle)

        ledger.finish(inner_iterations=inner_done)
        residuals = ledger.history()
        result = SolveResult(
            x=x,
            residuals=residuals,
            converged=ledger.converged,
            method=self.name,
            b_norm=b_norm,
            info={"diverged": bool(self.stopping.diverged(residuals[-1])), "restart": m},
        )
        self._note_preconditioner(result, M)
        return result
