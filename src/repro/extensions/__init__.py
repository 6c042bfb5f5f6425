"""Built-out versions of the paper's §5 outlook.

The paper closes with two research directions: using component-wise
relaxation as a *smoother in multigrid*, and as a *preconditioner*.  Both
are implemented here:

* :mod:`repro.extensions.multigrid` — a geometric multigrid V-cycle for the
  2-D Poisson problem with pluggable smoothers (Jacobi / Gauss-Seidel /
  async-(k)), benchmarked in the X1 extension experiment.
* async-(k) sweeps as a (frozen-schedule) preconditioner for CG,
  benchmarked in X2, grew into the :mod:`repro.krylov` subsystem
  (:class:`repro.krylov.AsyncSweepPreconditioner`).
"""

from .multigrid import MultigridPoisson, SmootherSpec

__all__ = ["MultigridPoisson", "SmootherSpec"]
