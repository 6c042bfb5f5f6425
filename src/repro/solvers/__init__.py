"""Synchronous baseline solvers.

The paper compares the block-asynchronous method against three synchronous
references, all re-implemented here on top of :mod:`repro.sparse`:

* :class:`JacobiSolver` — component-wise Jacobi (Eq. (2)), the GPU baseline;
* :class:`GaussSeidelSolver` / :class:`SORSolver` — the CPU reference, with
  a level-scheduled sparse triangular sweep (the standard parallel
  formulation of Gauss-Seidel);
* :class:`ConjugateGradientSolver` — the "highly tuned CG" of §4.4.

Beyond the paper's three, the family is completed for ablations and
preconditioning baselines: :class:`SSORSolver` (symmetric sweeps),
:class:`BlockJacobiSolver` (the *synchronous* two-stage method async-(k)
chaotifies — the paper's reference [5]), and :class:`ChebyshevSolver`
(spectrum-aware acceleration, the √κ companion to the §4.2 τ-scaling).
"""

from .base import IterativeSolver, SolveResult, StoppingCriterion
from .jacobi import JacobiSolver
from .gauss_seidel import GaussSeidelSolver, SORSolver
from .ssor import SSORSolver
from .block_jacobi import BlockJacobiSolver
from .chebyshev import ChebyshevSolver
from .triangular import LevelSchedule, TriangularSweep, solve_lower_triangular
from .cg import ConjugateGradientSolver
from .gmres import GMRESSolver
from .scaling import estimate_tau, tau_scaling

__all__ = [
    "IterativeSolver",
    "SolveResult",
    "StoppingCriterion",
    "JacobiSolver",
    "GaussSeidelSolver",
    "SORSolver",
    "SSORSolver",
    "BlockJacobiSolver",
    "ChebyshevSolver",
    "LevelSchedule",
    "TriangularSweep",
    "solve_lower_triangular",
    "ConjugateGradientSolver",
    "GMRESSolver",
    "estimate_tau",
    "tau_scaling",
]
