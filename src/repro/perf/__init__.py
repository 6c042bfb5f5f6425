"""Performance layer: sweep-plan compilation and backend dispatch.

The engines in :mod:`repro.core` describe *what* a block-asynchronous
sweep computes; this subpackage decides *how* it executes:

* :class:`SweepPlan` (:mod:`repro.perf.plan`) compiles a block
  decomposition, once, into the precomputed structures every execution
  path consumes — the per-block update records with warmed ELL gather
  plans, the level executor's block-major panels, and (on demand) the
  stencil gate's verdict;
* :mod:`repro.perf.stencil` compiles the matrix-free offset-shifted sweep
  kernels of the systems that pass the offset-plane gate;
* :mod:`repro.perf.backends` dispatches each engine — sequential and
  batched alike — to one shared executor: the per-block loop over
  extended blocks on an overlapped (``+oK``, async-RAS) partition, the
  whole-sweep executor over the matrix-free stencil kernels where the
  matrix passes the gate and a whole sweep is bitwise-exact for the
  configured asynchronism regime, the dependency-level block loop
  everywhere else (one level per sweep wherever a whole sweep is exact),
  and the (plan-accelerated) per-block reference loop under faults or on
  request;
* :mod:`repro.perf.program` compiles a frozen preconditioner's whole
  application — a draw-free sequence of block updates — into a
  :class:`LevelProgram` of dependency levels that cross sweep
  boundaries, with every level's operands precomputed.

This mirrors how production asynchronous-solver stacks are organised
(e.g. the backend-dispatched executors over precompiled per-subdomain
plans of abstract asynchronous Schwarz solvers): the schedule semantics
stay in one place, while execution strategies compete behind a dispatch
seam that is observable only through timing.
"""

# The canonical backend-name tuple lives with AsyncConfig's validation.
# repro.core's engine imports this package's *submodules* directly, so
# `import repro.perf` works standalone in either import order.
from ..core.schedules import BACKENDS
from .backends import (
    LevelSweepExecutor,
    ReferenceSweepExecutor,
    WholeSweepExecutor,
    consume_schedule_draws,
    make_executor,
    resolve_backend,
    whole_sweep_exact,
)
from .plan import SweepPlan, compile_sweep_plan, plan_compile_count, rhs_preserves_fold
from .program import LevelProgram
from .stencil import StencilDescriptor, StencilKernels, detect_stencil

__all__ = [
    "SweepPlan",
    "compile_sweep_plan",
    "plan_compile_count",
    "rhs_preserves_fold",
    "BACKENDS",
    "whole_sweep_exact",
    "resolve_backend",
    "consume_schedule_draws",
    "make_executor",
    "LevelSweepExecutor",
    "LevelProgram",
    "ReferenceSweepExecutor",
    "WholeSweepExecutor",
    "StencilDescriptor",
    "StencilKernels",
    "detect_stencil",
]
