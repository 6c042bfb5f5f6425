"""The paper's contribution: block-asynchronous relaxation.

* :mod:`repro.core.schedules` — the update function ``u(·)`` and shift
  function ``s(·,·)`` machinery of §2.2: execution orders plus per-sweep
  freshness plans, with configurable ordering, concurrency, staleness and
  write-visibility.
* :mod:`repro.core.engine` — the asynchronous execution engine: the software
  analogue of the CUDA kernel of §3.3, executing block updates in schedule
  order against a shared iterate with per-entry read races.
* :mod:`repro.core.block_async` — :class:`BlockAsyncSolver`, the
  ``async-(k)`` method (Algorithm 1 / Eq. (4)).
* :mod:`repro.core.fault` — the §4.5 hardware-failure scenarios (hard
  freeze and silent corruption).
* :mod:`repro.core.detection` — convergence-anomaly detection of silent
  errors (the §4.5 outlook, operationalised).
* :mod:`repro.core.localize` — fault localization: which blocks'
  components need reassignment (the "where" to detection's "when").
* :mod:`repro.core.threaded` — the *genuinely* asynchronous variant on
  real CPU threads (no seeds, no model — actual races).
* :mod:`repro.core.convergence` — convergence theory: Strikwerda's
  ρ(|B|) < 1 condition, well-posedness checks, rate predictions.
"""

from .block_async import BlockAsyncSolver
from .convergence import (
    async_convergence_guaranteed,
    check_well_posedness,
    is_diagonally_dominant,
    jacobi_convergence_guaranteed,
    predicted_iterations,
)
from .detection import Alert, SilentErrorDetector
from .engine import AsyncEngine, BatchedAsyncEngine
from .fault import FAULT_KINDS, FaultScenario
from .localize import BlockResidualProfile, FaultLocalizer
from .recovery import SelfHealingSolver
from .schedules import UPDATE_ORDERS, AsyncConfig, WaveScheduler, replica_rngs
from .threaded import ThreadedAsyncSolver

__all__ = [
    "AsyncConfig",
    "WaveScheduler",
    "UPDATE_ORDERS",
    "replica_rngs",
    "AsyncEngine",
    "BatchedAsyncEngine",
    "BlockAsyncSolver",
    "FaultScenario",
    "FAULT_KINDS",
    "Alert",
    "SilentErrorDetector",
    "ThreadedAsyncSolver",
    "BlockResidualProfile",
    "FaultLocalizer",
    "SelfHealingSolver",
    "is_diagonally_dominant",
    "async_convergence_guaranteed",
    "jacobi_convergence_guaranteed",
    "predicted_iterations",
    "check_well_posedness",
]
