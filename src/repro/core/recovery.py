"""Self-healing block-asynchronous solving: detect → localize → reassign.

§4.5's experiments *prescribe* the recovery time t_r; an actual Exascale
runtime has to discover both the failure and its location.  This module
closes that loop with the pieces built elsewhere in the package:

1. the :class:`~repro.core.detection.SilentErrorDetector` watches the
   residual trace for convergence anomalies (the *when*),
2. the :class:`~repro.core.localize.FaultLocalizer` ranks blocks by
   anomalous residual share (the *where*),
3. the engine **heals** the suspect blocks — the software stand-in for
   "assigning the respective components to other (e.g., additional)
   cores" — and iteration continues.

The result: a solve that converges through silent failures *without any
prior knowledge of the fault*, checkpoint-free — the paper's Exascale
argument, executable.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..partition import make_partition, parse_partition_spec
from ..runtime.recorder import RunRecorder
from ..solvers.base import IterativeSolver, SolveResult, StoppingCriterion
from ..sparse import BlockRowView, CSRMatrix
from .detection import SilentErrorDetector
from .engine import AsyncEngine
from .fault import FaultScenario
from .localize import FaultLocalizer
from .schedules import AsyncConfig

__all__ = ["SelfHealingSolver"]


class SelfHealingSolver(IterativeSolver):
    """async-(k) with an automatic detect/localize/heal loop.

    Parameters
    ----------
    config:
        Asynchronism configuration (as for
        :class:`~repro.core.block_async.BlockAsyncSolver`); its
        ``partition`` spec cuts the blocks and must carry no ``+oK``
        suffix.
    fault:
        The failure scenario to survive.  Its own ``recovery`` field is
        ignored — recovery here is *earned* by detection, not scheduled.
    detector:
        Anomaly watchdog (a fresh default is built per solve if omitted).
    suspects_per_alert:
        Blocks healed per alert.  Healing a healthy block is harmless (a
        no-op reassignment), so this errs high by default.
    heal_cooldown:
        Sweeps to wait after a heal before reacting to further alerts
        (gives the iteration time to re-establish its healthy rate).
    stopping:
        Tolerance / budget, counted in global sweeps.
    recorder:
        Optional :class:`repro.runtime.RunRecorder` telemetry sink — the
        engine reports fault activation and healing as events into it.
    """

    name = "self-healing-async"

    def __init__(
        self,
        config: Optional[AsyncConfig] = None,
        *,
        fault: Optional[FaultScenario] = None,
        detector: Optional[SilentErrorDetector] = None,
        suspects_per_alert: int = 3,
        heal_cooldown: int = 5,
        stopping: Optional[StoppingCriterion] = None,
        recorder: Optional[RunRecorder] = None,
    ):
        if suspects_per_alert < 1:
            raise ValueError("suspects_per_alert must be >= 1")
        if heal_cooldown < 0:
            raise ValueError("heal_cooldown must be >= 0")
        super().__init__(stopping or StoppingCriterion(maxiter=300), recorder=recorder)
        self.config = config if config is not None else AsyncConfig(local_iterations=5)
        if parse_partition_spec(self.config.partition)[2] > 0:
            raise ValueError(
                "SelfHealingSolver sweeps disjoint blocks; async-RAS (an "
                "'+oK' partition) supports no fault scenarios — drop the suffix"
            )
        self.fault = fault
        self.detector = detector
        self.suspects_per_alert = suspects_per_alert
        self.heal_cooldown = heal_cooldown
        self.name = f"self-healing-{self.config.method_name}"

    def _view(self, A: CSRMatrix) -> BlockRowView:
        part = make_partition(A, self.config.partition, block_size=self.config.block_size)
        return BlockRowView(A, partition=part)

    def _run(
        self, A: CSRMatrix, b: np.ndarray, x: np.ndarray, view: BlockRowView
    ) -> SolveResult:
        """Solve ``A x = b``, surviving the configured fault unaided."""
        engine = AsyncEngine(view, b, self.config, fault=self.fault)
        localizer = FaultLocalizer(view, b)
        detector = (
            self.detector if self.detector is not None else SilentErrorDetector(window=8, warmup=16)
        )

        b_norm = float(np.linalg.norm(b))
        heals: List[dict] = []
        state = {"cooldown": 0}

        def observer(it: int, x: np.ndarray, res: float) -> None:
            # Called by the run loop at every recorded residual that keeps
            # the run going (plus iteration 0): the detect → localize →
            # heal reaction rides on the loop instead of owning it.
            rel = res / b_norm if b_norm > 0 else res
            alert = detector.update(rel)
            if it == 0:
                return
            if detector.baseline_rate is not None and not heals and state["cooldown"] == 0:
                # Keep the healthy-phase block profile fresh until the
                # first incident.
                localizer.snapshot(x)
            if state["cooldown"] > 0:
                state["cooldown"] -= 1
            elif alert is not None:
                suspects = localizer.suspects(x, top=self.suspects_per_alert)
                rows = view.rows_of(suspects)
                self._heal(engine, rows)
                heals.append(
                    {"sweep": it, "reason": alert.reason, "blocks": [int(s) for s in suspects]}
                )
                state["cooldown"] = self.heal_cooldown

        # Detection needs the residual every sweep, so the recording
        # cadence is pinned to 1 regardless of config.residual_every.
        result = engine.run(
            x,
            stopping=self.stopping,
            residual_every=1,
            recorder=self.recorder,
            observer=observer,
            method=self.name,
        )
        result.info.update(
            {
                "diverged": bool(self.stopping.diverged(result.residuals[-1])),
                "heals": heals,
                "alerts": len(detector.alerts),
            }
        )
        return result

    @staticmethod
    def _heal(engine: AsyncEngine, rows: np.ndarray) -> None:
        """Reassign *rows* to healthy cores: exempt them from the fault.

        The engine keeps a healed set that is subtracted from every future
        frozen mask — the moral equivalent of moving the components to
        working hardware.
        """
        engine.heal_rows(rows)
