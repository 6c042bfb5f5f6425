"""``DistAsyncSolver`` — the solver front-end over the sharded runtime.

Presents a multiprocess two-stage multisplitting solve behind the exact
:class:`repro.solvers.IterativeSolver` contract: same ``solve(A, b, x0)``
call, same :class:`SolveResult`, same residual-history semantics, driven
through the shared :class:`repro.runtime.RunLoop` (which also gives it
stopping, divergence guards, sparse residual cadences and telemetry for
free).  The driver's step is "wait until every live shard finished sweep
``it + 1``, then read the shared iterate"; the workers meanwhile run the
inner sweeps through the ordinary engine stack (:mod:`repro.dist.worker`).

``solve`` is the inherited template: it validates the inputs and this
solver's ``_view`` builds the partition's block view in the calling
process, so bad input — a zero diagonal included — raises before any
worker spawns; ``_run`` drives the workers on the view's permuted system
and the template maps the solution back to original row order.

With ``shards=1`` the runtime is strict lock-step and the whole pipeline
is bitwise-identical to :class:`repro.core.BlockAsyncSolver` — same
iterates, same residual history, same telemetry residuals (asserted by
``tests/dist/test_dist_bitwise.py``).  With more shards the recorded
history samples the mixed-epoch shared iterate (that *is* the method);
after the loop stops, the settled iterate — every worker parked — gets
one final residual evaluation appended to the history iff it differs
from the last recorded sample.

The full distributed telemetry (driver run + per-shard worker runs +
shard map + staleness/halo samples + recovery log) is exported as one
``repro.dist/v1`` document on :attr:`DistAsyncSolver.last_telemetry`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..core.schedules import AsyncConfig
from ..partition import Partition, make_partition, parse_partition_spec
from ..runtime import RunLoop, StoppingCriterion
from ..runtime.recorder import RunRecorder
from ..solvers.base import IterativeSolver, SolveResult
from ..sparse import BlockRowView, CSRMatrix
from .plan import make_shard_plan
from .runtime import DIST_SCHEMA, DistRuntime

__all__ = ["DistAsyncSolver"]


class DistAsyncSolver(IterativeSolver):
    """Block-asynchronous relaxation sharded over worker processes.

    Parameters
    ----------
    config:
        Full :class:`repro.core.AsyncConfig`; alternatively pass the same
        shortcuts :class:`repro.core.BlockAsyncSolver` takes and a default
        config is built.  Shard *s* runs with seed ``config.seed + s``.
    shards:
        Number of worker processes (must not exceed the block count).
    max_staleness:
        Outer-sweep staleness bound between shards (≥ 1; 1 = synchronous
        outer stage).
    placement:
        ``"blocks"`` (equal block counts — bitwise the simulated
        multi-GPU split) or ``"work"`` (equal stored nonzeros).
    recovery:
        Reaction to a dead/silent shard: ``"respawn"`` (same slot, no
        progress lost beyond the interrupted sweep) or ``"reassign"``
        (adjacent live shard absorbs the block range mid-solve).
    heartbeat_timeout, advance_timeout:
        Failure-detection and progress-ceiling clocks of the
        :class:`repro.dist.DistRuntime`.
    local_iterations, block_size, seed, omega, partition, stopping,
    residual_every, recorder:
        As on :class:`repro.core.BlockAsyncSolver`.
    fault_injector:
        Optional ``hook(it, runtime)`` run at the top of every outer
        sweep — the fault-experiment seam (kill a worker mid-solve).

    Attributes
    ----------
    last_telemetry:
        The ``repro.dist/v1`` telemetry document of the most recent
        solve (driver run, per-shard worker runs, shard map, staleness
        histograms, halo latency, recovery log).

    Examples
    --------
    >>> from repro import DistAsyncSolver, get_matrix, default_rhs
    >>> A = get_matrix("Trefethen_2000"); b = default_rhs(A)
    >>> result = DistAsyncSolver(shards=2, local_iterations=2).solve(A, b)
    >>> result.info["dist"]["nshards"]
    2
    """

    name = "dist-async"

    def __init__(
        self,
        config: Optional[AsyncConfig] = None,
        *,
        shards: int = 1,
        max_staleness: int = 2,
        placement: str = "blocks",
        recovery: str = "respawn",
        heartbeat_timeout: float = 5.0,
        advance_timeout: float = 120.0,
        local_iterations: int = 1,
        block_size: int = 128,
        seed=0,
        omega: float = 1.0,
        partition: Optional[Union[str, Partition]] = None,
        stopping: Optional[StoppingCriterion] = None,
        residual_every: Optional[int] = None,
        recorder: Optional[RunRecorder] = None,
        fault_injector=None,
    ):
        if config is None:
            config = AsyncConfig(
                local_iterations=local_iterations,
                block_size=block_size,
                seed=seed,
                omega=omega,
            )
        super().__init__(
            stopping,
            residual_every=(
                config.residual_every if residual_every is None else residual_every
            ),
            recorder=recorder,
        )
        self.config = config
        self.shards = int(shards)
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self.max_staleness = int(max_staleness)
        self.placement = placement
        self.recovery = recovery
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.advance_timeout = float(advance_timeout)
        self.partition = partition if partition is not None else config.partition
        overlap = (
            self.partition.overlap
            if isinstance(self.partition, Partition)
            else parse_partition_spec(self.partition)[2]
        )
        if overlap > 0:
            raise ValueError(
                "repro.dist shards run disjoint blocks; async-RAS (an '+oK' "
                "partition) runs in-process only — drop the suffix or --shards"
            )
        self.fault_injector = fault_injector
        self.name = (
            config.method_name
            if self.shards == 1
            else f"dist({self.shards})-{config.method_name}"
        )
        self.last_telemetry: Optional[Dict[str, Any]] = None

    def _view(self, A: CSRMatrix) -> BlockRowView:
        part = make_partition(A, self.partition, block_size=self.config.block_size)
        return BlockRowView(A, partition=part)

    def _run(
        self, A: CSRMatrix, b: np.ndarray, x: np.ndarray, view: BlockRowView
    ) -> SolveResult:
        part = view.partition
        plan = make_shard_plan(part, self.shards, placement=self.placement, A=A)
        recorder = self.recorder if self.recorder is not None else RunRecorder()
        b_norm = float(np.linalg.norm(b))
        loop = RunLoop(
            self.stopping, residual_every=self.residual_every, recorder=recorder
        )
        runtime = DistRuntime(
            A,
            b,
            plan,
            self.config,
            x0=x,
            max_staleness=self.max_staleness,
            recovery=self.recovery,
            heartbeat_timeout=self.heartbeat_timeout,
            advance_timeout=self.advance_timeout,
            recorder=recorder,
            fault_injector=self.fault_injector,
        )

        def step(xv: np.ndarray, it: int) -> None:
            runtime.advance(it)
            xv[:] = runtime.state.x
            return None

        def residual_norm(xv: np.ndarray) -> float:
            return float(np.linalg.norm(A.residual(xv, b)))

        with runtime:
            outcome = loop.run(
                x, step, residual_norm, b_norm=b_norm, method=self.name
            )
            runtime.stop_workers()
            settled = np.array(runtime.state.x)
            payloads = runtime.shard_payloads()
            recoveries = list(runtime.recoveries)

        residuals = outcome.residuals
        riters = outcome.residual_iters
        converged = outcome.converged
        max_epoch = max(
            [int(p.get("sweeps", 0)) for p in payloads.values()],
            default=outcome.sweeps,
        )
        settled_res = residual_norm(settled)
        if settled_res != float(residuals[-1]):
            # Shards that ran ahead of the last recorded residual moved the
            # iterate after the loop's final sample; the settled state gets
            # its own sample.  (Never fires with one shard: lock-step means
            # nothing moved, keeping that history bitwise the in-process
            # solver's.)
            residuals = np.append(residuals, settled_res)
            riters = np.append(riters, max(max_epoch, int(riters[-1]) + 1))
            recorder.record_residual(int(riters[-1]), settled_res)
            converged = self.stopping.converged(
                settled_res, self.stopping.threshold(b_norm)
            )

        dist_info = self._dist_summary(plan, payloads, recoveries, runtime.lead)
        result = SolveResult(
            x=settled,
            residuals=residuals,
            converged=converged,
            method=self.name,
            b_norm=b_norm,
            info={
                "diverged": outcome.diverged,
                "sweeps": outcome.sweeps,
            },
        )
        if self.residual_every != 1 or len(riters) != len(residuals):
            result.residual_iters = riters

        update_counts = np.zeros(part.nblocks, dtype=np.int64)
        backends = sorted(
            {str(p.get("backend")) for p in payloads.values() if "backend" in p}
        )
        sched_bound = 0
        for p in payloads.values():
            blo, bhi = p.get("block_range", (0, 0))
            counts = np.asarray(p.get("update_counts", []), dtype=np.int64)
            m = min(len(counts), bhi - blo)
            update_counts[blo : blo + m] += counts[:m]
            sched_bound = max(sched_bound, int(p.get("scheduler_staleness_bound", 0)))
        result.info.update(
            {
                "backend": backends[0] if len(backends) == 1 else backends,
                "nblocks": part.nblocks,
                "block_size": self.config.block_size,
                "local_iterations": self.config.local_iterations,
                "update_counts": update_counts,
                "staleness_bound": sched_bound,
                "off_block_fraction": view.off_block_fraction(),
                "order": self.config.order,
                "partition": view.partition_telemetry(),
                "dist": dist_info,
            }
        )
        recorder.annotate(
            backend=result.info["backend"],
            nblocks=part.nblocks,
            staleness_bound=sched_bound,
            update_counts=update_counts.tolist(),
            partition=view.partition_telemetry(),
            dist=dist_info,
        )
        self.last_telemetry = {
            "schema": DIST_SCHEMA,
            "plan": plan.telemetry(),
            "driver": recorder.to_dict(),
            "shards": [payloads[s] for s in sorted(payloads)],
            "recoveries": recoveries,
            "dist": dist_info,
        }
        return result

    # ------------------------------------------------------------------ #

    def _dist_summary(
        self,
        plan,
        payloads: Dict[int, Dict[str, Any]],
        recoveries: List[Dict[str, Any]],
        lead: int,
    ) -> Dict[str, Any]:
        """Aggregate the per-shard samples into ``result.info["dist"]``."""
        hist = np.zeros(self.max_staleness, dtype=np.int64)
        stale_max = 0
        shard_rows = []
        for sid in sorted(payloads):
            p = payloads[sid]
            stale = np.asarray(p.get("staleness", []), dtype=np.int64)
            if len(stale):
                stale_max = max(stale_max, int(stale.max()))
                counts = np.bincount(stale, minlength=len(hist))
                if len(counts) > len(hist):
                    hist = np.pad(hist, (0, len(counts) - len(hist)))
                hist[: len(counts)] += counts
            run = p.get("run", {})
            seconds = float(np.sum(run.get("sweeps", {}).get("seconds", [])))
            sweeps = int(p.get("sweeps", 0))
            halo = p.get("halo_seconds", [])
            shard_rows.append(
                {
                    "shard": sid,
                    "sweeps": sweeps,
                    "sweep_rate": sweeps / seconds if seconds > 0 else None,
                    "halo_seconds_mean": float(np.mean(halo)) if len(halo) else 0.0,
                    "block_range": list(p.get("block_range", [])),
                    "row_range": list(p.get("row_range", [])),
                    "rebuilds": int(p.get("rebuilds", 0)),
                    "error": p.get("error"),
                }
            )
        return {
            "nshards": self.shards,
            "placement": self.placement,
            "max_staleness": self.max_staleness,
            "lead": lead,
            "staleness_max_observed": stale_max,
            "staleness_histogram": hist.tolist(),
            "shard_map": plan.telemetry(),
            "shards": shard_rows,
            "recovery": self.recovery,
            "recoveries": recoveries,
        }
