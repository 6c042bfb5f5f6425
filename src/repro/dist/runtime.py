"""The driver side of a sharded solve: processes, progress, recovery.

:class:`DistRuntime` owns everything that lives *around* the worker
processes of one distributed solve:

* the :class:`repro.dist.shm.SharedState` segment (created here, unlinked
  here — workers only attach);
* the worker processes themselves (fork where available, spawn
  otherwise) and the result queue their telemetry payloads come back on;
* the **outer progress protocol**: :meth:`advance` publishes the sweep
  target ``it + 1 + lead`` (``lead = max_staleness − 1`` sweeps of
  run-ahead; zero for one shard, which makes that case strict lock-step)
  and waits until every live shard has completed sweep ``it + 1``;
* **failure handling** while waiting: a live shard that is behind and
  whose process has died — or whose heartbeat went silent for
  ``heartbeat_timeout`` seconds — is recovered mid-solve, either by
  re-spawning a fresh process into the same slot (``recovery="respawn"``;
  the shared iterate and epoch counter survive, so no progress is lost
  beyond the interrupted sweep) or by reassigning its block range to the
  adjacent live shard (``recovery="reassign"``; the neighbour notices the
  widened range at its next sweep start and rebuilds — the same
  reassignment idea as :mod:`repro.core.recovery`, one level up).

Shutdown is deadlock-aware: the stop flag is raised first, the result
queue is drained *before* joining (a ``multiprocessing.Queue`` feeder
thread blocks the child's exit while the pipe buffer is full), and
stragglers are terminated, then killed.  The segment is closed and
unlinked unconditionally.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_mod
import time
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.schedules import AsyncConfig
from ..runtime.recorder import RunRecorder
from ..sparse import CSRMatrix
from .plan import ShardPlan
from .shm import SharedState
from .worker import WorkerSpec, worker_main

__all__ = ["DIST_SCHEMA", "DistRuntime", "RECOVERY_POLICIES"]

#: Version tag of the distributed telemetry export.
DIST_SCHEMA = "repro.dist/v1"

#: Supported reactions to a dead or silent shard.
RECOVERY_POLICIES = ("respawn", "reassign")


def _preferred_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _shard_config(config: AsyncConfig, sid: int) -> AsyncConfig:
    """Per-shard schedule seed: shard 0 keeps the base config bitwise."""
    if sid == 0:
        return config
    try:
        seed = int(config.seed) + sid
    except (TypeError, ValueError):
        seed = sid
    return dataclasses.replace(config, seed=seed)


class DistRuntime:
    """Spawns, paces, monitors and reaps the shard workers of one solve.

    Use as a context manager (or call :meth:`start` / :meth:`shutdown`);
    the segment and every child process are cleaned up on exit even when
    the solve raised.

    Parameters
    ----------
    A, b:
        The system **in partition order** (workers slice their own rows).
    plan:
        The :class:`repro.dist.ShardPlan` mapping blocks to shards.
    config:
        Base :class:`repro.core.AsyncConfig`; shard *s* runs with seed
        ``config.seed + s`` (shard 0 keeps the base config bitwise).
    x0:
        Initial iterate in partition order (defaults to zeros).
    max_staleness:
        Outer-sweep bound: no shard may run more than this many sweeps
        ahead of the slowest live shard (measured in the workers,
        enforced on both sides — the driver publishes targets with
        ``max_staleness − 1`` sweeps of run-ahead).
    recovery:
        ``"respawn"`` or ``"reassign"`` (see module docstring).
    heartbeat_timeout:
        Seconds of heartbeat silence after which a live-but-stuck shard
        counts as failed.
    advance_timeout:
        Hard ceiling on one :meth:`advance` call — a RuntimeError after
        this long means recovery itself failed.
    fault_injector:
        Optional hook ``fault_injector(it, runtime)`` called at the top
        of every :meth:`advance` — the test seam for killing workers
        mid-solve (the §4.5 experiment at the process level).
    """

    def __init__(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        plan: ShardPlan,
        config: AsyncConfig,
        *,
        x0: Optional[np.ndarray] = None,
        max_staleness: int = 2,
        recovery: str = "respawn",
        heartbeat_timeout: float = 5.0,
        advance_timeout: float = 120.0,
        max_respawns: int = 3,
        recorder: Optional[RunRecorder] = None,
        fault_injector=None,
    ):
        if recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got {recovery!r}"
            )
        if max_staleness < 1:
            raise ValueError("max_staleness must be >= 1")
        self.A = A
        self.b = np.asarray(b, dtype=np.float64)
        self.plan = plan
        self.config = config
        self.x0 = x0
        self.max_staleness = int(max_staleness)
        self.recovery = recovery
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.advance_timeout = float(advance_timeout)
        self.max_respawns = int(max_respawns)
        self.recorder = recorder
        self.fault_injector = fault_injector
        self.nshards = plan.nshards
        #: One shard of run-ahead per unit of staleness budget; a single
        #: shard (or a bound of 1) is driven in strict lock-step.
        self.lead = 0 if self.nshards == 1 else self.max_staleness - 1
        self.state: Optional[SharedState] = None
        self.procs: List[Optional[Any]] = [None] * self.nshards
        self.specs: List[Optional[WorkerSpec]] = [None] * self.nshards
        self.payloads: List[Dict[str, Any]] = []
        self.recoveries: List[Dict[str, Any]] = []
        self.respawns = np.zeros(self.nshards, dtype=np.int64)
        self._ctx = _preferred_context()
        self._queue = None
        self._started = False
        self._workers_down = False
        self._down = False

    # --- lifecycle --------------------------------------------------------

    def start(self) -> "DistRuntime":
        """Create the segment, publish ranges, spawn every worker."""
        n = int(self.plan.partition.n)
        self.state = SharedState.create(n, self.nshards)
        if self.x0 is not None:
            self.state.x[:] = self.x0
        for s in range(self.nshards):
            self.state.set_range(s, *self.plan.block_range(s))
        self._queue = self._ctx.Queue()
        bounds = self.plan.partition.boundaries
        for s in range(self.nshards):
            self.specs[s] = WorkerSpec(
                shm_name=self.state.name,
                shard_id=s,
                A=self.A,
                b=self.b,
                boundaries=bounds,
                config=_shard_config(self.config, s),
                max_staleness=self.max_staleness,
                result_queue=self._queue,
            )
            self._spawn(s)
        self._started = True
        return self

    def _spawn(self, sid: int) -> None:
        proc = self._ctx.Process(
            target=worker_main,
            args=(self.specs[sid],),
            name=f"repro-dist-shard-{sid}",
            daemon=True,
        )
        proc.start()
        self.procs[sid] = proc

    def __enter__(self) -> "DistRuntime":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # --- outer progress ---------------------------------------------------

    def advance(self, it: int) -> None:
        """Publish target ``it + 1 + lead``; block until sweep ``it + 1``.

        "Until" means: every *live* shard's epoch counter has reached
        ``it + 1``.  While waiting, dead or silent shards that are behind
        are recovered per the configured policy.
        """
        state = self.state
        if self.fault_injector is not None:
            self.fault_injector(it, self)
        needed = it + 1
        state.publish_target(needed + self.lead)
        deadline = time.monotonic() + self.advance_timeout
        while True:
            live = state.live_shards()
            if len(live) == 0:
                raise RuntimeError("no live shards remain")
            if bool(np.all(state.epochs[live] >= needed)):
                return
            now = time.time()
            for sid in live:
                sid = int(sid)
                if state.epochs[sid] >= needed:
                    continue
                proc = self.procs[sid]
                dead = proc is not None and not proc.is_alive()
                hb = float(state.hb[sid])
                silent = hb > 0.0 and (now - hb) > self.heartbeat_timeout
                if dead or silent:
                    self._recover(sid, it, "died" if dead else "heartbeat-silent")
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"advance({it}) timed out after {self.advance_timeout:.0f}s "
                    f"(epochs={state.epochs.tolist()}, "
                    f"alive={state.alive.tolist()})"
                )
            time.sleep(1e-3)

    # --- recovery ---------------------------------------------------------

    def _recover(self, sid: int, it: int, cause: str) -> None:
        """React to shard *sid* failing during sweep ``it + 1``."""
        proc = self.procs[sid]
        if proc is not None:
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate refused
                proc.kill()
                proc.join(timeout=5.0)
        event: Dict[str, Any] = {
            "sweep": int(it),
            "shard": int(sid),
            "cause": cause,
            "action": self.recovery,
        }
        if self.recovery == "respawn":
            if self.respawns[sid] >= self.max_respawns:
                raise RuntimeError(
                    f"shard {sid} exceeded {self.max_respawns} respawns"
                )
            self.respawns[sid] += 1
            self._spawn(sid)
            event["respawn"] = int(self.respawns[sid])
        else:  # reassign
            absorber = self._reassign(sid)
            event["absorbed_by"] = int(absorber)
        self.recoveries.append(event)
        if self.recorder is not None:
            data = {k: v for k, v in event.items() if k != "sweep"}
            try:
                self.recorder.record_event(int(it), "shard-recovery", **data)
            except RuntimeError:  # pragma: no cover - no open run yet
                pass

    def _reassign(self, sid: int) -> int:
        """Fold *sid*'s block range into the adjacent live shard."""
        state = self.state
        state.alive[sid] = 0
        self.procs[sid] = None
        dlo, dhi = state.get_range(sid)
        for t in map(int, state.live_shards()):
            tlo, thi = state.get_range(t)
            if thi == dlo:
                state.set_range(t, tlo, dhi)
                return t
            if tlo == dhi:
                state.set_range(t, dlo, thi)
                return t
        raise RuntimeError(
            f"no live shard adjacent to shard {sid}'s blocks [{dlo}, {dhi})"
        )

    def kill_shard(self, sid: int) -> None:
        """Hard-kill shard *sid*'s process (test fault injection)."""
        proc = self.procs[sid]
        if proc is not None and proc.is_alive():
            proc.kill()

    # --- teardown ---------------------------------------------------------

    def _drain(self, timeout: float = 15.0) -> None:
        """Collect worker payloads; never join an undrained queue.

        Returns as soon as every spawned shard has delivered its payload or
        exited (an exited worker's payload is already in the pipe), so the
        last payload does not wait out a final empty poll.
        """
        deadline = time.monotonic() + timeout
        pending = {sid for sid, p in enumerate(self.procs) if p is not None}
        while pending and time.monotonic() < deadline:
            try:
                payload = self._queue.get(timeout=0.1)
            except queue_mod.Empty:
                pending = {sid for sid in pending if self.procs[sid].is_alive()}
                continue
            self.payloads.append(payload)
            if "error" not in payload:  # a crashed predecessor's report is not it
                pending.discard(payload.get("shard"))
        while True:
            try:
                self.payloads.append(self._queue.get_nowait())
            except queue_mod.Empty:
                break

    def stop_workers(self) -> None:
        """Stop flag, drain payloads, join (terminate, then kill) workers.

        Leaves the segment mapped so the caller can still read the settled
        iterate; :meth:`shutdown` releases it.
        """
        if self._workers_down or not self._started:
            return
        self._workers_down = True
        self.state.request_stop()
        self._drain()
        for proc in self.procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate refused
                proc.kill()
                proc.join(timeout=5.0)
        self._queue.close()
        self._queue.join_thread()

    def shutdown(self) -> None:
        """Stop everything and release the segment (idempotent)."""
        if self._down:
            return
        self._down = True
        if self.state is None:
            return
        try:
            self.stop_workers()
        finally:
            self.state.close()
            self.state.unlink()

    # --- telemetry --------------------------------------------------------

    def shard_payloads(self) -> Dict[int, Dict[str, Any]]:
        """Latest non-error payload per shard id (errors kept as fallback)."""
        out: Dict[int, Dict[str, Any]] = {}
        for p in self.payloads:
            sid = int(p.get("shard", -1))
            if sid < 0:
                continue
            if "error" not in p or sid not in out:
                out[sid] = p
        return out
