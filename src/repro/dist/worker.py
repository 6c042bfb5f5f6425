"""The shard worker: inner sweeps on a local subsystem, halo over shm.

Each worker owns a contiguous row range ``[lo, hi)`` of the (partition
ordered) system and runs the *inner* stage of the two-stage
multisplitting there:

* the local square matrix ``A[lo:hi, lo:hi]`` (columns shifted into local
  numbering) goes through the completely ordinary stack — local
  :class:`repro.partition.Partition`, :class:`repro.sparse.BlockRowView`,
  compiled :class:`repro.perf.SweepPlan`, backend-dispatched
  :class:`repro.core.AsyncEngine` — so a shard sweep *is* an engine
  sweep, whole-sweep kernels and all;
* the halo part ``E = A[lo:hi, :] − A[lo:hi, lo:hi]`` (columns outside
  the shard, global numbering) is folded into the right-hand side once
  per outer sweep from a snapshot of the shared iterate:
  ``s = b[lo:hi] − E @ x_shared`` — Eq. (4)'s "global part" at the
  process level.  With one shard the halo is empty and ``s`` is bitwise
  ``b``, which is what makes the ``shards=1`` path exactly the
  in-process solver.

The worker advances while its epoch is behind the driver's published
target **and** within ``max_staleness`` outer sweeps of the slowest live
shard (the bounded-staleness condition; the observed skew is recorded
per sweep).  It re-reads its block range from shared memory at each
sweep start, so the driver can reassign a dead neighbour's blocks to it
mid-solve; on a range change the local subsystem is simply rebuilt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..core.engine import AsyncEngine
from ..core.schedules import AsyncConfig
from ..partition import Partition, extract_block_system
from ..runtime.recorder import RunRecorder
from ..sparse import BlockRowView, CSRMatrix
from .shm import SharedState

__all__ = ["WorkerSpec", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything one worker process needs (picklable for spawn contexts).

    *A* and *b* are the full system **in partition order**; the worker
    slices its own rows (cheap CSR views) so a reassigned block range can
    be rebuilt without further driver help.
    """

    shm_name: str
    shard_id: int
    A: CSRMatrix
    b: np.ndarray
    boundaries: np.ndarray
    config: AsyncConfig
    max_staleness: int
    result_queue: Any
    poll_seconds: float = 2e-4


class _LocalShard:
    """The rebuildable local subsystem of one worker."""

    def __init__(self, spec: WorkerSpec, state: SharedState):
        self.spec = spec
        self.state = state
        self.blo = -1
        self.bhi = -1
        self.rebuilds = 0
        self._build(*state.get_range(spec.shard_id))

    def _build(self, blo: int, bhi: int) -> None:
        spec = self.spec
        bounds = spec.boundaries
        lo, hi = int(bounds[blo]), int(bounds[bhi])
        # The shared halo machinery (repro.partition.halo): square local
        # matrix in shard-local numbering, halo part keeping the global
        # column space so it multiplies the full shared iterate directly —
        # the same decomposition RAS extended blocks use.
        A_local, halo = extract_block_system(spec.A, lo, hi)
        part = Partition(
            boundaries=bounds[blo : bhi + 1] - lo,
            strategy="explicit",
            spec=f"shard[{blo}:{bhi}]",
        )
        view = BlockRowView(A_local, partition=part)
        self.lo, self.hi = lo, hi
        self.blo, self.bhi = blo, bhi
        self.halo = halo
        self.b_shard = spec.b[lo:hi]
        self.engine = AsyncEngine(view, self.b_shard.copy(), spec.config)
        self.x_local = np.array(self.state.x[lo:hi])
        self._halo_buf = np.empty(hi - lo)
        self._snapshot = np.empty(self.state.n)

    def maybe_rebuild(self) -> bool:
        """Adopt a driver-side range change (block reassignment)."""
        blo, bhi = self.state.get_range(self.spec.shard_id)
        if (blo, bhi) == (self.blo, self.bhi):
            return False
        self._build(blo, bhi)
        self.rebuilds += 1
        return True

    def sweep(self) -> float:
        """One outer sweep: halo fold, inner engine sweep, publish.

        Returns the seconds spent in the halo exchange (snapshot + SpMV +
        rhs fold) for the latency telemetry.
        """
        t0 = time.perf_counter()
        # Snapshot of the outer iterate: the only read of other shards'
        # components this sweep (two-stage outer asynchronism).
        np.copyto(self._snapshot, self.state.x)
        self.halo.matvec(self._snapshot, out=self._halo_buf)
        # In place: the shared executors read engine.b at every sweep, so
        # the fold is visible to every backend alike.  With an
        # empty halo the product is +0.0 everywhere and the subtraction
        # reproduces b bitwise (IEEE: v − (+0.0) == v for every v, signed
        # zeros included).
        np.subtract(self.b_shard, self._halo_buf, out=self.engine.b)
        halo_seconds = time.perf_counter() - t0
        self.engine.sweep(self.x_local)
        # Publish: other shards read this only through their next
        # sweep-start snapshot.
        self.state.x[self.lo : self.hi] = self.x_local
        return halo_seconds


def worker_main(spec: WorkerSpec) -> None:
    """Process entry point of shard *spec.shard_id*.

    Runs until the driver raises the stop flag, then ships its telemetry
    (a :class:`repro.runtime.RunRecorder` run plus sweep/halo/staleness
    samples) through ``spec.result_queue``.  Any exception is reported as
    an error payload before the process dies, so the driver can tell a
    crash from a kill.
    """
    state = SharedState.attach(spec.shm_name)
    sid = spec.shard_id
    recorder = RunRecorder()
    payload: Dict[str, Any] = {"shard": sid}
    shard: Optional[_LocalShard] = None
    halo_seconds = []
    staleness = []
    try:
        shard = _LocalShard(spec, state)
        recorder.open_run(
            method=f"shard-{sid}",
            shard=sid,
            nshards=state.nshards,
            rows=[shard.lo, shard.hi],
        )
        state.hb[sid] = time.time()
        while not state.stop:
            epoch = int(state.epochs[sid])
            state.hb[sid] = time.time()
            if epoch >= state.target:
                time.sleep(spec.poll_seconds)
                continue
            skew = epoch - state.min_live_epoch()
            if skew >= spec.max_staleness:
                # Bounded staleness: wait for the slowest live shard.
                time.sleep(spec.poll_seconds)
                continue
            if shard.maybe_rebuild():
                recorder.record_event(
                    epoch, "range-rebuild", rows=[shard.lo, shard.hi]
                )
            t0 = time.perf_counter()
            halo_s = shard.sweep()
            seconds = time.perf_counter() - t0
            recorder.record_sweep(epoch + 1, seconds)
            halo_seconds.append(halo_s)
            staleness.append(max(skew, 0))
            state.epochs[sid] = epoch + 1
            state.hb[sid] = time.time()
        counts = np.bincount(staleness, minlength=1) if staleness else np.zeros(1, np.int64)
        recorder.annotate(
            **shard.engine.decisions(),
            staleness_bound=shard.engine.scheduler.staleness_bound(),
            update_counts=shard.engine.update_counts.tolist(),
            block_range=[shard.blo, shard.bhi],
            rebuilds=shard.rebuilds,
            halo_seconds_mean=float(np.mean(halo_seconds)) if halo_seconds else 0.0,
            staleness_histogram=counts.tolist(),
        )
        recorder.close_run(sweeps=int(state.epochs[sid]))
        payload.update(
            run=recorder.to_dict()["runs"][0],
            sweeps=int(state.epochs[sid]),
            block_range=[shard.blo, shard.bhi],
            row_range=[shard.lo, shard.hi],
            update_counts=shard.engine.update_counts.tolist(),
            scheduler_staleness_bound=shard.engine.scheduler.staleness_bound(),
            backend=shard.engine.backend,
            halo_seconds=halo_seconds,
            staleness=staleness,
            rebuilds=shard.rebuilds,
        )
        spec.result_queue.put(payload)
    except Exception as exc:  # pragma: no cover - crash reporting path
        payload["error"] = f"{type(exc).__name__}: {exc}"
        try:
            spec.result_queue.put(payload)
        except Exception:
            pass
        raise
    finally:
        state.close()
