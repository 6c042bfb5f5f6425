"""Multiprocess sharded block-asynchronous solving (two-stage multisplitting).

The paper's method tolerates stale off-block components by design — the
exact property that makes shared-nothing sharding viable.  This package
runs a solve across N worker *processes* in the outer-async/inner-sync
two-stage multisplitting shape (Brown et al., PAPERS.md):

* a :class:`ShardPlan` maps a :class:`repro.partition.Partition`'s blocks
  to shards through the shared placement helper
  (:func:`repro.partition.contiguous_placement` — the same splitter the
  simulated multi-GPU layer uses);
* each worker process owns a contiguous row range, compiles its local
  :class:`repro.perf.SweepPlan` and runs inner sweeps through the
  ordinary stencil/levels/reference backend dispatch of
  :class:`repro.core.AsyncEngine`;
* the outer iterate lives in one ``multiprocessing.shared_memory``
  segment, with per-shard epoch counters: workers exchange halo
  (cross-shard) components asynchronously, with the epoch skew between
  shards *measured* and capped by a configurable bound;
* :class:`DistAsyncSolver` drives the whole thing through the unified
  :class:`repro.runtime.RunLoop` and rolls the per-shard
  :class:`repro.runtime.RunRecorder` runs into one ``repro.dist/v1``
  telemetry document.

With ``shards=1`` the pipeline degenerates to a strict lock-step with
the driver and is bitwise-identical to
:class:`repro.core.BlockAsyncSolver` — same iterates, same residual
history, same telemetry residuals — which the test suite asserts.
A killed or stalled shard is detected via its heartbeat/epoch stall and
either re-spawned or its block range reassigned to a neighbour
mid-solve (``recovery="respawn"`` / ``"reassign"``).
"""

from .plan import ShardPlan, make_shard_plan
from .runtime import DIST_SCHEMA, DistRuntime
from .solver import DistAsyncSolver

__all__ = [
    "DIST_SCHEMA",
    "DistAsyncSolver",
    "DistRuntime",
    "ShardPlan",
    "make_shard_plan",
]
