"""The in-process solve service: cache, admission batching, telemetry.

:class:`SolveService` is the "many concurrent callers" front-end the
batched engine and the plan compiler were built for.  It accepts
independent solve requests and amortises everything that can be shared:

* **compilation** — a structure-keyed :class:`repro.serve.PlanCache`
  hands every request on a known matrix the already-compiled
  :class:`~repro.perf.SweepPlan` / :class:`~repro.partition.Partition`;
* **execution** — admission batching stacks queued same-system requests'
  right-hand sides into one ``(R, n)``
  :class:`repro.core.BatchedAsyncEngine` multi-vector solve, so R
  requests cost one batched sweep stream instead of R scalar ones.  Each
  request keeps its own seed, its own ``||b||``-relative stopping
  threshold, and gets bitwise the iterates a lone sequential solve would
  have produced (the batched engine's exactness contract);
* **observability** — every request lands as a run on the service's
  :class:`repro.runtime.RunRecorder`, and the service rolls the stream up
  into latency percentiles, queue depth, batch occupancy and cache hit
  rate, exported as one strict-JSON document
  (:meth:`SolveService.telemetry_json`, schema ``repro.serve/v1``) that
  parses even when runs diverged (non-finite residuals are sanitised).

The service is deliberately synchronous and explicitly pumped — submit
jobs, then :meth:`~SolveService.pump` one admission round or
:meth:`~SolveService.drain` the queue — which keeps admission order,
batching decisions and telemetry deterministic and testable.  The CLI
``repro serve`` front-end drives it from a JSON-lines job stream.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .._util import check_system
from ..core.engine import AsyncEngine, BatchedAsyncEngine
from ..core.schedules import AsyncConfig
from ..partition import parse_partition_spec
from ..runtime import RunRecorder, StoppingCriterion
from ..solvers.base import SolveResult
from ..sparse.csr import CSRMatrix
from .cache import PlanCache, check_servable_spec
from .fingerprint import matrix_fingerprint
from .jobs import JobQueue, SolveRequest, SolveResponse, _Job, batch_key_of

__all__ = ["SolveService"]


def _percentile(samples: List[float], q: float) -> Optional[float]:
    """The q-th percentile (nearest-rank) of *samples*, ``None`` if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


class _ServiceStats:
    """Rolling service-level counters and samples."""

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.converged = 0
        self.diverged = 0
        self.batches = 0
        self.batch_sizes: List[int] = []
        self.latencies: List[float] = []
        self.queue_waits: List[float] = []
        self.depth_samples: List[int] = []

    def sample_depth(self, depth: int) -> None:
        self.depth_samples.append(int(depth))

    def to_dict(self, *, depth_now: int, max_batch: int, cache: Dict[str, Any]) -> Dict[str, Any]:
        lat = self.latencies
        sizes = self.batch_sizes
        return {
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "timed_out": self.timed_out,
                "converged": self.converged,
                "diverged": self.diverged,
            },
            "latency_seconds": {
                "count": len(lat),
                "mean": float(np.mean(lat)) if lat else None,
                "max": float(np.max(lat)) if lat else None,
                "p50": _percentile(lat, 50),
                "p90": _percentile(lat, 90),
                "p99": _percentile(lat, 99),
            },
            "queue": {
                "depth": depth_now,
                "max_depth": max(self.depth_samples, default=0),
                "mean_wait_seconds": (
                    float(np.mean(self.queue_waits)) if self.queue_waits else None
                ),
            },
            "batches": {
                "count": self.batches,
                "mean_size": float(np.mean(sizes)) if sizes else None,
                "max_size": max(sizes, default=0),
                "occupancy": float(np.mean(sizes)) / max_batch if sizes else None,
            },
            "cache": cache,
        }


class SolveService:
    """Persistent in-process solver-as-a-service.

    Parameters
    ----------
    config:
        Default :class:`repro.core.AsyncConfig` for requests that carry
        none.  Its ``partition``/``block_size`` also key the plan cache.
    stopping:
        Default per-request :class:`repro.runtime.StoppingCriterion`
        budget.
    max_queue:
        Bound of the job queue; overflow evicts the lowest-priority
        queued job in favour of a higher-priority arrival and rejects the
        arrival otherwise.
    max_batch:
        Most requests one admission round stacks into a single
        multi-vector solve.
    cache_capacity:
        Live entries of the structure-keyed plan cache (LRU beyond it).
    recorder:
        Telemetry sink; a fresh :class:`repro.runtime.RunRecorder` is
        created when omitted.
    clock:
        Monotonic time source (injectable for deterministic tests).

    Examples
    --------
    >>> from repro import get_matrix, default_rhs
    >>> from repro.serve import SolveService
    >>> A = get_matrix("fv1"); b = default_rhs(A)
    >>> service = SolveService()
    >>> response = service.solve(A, b)
    >>> response.status, response.result.converged
    ('completed', True)
    """

    #: Version tag of the service telemetry export format.
    SCHEMA = "repro.serve/v1"

    def __init__(
        self,
        *,
        config: Optional[AsyncConfig] = None,
        stopping: Optional[StoppingCriterion] = None,
        max_queue: int = 256,
        max_batch: int = 32,
        cache_capacity: int = 16,
        recorder: Optional[RunRecorder] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.config = config if config is not None else AsyncConfig(local_iterations=5)
        self.stopping = stopping if stopping is not None else StoppingCriterion()
        self.max_batch = int(max_batch)
        self.cache = PlanCache(capacity=cache_capacity)
        self.recorder = recorder if recorder is not None else RunRecorder()
        self._clock = clock
        self._queue = JobQueue(max_queue=max_queue)
        self._stats = _ServiceStats()
        self._pending: List[SolveResponse] = []

    # --- submission -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for admission."""
        return len(self._queue)

    def submit(self, request: SolveRequest) -> Optional[SolveResponse]:
        """Enqueue *request*; returns its rejection response, if rejected.

        ``None`` means the request was queued (its response arrives from a
        later :meth:`pump` / :meth:`drain`).  When submitting displaces a
        lower-priority queued job, that job's rejection response is
        delivered by the next pump.  Raises :class:`ValueError` — before
        anything is queued — for a system no solver accepts (the checks of
        :meth:`repro.solvers.IterativeSolver.solve`), for a permuting
        partition strategy, and for an ``+oK`` partition on a Krylov *method*.
        """
        request.b, _ = check_system(request.A, request.b)
        config = request.config if request.config is not None else self.config
        check_servable_spec(config.partition)
        if request.method != "async" and parse_partition_spec(config.partition)[2] > 0:
            raise ValueError(
                f"partition spec {config.partition!r} is overlapped (async-RAS), "
                f"which only method 'async' runs; drop the '+oK' suffix for "
                f"method {request.method!r}"
            )
        stopping = request.stopping if request.stopping is not None else self.stopping
        now = self._clock()
        job = _Job(
            request=request,
            seq=0,
            submitted_at=now,
            config=config,
            stopping=stopping,
            batch_key=batch_key_of(
                matrix_fingerprint(request.A),
                config,
                stopping,
                request.method,
                request.precond,
            ),
        )
        self._stats.submitted += 1
        rejected = self._queue.push(job)
        self._stats.sample_depth(len(self._queue))
        if rejected is None:
            return None
        response = self._reject_response(rejected, now)
        if rejected is job:
            return response
        self._pending.append(response)
        return None

    def _reject_response(self, job: _Job, now: float) -> SolveResponse:
        self._stats.rejected += 1
        wait = now - job.submitted_at
        return SolveResponse(
            request_id=job.request.request_id,
            status="rejected",
            detail="queue full",
            priority=job.request.priority,
            queue_seconds=wait,
            latency_seconds=wait,
        )

    def _timeout_response(self, job: _Job, now: float) -> SolveResponse:
        self._stats.timed_out += 1
        wait = now - job.submitted_at
        return SolveResponse(
            request_id=job.request.request_id,
            status="timeout",
            detail=f"queued {wait:.3f}s, timeout {job.request.timeout}s",
            priority=job.request.priority,
            queue_seconds=wait,
            latency_seconds=wait,
        )

    # --- execution --------------------------------------------------------

    def pump(self) -> List[SolveResponse]:
        """One admission round: expire, admit one batch, solve, respond."""
        now = self._clock()
        responses = list(self._pending)
        self._pending.clear()
        responses.extend(self._timeout_response(j, now) for j in self._queue.expire(now))
        batch = self._queue.admit(self.max_batch)
        self._stats.sample_depth(len(self._queue))
        if batch:
            responses.extend(self._run_batch(batch))
        return responses

    def drain(self) -> List[SolveResponse]:
        """Pump until the queue is empty; all responses, submission order."""
        responses: List[SolveResponse] = []
        while len(self._queue) or self._pending:
            got = self.pump()
            if not got:
                break
            responses.extend(got)
        return responses

    def solve(self, A: CSRMatrix, b: np.ndarray, **request_kwargs: Any) -> SolveResponse:
        """Submit one request and run it to completion (convenience)."""
        request = SolveRequest(A=A, b=b, **request_kwargs)
        rejection = self.submit(request)
        if rejection is not None:
            return rejection
        for response in self.drain():
            if response.request_id == request.request_id:
                return response
        raise RuntimeError(f"request {request.request_id} produced no response")

    def _run_batch(self, batch: List[_Job]) -> List[SolveResponse]:
        config = batch[0].config
        stopping = batch[0].stopping
        fp = batch[0].batch_key[0]
        entry, hit = self.cache.lookup(
            batch[0].request.A,
            config.partition,
            config.block_size,
            backend=config.backend,
            fingerprint=fp,
        )
        admitted_at = self._clock()
        if batch[0].request.method != "async":
            results = self._run_krylov(entry, batch)
        elif len(batch) == 1:
            results = [self._run_single(entry, batch[0])]
        else:
            results = self._run_batched(entry, batch)
        completed_at = self._clock()
        solve_seconds = completed_at - admitted_at

        self._stats.batches += 1
        self._stats.batch_sizes.append(len(batch))
        responses = []
        for job, result in zip(batch, results):
            queue_seconds = admitted_at - job.submitted_at
            latency = completed_at - job.submitted_at
            self._stats.completed += 1
            self._stats.converged += int(result.converged)
            self._stats.diverged += int(bool(result.info.get("diverged")))
            self._stats.latencies.append(latency)
            self._stats.queue_waits.append(queue_seconds)
            responses.append(
                SolveResponse(
                    request_id=job.request.request_id,
                    status="completed",
                    result=result,
                    priority=job.request.priority,
                    queue_seconds=queue_seconds,
                    solve_seconds=solve_seconds,
                    latency_seconds=latency,
                    batch_size=len(batch),
                    cache_hit=hit,
                )
            )
        return responses

    def _run_krylov(self, entry, batch: List[_Job]) -> List[SolveResult]:
        """Krylov-method jobs: per-request outer solves, shared inner plan.

        The outer recurrences (CG/GMRES/Richardson) don't stack into a
        multi-vector sweep stream, so each request solves on its own —
        but the batch shares one solver whose preconditioner's inner
        sweeps compiled once against the cached ``PlanCache`` view, and
        every solve lands on the service recorder.
        """
        from ..krylov import make_outer_solver

        job0 = batch[0]
        solver = make_outer_solver(
            job0.request.method,
            entry.view.matrix,
            precond=job0.request.precond,
            config=job0.config,
            stopping=job0.stopping,
            view=entry.view,
            residual_every=job0.config.residual_every,
            recorder=self.recorder,
        )
        results = []
        for job in batch:
            result = solver.solve(entry.view.matrix, job.request.b)
            notes = {
                "request_id": job.request.request_id,
                "batch_size": len(batch),
                "batched": False,
                "method": job.request.method,
            }
            if job.request.precond is not None:
                notes["precond"] = job.request.precond
            self.recorder.annotate(**notes)
            results.append(result)
        return results

    def _run_single(self, entry, job: _Job) -> SolveResult:
        """One lone request: the sequential engine on the cached view."""
        config = dataclasses.replace(job.config, seed=job.request.seed)
        engine = AsyncEngine(entry.view, job.request.b, config)
        result = engine.run(stopping=job.stopping, recorder=self.recorder)
        self.recorder.annotate(
            request_id=job.request.request_id, batch_size=1, batched=False
        )
        return result

    def _run_batched(self, entry, batch: List[_Job]) -> List[SolveResult]:
        """R same-system requests as one (R, n) multi-vector solve.

        Each request keeps its own seed and its own ``||b_r||``-relative
        threshold; replica *r*'s iterates are bitwise what a sequential
        solve of request *r* alone would have produced.  The shared
        batched run lands on the service recorder (sweep timings, active
        counts), followed by one derived per-request run carrying that
        request's residual trace and outcome.
        """
        config = batch[0].config
        stopping = batch[0].stopping
        R = len(batch)
        B = np.stack([job.request.b for job in batch])
        engine = BatchedAsyncEngine(
            entry.view,
            B,
            config,
            R,
            seeds=[job.request.seed for job in batch],
        )
        ids = [job.request.request_id for job in batch]
        out = engine.run(
            stopping=stopping,
            residual_every=config.residual_every,
            recorder=self.recorder,
            meta={"request_ids": ids},
        )
        results = []
        for r, job in enumerate(batch):
            history = out.histories[r]
            iters = out.residual_iters[: len(history)]
            b_norm = float(np.linalg.norm(B[r]))
            diverged = bool(out.diverged[r])
            result = SolveResult(
                x=out.X[r].copy(),
                residuals=history,
                converged=bool(out.converged[r]),
                method=config.method_name,
                b_norm=b_norm,
                info={
                    "diverged": diverged,
                    **engine.decisions(),
                    "sweeps": int(iters[-1]),
                    "batched": True,
                    "batch_size": R,
                },
            )
            if config.residual_every != 1:
                result.residual_iters = iters
            results.append(result)
            # Derived per-request telemetry run: the trace a sequential
            # run of this request would have recorded.
            rec = self.recorder
            rec.open_run(
                method=config.method_name,
                request_id=job.request.request_id,
                b_norm=b_norm,
                threshold=stopping.threshold(b_norm),
                maxiter=stopping.maxiter,
                residual_every=config.residual_every,
                tol=stopping.tol,
                relative=stopping.relative,
                batched=True,
                batch_size=R,
            )
            for it, v in zip(iters, history):
                rec.record_residual(int(it), float(v))
            rec.annotate(**engine.decisions(), seed=job.request.seed)
            rec.close_run(
                converged=bool(out.converged[r]),
                diverged=diverged,
                sweeps=int(iters[-1]),
                final_residual=float(history[-1]),
            )
        return results

    # --- telemetry --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service-level rollup: requests, latency percentiles, queue,
        batch occupancy, cache hit rate."""
        return self._stats.to_dict(
            depth_now=len(self._queue),
            max_batch=self.max_batch,
            cache=self.cache.stats(),
        )

    def telemetry(self) -> Dict[str, Any]:
        """The full export: service rollup plus every recorded run."""
        return {
            "schema": self.SCHEMA,
            "service": self.stats(),
            "telemetry": self.recorder.to_dict(),
        }

    def telemetry_json(self, *, indent: int = 2) -> str:
        """Strict (RFC 8259) JSON export — parses even for diverged runs."""
        return json.dumps(self.telemetry(), indent=indent, allow_nan=False)

    def dump_telemetry(self, path) -> None:
        """Write :meth:`telemetry_json` to *path*."""
        with open(path, "w") as fh:
            fh.write(self.telemetry_json())
            fh.write("\n")
