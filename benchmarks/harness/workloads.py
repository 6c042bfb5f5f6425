"""The benchmark's five workloads and the loop that measures one of them.

Each workload draws its inputs (right-hand sides, schedule seeds) from the
benchmark seed; the library only ever sees the generated inputs.  A
workload has a *set-up* (the public entry point doing everything but the
iteration) and an *operation* (one unit of timed work), and checks every
result with code independent of the library.  :func:`run_workload` times
set-ups and operations, or, traced, alternates untraced and traced
operations and splits the traced ones into layers (:mod:`spans`).
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.sparse

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.dist import DistAsyncSolver
from repro.krylov import make_outer_solver
from repro.matrices import default_rhs, get_matrix, stencil_laplacian_3d
from repro.runtime import StoppingCriterion
from repro.serve import SolveRequest, SolveService

from spans import Tracer, layer_table, self_times

#: The library's residual and the independent one below sum in different
#: orders; this relative slack covers their rounding near the tolerance.
RESIDUAL_SLACK = 1.001


def _passed() -> int:
    return 0


@dataclass
class Op:
    """One measured unit of work and what it produced."""

    #: Wall-clock of the unit (a solve, a sharded solve, or a whole stream).
    seconds: float
    #: Submission-to-result time of every request the unit served.
    latencies: List[float]
    attempted: int = 1
    failed: int = 0
    #: Layer statistics the library reports itself (serve, dist).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Single-process baseline seconds of a paired run (dist only).
    serial_s: Optional[float] = None
    #: Result checks, run by the caller outside timing and tracing;
    #: returns the number of failed checks.
    verify: Callable[[], int] = _passed


def _independent(A):
    return scipy.sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def within_tol(S, x, b, tol: float) -> bool:
    """``||b - Ax|| / ||b||`` recomputed with SciPy: finite and at most *tol*."""
    rel = float(np.linalg.norm(b - S @ x) / np.linalg.norm(b))
    return bool(np.isfinite(rel) and rel <= tol * RESIDUAL_SLACK)


def working_set(*matrices) -> int:
    """Bytes of the largest matrix (values + indices) plus six n-vectors."""
    return max(A.nnz * (8 + A.indices.itemsize) + 6 * 8 * A.shape[0] for A in matrices)


class Workload:
    """Inputs drawn from a seed, a set-up, and an operation; see the README
    (and ``BENCHMARK.json``) for why each workload is in the benchmark."""

    name = ""
    #: Fewest timed operations of a full-scale untraced run.
    min_ops = 3
    #: Set-ups of a full-scale untraced run (about 1-2 s of them); their
    #: median is ``setup_s``.  A fixed count, like ``min_ops``, so the
    #: allocator history behind ``peak_rss_mb`` does not depend on speed.
    setup_reps = 7
    #: Run the paired single-process baseline, where a workload has one.
    #: Traced runs turn it off so an operation, and its root span, is the
    #: measured solve alone.
    baseline = True

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.rhs_seed, self.sched_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        self.smoke = smoke
        #: Set while an operation runs traced, so it can label requests.
        self.tracer: Optional[Tracer] = None
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> Op:
        raise NotImplementedError

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def working_set_bytes(self) -> int:
        return working_set(self.A)


class _SolveWorkload(Workload):
    """One ``solve(A, b)`` of an entry point is one operation."""

    tol = 1e-10
    maxiter = 2000

    def solver(self, stopping: StoppingCriterion):
        raise NotImplementedError

    def setup(self) -> Op:
        t0 = time.perf_counter()
        result = self.solver(StoppingCriterion(tol=self.tol, maxiter=0)).solve(self.A, self.b)
        dt = time.perf_counter() - t0
        return Op(dt, [dt], failed=int(not np.all(np.isfinite(result.residuals))))

    def op(self, index: int) -> Op:
        t0 = time.perf_counter()
        stopping = StoppingCriterion(tol=self.tol, maxiter=self.maxiter)
        result = self.solver(stopping).solve(self.A, self.b)
        dt = time.perf_counter() - t0

        def verify() -> int:
            return int(not (result.converged and within_tol(self.S, result.x, self.b, self.tol)))

        return Op(dt, [dt], verify=verify)


class Fv1Async5(_SolveWorkload):
    name = "fv1-async5"
    min_ops = 5
    setup_reps = 40

    def prepare(self) -> None:
        self.A = get_matrix("fv1")
        self.S = _independent(self.A)
        self.b = default_rhs(self.A, kind="random", seed=self.rhs_seed)
        self.config = AsyncConfig(
            local_iterations=5, block_size=128, order="gpu", seed=self.sched_seed
        )

    def solver(self, stopping):
        return BlockAsyncSolver(self.config, stopping=stopping)


class Lap3dStencil(_SolveWorkload):
    name = "lap3d-stencil"
    #: 133 sweeps (about 2 s); 1e-2 takes 309 and leaves too few
    #: operations per run for a steady median.
    tol = 2e-2

    def prepare(self) -> None:
        self.A = stencil_laplacian_3d(24 if self.smoke else 64)
        self.S = _independent(self.A)
        # b = A·1: a random rhs reaches the tolerance in a few sweeps and
        # would time only set-up.
        self.b = default_rhs(self.A)
        self.config = AsyncConfig(
            local_iterations=2, block_size=1024, stale_read_prob=1.0, seed=self.sched_seed
        )

    def solver(self, stopping):
        return BlockAsyncSolver(self.config, stopping=stopping)


class Fv3Pcg(_SolveWorkload):
    name = "fv3-pcg"
    min_ops = 5
    setup_reps = 40

    def prepare(self) -> None:
        self.A = get_matrix("fv3")
        self.S = _independent(self.A)
        self.b = default_rhs(self.A, kind="random", seed=self.rhs_seed)
        self.config = AsyncConfig(local_iterations=2, block_size=256, seed=self.sched_seed)

    def solver(self, stopping):
        return make_outer_solver(
            "pcg", self.A, precond="async:2", config=self.config, stopping=stopping
        )

    def setup(self) -> Op:
        t0 = time.perf_counter()
        self.solver(StoppingCriterion(tol=self.tol, maxiter=self.maxiter))
        dt = time.perf_counter() - t0
        return Op(dt, [dt])


class ServeMix(Workload):
    """Closed wave loop through a fresh :class:`SolveService` per stream."""

    name = "serve-mix"
    min_ops = 2
    setup_reps = 15
    tol = 1e-6
    #: One wave: 8 fv1 async-(5), 4 fv2 async-(5), 4 Trefethen_2000 pcg[async:2].
    #: Batches run in order of their first request: fv2, fv1, Trefethen.
    #: The 8 fv1 responses are then the middle of each wave's latencies,
    #: so the median latency lies inside one batch's completion time
    #: instead of on the gap between two.
    WAVE = ("fv2", "fv1", "Trefethen_2000", "fv1") * 4
    WAVES = 4

    def prepare(self) -> None:
        self.matrices = {name: get_matrix(name) for name in dict.fromkeys(self.WAVE)}
        self.S = {name: _independent(A) for name, A in self.matrices.items()}
        self.config = AsyncConfig(local_iterations=5, block_size=128, order="gpu")
        self.stopping = StoppingCriterion(tol=self.tol, maxiter=200)
        waves = 1 if self.smoke else self.WAVES
        self.requests = []
        for i, name in enumerate(self.WAVE * waves):
            A = self.matrices[name]
            krylov = {"method": "pcg", "precond": "async:2"} if name == "Trefethen_2000" else {}
            b = default_rhs(A, kind="random", seed=self.rhs_seed + i)
            self.requests.append((name, b, self.sched_seed + i, krylov))

    def working_set_bytes(self) -> int:
        return working_set(*self.matrices.values())

    def _service(self) -> SolveService:
        return SolveService(config=self.config, stopping=self.stopping, max_batch=len(self.WAVE))

    def setup(self) -> Op:
        service = self._service()
        zero = StoppingCriterion(tol=self.tol, maxiter=0)
        t0 = time.perf_counter()
        first = {}
        for name, b, seed, krylov in self.requests:
            first.setdefault(name, (b, seed, krylov))
        for name, (b, seed, krylov) in first.items():
            service.submit(SolveRequest(A=self.matrices[name], b=b, seed=seed, stopping=zero, **krylov))
        responses = service.drain()
        dt = time.perf_counter() - t0
        failed = len(first) - sum(r.completed for r in responses)
        return Op(dt, [dt], attempted=len(first), failed=failed)

    def op(self, index: int) -> Op:
        service = self._service()
        per_wave = len(self.WAVE)
        responses = {}
        latencies = []
        t0 = time.perf_counter()
        for w in range(0, len(self.requests), per_wave):
            if self.tracer is not None:
                self.tracer.request = f"op{index}/wave{w // per_wave}"
            wave_start = time.perf_counter()
            offsets = {}
            for i in range(w, w + per_wave):
                name, b, seed, krylov = self.requests[i]
                offsets[f"r{i}"] = time.perf_counter() - wave_start
                service.submit(
                    SolveRequest(A=self.matrices[name], b=b, request_id=f"r{i}", seed=seed, **krylov)
                )
            for response in service.drain():
                responses[response.request_id] = response
                latencies.append(offsets[response.request_id] + response.latency_seconds)
        dt = time.perf_counter() - t0
        stats = service.stats()
        layer = {
            "serve.batches": stats["batches"]["count"],
            "serve.batch.occupancy": stats["batches"]["occupancy"],
            "serve.queue_wait_mean_s": stats["queue"]["mean_wait_seconds"],
        }
        return Op(
            dt,
            latencies,
            attempted=len(self.requests),
            layer=layer,
            verify=lambda: self._verify(responses),
        )

    def _verify(self, responses) -> int:
        """Every response converged; the first of each key is bitwise a lone solve."""
        failed = 0
        seen = set()
        for i, (name, b, seed, krylov) in enumerate(self.requests):
            response = responses.get(f"r{i}")
            if response is None or not response.completed:
                failed += 1
                continue
            result = response.result
            if not (result.converged and within_tol(self.S[name], result.x, b, self.tol)):
                failed += 1
            if name in seen:
                continue
            seen.add(name)
            A = self.matrices[name]
            if krylov:
                direct = make_outer_solver(
                    "pcg",
                    A,
                    precond=krylov["precond"],
                    config=self.config,
                    stopping=self.stopping,
                    residual_every=self.config.residual_every,
                ).solve(A, b)
            else:
                config = dataclasses.replace(self.config, seed=seed)
                direct = BlockAsyncSolver(config, stopping=self.stopping).solve(A, b)
            if not (
                np.array_equal(direct.x, result.x)
                and np.array_equal(direct.residuals, result.residuals)
            ):
                failed += 1
        return failed


class Tref20kShards2(Workload):
    """2-shard solves paired with the same-config single-process solve."""

    name = "tref20k-shards2"
    min_ops = 5
    tol = 1e-9
    MAX_STALENESS = 2

    def prepare(self) -> None:
        self.A = get_matrix("Trefethen_2000" if self.smoke else "Trefethen_20000")
        self.S = _independent(self.A)
        # b = A·1: across random right-hand sides the shard sweeps to 1e-9
        # range over 30-50, which would swamp any change being measured.
        self.b = default_rhs(self.A)
        self.config = AsyncConfig(local_iterations=2, block_size=256, seed=self.sched_seed)

    def _sharded(self, maxiter: int) -> DistAsyncSolver:
        return DistAsyncSolver(
            self.config,
            shards=2,
            max_staleness=self.MAX_STALENESS,
            stopping=StoppingCriterion(tol=self.tol, maxiter=maxiter),
        )

    def setup(self) -> Op:
        t0 = time.perf_counter()
        result = self._sharded(0).solve(self.A, self.b)
        dt = time.perf_counter() - t0
        return Op(dt, [dt], failed=int(not np.all(np.isfinite(result.residuals))))

    def op(self, index: int) -> Op:
        def sharded():
            t0 = time.perf_counter()
            return self._sharded(500).solve(self.A, self.b), time.perf_counter() - t0

        def serial():
            t0 = time.perf_counter()
            solver = BlockAsyncSolver(self.config, stopping=StoppingCriterion(tol=self.tol, maxiter=500))
            return solver.solve(self.A, self.b), time.perf_counter() - t0

        # Alternate which side runs first so drift hits both equally.
        base = base_dt = None
        if not self.baseline:
            dist, dt = sharded()
        elif index % 2 == 0:
            (dist, dt), (base, base_dt) = sharded(), serial()
        else:
            (base, base_dt), (dist, dt) = serial(), sharded()
        info = dist.info["dist"]
        shard_sweeps = sum(s["sweeps"] for s in info["shards"])
        layer = {
            "dist.shard_sweeps": shard_sweeps,
            "dist.useful_ratio": dist.info["sweeps"] * info["nshards"] / shard_sweeps,
            "dist.halo_s_mean": float(np.mean([s["halo_seconds_mean"] for s in info["shards"]])),
            "dist.staleness_max": info["staleness_max_observed"],
        }

        results = [dist] if base is None else [dist, base]

        def verify() -> int:
            failed = sum(
                not (r.converged and within_tol(self.S, r.x, self.b, self.tol)) for r in results
            )
            return failed + int(info["staleness_max_observed"] >= self.MAX_STALENESS)

        return Op(dt, [dt], attempted=len(results), layer=layer, serial_s=base_dt, verify=verify)


WORKLOADS = {
    wl.name: wl for wl in (Fv1Async5, Lap3dStencil, Fv3Pcg, ServeMix, Tref20kShards2)
}


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #


def summary(samples: List[float], value: Optional[float] = None) -> Dict[str, float]:
    """Value (median unless given), quartiles and count of *samples*."""
    samples = [float(v) for v in samples]
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    med = statistics.median(samples)
    return {"value": med if value is None else float(value), "q1": q1, "q3": q3, "n": len(samples)}


def _repeat(run_one: Callable[[int], object], seconds: float, min_ops: int) -> list:
    """Run ``run_one(i)`` until *seconds* are spent, at least *min_ops* times.

    Another run starts only if its expected cost (the median so far) still
    fits, so a run ends near *seconds* rather than up to one cost later.
    """
    done, costs = [], []
    start = time.perf_counter()
    while len(done) < min_ops or (
        time.perf_counter() - start + statistics.median(costs) <= seconds
    ):
        t0 = time.perf_counter()
        done.append(run_one(len(done)))
        costs.append(time.perf_counter() - t0)
    return done


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _checked(op: Op) -> Op:
    op.failed += op.verify()
    op.verify = _passed  # release the results the check held on to
    return op


def run_workload(name: str, seed: int, seconds: float, *, smoke: bool = False) -> dict:
    """Untraced run: a warm-up operation, set-ups, timed operations."""
    wl = WORKLOADS[name](seed, smoke)
    min_ops = 1 if smoke else wl.min_ops
    # A process's first operation pays page faults that the allocator
    # recycles for later ones (about 20% on lap3d-stencil): time warm ones.
    warm = _checked(wl.op(0))
    setups = [wl.setup() for _ in range(1 if smoke else wl.setup_reps)]
    peak = []

    def timed(i: int) -> Op:
        op = _checked(wl.op(i))
        if i == min_ops - 1:
            # Read after a fixed amount of work, so the peak does not
            # depend on how many more operations the host's speed allows.
            peak.append(_peak_rss_mib())
        return op

    ops = _repeat(timed, seconds, min_ops)
    latencies = [v for op in ops for v in op.latencies]
    metrics = {
        "solve_s": summary(latencies),
        "setup_s": summary([op.seconds for op in setups]),
        "req_per_s": summary([len(op.latencies) / op.seconds for op in ops]),
        "peak_rss_mb": summary(peak),
    }
    attempted = sum(op.attempted for op in [warm] + setups + ops)
    failed = sum(op.failed for op in [warm] + setups + ops)
    extras = {"error_rate": summary([failed / attempted])}
    if len(latencies) >= 100:  # at least ten samples lie beyond the p90
        extras["latency_p90_s"] = summary(latencies, float(np.percentile(latencies, 90)))
    serial = [op.serial_s for op in ops if op.serial_s is not None]
    if serial:
        ratios = [s / op.seconds for s, op in zip(serial, ops)]
        speedup = statistics.median(serial) / statistics.median(op.seconds for op in ops)
        extras["speedup_vs_serial"] = summary(ratios, speedup)
    return {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extras": extras,
    }


#: How per-operation layer statistics combine across traced operations.
_LAYER_STATS = {
    "serve.batches": statistics.mean,
    "serve.batch.occupancy": statistics.mean,
    "serve.queue_wait_mean_s": statistics.mean,
    "dist.shard_sweeps": statistics.mean,
    "dist.useful_ratio": statistics.mean,
    "dist.halo_s_mean": statistics.mean,
    "dist.staleness_max": max,
}


def layer_metrics(
    spans: list, table: dict, n_ops: int, layer_stats: List[Dict[str, float]]
) -> Dict[str, float]:
    """Per-layer metrics per traced operation, from spans (and their
    :func:`spans.layer_table`) and the library's own stats."""

    def row(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def per_op(v: float) -> float:
        return v / n_ops

    def total(name: str, attr: str) -> float:
        return sum(s.get(attr, 0) for s in spans if s["name"] == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lookups = [s for s in spans if s["name"] == "serve.cache.lookup"]
    sweep_s = row("sweep", "busy")
    out = {
        "partition.build_s": per_op(row("partition.make", "busy") + row("partition.view", "busy")),
        "plan.warm_s": per_op(row("plan.warm", "busy")),
        "plan.stencil_detect_s": per_op(row("plan.stencil_detect", "busy")),
        "engine.build_s": per_op(row("engine.build", "busy")),
        "precond.build_s": per_op(row("precond.build", "busy")),
        "sweep.calls": per_op(row("sweep", "count")),
        "sweep.s": per_op(sweep_s),
        "sweep.ms_per_call": 1e3 * ratio(sweep_s, row("sweep", "count")),
        "sweep.gbps_computed": ratio(total("sweep", "bytes"), sweep_s) / 1e9,
        "residual.calls": per_op(row("residual", "count")),
        "residual.s": per_op(row("residual", "busy")),
        "runloop.iters": per_op(total("runloop", "iters")),
        "runloop.self_s": per_op(row("runloop", "self")),
        "precond.calls": per_op(row("precond.apply", "count")),
        "precond.s": per_op(row("precond.apply", "busy")),
        "cg.self_s": per_op(row("cg.solve", "self")),
        "bsweep.calls": per_op(row("bsweep", "count")),
        "bsweep.s": per_op(row("bsweep", "busy")),
        "bsweep.ms_per_replica": 1e3 * ratio(row("bsweep", "busy"), total("bsweep", "replicas")),
        "serve.fingerprint_s": per_op(row("serve.fingerprint", "busy")),
        "serve.cache.hits": per_op(sum(s["hit"] for s in lookups)),
        "serve.cache.misses": per_op(sum(not s["hit"] for s in lookups)),
        "serve.cache.miss_s": per_op(sum(s["end"] - s["start"] for s in lookups if not s["hit"])),
        "dist.start_s": per_op(row("dist.start", "busy")),
        "dist.shutdown_s": per_op(row("dist.shutdown", "busy")),
        "dist.advance_wait_s": per_op(row("dist.advance", "busy")),
    }
    for key, combine in _LAYER_STATS.items():
        values = [stats[key] for stats in layer_stats if key in stats]
        out[key] = float(combine(values)) if values else 0.0
    return out


def run_traced(name: str, seed: int, seconds: float, *, smoke: bool = False) -> dict:
    """Traced run: untraced and traced operations alternate; layer metrics.

    Returns the tracer alongside the metrics so the caller can write the
    spans out; ``root_s`` are the durations of the per-operation root
    spans, which the self times of all spans sum to.
    """
    wl = WORKLOADS[name](seed, smoke)
    wl.baseline = False
    tracer = Tracer()
    plain, traced, roots = [], [], []

    def traced_op(i: int) -> Op:
        tracer.request = f"op{i}"
        wl.tracer = tracer
        try:
            with tracer.installed(), tracer.span("op") as root:
                op = wl.op(i)
        finally:
            wl.tracer = None
        roots.append(root["id"])
        return _checked(op)

    def pair(i: int) -> None:
        if i % 2 == 0:
            plain.append(_checked(wl.op(i)))
            traced.append(traced_op(i))
        else:
            traced.append(traced_op(i))
            plain.append(_checked(wl.op(i)))

    warm = _checked(wl.op(0))  # as in run_workload: pair warm operations
    _repeat(pair, seconds, 1)
    table = layer_table(tracer.spans)
    metrics = layer_metrics(tracer.spans, table, len(traced), [op.layer for op in traced])
    t_plain = statistics.median(op.seconds for op in plain)
    t_traced = statistics.median(op.seconds for op in traced)
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
    own = self_times(tracer.spans)
    ops = [warm] + plain + traced
    return {
        "workload": name,
        "seed": seed,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": float(v)} for k, v in metrics.items()},
        "working_set_bytes": wl.working_set_bytes(),
        "traced_solve_s": [op.seconds for op in traced],
        "self_sum_s": sum(own),
        "min_self_s": min(own),
        "layers": table,
        "root_s": [tracer.spans[i]["end"] - tracer.spans[i]["start"] for i in roots],
        "tracer": tracer,
    }
