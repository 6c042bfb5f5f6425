"""Self-test of the benchmark harness: ``pytest benchmarks/harness``.

Runs every workload at ``--smoke`` scale through the real command, untraced
and traced, then checks the output against ``BENCHMARK.json`` and the
tracing against the library: every wrap target still exists and records
spans on the workload that exercises it, so a rename in ``src/`` fails here
instead of reading zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each wrap target and the workload the per-layer table marks heavy on it.
HEAVY = {
    "repro.core.block_async.make_partition": "lap3d-stencil",
    "repro.dist.solver.make_partition": "tref20k-shards2",
    "repro.serve.cache.make_partition": "serve-mix",
    "repro.sparse.blocked.BlockRowView.__init__": "lap3d-stencil",
    "repro.perf.plan.SweepPlan.warm_reference": "fv3-pcg",
    "repro.perf.plan.SweepPlan.stencil_kernels": "lap3d-stencil",
    "repro.perf.stencil.detect_stencil": "lap3d-stencil",
    "repro.core.engine.AsyncEngine.__init__": "lap3d-stencil",
    "repro.core.engine.BatchedAsyncEngine.__init__": "serve-mix",
    "repro.krylov.preconditioners.AsyncSweepPreconditioner.__init__": "fv3-pcg",
    "repro.core.engine.AsyncEngine.sweep": "fv1-async5",
    "repro.core.engine.BatchedAsyncEngine.sweep": "serve-mix",
    "repro.sparse.csr.CSRMatrix.residual": "lap3d-stencil",
    "repro.runtime.loop.RunLoop.run": "fv1-async5",
    "repro.runtime.loop.RunLoop.run_batched": "serve-mix",
    "repro.krylov.preconditioners.AsyncSweepPreconditioner.__call__": "fv3-pcg",
    "repro.solvers.cg.ConjugateGradientSolver.solve": "fv3-pcg",
    "repro.serve.service.matrix_fingerprint": "serve-mix",
    "repro.serve.cache.PlanCache.lookup": "serve-mix",
    "repro.dist.runtime.DistRuntime.start": "tref20k-shards2",
    "repro.dist.runtime.DistRuntime.advance": "tref20k-shards2",
    "repro.dist.runtime.DistRuntime.stop_workers": "tref20k-shards2",
    "repro.dist.runtime.DistRuntime.shutdown": "tref20k-shards2",
}

#: Per-operation counts that must repeat exactly at a fixed seed.
COUNTS = (
    "sweep.calls",
    "residual.calls",
    "runloop.iters",
    "precond.calls",
    "bsweep.calls",
    "serve.cache.hits",
    "serve.cache.misses",
)


def _run(*extra):
    """Smoke-run every workload; results by workload name, and wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((HERE / "out" / "last-run.json").read_text())
    return {r["workload"]: r for r in results}, wall


@pytest.fixture(scope="module")
def untraced():
    return _run()


@pytest.fixture(scope="module")
def traced():
    return _run("--trace")[0]


def _span_rows(result):
    lines = (ROOT / result["spans_file"]).read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_smoke_runs_all_workloads_under_a_minute(untraced):
    results, wall = untraced
    assert list(results) == [w["name"] for w in BENCH["workloads"]]
    assert wall < 60
    assert all(r["failed"] == 0 for r in results.values())


def test_metric_names_match_benchmark(untraced, traced):
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for r in untraced[0].values():
        assert set(r["metrics"]) == end_to_end
    for r in traced.values():
        assert set(r["metrics"]) == per_layer
    assert all(m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"])


def test_every_target_exists_and_records_on_its_heavy_workload(traced):
    targets = {f"{module}.{path}" for _, module, path, _ in spans.TARGETS}
    assert targets == set(HEAVY)
    for _, module, path, _ in spans.TARGETS:
        spans.resolve(module, path)
    seen = {name: {row["target"] for row in _span_rows(r)} for name, r in traced.items()}
    for target, workload in HEAVY.items():
        assert target in seen[workload], f"{target} recorded no span on {workload}"


def test_span_rows_carry_the_span_model(traced):
    for r in traced.values():
        for row in _span_rows(r):
            assert {"id", "name", "start", "end", "parent", "request"} <= set(row)
            assert row["end"] >= row["start"]


def test_self_times_are_non_negative_and_sum_to_traced_solve(traced):
    for r in traced.values():
        assert r["min_self_s"] >= 0.0
        assert r["self_sum_s"] == pytest.approx(sum(r["root_s"]), rel=1e-9)
        for root, solve in zip(r["root_s"], r["traced_solve_s"]):
            assert abs(root - solve) <= 0.05 * solve


def test_counts_repeat_at_a_fixed_seed(traced):
    again = _run("--trace")[0]
    for name, r in traced.items():
        if name == "tref20k-shards2":  # shard progress depends on process timing
            continue
        for count in COUNTS:
            assert again[name]["metrics"][count] == r["metrics"][count], (name, count)
