"""Sequential vs batched ensemble execution (the §4.1/§4.3 replica studies).

Given a *config*, :func:`repro.stats.run_ensemble` advances all R replicas
of an ensemble as one ``(R, n)`` multi-vector
(:class:`repro.core.BatchedAsyncEngine`); given a per-seed *factory* it
runs R scalar solves.  This benchmark times both on the paper's fv1 system
for the async-(5) configuration of the convergence studies, the factory
building plain :class:`repro.core.BlockAsyncSolver` solves of the same
config, and checks they agree bitwise — batching is an execution strategy,
not an approximation.

Ensemble sizes: R ∈ {10, 100} by default, plus the paper-scale R = 1000
under ``REPRO_FULL=1``.  The acceptance bar is a ≥ 3× wall-clock speedup at
R = 100.

Runs standalone (``python benchmarks/bench_batched_ensemble.py``) or under
pytest; :func:`compare_ensemble_paths` is importable for smoke tests on
smaller systems.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.matrices import default_rhs, get_matrix
from repro.solvers import StoppingCriterion
from repro.stats import run_ensemble

#: Global iterations per replica (enough sweeps that per-sweep costs, not
#: one-off setup, dominate both paths).
ITERATIONS = 30

#: The fv1 convergence-study configuration (§3.2 block size, async-(5)).
BENCH_CONFIG = AsyncConfig(local_iterations=5, block_size=448, order="gpu")

#: Wall-clock acceptance bar for the batched path at R = 100.
MIN_SPEEDUP_R100 = 3.0


def ensemble_sizes() -> tuple:
    """R values to benchmark; paper-scale 1000 only under ``REPRO_FULL=1``."""
    sizes = (10, 100)
    if os.environ.get("REPRO_FULL", "") == "1":
        sizes += (1000,)
    return sizes


def compare_ensemble_paths(
    A,
    b,
    nruns: int,
    iterations: int,
    config: AsyncConfig,
    *,
    seed0: int = 0,
) -> dict:
    """Time a per-seed factory against a config-driven :func:`run_ensemble`.

    Verifies the two agree bitwise.  Returns ``{"nruns", "iterations", "sequential_s", "batched_s",
    "speedup", "identical"}``.
    """
    stopping = StoppingCriterion(tol=0.0, maxiter=iterations)

    def factory(seed: int) -> BlockAsyncSolver:
        return BlockAsyncSolver(dataclasses.replace(config, seed=seed), stopping=stopping)

    t0 = time.perf_counter()
    seq = run_ensemble(A, b, nruns, iterations, factory=factory, seed0=seed0)
    t1 = time.perf_counter()
    bat = run_ensemble(A, b, nruns, iterations, config=config, seed0=seed0)
    t2 = time.perf_counter()
    identical = all(
        np.array_equal(getattr(seq, f), getattr(bat, f))
        for f in ("mean", "max", "min", "variance")
    )
    seq_s, bat_s = t1 - t0, t2 - t1
    return {
        "nruns": nruns,
        "iterations": iterations,
        "sequential_s": seq_s,
        "batched_s": bat_s,
        "speedup": seq_s / bat_s if bat_s > 0 else float("inf"),
        "identical": identical,
    }


def run_benchmark() -> list:
    """All configured ensemble sizes on fv1; returns the result rows."""
    A = get_matrix("fv1")
    b = default_rhs(A)
    return [
        compare_ensemble_paths(A, b, nruns, ITERATIONS, BENCH_CONFIG)
        for nruns in ensemble_sizes()
    ]


def render(rows: list) -> str:
    lines = [
        f"Batched vs sequential run_ensemble — fv1, {BENCH_CONFIG.method_name}, "
        f"block size {BENCH_CONFIG.block_size}, {ITERATIONS} iterations",
        f"{'R':>6s} {'sequential [s]':>15s} {'batched [s]':>12s} {'speedup':>8s} {'bitwise':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r['nruns']:6d} {r['sequential_s']:15.2f} {r['batched_s']:12.2f} "
            f"{r['speedup']:7.2f}x {'yes' if r['identical'] else 'NO'}"
        )
    return "\n".join(lines)


def _write_artifact(text: str, rows: list) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "batched_ensemble.txt"
    path.write_text(text + "\n")
    (outdir / "batched_ensemble.json").write_text(json.dumps(rows, indent=2) + "\n")
    return path


def test_batched_ensemble_speedup():
    rows = run_benchmark()
    _write_artifact(render(rows), rows)
    for r in rows:
        assert r["identical"], f"paths disagree at R={r['nruns']}"
    by_r = {r["nruns"]: r for r in rows}
    assert by_r[100]["speedup"] >= MIN_SPEEDUP_R100, (
        f"batched path only {by_r[100]['speedup']:.2f}x faster at R=100 "
        f"(need {MIN_SPEEDUP_R100}x): {render(rows)}"
    )


if __name__ == "__main__":
    rows = run_benchmark()
    text = render(rows)
    print(text)
    print(f"\nwrote {_write_artifact(text, rows)}")
    ok = all(r["identical"] for r in rows) and (
        {r["nruns"]: r for r in rows}[100]["speedup"] >= MIN_SPEEDUP_R100
    )
    raise SystemExit(0 if ok else 1)
