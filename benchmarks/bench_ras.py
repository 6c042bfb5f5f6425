"""Asynchronous restricted additive Schwarz vs async-(k).

``+oK`` overlapped partitions (async-RAS) run each block's
inner sweeps on an extended local system (``overlap`` halo rows per
side) and fold only the owned rows back — the restricted-Schwarz analog
of Eq. (4)'s block sweep.  Two properties are gated here:

* **Convergence** — at a substantial overlap the halo captures most of
  the off-block coupling, so async-RAS must reach the tolerance in
  fewer sweeps than the disjoint async-(k) baseline on the paper's
  finite-volume systems.
* **Overhead** — the RAS machinery at a minimal ``o=1`` overlap must
  stay within ``MAX_OVERHEAD`` per sweep of the *reference* CSR
  executor on the same partition: the extended systems duplicate only a
  thin boundary band, so the per-sweep cost is the same block loop plus
  a few halo rows.  (The stencil and one-level sweeps are deliberately not
  the baseline — they batch all blocks into whole-array kernels, a
  speedup orthogonal to what overlap costs.)

Artifacts: ``benchmarks/artifacts/BENCH_ras.txt`` (rendered) and
``BENCH_ras.json`` (machine-readable rows).  Runs standalone
(``python benchmarks/bench_ras.py``) or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import AsyncConfig
from repro.core.block_async import BlockAsyncSolver
from repro.core.engine import AsyncEngine
from repro.matrices import default_rhs, get_matrix
from repro.partition import make_partition
from repro.solvers.base import StoppingCriterion
from repro.sparse import BlockRowView

#: Convergence matrices: both 2-D finite-volume systems where the paper's
#: async-(k) shines and the overlap halos capture real coupling.
MATRICES = ("fv1", "fv2")

#: Block size and local-iteration count of the convergence cells.
BLOCK_SIZE = 128
K = 5

#: Overlap of the gated convergence cells (halo-captured coupling ~ 1/3).
OVERLAP = 32

#: Stopping rule for the sweeps-to-tolerance cells.
TOL = 1e-10
MAXITER = 400

#: Timed sweeps per overhead cell (after one untimed warm-up sweep).
SWEEPS = 30

#: Overhead bar: RAS at o=1 within this fraction of a reference-backend
#: async-(k) sweep on the identically-cut disjoint partition.
MAX_OVERHEAD = 0.15


def sweeps_to_tol(A, b, overlap: int):
    """Sweeps to ``TOL`` (or None) for one overlap depth; o=0 is async-(k)."""
    spec = f"uniform:{BLOCK_SIZE}" + (f"+o{overlap}" if overlap else "")
    cfg = AsyncConfig(
        local_iterations=K,
        block_size=BLOCK_SIZE,
        order="gpu",
        seed=0,
        partition=spec,
    )
    solver = BlockAsyncSolver(cfg, stopping=StoppingCriterion(tol=TOL, maxiter=MAXITER))
    result = solver.solve(A, b)
    rel = result.relative_residuals()
    hits = np.flatnonzero(rel <= TOL)
    return (int(hits[0]) if len(hits) else None), result.method


def time_engine(A, b, overlap: int) -> float:
    """Seconds per sweep; o=0 forces the reference CSR executor."""
    spec = f"uniform:{BLOCK_SIZE}" + (f"+o{overlap}" if overlap else "")
    cfg = AsyncConfig(
        local_iterations=K,
        block_size=BLOCK_SIZE,
        order="gpu",
        seed=0,
        partition=spec,
        backend="auto" if overlap else "reference",
    )
    view = BlockRowView(A, partition=make_partition(A, spec, block_size=BLOCK_SIZE))
    engine = AsyncEngine(view, b, cfg)
    assert engine.backend == ("ras" if overlap else "reference")
    x = np.zeros(view.n)
    engine.sweep(x)  # warm-up (plan compile, halo extraction, buffers)
    t0 = time.perf_counter()
    for _ in range(SWEEPS):
        engine.sweep(x)
    return (time.perf_counter() - t0) / SWEEPS


def run_benchmark() -> dict:
    """Convergence cells across MATRICES plus the o=1 overhead cell on fv1."""
    convergence = []
    for name in MATRICES:
        A = get_matrix(name)
        b = default_rhs(A)
        base, base_method = sweeps_to_tol(A, b, 0)
        ras, ras_method = sweeps_to_tol(A, b, OVERLAP)
        convergence.append(
            {
                "matrix": name,
                "n": A.shape[0],
                "k": K,
                "block_size": BLOCK_SIZE,
                "overlap": OVERLAP,
                "baseline_method": base_method,
                "ras_method": ras_method,
                "baseline_sweeps": base,
                "ras_sweeps": ras,
                "sweep_reduction": (
                    base / ras if (base is not None and ras) else None
                ),
            }
        )

    A = get_matrix("fv1")
    b = default_rhs(A)
    ref_s = time_engine(A, b, 0)
    ras_s = time_engine(A, b, 1)
    overhead = {
        "matrix": "fv1",
        "overlap": 1,
        "k": K,
        "sweeps": SWEEPS,
        "reference_s_per_sweep": ref_s,
        "ras_s_per_sweep": ras_s,
        "overhead_per_sweep": ras_s / ref_s - 1.0 if ref_s > 0 else float("inf"),
    }
    return {"convergence": convergence, "overhead": overhead}


def render(results: dict) -> str:
    lines = [
        f"Async-RAS vs async-({K}) — uniform:{BLOCK_SIZE} blocks, tol {TOL:g}",
        f"{'matrix':>8s} {'baseline':>18s} {'ras':>18s} "
        f"{'base sweeps':>12s} {'ras sweeps':>11s} {'reduction':>10s}",
    ]
    for r in results["convergence"]:
        base = r["baseline_sweeps"] if r["baseline_sweeps"] is not None else f">{MAXITER}"
        ras = r["ras_sweeps"] if r["ras_sweeps"] is not None else f">{MAXITER}"
        red = f"{r['sweep_reduction']:.2f}x" if r["sweep_reduction"] else "-"
        lines.append(
            f"{r['matrix']:>8s} {r['baseline_method']:>18s} {r['ras_method']:>18s} "
            f"{base!s:>12s} {ras!s:>11s} {red:>10s}"
        )
    o = results["overhead"]
    lines += [
        "",
        f"Per-sweep overhead at o=1 on {o['matrix']} "
        f"(RAS loop vs reference executor, {o['sweeps']} timed sweeps):",
        f"  reference {o['reference_s_per_sweep'] * 1e3:.3f} ms   "
        f"ras(o=1) {o['ras_s_per_sweep'] * 1e3:.3f} ms   "
        f"overhead {o['overhead_per_sweep'] * 100:+.1f}%  "
        f"(bar: < {MAX_OVERHEAD * 100:.0f}%)",
    ]
    return "\n".join(lines)


def _write_artifacts(text: str, results: dict) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "BENCH_ras.txt"
    path.write_text(text + "\n")
    (outdir / "BENCH_ras.json").write_text(json.dumps(results, indent=2) + "\n")
    return path


def _check(results: dict) -> None:
    reduced = [
        r
        for r in results["convergence"]
        if r["sweep_reduction"] is not None and r["sweep_reduction"] > 1.0
    ]
    assert reduced, (
        "async-RAS reduced sweeps-to-tolerance on no matrix:\n" + render(results)
    )
    o = results["overhead"]
    assert o["overhead_per_sweep"] < MAX_OVERHEAD, (
        f"RAS o=1 per-sweep overhead {o['overhead_per_sweep'] * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% vs the reference executor:\n" + render(results)
    )


def test_ras_convergence_and_overhead():
    results = run_benchmark()
    _write_artifacts(render(results), results)
    _check(results)


if __name__ == "__main__":
    results = run_benchmark()
    text = render(results)
    print(text)
    print(f"\nwrote {_write_artifacts(text, results)}")
    try:
        _check(results)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    raise SystemExit(0)
