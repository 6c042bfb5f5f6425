"""Level executor vs reference sweep execution (the :mod:`repro.perf` dispatch seam).

Off the stencil kernels the asynchronous engine runs one of two block
loops: the **levels** backend runs the blocks as dependency levels, and a
sweep that reads no current-sweep write as one level of all blocks — a
handful of whole-system kernels, no Python loop over blocks; the
**reference** backend runs the per-block loop (itself accelerated by the
compiled sweep plan).  Backends are execution strategies, never
approximations — wherever both may run they produce bitwise-identical
iterates, which this benchmark asserts on every timed cell.

The grid covers the regime the one-level sweep targets: fine
decompositions of the paper's fv1 system (the interpreter floor grows
with the block count, the arithmetic does not) for async-(1) and
async-(5), in the snapshot-read regime (full staleness — γ ≡ 0, one level
per sweep).  fv1 passes the offset-plane gate, so ``"auto"`` would run
the stencil kernels: the benchmark forces ``"levels"``.  Acceptance bar:
the level executor is ≥ 3× faster per sweep at 512 blocks for both k.

Artifacts: ``benchmarks/artifacts/BENCH_sweep.txt`` (rendered) and
``BENCH_sweep.json`` (machine-readable rows).  Runs standalone
(``python benchmarks/bench_sweep_backends.py``) or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import AsyncConfig
from repro.core.engine import AsyncEngine
from repro.matrices import default_rhs, get_matrix
from repro.sparse import BlockRowView

#: Timed sweeps per cell (after one untimed warm-up sweep).
SWEEPS = 20

#: Decomposition sizes; the interpreter floor one level removes scales
#: with the block count, so the fine end is where the contrast lives.
NBLOCKS = (128, 512)

#: async-(k) local iteration counts of the paper's convergence studies.
KS = (1, 5)

#: Wall-clock acceptance bar for the level executor at the finest decomposition.
MIN_SPEEDUP_512 = 3.0

#: The snapshot-read regime (γ ≡ 0 through full staleness): the "gpu"
#: order's schedule machinery stays fully exercised, and every sweep is
#: one level, so both backends run the *same* method.
BENCH_REGIME = dict(order="gpu", stale_read_prob=1.0, seed=0)


def time_backend(view: BlockRowView, b: np.ndarray, k: int, backend: str):
    """Seconds per sweep for one backend; returns ``(dt, x, engine)``."""
    cfg = AsyncConfig(local_iterations=k, backend=backend, **BENCH_REGIME)
    engine = AsyncEngine(view, b, cfg)
    x = np.zeros(view.n)
    engine.sweep(x)  # warm-up (plan construction, buffers)
    t0 = time.perf_counter()
    for _ in range(SWEEPS):
        engine.sweep(x)
    dt = (time.perf_counter() - t0) / SWEEPS
    return dt, x, engine


def run_benchmark() -> list:
    """The full grid on fv1; returns one result row per (nblocks, k)."""
    A = get_matrix("fv1")
    b = default_rhs(A)
    rows = []
    for nblocks in NBLOCKS:
        view = BlockRowView(A, nblocks=nblocks)
        for k in KS:
            ref_s, x_ref, eng_ref = time_backend(view, b, k, "reference")
            lev_s, x_lev, eng_lev = time_backend(view, b, k, "levels")
            assert eng_ref.backend == "reference" and eng_lev.backend == "levels"
            assert eng_lev.decisions()["levels_mean"] == 1.0
            rows.append(
                {
                    "matrix": "fv1",
                    "n": view.n,
                    "nblocks": nblocks,
                    "k": k,
                    "sweeps": SWEEPS,
                    "reference_s_per_sweep": ref_s,
                    "levels_s_per_sweep": lev_s,
                    "speedup": ref_s / lev_s if lev_s > 0 else float("inf"),
                    "identical": bool(np.array_equal(x_ref, x_lev)),
                }
            )
    return rows


def render(rows: list) -> str:
    lines = [
        "Sweep execution backends — fv1, snapshot-read regime "
        f"(order=gpu, stale_read_prob=1), {SWEEPS} timed sweeps per cell",
        f"{'nblocks':>8s} {'k':>3s} {'reference [ms]':>15s} {'levels [ms]':>12s} "
        f"{'speedup':>8s} {'bitwise':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r['nblocks']:8d} {r['k']:3d} {r['reference_s_per_sweep'] * 1e3:15.3f} "
            f"{r['levels_s_per_sweep'] * 1e3:12.3f} {r['speedup']:7.2f}x "
            f"{'yes' if r['identical'] else 'NO'}"
        )
    return "\n".join(lines)


def _write_artifacts(text: str, rows: list) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "BENCH_sweep.txt"
    path.write_text(text + "\n")
    (outdir / "BENCH_sweep.json").write_text(json.dumps(rows, indent=2) + "\n")
    return path


def _check(rows: list) -> None:
    for r in rows:
        assert r["identical"], (
            f"backends disagree at nblocks={r['nblocks']}, k={r['k']}"
        )
    for r in rows:
        if r["nblocks"] == max(NBLOCKS):
            assert r["speedup"] >= MIN_SPEEDUP_512, (
                f"level executor only {r['speedup']:.2f}x faster at "
                f"nblocks={r['nblocks']}, k={r['k']} (need {MIN_SPEEDUP_512}x):\n"
                + render(rows)
            )


def test_sweep_backend_speedup():
    rows = run_benchmark()
    _write_artifacts(render(rows), rows)
    _check(rows)


if __name__ == "__main__":
    rows = run_benchmark()
    text = render(rows)
    print(text)
    print(f"\nwrote {_write_artifacts(text, rows)}")
    try:
        _check(rows)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    raise SystemExit(0)
