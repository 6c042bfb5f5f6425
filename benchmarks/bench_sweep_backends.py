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

One more cell runs the paper's headline configuration as the benchmark
harness's fv1-async5 workload does — async-(5) on the ``"gpu"`` order,
blocks of 128 rows — whose per-entry races (0 < γ < 1) make every sweep
a few dependency levels: the level executor's mixed-γ path, timed and
asserted bitwise against the reference loop, with no bar of its own.

Artifacts: ``benchmarks/artifacts/BENCH_sweep.txt`` (rendered) and
``BENCH_sweep.json`` (machine-readable rows).  Runs standalone
(``python benchmarks/bench_sweep_backends.py``) or under pytest.
"""

from __future__ import annotations

import dataclasses
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

#: The harness's fv1-async5 configuration: the "gpu" order's races, a few
#: dependency levels per sweep.
HEADLINE = AsyncConfig(local_iterations=5, block_size=128, order="gpu", seed=0)


def time_backend(view: BlockRowView, b: np.ndarray, config: AsyncConfig, backend: str):
    """Seconds per sweep for one backend; returns ``(dt, x, engine)``."""
    engine = AsyncEngine(view, b, dataclasses.replace(config, backend=backend))
    x = np.zeros(view.n)
    engine.sweep(x)  # warm-up (plan construction, buffers)
    t0 = time.perf_counter()
    for _ in range(SWEEPS):
        engine.sweep(x)
    dt = (time.perf_counter() - t0) / SWEEPS
    return dt, x, engine


def _row(view, b, config, regime) -> dict:
    ref_s, x_ref, eng_ref = time_backend(view, b, config, "reference")
    lev_s, x_lev, eng_lev = time_backend(view, b, config, "levels")
    assert eng_ref.backend == "reference" and eng_lev.backend == "levels"
    return {
        "matrix": "fv1",
        "regime": regime,
        "n": view.n,
        "nblocks": view.nblocks,
        "k": config.local_iterations,
        "sweeps": SWEEPS,
        "levels_mean": eng_lev.decisions()["levels_mean"],
        "reference_s_per_sweep": ref_s,
        "levels_s_per_sweep": lev_s,
        "speedup": ref_s / lev_s if lev_s > 0 else float("inf"),
        "identical": bool(np.array_equal(x_ref.view(np.int64), x_lev.view(np.int64))),
    }


def run_benchmark() -> list:
    """The full grid on fv1, then the headline cell; one result row per cell."""
    A = get_matrix("fv1")
    b = default_rhs(A)
    rows = []
    for nblocks in NBLOCKS:
        view = BlockRowView(A, nblocks=nblocks)
        for k in KS:
            rows.append(_row(view, b, AsyncConfig(local_iterations=k, **BENCH_REGIME), "snapshot"))
            assert rows[-1]["levels_mean"] == 1.0
    view = BlockRowView(A, block_size=HEADLINE.block_size)
    rows.append(_row(view, default_rhs(A, kind="random", seed=0), HEADLINE, "headline"))
    assert rows[-1]["levels_mean"] > 1.0
    return rows


def render(rows: list) -> str:
    lines = [
        f"Sweep execution backends — fv1, {SWEEPS} timed sweeps per cell; snapshot: "
        "order=gpu, stale_read_prob=1 (one level per sweep); headline: the harness's "
        "fv1-async5 (order=gpu, block 128, per-entry races)",
        f"{'regime':>9s} {'nblocks':>8s} {'k':>3s} {'levels/sweep':>13s} {'reference [ms]':>15s} "
        f"{'levels [ms]':>12s} {'speedup':>8s} {'bitwise':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r['regime']:>9s} {r['nblocks']:8d} {r['k']:3d} {r['levels_mean']:13.2f} "
            f"{r['reference_s_per_sweep'] * 1e3:15.3f} {r['levels_s_per_sweep'] * 1e3:12.3f} "
            f"{r['speedup']:7.2f}x {'yes' if r['identical'] else 'NO'}"
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
        if r["regime"] == "snapshot" and r["nblocks"] == max(NBLOCKS):
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
