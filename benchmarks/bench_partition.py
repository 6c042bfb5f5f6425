"""Cost and benefit of the partition subsystem (:mod:`repro.partition`).

Two claims keep the refactor honest:

* **work balancing pays** — on Trefethen_2000, whose logarithmically
  varying row costs are the paper's §4.1 skew source, ``work_balanced``
  boundaries must cut the nnz imbalance *excess* (``max/mean − 1``, the
  skew above perfectly level thread blocks) by the gate below versus the
  equal-row ``uniform`` cut at the same block count;
* **the abstraction is free** — the default ``uniform`` partition routes
  every solve through :class:`repro.partition.Partition`, and that
  threading must cost < 2% per sweep against the pre-refactor flow
  (boundaries computed inline, view built from the raw array).  Both
  cells time view + engine construction *and* the sweeps, so partition
  construction is charged to the partitioned path.

A third, ungated row reports what building a decomposition costs: the
:class:`repro.sparse.BlockRowView` (one entry classification) and the
engine's sweep-plan compile and warm-up for the backend ``"auto"``
resolves to, on the configurations of the harness workloads
(``benchmarks/harness``) that solve lap3d 64³, fv1 and Trefethen_20000.

Timings use min-of-repeats (the standard noise filter for sub-millisecond
cells).  Artifacts: ``benchmarks/artifacts/BENCH_partition.txt`` (rendered)
and ``BENCH_partition.json`` (machine-readable rows).  Runs standalone
(``python benchmarks/bench_partition.py``) or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import AsyncConfig
from repro.core.engine import AsyncEngine
from repro.matrices import default_rhs, get_matrix
from repro.matrices.grids3d import stencil_laplacian_3d
from repro.partition import make_partition
from repro.runtime import StoppingCriterion
from repro.sparse import BlockRowView

#: Sweeps per timed run (tol=0 keeps the budget fully used).
SWEEPS = 60

#: Min-of-repeats noise filter (the uniform-overhead gate compares two
#: noise-dominated ~equal cells, so it gets a deeper filter than usual).
REPEATS = 7

#: The A5 ablation's Trefethen_2000 setup: 16 blocks of 125 rows.
BALANCE_NBLOCKS = 16

#: Fine decomposition where per-sweep Python overhead is most visible.
OVERHEAD_BLOCK_SIZE = 12

#: Hard gate: work_balanced must cut the imbalance excess this much.
MIN_IMBALANCE_REDUCTION = 1.5

#: Hard gate: uniform partition threading per sweep vs the raw-boundary
#: pre-refactor flow.
MAX_UNIFORM_OVERHEAD = 0.02


def _balance_row() -> dict:
    """Imbalance of uniform vs work_balanced cuts on Trefethen_2000."""
    T = get_matrix("Trefethen_2000")
    bs = T.shape[0] // BALANCE_NBLOCKS
    uniform = make_partition(T, f"uniform:{bs}")
    work = make_partition(T, f"work_balanced:{BALANCE_NBLOCKS}")
    ui = uniform.ensure_stats(T).imbalance
    wi = work.ensure_stats(T).imbalance
    return {
        "claim": "imbalance-reduction",
        "matrix": "Trefethen_2000",
        "nblocks": BALANCE_NBLOCKS,
        "uniform_imbalance": ui,
        "work_balanced_imbalance": wi,
        "excess_reduction": (ui - 1.0) / (wi - 1.0) if wi > 1.0 else float("inf"),
        "gate": MIN_IMBALANCE_REDUCTION,
    }


def _overhead_row() -> dict:
    """Per-sweep cost of the partition-threaded uniform path vs raw cuts."""
    A = get_matrix("fv1")
    b = default_rhs(A)
    n = A.shape[0]
    cfg = AsyncConfig(
        local_iterations=1, block_size=OVERHEAD_BLOCK_SIZE, order="gpu", seed=0
    )
    stopping = StoppingCriterion(tol=0.0, maxiter=SWEEPS)

    def run_raw():
        # The pre-refactor flow: grid cuts computed inline, view built
        # from the raw boundary array.
        cuts = np.concatenate(
            [np.arange(0, n, OVERHEAD_BLOCK_SIZE, dtype=np.int64), [n]]
        )
        view = BlockRowView(A, boundaries=cuts)
        AsyncEngine(view, b, cfg).run(stopping=stopping)

    def run_partitioned():
        part = make_partition(A, "uniform", block_size=OVERHEAD_BLOCK_SIZE)
        view = BlockRowView(A, partition=part)
        AsyncEngine(view, b, cfg).run(stopping=stopping)

    # Interleaved min-of-repeats, alternating cell order each repeat so
    # neither path systematically inherits the warmer caches.
    best = {"raw": float("inf"), "partitioned": float("inf")}
    cells = [("raw", run_raw), ("partitioned", run_partitioned)]
    for rep in range(REPEATS):
        for name, fn in cells if rep % 2 == 0 else reversed(cells):
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / SWEEPS)
    raw_s, part_s = best["raw"], best["partitioned"]
    return {
        "claim": "uniform-overhead",
        "matrix": "fv1",
        "block_size": OVERHEAD_BLOCK_SIZE,
        "sweeps": SWEEPS,
        "repeats": REPEATS,
        "raw_s_per_sweep": raw_s,
        "partitioned_s_per_sweep": part_s,
        "overhead": (part_s - raw_s) / raw_s,
        "gate": MAX_UNIFORM_OVERHEAD,
    }


#: (label, matrix, engine config) of the build-time report: the harness
#: workloads' configurations.
BUILD_CASES = [
    ("lap3d 64^3", lambda: stencil_laplacian_3d(64),
     dict(local_iterations=2, block_size=1024, stale_read_prob=1.0)),
    ("fv1", lambda: get_matrix("fv1"), dict(local_iterations=5, block_size=128, order="gpu")),
    ("Trefethen_20000", lambda: get_matrix("Trefethen_20000"),
     dict(local_iterations=2, block_size=256)),
]


def _build_row() -> dict:
    """Min-of-repeats view build and plan build (engine construction) times."""
    cases = []
    for label, load, kwargs in BUILD_CASES:
        A = load()
        b = default_rhs(A)
        cfg = AsyncConfig(seed=0, **kwargs)
        view_s = plan_s = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            view = BlockRowView(A, partition=make_partition(A, "uniform", block_size=cfg.block_size))
            t1 = time.perf_counter()
            engine = AsyncEngine(view, b, cfg)
            t2 = time.perf_counter()
            view_s, plan_s = min(view_s, t1 - t0), min(plan_s, t2 - t1)
        cases.append(
            {"matrix": label, "n": A.shape[0], "nnz": A.nnz, "backend": engine.backend,
             "view_s": view_s, "plan_s": plan_s}
        )
    return {"claim": "build-time", "repeats": REPEATS, "cases": cases}


def run_benchmark() -> list:
    """All cells; returns one result row per claim."""
    return [_balance_row(), _overhead_row(), _build_row()]


def render(rows: list) -> str:
    balance, overhead, build = rows
    lines = [
        f"  {c['matrix']:16s} {c['backend']:8s} view {c['view_s'] * 1e3:7.2f} ms"
        f"  plan {c['plan_s'] * 1e3:7.2f} ms"
        for c in build["cases"]
    ]
    return "\n".join(
        [
            "Partition subsystem — balance benefit and threading cost",
            "",
            f"Trefethen_2000, {balance['nblocks']} blocks:",
            f"  uniform        imbalance (max/mean nnz) {balance['uniform_imbalance']:.5f}",
            f"  work_balanced  imbalance (max/mean nnz) {balance['work_balanced_imbalance']:.5f}",
            f"  imbalance-excess reduction {balance['excess_reduction']:.2f}x"
            f"  (gate >= {balance['gate']:.2f}x)",
            "",
            f"fv1, block size {overhead['block_size']}, {SWEEPS} sweeps, "
            f"min of {REPEATS} repeats (construction + sweeps):",
            f"  raw boundaries     {overhead['raw_s_per_sweep'] * 1e3:8.3f} ms/sweep",
            f"  uniform partition  {overhead['partitioned_s_per_sweep'] * 1e3:8.3f} ms/sweep",
            f"  overhead {overhead['overhead'] * 100:+.3f}%"
            f"  (gate < {overhead['gate'] * 100:.0f}%)",
            "",
            f"Decomposition build, min of {build['repeats']} repeats "
            "(view = BlockRowView, plan = engine construction; reported, no gate):",
            *lines,
        ]
    )


def _write_artifacts(text: str, rows: list) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "BENCH_partition.txt"
    path.write_text(text + "\n")
    (outdir / "BENCH_partition.json").write_text(json.dumps(rows, indent=2) + "\n")
    return path


def _check(rows: list) -> None:
    balance, overhead = rows[:2]
    assert balance["excess_reduction"] >= MIN_IMBALANCE_REDUCTION, (
        f"work_balanced only cuts the imbalance excess "
        f"{balance['excess_reduction']:.2f}x "
        f"(gate {MIN_IMBALANCE_REDUCTION:.2f}x):\n" + render(rows)
    )
    assert overhead["overhead"] < MAX_UNIFORM_OVERHEAD, (
        f"uniform partition threading costs {overhead['overhead'] * 100:.3f}% "
        f"per sweep (gate {MAX_UNIFORM_OVERHEAD * 100:.0f}%):\n" + render(rows)
    )


def test_partition_benchmark():
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
