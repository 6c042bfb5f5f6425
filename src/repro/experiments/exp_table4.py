"""T4 — Table 4: overhead of additional local iterations (fv3).

Two complementary reproductions:

* **Model** — the calibrated timing model regenerates the paper's total
  computation times for async-(1..9) × {100..500} global iterations and
  reports the per-extra-local-iteration overhead it implies (< 5 % per
  sweep, < 35 % at k = 9 — the paper's "local iterations almost come for
  free").
* **Measured** — the Python engine's *own* wall-clock per-sweep cost as a
  function of k, demonstrating the same shape on this implementation
  (local SpMVs touch only block-local data).  The k values are timed in
  interleaved rounds, each k's time the fastest round's, so a drift of
  the host does not land on one k; the table names the execution backend
  and sets the async-(9) overhead beside the paper's < 35 %.  A lower
  per-sweep floor makes that ratio look worse, so the absolute times are
  reported too.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.engine import AsyncEngine
from ..gpu.timing import LOCAL_ITER_FRACTION, PAPER_TABLE4_FV3, async_total_time_fv3
from ..matrices import default_rhs, get_matrix
from ..sparse import BlockRowView
from .report import ExperimentResult, TableArtifact
from .runner import paper_async_config

__all__ = ["run"]


def run(quick: bool = True) -> ExperimentResult:
    """Regenerate Table 4 (model) and measure this engine's overhead."""
    iter_counts = (100, 200, 300, 400, 500)
    rows = []
    for k in range(1, 10):
        row = [f"async-({k})"]
        for n in iter_counts:
            row.append(async_total_time_fv3(k, n))
        rows.append(row)
    model_table = TableArtifact(
        title="Table 4 (modelled): total seconds for async-(k) on fv3",
        headers=["method"] + [str(n) for n in iter_counts],
        rows=rows,
    )

    paper_rows = [
        [f"async-({k})"] + [PAPER_TABLE4_FV3[k][n] for n in iter_counts] for k in range(1, 10)
    ]
    paper_table = TableArtifact(
        title="Table 4 (paper, for comparison)",
        headers=["method"] + [str(n) for n in iter_counts],
        rows=paper_rows,
    )

    # Measured: this engine's sweep cost versus k, the k values interleaved.
    A = get_matrix("fv3")
    b = default_rhs(A)
    view = BlockRowView(A, block_size=448)
    sweeps = 20 if quick else 100
    rounds = 5 if quick else 7
    ks = (1, 2, 3, 5, 7, 9)
    engines = {k: AsyncEngine(view, b, paper_async_config(k, seed=0)) for k in ks}
    iterates = {k: np.zeros(A.shape[0]) for k in ks}
    for k in ks:
        engines[k].sweep(iterates[k])  # warm-up (allocations, cache)
    best = dict.fromkeys(ks, np.inf)
    for _ in range(rounds):
        for k in ks:
            engine, x = engines[k], iterates[k]
            t0 = time.perf_counter()
            for _ in range(sweeps):
                engine.sweep(x)
            best[k] = min(best[k], (time.perf_counter() - t0) / sweeps)
    backends = sorted({engine.backend for engine in engines.values()})
    measured_rows = [[f"async-({k})", best[k] * 1e3, best[k] / best[ks[0]] - 1.0] for k in ks]
    measured_table = TableArtifact(
        title=(
            f"This implementation: measured ms per global sweep (fv3, block 448, "
            f"'{'/'.join(backends)}' backend, fastest of {rounds} interleaved rounds of {sweeps} sweeps)"
        ),
        headers=["method", "ms/sweep", "overhead vs async-(1)"],
        rows=measured_rows,
    )
    notes = [
        f"calibrated per-extra-local-iteration cost fraction: {LOCAL_ITER_FRACTION:.4f} "
        "(paper: 'less than 5%'); async-(9) modelled overhead "
        f"{8 * LOCAL_ITER_FRACTION:.1%} (paper: 'less than 35%').",
        f"measured async-(9) overhead {measured_rows[-1][2]:.1%} against the paper's 'less than "
        f"35%', at {best[ks[0]] * 1e3:.3f} ms (k=1) and {best[ks[-1]] * 1e3:.3f} ms (k=9) per "
        "sweep: the lower the per-sweep floor, the larger the share the local sweeps take.",
        f"measured sweeps ran on the '{'/'.join(backends)}' execution backend (repro.perf); "
        "benchmarks/bench_sweep_backends.py compares backends head to head.",
    ]
    return ExperimentResult(
        "T4", "Local-iteration overhead", [model_table, paper_table, measured_table], {}, notes
    )
