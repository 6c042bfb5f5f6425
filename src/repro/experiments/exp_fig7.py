"""F7 — Figure 7: convergence of async-(5) versus Gauss-Seidel.

The paper's headline per-iteration result (§4.3): with five local Jacobi
sweeps per block, the block-asynchronous method

* converges about **twice as fast as Gauss-Seidel** on fv1/fv2/fv3 (local
  blocks capture most coupling mass),
* shows **little gain** on Chem97ZtZ and Trefethen_2000 (local blocks are
  essentially diagonal / off-block mass dominates),
* still diverges on s1rmt3m1.
"""

from __future__ import annotations

import numpy as np

from ..core import BlockAsyncSolver
from ..matrices import get_matrix
from ..solvers import GaussSeidelSolver
from ..sparse import BlockRowView
from .report import ExperimentResult, TableArtifact, series_table
from .runner import FIG6_ITERS, iterations_to_tolerance, paper_async_config
from .exp_fig6 import SUMMARY_TOL, convergence_histories

__all__ = ["run"]


def run(quick: bool = True) -> ExperimentResult:
    """Generate all six panels of Figure 7."""
    tables = []
    series = {}
    summary_rows = []
    for name, full_iters in FIG6_ITERS.items():
        maxiter = min(full_iters, 2000) if quick else full_iters
        results = convergence_histories(
            name,
            {
                "Gauss-Seidel": GaussSeidelSolver(),
                "async-(5)": BlockAsyncSolver(paper_async_config(5, seed=1)),
            },
            maxiter,
        )
        npts = min(len(r.residuals) for r in results.values())
        ys = {label: r.relative_residuals()[:npts] for label, r in results.items()}
        x = np.arange(npts, dtype=float)
        series[f"fig7_{name}"] = dict(ys, x=x)
        tables.append(series_table(f"Figure 7 ({name}): relative residual vs iteration", x, ys))

        gs = results["Gauss-Seidel"]
        a5 = results["async-(5)"]
        row = [name]
        speedup = None
        for r in (gs, a5):
            if r.info.get("diverged") or r.relative_residuals()[-1] > 1.0:
                row.append("diverges")
            else:
                it = iterations_to_tolerance(r, SUMMARY_TOL)
                row.append(it if it is not None else f">{maxiter}")
        it_gs = iterations_to_tolerance(gs, SUMMARY_TOL)
        it_a5 = iterations_to_tolerance(a5, SUMMARY_TOL)
        if it_gs and it_a5:
            speedup = it_gs / it_a5
        off = BlockRowView(get_matrix(name), block_size=448).off_block_fraction()
        row.extend([speedup, off])
        summary_rows.append(row)
    tables.insert(
        0,
        TableArtifact(
            title=f"Figure 7 summary: iterations to relative residual {SUMMARY_TOL:g}",
            headers=["matrix", "Gauss-Seidel", "async-(5)", "GS/async-(5) iters ratio", "off-block mass @448"],
            rows=summary_rows,
        ),
    )
    notes = [
        "Expected: iteration ratio ~2 for fv1/fv2/fv3 (small off-block mass), "
        "~1 or below for Chem97ZtZ/Trefethen (local iterations add little), "
        "divergence for s1rmt3m1.",
    ]
    return ExperimentResult("F7", "Convergence of async-(5) vs Gauss-Seidel", tables, series, notes)
