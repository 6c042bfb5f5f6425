"""F6 — Figure 6: convergence of Gauss-Seidel, Jacobi and async-(1).

Per test matrix: residual-vs-iteration histories of the paper's three
methods.  The shapes to reproduce (§4.2):

* Gauss-Seidel converges in roughly half the iterations of Jacobi;
* async-(1) tracks Jacobi's per-iteration convergence;
* s1rmt3m1 (ρ(B) ≈ 2.65 > 1) diverges for all three.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core import BlockAsyncSolver
from ..matrices import default_rhs, get_matrix
from ..runtime import RunRecorder
from ..solvers import GaussSeidelSolver, JacobiSolver, StoppingCriterion
from .report import ExperimentResult, TableArtifact, series_table
from .runner import FIG6_ITERS, iterations_to_tolerance, paper_async_config

__all__ = ["run", "convergence_histories"]

#: Accuracy checkpoint used for the iteration-count summary rows.
SUMMARY_TOL = 1e-9


def convergence_histories(name: str, methods: Dict[str, object], maxiter: int):
    """Residual histories of the given solvers on one suite system."""
    A = get_matrix(name)
    b = default_rhs(A)
    out = {}
    for label, solver in methods.items():
        stopping = StoppingCriterion(tol=0.0, maxiter=maxiter, divergence_limit=1e40)
        solver.stopping = stopping
        out[label] = solver.solve(A, b)
    return out


def run(quick: bool = True, *, telemetry_path: Optional[str] = None) -> ExperimentResult:
    """Generate all six panels of Figure 6.

    ``telemetry_path`` writes a :class:`repro.runtime.RunRecorder` JSON
    document with one run per async solve (per matrix): per-sweep timings,
    the recorded residual history, and engine annotations.
    """
    recorder = RunRecorder() if telemetry_path is not None else None
    tables = []
    series = {}
    summary_rows = []
    for name, full_iters in FIG6_ITERS.items():
        maxiter = min(full_iters, 2000) if quick else full_iters
        results = convergence_histories(
            name,
            {
                "Gauss-Seidel": GaussSeidelSolver(),
                "Jacobi": JacobiSolver(),
                "async-(1)": BlockAsyncSolver(
                    paper_async_config(1, seed=1), recorder=recorder
                ),
            },
            maxiter,
        )
        if recorder is not None:
            # The async solve just closed its run; tag it with the matrix.
            recorder.annotate(experiment="F6", matrix=name)
        ys = {}
        npts = min(len(r.residuals) for r in results.values())
        for label, r in results.items():
            ys[label] = r.relative_residuals()[:npts]
        x = np.arange(npts, dtype=float)
        series[f"fig6_{name}"] = dict(ys, x=x)
        tables.append(series_table(f"Figure 6 ({name}): relative residual vs iteration", x, ys))
        row = [name]
        for label in ("Gauss-Seidel", "Jacobi", "async-(1)"):
            r = results[label]
            if r.info.get("diverged") or r.relative_residuals()[-1] > 1.0:
                row.append("diverges")
            else:
                it = iterations_to_tolerance(r, SUMMARY_TOL)
                row.append(it if it is not None else f">{maxiter}")
        summary_rows.append(row)
    tables.insert(
        0,
        TableArtifact(
            title=f"Figure 6 summary: iterations to relative residual {SUMMARY_TOL:g}",
            headers=["matrix", "Gauss-Seidel", "Jacobi", "async-(1)"],
            rows=summary_rows,
        ),
    )
    notes = [
        "Expected shape: Gauss-Seidel ~2x faster per iteration than Jacobi; "
        "async-(1) tracks Jacobi; s1rmt3m1 diverges for all methods.",
    ]
    if quick:
        notes.append("quick mode caps fv3 at 2000 iterations (paper plots 25000); set quick=False / REPRO_FULL=1.")
    if recorder is not None:
        recorder.dump(telemetry_path)
        notes.append(f"async-run telemetry written to {telemetry_path}.")
    return ExperimentResult("F6", "Convergence of GS / Jacobi / async-(1)", tables, series, notes)
