"""T2/T3/F5 — the §4.1 non-determinism study.

Runs the async-(5) ensemble at the paper's block size 128 on fv1 and
Trefethen_2000, reproducing

* **Table 2 / Table 3** — average, max, min residual, absolute and
  relative variation, variance, standard deviation and standard error at
  the paper's checkpoints;
* **Figure 5** — the same data as series (average convergence, absolute
  variation, relative variation);
* an **off-block-mass ablation** (the paper's explanatory mechanism):
  variation versus block size, showing variation shrink as local blocks
  capture more coupling.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..matrices import default_rhs, get_matrix
from ..sparse import BlockRowView
from ..stats import run_ensemble
from .report import ExperimentResult, TableArtifact
from .runner import VARIATION_BLOCK_SIZE, ensemble_runs, paper_async_config

__all__ = ["run"]

#: (matrix, iterations, checkpoint stride) as in the paper's tables.
_CASES = {
    "T2": ("fv1", 150, 10),
    "T3": ("Trefethen_2000", 50, 5),
}


def _stats_table(tag: str, name: str, stats) -> TableArtifact:
    headers = [
        "# global iters",
        "averg. res.",
        "max. res.",
        "min. res.",
        "abs. var.",
        "rel. var.",
        "variance",
        "std dev",
        "std err",
    ]
    return TableArtifact(
        title=f"Table {tag[1]}: variation statistics over {stats.nruns} runs, {name}",
        headers=headers,
        rows=stats.rows(),
    )


def run(quick: bool = True) -> ExperimentResult:
    """Run both ensembles and the block-size ablation.

    Every ensemble is config-driven, so :func:`repro.stats.run_ensemble`
    advances all its runs as one batched multi-vector solve.
    """
    nruns = ensemble_runs(quick)
    tables = []
    series: Dict[str, Dict[str, np.ndarray]] = {}
    notes = [f"ensemble size: {nruns} runs (paper: 1000; set REPRO_RUNS to change)"]

    for tag, (name, iters, stride) in _CASES.items():
        A = get_matrix(name)
        b = default_rhs(A)
        cfg = paper_async_config(5, block_size=VARIATION_BLOCK_SIZE)
        checkpoints = list(range(stride, iters + 1, stride))
        stats = run_ensemble(A, b, nruns, iters, config=cfg, checkpoints=checkpoints)
        tables.append(_stats_table(tag, name, stats))
        notes.append(
            f"{name}: relative-variation growth slope "
            f"{stats.variation_growth():+.2e} per iteration (Fig. 5e/5f trend)."
        )
        series[f"fig5_{name}"] = {
            "x": stats.checkpoints.astype(float),
            "average": stats.mean,
            "abs_variation": stats.abs_variation,
            "rel_variation": stats.rel_variation,
        }

    # Ablation: variation versus block size (off-block mass is the paper's
    # §4.1 explanation for where variation comes from).
    abl_rows = []
    abl_runs = max(10, nruns // 3)
    A = get_matrix("fv1")
    b = default_rhs(A)
    for bs in (64, 128, 448):
        view = BlockRowView(A, block_size=bs)
        cfg = paper_async_config(5, block_size=bs)
        st = run_ensemble(A, b, abl_runs, 60, config=cfg, checkpoints=[40])
        abl_rows.append([bs, view.off_block_fraction(), float(st.rel_variation[0])])
    tables.append(
        TableArtifact(
            title="Ablation: run-to-run variation vs block size (fv1, rel. var. at iter 40)",
            headers=["block size", "off-block mass fraction", "rel. variation"],
            rows=abl_rows,
        )
    )
    notes.append(
        "Qualitative reproduction: absolute variations decay exponentially in "
        "lockstep with the residual; relative variation shrinks as the blocks "
        "capture more coupling mass (ablation), the paper's stated mechanism. "
        "Absolute magnitudes differ from the paper (its hardware scheduler is "
        "far less noisy than our per-entry race model for homogeneous systems); "
        "see EXPERIMENTS.md."
    )
    return ExperimentResult("T2/T3/F5", "Non-determinism of block-asynchronous iteration", tables, series, notes)
