"""X8 — extension: asynchronous restricted additive Schwarz vs async-(k).

Sweeps-to-tolerance of async-RAS on ``+oK`` overlapped partitions against
the plain disjoint-block async-(k) solver, across overlap depths, plus
the partition-level cost of the overlap (duplicated rows/nnz and the
fraction of off-block coupling the halos capture).  The ``o=0`` row runs
the completely unchanged async-(k) engine — the same code path as every
other experiment — so the table's baseline is the historical solver
bitwise, not a re-implementation.
"""

from __future__ import annotations

from ..core.block_async import BlockAsyncSolver
from ..matrices import default_rhs, get_matrix
from ..partition import make_partition
from ..solvers.base import StoppingCriterion
from .report import ExperimentResult, TableArtifact
from .runner import iterations_to_tolerance, paper_async_config

__all__ = ["run"]

#: §4.1-style moderate block size: enough blocks for the overlap halos to
#: matter on the suite's 2-D grids.
_BLOCK_SIZE = 128

_TOL = 1e-10


def _sweeps_to_tol(A, b, k: int, overlap: int, maxiter: int):
    spec = f"uniform:{_BLOCK_SIZE}" + (f"+o{overlap}" if overlap else "")
    cfg = paper_async_config(k, block_size=_BLOCK_SIZE, partition=spec)
    solver = BlockAsyncSolver(cfg, stopping=StoppingCriterion(tol=_TOL, maxiter=maxiter))
    result = solver.solve(A, b)
    it = iterations_to_tolerance(result, _TOL)
    return it, result.method


def run(quick: bool = True) -> ExperimentResult:
    """Sweeps-to-tolerance, async-RAS vs async-(k), across overlap depths."""
    matrices = ["fv1", "fv2"] if quick else ["fv1", "fv2", "fv3", "Trefethen_2000"]
    overlaps = [0, 8, 32, 128] if quick else [0, 1, 8, 32, 128, 256]
    k = 5
    maxiter = 400 if quick else 30000

    conv_rows = []
    metrics = {}
    for name in matrices:
        A = get_matrix(name)
        b = default_rhs(A)
        base = None
        for overlap in overlaps:
            sweeps, method = _sweeps_to_tol(A, b, k, overlap, maxiter)
            if overlap == 0:
                base = sweeps
            shown = sweeps if sweeps is not None else f">{maxiter}"
            ratio = (
                f"{base / sweeps:.2f}" if (base is not None and sweeps) else "-"
            )
            conv_rows.append([name, method, overlap, shown, ratio])
            if sweeps is not None:
                metrics[f"{name}_o{overlap}_sweeps"] = sweeps
    convergence = TableArtifact(
        title=(
            f"Sweeps to relative residual {_TOL:g} "
            f"(k={k}, uniform:{_BLOCK_SIZE} blocks, +oK overlap = async-RAS)"
        ),
        headers=["matrix", "method", "overlap", "sweeps", "speedup vs o=0"],
        rows=conv_rows,
    )

    cost_rows = []
    for name in matrices:
        A = get_matrix(name)
        for overlap in overlaps[1:]:
            part = make_partition(A, f"uniform:{_BLOCK_SIZE}+o{overlap}")
            s = part.ensure_stats(A)
            cost_rows.append(
                [
                    name,
                    overlap,
                    s.overlap_rows,
                    f"{s.overlap_rows / A.shape[0]:.3f}",
                    s.duplicated_nnz,
                    f"{s.halo_captured_fraction:.3f}",
                ]
            )
    cost = TableArtifact(
        title="Overlap cost and halo coverage (partition stats)",
        headers=[
            "matrix",
            "overlap",
            "overlap rows",
            "rows dup. ratio",
            "duplicated nnz",
            "halo-captured coupling",
        ],
        rows=cost_rows,
    )

    notes = [
        "o=0 rows run the unchanged async-(k) engine (RAS engages only on "
        "overlapped partitions), so the baseline is the historical solver "
        "bitwise.",
        "Overlap pays through the halo-captured coupling column: once the "
        "extended blocks see most of the off-block mass, each block solves "
        "nearly the full local physics and sweeps drop sharply; past that "
        "point extra rows only duplicate work.",
        "RAS gains need k >= 2: with one inner sweep the extended block never "
        "propagates halo information into the owned rows before the "
        "restriction discards the halo iterate.",
    ]
    return ExperimentResult(
        "X8",
        "Extension: asynchronous restricted additive Schwarz",
        [convergence, cost],
        metrics,
        notes,
    )
