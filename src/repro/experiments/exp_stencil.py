"""X7 — extension: matrix-free stencil backend vs levels vs reference.

Per-sweep wall time of the three sweep executors across block counts on a
3-D constant-coefficient Laplacian (the workload family of
Rodriguez/Philip's block-relaxation stencil study), plus the stencil
gate's verdict across the matrix suite.  Every timing row is gated by
a bitwise-equality assertion between the three executors' iterates — the
backends are execution strategies, never approximations — so the table
measures exactly one thing: what the matrix-free kernels buy over CSR on
the same arithmetic.  The ``levels`` column forces the level executor,
which runs these whole sweeps one level each on CSR panels: the path
``"auto"`` takes for matrices the stencil gate refuses.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import AsyncEngine
from ..core.schedules import AsyncConfig
from ..matrices import default_rhs, get_matrix, stencil_laplacian_3d
from ..sparse import BlockRowView, dia
from .report import ExperimentResult, TableArtifact

__all__ = ["run"]

#: Snapshot-read regime: every executor is allowed, all bitwise-equal.
_REGIME = dict(order="gpu", stale_read_prob=1.0, seed=0, local_iterations=2)


def _per_sweep(A, b, backend: str, nblocks: int, sweeps: int) -> tuple:
    cfg = AsyncConfig(backend=backend, **_REGIME)
    view = BlockRowView(A, block_size=max(1, A.shape[0] // nblocks))
    eng = AsyncEngine(view, b, cfg)
    x = np.zeros(A.shape[0])
    eng.sweep(x)  # warm: plans compiled, buffers mapped
    t0 = time.perf_counter()
    for _ in range(sweeps):
        eng.sweep(x)
    return (time.perf_counter() - t0) / sweeps, x, eng.backend


def _constant(groups) -> str:
    """``"constant/slice planes"`` over :func:`repro.sparse.dia.plane_modes` blobs."""
    const = sum(g["constant"] for g in groups)
    return f"{const}/{sum(g['planes'] - g['gather'] for g in groups)}"


def _vector_deviation(groups) -> str:
    """Smallest deviation-row fraction of a plane left on a vector, ``-`` if none.

    A slice plane runs constant iff its fraction is at most the cut-off,
    so a group's vector planes are its slice planes past the
    ``constant`` smallest fractions.
    """
    devs = [d for g in groups for d in sorted(g["deviation"].values())[g["constant"]:]]
    return f"{min(devs):.3f}" if devs else "-"


def run(quick: bool = True) -> ExperimentResult:
    """Time stencil vs levels vs reference sweeps across block counts."""
    grid = 24 if quick else 64
    sweeps = 6 if quick else 20
    block_counts = [16, 64, 256] if quick else [16, 64, 256, 1024]
    A = stencil_laplacian_3d(grid)
    b = default_rhs(A)

    rows = []
    for nb in block_counts:
        t_ref, x_ref, _ = _per_sweep(A, b, "reference", nb, sweeps)
        t_lev, x_lev, _ = _per_sweep(A, b, "levels", nb, sweeps)
        t_ste, x_ste, resolved = _per_sweep(A, b, "auto", nb, sweeps)
        assert resolved == "stencil", f"auto resolved {resolved!r} at {nb} blocks"
        assert np.array_equal(x_ste, x_ref) and np.array_equal(x_ste, x_lev)
        rows.append([nb, t_ref, t_lev, t_ste, t_ref / t_ste, t_lev / t_ste])
    timing = TableArtifact(
        title=(
            f"Per-sweep seconds, {grid}^3 7-point Laplacian "
            f"(async-({_REGIME['local_iterations']}), bitwise-equal iterates)"
        ),
        headers=["blocks", "reference", "levels", "stencil", "ref/stencil", "levels/stencil"],
        rows=rows,
    )

    suite = ["fv1", "Chem97ZtZ", "Trefethen_2000", "lap3d7pt_32", "lap3d7pt_aniso_32"]
    if not quick:
        suite = ["fv1", "fv2", "fv3", "Chem97ZtZ", "Trefethen_2000",
                 "lap3d7pt_32", "lap3d19pt_32", "lap3d27pt_24", "lap3d7pt_aniso_32"]
    det_rows = []
    for name in suite:
        M = get_matrix(name)
        view = BlockRowView(M, block_size=max(1, M.shape[0] // 64))
        eng = AsyncEngine(view, default_rhs(M), AsyncConfig(**_REGIME))
        blob = eng.plan.stencil_telemetry()
        if not blob["detected"]:
            det_rows.append([name, "-", "-", "-", "-", "-", eng.backend, blob["reason"]])
            continue
        groups = [blob["residual"], *blob.get("sweep", {}).values()]
        det_rows.append(
            [
                name,
                len(blob["offsets"]),
                f"{blob['fill']:.3f}",
                _constant(groups[:1]),
                _constant(groups[1:]) if len(groups) > 1 else "-",
                _vector_deviation(groups),
                eng.backend,
                "",
            ]
        )
    detection = TableArtifact(
        title=(
            "Stencil gate and plane modes across the matrix suite "
            "(64-block uniform views, snapshot regime)"
        ),
        headers=[
            "matrix", "offsets", "fill", "constant (residual)", "constant (sweep)",
            "vector deviation", "backend", "fallback reason",
        ],
        rows=det_rows,
    )

    speedups = {f"levels_over_stencil_{nb}": r[5] for nb, r in zip(block_counts, rows)}
    notes = [
        "backend='auto' resolves stencil > levels > reference: the matrix-free "
        "kernels engage exactly where a whole sweep is exact AND structure "
        "detection succeeds; general CSR matrices run the level executor, one "
        "level per sweep there, with the gate's reason recorded in partition "
        "telemetry.",
        "The levels column runs the same whole sweep on CSR panels: one gather "
        "per panel lane and product, where the slice kernels stream offset "
        "planes.",
        "Plane modes: a slice plane whose rows deviate from its modal weight "
        f"in at most {dia._CONSTANT_DEVIATIONS:.0%} of rows (holes included) runs "
        "constant — a scalar ufunc plus a deviation-row fix-up — and streams no "
        "weight vector; 'vector deviation' is the smallest such fraction among "
        "planes that stayed on vectors (fv*'s variable coefficients, "
        "Trefethen's prime diagonal).",
    ]
    return ExperimentResult(
        "X7", "Extension: matrix-free stencil backend", [timing, detection], speedups, notes
    )
