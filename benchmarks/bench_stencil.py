"""Matrix-free stencil backend vs the level executor (:mod:`repro.perf.stencil`).

The backend dispatcher resolves ``backend="auto"`` to the matrix-free
stencil executor wherever the matrix passes the offset-plane gate and the
whole-sweep regimes are exact.  On a 64³ 7-point Laplacian — the canonical
constant-coefficient stencil workload — every sweep then runs as a handful
of offset-shifted slice multiply-adds instead of CSR gathers.  Backends
are execution strategies, never approximations: every timed cell asserts
bitwise-identical iterates across stencil, levels and reference.  Forced
``"levels"`` runs the same whole sweeps on CSR panels, one level per
sweep: the path ``"auto"`` takes for matrices the gate refuses.

The same matrix's convergence check — the residual ``b - A x`` every
global iteration evaluates — runs on the diagonal-offset planes of
:mod:`repro.sparse.dia`; a residual row times it against the ELL product
``b - A.matvec(x)`` it replaces, and checks that all 7 of its planes run
in constant mode (one scalar weight, no weight vector streamed).

One Trefethen_2000 cell (async-(1), 256 blocks) covers the class the gate
admits beyond constant-coefficient grids: a per-row prime diagonal on a
power-of-two band.  It checks that auto resolves stencil with iterates
bitwise those of forced levels and reference, and reports both paths'
ms/sweep without a speed bar.

Acceptance bars: the stencil path is ≥ 2× faster per sweep than the level
executor at 256 blocks (for both async-(1) and async-(2)), with 0 bitwise
mismatches vs the reference executor; the plane residual is ≥ 2× faster
than the ELL residual and ``np.array_equal`` to it.

Artifacts: ``benchmarks/artifacts/BENCH_stencil.txt`` (rendered) and
``BENCH_stencil.json`` (machine-readable: ``{"sweeps": [...], "residual":
{...}, "trefethen": {...}}``).  Runs standalone (``python benchmarks/bench_stencil.py``) or
under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import AsyncConfig
from repro.core.engine import AsyncEngine
from repro.matrices import default_rhs, get_matrix, stencil_laplacian_3d
from repro.sparse import BlockRowView, dia

#: Timed sweeps per cell (after one untimed warm-up sweep).
SWEEPS = 20

#: Grid edge: 64³ = 262144 unknowns, 1.81M nonzeros.
GRID = 64

#: Decomposition sizes; 256 blocks is the gated cell.
NBLOCKS = (64, 256)

#: async-(k) local iteration counts.
KS = (1, 2)

#: Wall-clock acceptance bar for the stencil path at 256 blocks.
MIN_SPEEDUP_256 = 2.0

#: Timed residual evaluations per path (after one untimed warm-up each).
RESIDUALS = 50

#: Wall-clock acceptance bar for the plane residual over the ELL one.
MIN_RESIDUAL_SPEEDUP = 2.0

#: The Trefethen cell: matrix, block count and k.  Reported, not speed-gated.
TREFETHEN = ("Trefethen_2000", 256, 1)

#: The snapshot-read regime (γ ≡ 0 through full staleness): the schedule
#: machinery stays fully exercised and all three backends are exact, so
#: every cell times the *same* method.
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


def _seconds_per_call(fn) -> float:
    fn()  # warm-up (lazy plan construction)
    t0 = time.perf_counter()
    for _ in range(RESIDUALS):
        fn()
    return (time.perf_counter() - t0) / RESIDUALS


def time_residual(A, b: np.ndarray) -> dict:
    """The plane residual ``A.residual`` against the ELL ``b - A.matvec(x)``."""
    x = np.random.default_rng(0).standard_normal(A.shape[1])
    ell_out, plane_out = np.empty(A.shape[0]), np.empty(A.shape[0])

    def ell():
        np.subtract(b, A.matvec(x, out=ell_out), out=ell_out)

    ell_s = _seconds_per_call(ell)
    plane_s = _seconds_per_call(lambda: A.residual(x, b, out=plane_out))
    assert A._dia_builds == 1, "the 7-point Laplacian should take the plane residual"
    modes = dia.plane_modes(A.offset_planes()[0])
    assert modes["constant"] == modes["planes"] == 7, (
        f"the 7-point Laplacian's residual should run all 7 planes constant: {modes}"
    )
    return {
        "matrix": f"lap3d7pt_{GRID}",
        "n": A.shape[0],
        "calls": RESIDUALS,
        "constant_planes": modes["constant"],
        "ell_s_per_call": ell_s,
        "plane_s_per_call": plane_s,
        "speedup_vs_ell": ell_s / plane_s if plane_s > 0 else float("inf"),
        "identical": bool(np.array_equal(plane_out, ell_out)),
    }


def time_trefethen() -> dict:
    """Levels vs auto (stencil) per-sweep time on the Trefethen cell, bitwise-checked."""
    name, nblocks, k = TREFETHEN
    A = get_matrix(name)
    b = default_rhs(A)
    view = BlockRowView(A, nblocks=nblocks)
    _, x_ref, _ = time_backend(view, b, k, "reference")
    lev_s, x_lev, _ = time_backend(view, b, k, "levels")
    ste_s, x_ste, eng_ste = time_backend(view, b, k, "auto")
    bits = x_ste.view(np.int64)
    return {
        "matrix": name,
        "n": view.n,
        "nblocks": nblocks,
        "k": k,
        "sweeps": SWEEPS,
        "auto_backend": eng_ste.backend,
        "levels_s_per_sweep": lev_s,
        "stencil_s_per_sweep": ste_s,
        "identical": bool(
            np.array_equal(bits, x_ref.view(np.int64))
            and np.array_equal(bits, x_lev.view(np.int64))
        ),
    }


def run_benchmark() -> dict:
    """The full grid on the 64³ 7-point Laplacian, its residual row and the Trefethen cell.

    ``sweeps`` holds one row per (nblocks, k); ``residual`` the
    plane-vs-ELL residual timing; ``trefethen`` the Trefethen cell.
    """
    A = stencil_laplacian_3d(GRID)
    b = default_rhs(A)
    rows = []
    for nblocks in NBLOCKS:
        view = BlockRowView(A, block_size=max(1, A.shape[0] // nblocks))
        for k in KS:
            ref_s, x_ref, eng_ref = time_backend(view, b, k, "reference")
            lev_s, x_lev, eng_lev = time_backend(view, b, k, "levels")
            ste_s, x_ste, eng_ste = time_backend(view, b, k, "auto")
            assert eng_ref.backend == "reference" and eng_lev.backend == "levels"
            assert eng_ste.backend == "stencil", (
                f"auto resolved {eng_ste.backend!r} — the stencil gate refused?"
            )
            rows.append(
                {
                    "matrix": f"lap3d7pt_{GRID}",
                    "n": view.n,
                    "nblocks": nblocks,
                    "k": k,
                    "sweeps": SWEEPS,
                    "reference_s_per_sweep": ref_s,
                    "levels_s_per_sweep": lev_s,
                    "stencil_s_per_sweep": ste_s,
                    "speedup_vs_levels": lev_s / ste_s if ste_s > 0 else float("inf"),
                    "speedup_vs_reference": ref_s / ste_s if ste_s > 0 else float("inf"),
                    "identical": bool(
                        np.array_equal(x_ste, x_ref) and np.array_equal(x_ste, x_lev)
                    ),
                }
            )
    return {"sweeps": rows, "residual": time_residual(A, b), "trefethen": time_trefethen()}


def render(result: dict) -> str:
    rows, res = result["sweeps"], result["residual"]
    lines = [
        f"Matrix-free stencil backend — {GRID}^3 7-point Laplacian, snapshot-read "
        f"regime (order=gpu, stale_read_prob=1), {SWEEPS} timed sweeps per cell",
        f"{'nblocks':>8s} {'k':>3s} {'reference [ms]':>15s} {'levels [ms]':>12s} "
        f"{'stencil [ms]':>13s} {'vs levels':>10s} {'vs ref':>8s} {'bitwise':>8s}",
    ]
    for r in rows:
        lines.append(
            f"{r['nblocks']:8d} {r['k']:3d} {r['reference_s_per_sweep'] * 1e3:15.3f} "
            f"{r['levels_s_per_sweep'] * 1e3:12.3f} {r['stencil_s_per_sweep'] * 1e3:13.3f} "
            f"{r['speedup_vs_levels']:9.2f}x {r['speedup_vs_reference']:7.2f}x "
            f"{'yes' if r['identical'] else 'NO'}"
        )
    lines += [
        "",
        f"Residual b - A x, {res['calls']} timed calls: ELL product "
        f"{res['ell_s_per_call'] * 1e3:.3f} ms, diagonal planes "
        f"({res['constant_planes']}/7 constant) "
        f"{res['plane_s_per_call'] * 1e3:.3f} ms, {res['speedup_vs_ell']:.2f}x, "
        f"bitwise {'yes' if res['identical'] else 'NO'}",
    ]
    t = result["trefethen"]
    lines.append(
        f"{t['matrix']}, {t['nblocks']} blocks, k={t['k']}: auto resolves "
        f"{t['auto_backend']}; levels {t['levels_s_per_sweep'] * 1e3:.3f} ms, stencil "
        f"{t['stencil_s_per_sweep'] * 1e3:.3f} ms per sweep, bitwise "
        f"{'yes' if t['identical'] else 'NO'}"
    )
    return "\n".join(lines)


def _write_artifacts(text: str, result: dict) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "BENCH_stencil.txt"
    path.write_text(text + "\n")
    (outdir / "BENCH_stencil.json").write_text(json.dumps(result, indent=2) + "\n")
    return path


def _check(result: dict) -> None:
    rows, res = result["sweeps"], result["residual"]
    for r in rows:
        assert r["identical"], (
            f"backends disagree at nblocks={r['nblocks']}, k={r['k']}"
        )
    for r in rows:
        if r["nblocks"] == max(NBLOCKS):
            assert r["speedup_vs_levels"] >= MIN_SPEEDUP_256, (
                f"stencil path only {r['speedup_vs_levels']:.2f}x faster than levels "
                f"at nblocks={r['nblocks']}, k={r['k']} (need {MIN_SPEEDUP_256}x):\n"
                + render(result)
            )
    assert res["identical"], "plane residual differs from the ELL residual"
    t = result["trefethen"]
    assert t["auto_backend"] == "stencil", f"auto resolved {t['auto_backend']!r} on {t['matrix']}"
    assert t["identical"], f"backends disagree on {t['matrix']}"
    assert res["speedup_vs_ell"] >= MIN_RESIDUAL_SPEEDUP, (
        f"plane residual only {res['speedup_vs_ell']:.2f}x faster than ELL "
        f"(need {MIN_RESIDUAL_SPEEDUP}x):\n" + render(result)
    )


def test_stencil_backend_speedup():
    result = run_benchmark()
    _write_artifacts(render(result), result)
    _check(result)


if __name__ == "__main__":
    result = run_benchmark()
    text = render(result)
    print(text)
    print(f"\nwrote {_write_artifacts(text, result)}")
    try:
        _check(result)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    raise SystemExit(0)
