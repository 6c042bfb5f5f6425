"""Async-sweep preconditioning vs plain CG (:mod:`repro.krylov`).

Two gates on the §5-outlook layer, both end-to-end wall-clock:

* **Speedup** — CG preconditioned with the symmetrized async-(2) sweep
  operator must beat unpreconditioned CG's time-to-tolerance by
  ``MIN_SPEEDUP`` on at least ``MIN_WINS`` of the suite systems measured
  (the ill-conditioned fv3 and the diagonally dominant
  Trefethen_2000/Chem97ZtZ, where the iteration cut amortises the sweep
  cost).
* **s1rmt3m1** — the non-dominant system where bare async-(k)
  *diverges* (ρ(|B|) ≫ 1): the snapshot preconditioner
  (``order="synchronous"``, ``local_iterations=1``, τ-scaled ω — a
  provably SPD operator applied as whole sweeps on the levels backend) must
  make CG converge, and the auto-tuned second-order Richardson must
  converge too.  Async relaxation as an inner component is exactly what
  rescues it here.

Each speedup row also records the preconditioner's decisions: its
backend and its dependency levels per application.

Artifacts: ``benchmarks/artifacts/BENCH_precond.txt`` (rendered) and
``BENCH_precond.json`` (machine-readable rows).  Runs standalone
(``python benchmarks/bench_precond.py``) or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import AsyncConfig
from repro.core.block_async import BlockAsyncSolver
from repro.krylov import AsyncSweepPreconditioner, make_outer_solver
from repro.matrices import default_rhs, get_matrix
from repro.solvers import ConjugateGradientSolver, StoppingCriterion
from repro.solvers.scaling import estimate_tau

#: Speedup cells: systems where the preconditioner must pay for itself.
MATRICES = ("fv3", "Trefethen_2000", "Chem97ZtZ")

#: Inner-sweep parameters of the speedup cells' preconditioner.
K = 2
SWEEPS = 2
BLOCK_SIZE = 256

#: Stopping rule of the speedup cells.
TOL = 1e-10
MAXITER = 20000

#: Gate: >= MIN_WINS matrices at >= MIN_SPEEDUP time-to-tolerance.
MIN_SPEEDUP = 1.5
MIN_WINS = 2

#: s1rmt3m1 cell: divergence budget for bare async, tolerance for the
#: preconditioned solves (1e-6 keeps the CI cell under ~15 s).
S1_TOL = 1e-6
S1_BARE_SWEEPS = 60
S1_MAXITER = 30000


def _timed_solve(solver, A, b):
    t0 = time.perf_counter()
    result = solver.solve(A, b)
    return result, time.perf_counter() - t0


def run_speedup_cells() -> list:
    cfg = AsyncConfig(local_iterations=K, block_size=BLOCK_SIZE)
    rows = []
    for name in MATRICES:
        A = get_matrix(name)
        b = default_rhs(A)
        stop = StoppingCriterion(tol=TOL, maxiter=MAXITER)
        cg, t_cg = _timed_solve(ConjugateGradientSolver(stopping=stop), A, b)
        pcg_solver = make_outer_solver(
            "pcg", A, precond=f"async:{SWEEPS}", config=cfg, stopping=stop
        )
        pcg, t_pcg = _timed_solve(pcg_solver, A, b)
        decisions = pcg.info["precond"]
        rows.append(
            {
                "matrix": name,
                "n": A.shape[0],
                "precond_backend": decisions["backend"],
                "levels_per_apply": decisions["levels_per_apply"],
                "cg_iters": cg.iterations,
                "pcg_iters": pcg.iterations,
                "cg_seconds": t_cg,
                "pcg_seconds": t_pcg,
                "speedup": t_cg / t_pcg if t_pcg > 0 else float("inf"),
                "cg_converged": bool(cg.converged),
                "pcg_converged": bool(pcg.converged),
            }
        )
    return rows


def run_s1rmt3m1_cell() -> dict:
    A = get_matrix("s1rmt3m1")
    b = default_rhs(A)
    bare = BlockAsyncSolver(
        AsyncConfig(local_iterations=K, block_size=BLOCK_SIZE),
        stopping=StoppingCriterion(tol=S1_TOL, maxiter=S1_BARE_SWEEPS),
    ).solve(A, b)
    bare_rel = float(bare.relative_residuals()[-1])

    ts = estimate_tau(A)
    lo, hi = 0.9 * ts.lambda_min, 1.05 * ts.lambda_max
    snapshot_cfg = AsyncConfig(
        local_iterations=1,
        block_size=BLOCK_SIZE,
        order="synchronous",
        omega=2.0 / (lo + hi),
    )
    P = AsyncSweepPreconditioner(A, sweeps=2, config=snapshot_cfg, symmetrize=False)
    pcg, t_pcg = _timed_solve(
        ConjugateGradientSolver(
            preconditioner=P, stopping=StoppingCriterion(tol=S1_TOL, maxiter=S1_MAXITER)
        ),
        A,
        b,
    )
    rich_solver = make_outer_solver(
        "richardson2",
        A,
        config=AsyncConfig(block_size=BLOCK_SIZE),
        stopping=StoppingCriterion(tol=S1_TOL, maxiter=S1_MAXITER),
    )
    rich, t_rich = _timed_solve(rich_solver, A, b)
    return {
        "matrix": "s1rmt3m1",
        "n": A.shape[0],
        "tol": S1_TOL,
        "bare_sweeps": S1_BARE_SWEEPS,
        "bare_final_relative": bare_rel,
        "bare_diverged": bare_rel > 1e6,
        "pcg_backend": P.backend,
        "pcg_iters": pcg.iterations,
        "pcg_seconds": t_pcg,
        "pcg_converged": bool(pcg.converged),
        "richardson2_iters": rich.iterations,
        "richardson2_seconds": t_rich,
        "richardson2_converged": bool(rich.converged),
    }


def run_benchmark() -> dict:
    return {"speedup": run_speedup_cells(), "s1rmt3m1": run_s1rmt3m1_cell()}


def render(results: dict) -> str:
    lines = [
        f"Async-sweep preconditioned CG vs plain CG — "
        f"async:{SWEEPS} (k={K}, blocks {BLOCK_SIZE}), tol {TOL:g}",
        f"{'matrix':>15s} {'cg iters':>9s} {'pcg iters':>10s} "
        f"{'cg s':>8s} {'pcg s':>8s} {'speedup':>8s} {'backend':>9s} {'levels/apply':>12s}",
    ]
    for r in results["speedup"]:
        lines.append(
            f"{r['matrix']:>15s} {r['cg_iters']:>9d} {r['pcg_iters']:>10d} "
            f"{r['cg_seconds']:>8.3f} {r['pcg_seconds']:>8.3f} {r['speedup']:>7.2f}x "
            f"{r['precond_backend']:>9s} {str(r['levels_per_apply']):>12s}"
        )
    s = results["s1rmt3m1"]
    lines += [
        "",
        f"s1rmt3m1 (n={s['n']}, tol {s['tol']:g}) — where bare async-({K}) diverges:",
        f"  bare async: relative residual {s['bare_final_relative']:.2e} "
        f"after {s['bare_sweeps']} sweeps",
        f"  pcg[snapshot:2] ({s['pcg_backend']} backend): "
        f"converged={s['pcg_converged']} in {s['pcg_iters']} iters "
        f"({s['pcg_seconds']:.1f} s)",
        f"  richardson2[auto]: converged={s['richardson2_converged']} "
        f"in {s['richardson2_iters']} iters ({s['richardson2_seconds']:.1f} s)",
    ]
    return "\n".join(lines)


def _write_artifacts(text: str, results: dict) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "BENCH_precond.txt"
    path.write_text(text + "\n")
    (outdir / "BENCH_precond.json").write_text(json.dumps(results, indent=2) + "\n")
    return path


def _check(results: dict) -> None:
    wins = [
        r
        for r in results["speedup"]
        if r["pcg_converged"] and r["speedup"] >= MIN_SPEEDUP
    ]
    assert len(wins) >= MIN_WINS, (
        f"preconditioned CG reached {MIN_SPEEDUP}x time-to-tolerance on only "
        f"{len(wins)} matrices (need {MIN_WINS}):\n" + render(results)
    )
    s = results["s1rmt3m1"]
    assert s["bare_diverged"], (
        "bare async unexpectedly did not diverge on s1rmt3m1:\n" + render(results)
    )
    assert s["pcg_converged"], (
        "snapshot-preconditioned CG failed to converge on s1rmt3m1:\n" + render(results)
    )
    assert s["richardson2_converged"], (
        "second-order Richardson failed to converge on s1rmt3m1:\n" + render(results)
    )


def test_precond_speedup_and_s1rmt3m1():
    results = run_benchmark()
    _write_artifacts(render(results), results)
    _check(results)


if __name__ == "__main__":
    results = run_benchmark()
    text = render(results)
    print(text)
    print(f"\nwrote {_write_artifacts(text, results)}")
    try:
        _check(results)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    raise SystemExit(0)
