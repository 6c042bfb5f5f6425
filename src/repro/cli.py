"""Command-line interface: ``python -m repro <command>``.

Five commands cover the workflows a user of the reproduction needs:

* ``repro suite``                      — list the test systems and their
  published Table 1 data.
* ``repro characterize <matrix>``      — Table 1 row for one system (or an
  ``.mtx`` file: drop in the real UFMC matrices).
* ``repro solve <matrix> [options]``   — run any solver on a suite system
  or MatrixMarket file and print the convergence history.
* ``repro serve [jobs.jsonl]``         — drive the in-process solve
  service (:mod:`repro.serve`) from a JSON-lines job stream (a file, or
  stdin with ``-``): plan caching, admission batching, per-request JSON
  responses and a service telemetry rollup.
* ``repro experiment <id>``            — regenerate a paper artifact
  (``repro experiment list`` shows the registry).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]

#: Solvers selectable from the command line.
SOLVER_CHOICES = (
    "jacobi",
    "gauss-seidel",
    "sor",
    "ssor",
    "cg",
    "gmres",
    "block-jacobi",
    "chebyshev",
    "async",
)


def _load_matrix(spec: str):
    """A registered matrix name or a MatrixMarket path."""
    from .matrices import get_matrix, read_matrix_market

    try:
        return get_matrix(spec)
    except KeyError:
        return read_matrix_market(spec)


def _build_solver(args, recorder=None, A=None):
    from .core import BlockAsyncSolver
    from .experiments.runner import paper_async_config
    from .solvers import (
        BlockJacobiSolver,
        ChebyshevSolver,
        ConjugateGradientSolver,
        GaussSeidelSolver,
        GMRESSolver,
        JacobiSolver,
        SORSolver,
        SSORSolver,
        StoppingCriterion,
    )

    stopping = StoppingCriterion(tol=args.tol, maxiter=args.maxiter)
    every = getattr(args, "residual_every", 1)
    kwargs = {"stopping": stopping, "residual_every": every, "recorder": recorder}
    method = getattr(args, "method", None)
    precond = getattr(args, "precond", "none")
    if method is not None:
        # The krylov outer-solver layer: --method overrides --solver, the
        # async knobs parameterise the preconditioner's inner sweeps.
        from .krylov import make_outer_solver

        cfg = paper_async_config(
            args.local_iterations,
            block_size=args.block_size,
            seed=args.seed,
            omega=args.omega,
            backend=args.backend,
            partition=getattr(args, "partition", "uniform"),
            residual_every=every,
        )
        return make_outer_solver(
            method,
            A,
            precond=precond,
            config=cfg,
            restart=getattr(args, "restart", 30),
            **kwargs,
        )
    if precond not in (None, "none"):
        raise ValueError("--precond requires --method (e.g. --method pcg)")
    name = args.solver
    if name == "jacobi":
        return JacobiSolver(omega=args.omega, **kwargs)
    if name == "gauss-seidel":
        return GaussSeidelSolver(**kwargs)
    if name == "sor":
        return SORSolver(omega=args.omega, **kwargs)
    if name == "ssor":
        return SSORSolver(omega=args.omega, **kwargs)
    if name == "cg":
        return ConjugateGradientSolver(**kwargs)
    if name == "gmres":
        return GMRESSolver(**kwargs)
    partition = getattr(args, "partition", "uniform")
    if name == "block-jacobi":
        return BlockJacobiSolver(block_size=args.block_size, partition=partition, **kwargs)
    if name == "chebyshev":
        return ChebyshevSolver(**kwargs)
    cfg = paper_async_config(
        args.local_iterations,
        block_size=args.block_size,
        seed=args.seed,
        omega=args.omega,
        backend=args.backend,
        partition=partition,
        residual_every=every,
    )
    shards = getattr(args, "shards", 0)
    if shards:
        from .dist import DistAsyncSolver

        return DistAsyncSolver(
            cfg,
            shards=shards,
            max_staleness=getattr(args, "max_staleness", 2),
            stopping=stopping,
            recorder=recorder,
        )
    return BlockAsyncSolver(cfg, stopping=stopping, recorder=recorder)


def _cmd_suite(args) -> int:
    from .experiments.report import ascii_table
    from .matrices import PAPER_TABLE1

    rows = [
        [i.name, i.description, i.n, i.nnz, i.cond_a, i.rho, "yes" if i.jacobi_convergent else "NO"]
        for i in PAPER_TABLE1.values()
    ]
    print(
        ascii_table(
            ["matrix", "problem", "n", "nnz", "cond(A) (paper)", "rho(B) (paper)", "Jacobi conv."],
            rows,
            title="Test suite (paper Table 1 values; generators reconstruct these)",
        )
    )
    return 0


def _cmd_characterize(args) -> int:
    from .experiments.report import ascii_table
    from .matrices import characterize

    A = _load_matrix(args.matrix)
    props = characterize(A, args.matrix, lanczos_steps=args.lanczos_steps)
    rows = [
        ["n", props.n],
        ["nnz", props.nnz],
        ["rho(B) (Jacobi)", props.rho_jacobi],
        ["rho(|B|) (async, Strikwerda)", props.rho_abs],
        ["cond(A)", props.cond_a],
        ["cond(D^-1 A)", props.cond_scaled],
        ["diagonally dominant rows", props.diag_dominant_fraction],
    ] + [[f"off-block mass @ {bs}", frac] for bs, frac in props.off_block_fraction.items()]
    print(ascii_table(["property", "value"], rows, title=f"characterize({args.matrix})"))
    print()
    print(
        "Jacobi convergence guaranteed:", "yes" if props.converges_jacobi() else "no",
        "| async convergence guaranteed:", "yes" if props.converges_async() else "no",
    )
    return 0


def _cmd_solve(args) -> int:
    from .matrices import default_rhs

    A = _load_matrix(args.matrix)
    b = default_rhs(A, kind=args.rhs)
    recorder = None
    if args.telemetry_json:
        from .runtime import RunRecorder

        recorder = RunRecorder()
    try:
        # Solver construction validates the partition spec and backend;
        # solve() rejects e.g. --backend=stencil in a non-exact regime.
        solver = _build_solver(args, recorder=recorder, A=A)
        result = solver.solve(A, b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if recorder is not None:
        recorder.annotate(matrix=args.matrix)
        telemetry = getattr(solver, "last_telemetry", None)
        if telemetry is not None:
            # Sharded solves export the repro.dist/v1 document (driver run
            # plus per-shard worker runs); plain solves the runtime schema.
            import json

            with open(args.telemetry_json, "w") as fh:
                json.dump(telemetry, fh, indent=2, allow_nan=False)
                fh.write("\n")
        else:
            recorder.dump(args.telemetry_json)
    rel = result.relative_residuals()
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.converged else 1
    print(f"method:    {result.method}")
    print(f"matrix:    {args.matrix}  (n={A.shape[0]}, nnz={A.nnz})")
    print(f"converged: {result.converged} in {result.iterations} global iterations")
    print(f"residual:  {result.final_residual:.3e}  (relative {rel[-1]:.3e})")
    if args.telemetry_json:
        print(f"telemetry: {args.telemetry_json}")
    if args.history:
        stride = max(1, len(rel) // 20)
        for i in range(0, len(rel), stride):
            print(f"  iter {i:5d}: {rel[i]:.6e}")
    return 0 if result.converged else 1


def _cmd_serve(args) -> int:
    import json

    from .core.schedules import AsyncConfig
    from .runtime import StoppingCriterion
    from .serve import JobStreamError, SolveService, run_job_stream

    try:
        config = AsyncConfig(
            local_iterations=args.local_iterations,
            block_size=args.block_size,
            omega=args.omega,
            backend=args.backend,
            partition=args.partition,
            residual_every=args.residual_every,
        )
        service = SolveService(
            config=config,
            stopping=StoppingCriterion(tol=args.tol, maxiter=args.maxiter),
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            cache_capacity=args.cache_capacity,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def emit(response) -> None:
        print(json.dumps(response.to_dict()), flush=True)

    try:
        if args.jobs == "-":
            responses = run_job_stream(sys.stdin, service, emit=emit)
        else:
            with open(args.jobs) as fh:
                responses = run_job_stream(fh, service, emit=emit)
    except (JobStreamError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.telemetry_json:
        service.dump_telemetry(args.telemetry_json)
    if args.stats:
        print(json.dumps({"service": service.stats()}, indent=2))
    ok = bool(responses) and all(r.completed for r in responses)
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    from .experiments import EXPERIMENTS, run_experiment

    if args.id == "list":
        seen = set()
        for key, e in sorted(EXPERIMENTS.items()):
            if e.id not in seen:
                seen.add(e.id)
                print(f"{e.id:6s} {e.title}")
        return 0
    if args.id == "all":
        from pathlib import Path

        if args.telemetry_json:
            print(
                "error: --telemetry-json needs a single experiment id, not 'all'",
                file=sys.stderr,
            )
            return 2
        outdir = Path(args.outdir) if args.outdir else Path("artifacts")
        outdir.mkdir(parents=True, exist_ok=True)
        seen = set()
        for key in sorted(EXPERIMENTS):
            e = EXPERIMENTS[key]
            if e.id in seen:
                continue
            seen.add(e.id)
            print(f"running {e.id}: {e.title} ...", flush=True)
            result = run_experiment(e.id, quick=not args.full)
            path = outdir / f"{e.id.replace('/', '_')}.txt"
            path.write_text(result.render() + "\n")
            if args.json:
                (outdir / f"{e.id.replace('/', '_')}.json").write_text(result.to_json())
        print(f"wrote {len(seen)} artifacts to {outdir}/")
        return 0
    try:
        result = run_experiment(
            args.id,
            quick=not args.full,
            telemetry_path=args.telemetry_json,
        )
    except ValueError as exc:
        # e.g. --telemetry-json on an experiment that emits no telemetry.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.to_json() if args.json else result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    from .core.schedules import BACKENDS

    p = argparse.ArgumentParser(
        prog="repro",
        description="Block-asynchronous relaxation methods (Anzt et al. 2012) — reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list the paper's test systems").set_defaults(func=_cmd_suite)

    pc = sub.add_parser("characterize", help="Table 1 row for a matrix")
    pc.add_argument("matrix", help="suite name or MatrixMarket file")
    pc.add_argument("--lanczos-steps", type=int, default=150)
    pc.set_defaults(func=_cmd_characterize)

    ps = sub.add_parser("solve", help="run a solver on a matrix")
    ps.add_argument("matrix", help="suite name or MatrixMarket file")
    ps.add_argument("--solver", choices=SOLVER_CHOICES, default="async")
    ps.add_argument(
        "--method",
        choices=("cg", "pcg", "gmres", "richardson", "richardson2"),
        default=None,
        help="krylov outer-solver layer (overrides --solver); the async "
        "knobs parameterise the preconditioner's inner sweeps",
    )
    ps.add_argument(
        "--precond",
        default="none",
        metavar="SPEC",
        help="preconditioner for --method: none, jacobi, async or async:K "
        "(K inner sweeps per application)",
    )
    ps.add_argument("--restart", type=int, default=30, help="GMRES restart length")
    ps.add_argument("--local-iterations", type=int, default=5, help="k in async-(k)")
    ps.add_argument("--block-size", type=int, default=448)
    ps.add_argument("--omega", type=float, default=1.0, help="relaxation weight")
    ps.add_argument("--tol", type=float, default=1e-10)
    ps.add_argument("--maxiter", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help="sweep execution backend for --solver=async (timing only; "
        "iterates are bitwise identical wherever a backend may run)",
    )
    ps.add_argument(
        "--partition",
        metavar="STRATEGY[:PARAM][+oK]",
        default="uniform",
        help="row-block decomposition strategy for --solver=async/block-jacobi: "
        "uniform[:block_size], work_balanced[:nblocks], rcm[:block_size], "
        "clustered[:block_size] (default uniform — the paper's CUDA-grid cut; "
        "PARAM falls back to --block-size); append +oK (K > 0) to run "
        "async restricted additive Schwarz with K overlap rows per block side",
    )
    ps.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run --solver=async across N worker processes (repro.dist: "
        "two-stage multisplitting over shared memory; 0 = in-process; "
        "--shards 1 is bitwise the in-process solver)",
    )
    ps.add_argument(
        "--max-staleness",
        type=int,
        default=2,
        metavar="S",
        help="outer-sweep staleness bound between shards (with --shards; "
        "1 = synchronous outer stage)",
    )
    ps.add_argument("--rhs", choices=("ones", "random", "unit"), default="ones")
    ps.add_argument(
        "--residual-every",
        type=int,
        default=1,
        metavar="M",
        help="evaluate/record the full residual every M sweeps (default 1; "
        "iterates are identical for every M — see repro.runtime.RunLoop)",
    )
    ps.add_argument(
        "--telemetry-json",
        metavar="PATH",
        default=None,
        help="write RunRecorder telemetry (per-sweep timings, residual "
        "trace, events) as JSON to PATH",
    )
    ps.add_argument("--history", action="store_true", help="print the residual history")
    ps.add_argument("--json", action="store_true", help="emit a JSON summary")
    ps.set_defaults(func=_cmd_solve)

    pv = sub.add_parser(
        "serve",
        help="drive the solve service from a JSON-lines job stream",
        description="Run the in-process solver service (repro.serve) over a "
        "JSON-lines job stream: one JSON object per line, e.g. "
        '{"matrix": "fv1", "rhs": "random", "seed": 3}. Responses are '
        "emitted as JSON lines on stdout. See repro.serve.stream for the "
        "full set of job keys.",
    )
    pv.add_argument(
        "jobs",
        nargs="?",
        default="-",
        help="job-stream file, or '-' for stdin (default)",
    )
    pv.add_argument("--max-batch", type=int, default=32, help="requests per batched solve")
    pv.add_argument("--max-queue", type=int, default=256, help="job-queue bound")
    pv.add_argument("--cache-capacity", type=int, default=16, help="compiled-plan cache entries")
    pv.add_argument("--local-iterations", type=int, default=5, help="default k in async-(k)")
    pv.add_argument("--block-size", type=int, default=448)
    pv.add_argument("--omega", type=float, default=1.0, help="default relaxation weight")
    pv.add_argument("--tol", type=float, default=1e-10, help="default stopping tolerance")
    pv.add_argument("--maxiter", type=int, default=1000, help="default sweep budget")
    pv.add_argument("--backend", choices=BACKENDS, default="auto")
    pv.add_argument(
        "--partition",
        metavar="STRATEGY[:PARAM][+oK]",
        default="uniform",
        help="default decomposition spec (non-permuting strategies only: "
        "uniform[:block_size], work_balanced[:nblocks]; +oK (K > 0) runs "
        "async restricted additive Schwarz with K overlap rows per block side)",
    )
    pv.add_argument("--residual-every", type=int, default=1, metavar="M")
    pv.add_argument(
        "--telemetry-json",
        metavar="PATH",
        default=None,
        help="write the service telemetry rollup (repro.serve/v1: latency "
        "percentiles, batch occupancy, cache hit rate, every recorded run) "
        "as strict JSON to PATH",
    )
    pv.add_argument(
        "--stats", action="store_true", help="print the service stats rollup at the end"
    )
    pv.set_defaults(func=_cmd_serve)

    pe = sub.add_parser("experiment", help="regenerate a paper artifact")
    pe.add_argument("id", help="artifact id (T1..F11, X1..X9, A1..A5), 'list', or 'all'")
    pe.add_argument("--outdir", default=None, help="output directory for 'all'")
    pe.add_argument("--full", action="store_true", help="paper-scale parameters")
    pe.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    pe.add_argument(
        "--telemetry-json",
        metavar="PATH",
        default=None,
        help="write the experiment's RunRecorder telemetry as JSON to PATH "
        "(single experiment id only; errors on experiments without telemetry)",
    )
    pe.set_defaults(func=_cmd_experiment)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
