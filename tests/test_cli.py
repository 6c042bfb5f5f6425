"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import SOLVER_CHOICES, build_parser, main


def test_parser_builds():
    p = build_parser()
    args = p.parse_args(["solve", "fv1", "--solver", "jacobi"])
    assert args.matrix == "fv1"
    assert args.solver == "jacobi"


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "Chem97ZtZ" in out and "Trefethen_20000" in out
    assert "NO" in out  # s1rmt3m1 flagged non-convergent


def test_characterize_suite_matrix(capsys):
    assert main(["characterize", "Trefethen_2000", "--lanczos-steps", "60"]) == 0
    out = capsys.readouterr().out
    assert "rho(B)" in out
    assert "0.86" in out


def test_characterize_mtx_file(tmp_path, capsys):
    from repro.matrices import write_matrix_market
    from repro.sparse import CSRMatrix

    dense = np.diag([4.0, 5.0, 6.0])
    dense[0, 1] = dense[1, 0] = 1.0
    path = tmp_path / "tiny.mtx"
    write_matrix_market(path, CSRMatrix.from_dense(dense))
    assert main(["characterize", str(path)]) == 0
    assert "nnz" in capsys.readouterr().out


@pytest.mark.parametrize("solver", ["jacobi", "gauss-seidel", "cg", "async", "block-jacobi"])
def test_solve_command(solver, capsys):
    code = main(
        ["solve", "Trefethen_2000", "--solver", solver, "--tol", "1e-8", "--maxiter", "1200"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged: True" in out


def test_solve_history_flag(capsys):
    main(["solve", "Trefethen_2000", "--solver", "cg", "--tol", "1e-6", "--history"])
    out = capsys.readouterr().out
    assert "iter " in out


def test_solve_nonconvergent_exit_code(capsys):
    code = main(["solve", "s1rmt3m1", "--solver", "jacobi", "--maxiter", "20"])
    assert code == 1


def test_experiment_list(capsys):
    assert main(["experiment", "list"]) == 0
    out = capsys.readouterr().out
    assert "T1" in out and "F11" in out and "X2" in out


def test_experiment_run(capsys):
    assert main(["experiment", "F8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out


def test_all_solver_choices_constructible():
    p = build_parser()
    for s in SOLVER_CHOICES:
        args = p.parse_args(["solve", "fv1", "--solver", s])
        assert args.solver == s


def test_experiment_json_output(capsys):
    import json

    assert main(["experiment", "F8", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["experiment_id"] == "F8"
    assert data["series"]


def test_solve_telemetry_json(tmp_path, capsys):
    import json

    path = tmp_path / "run.json"
    code = main(
        [
            "solve",
            "Trefethen_2000",
            "--solver",
            "async",
            "--block-size",
            "64",
            "--tol",
            "1e-8",
            "--telemetry-json",
            str(path),
        ]
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == "repro.runtime/v1"
    (run,) = data["runs"]
    assert run["meta"]["method"].startswith("async-")
    assert run["annotations"]["matrix"] == "Trefethen_2000"
    assert len(run["sweeps"]["seconds"]) == len(run["sweeps"]["index"])
    assert run["residuals"]["norms"][0] > run["residuals"]["norms"][-1]
    assert run["summary"]["converged"] is True


def test_solve_residual_every_records_cadence(tmp_path):
    import json

    path = tmp_path / "run.json"
    code = main(
        [
            "solve",
            "Trefethen_2000",
            "--solver",
            "jacobi",
            "--tol",
            "1e-8",
            "--maxiter",
            "1200",
            "--residual-every",
            "50",
            "--telemetry-json",
            str(path),
        ]
    )
    assert code == 0
    (run,) = json.loads(path.read_text())["runs"]
    assert run["meta"]["residual_every"] == 50
    iters = run["residuals"]["iters"]
    assert iters[0] == 0
    assert all(i % 50 == 0 for i in iters[:-1])


def test_experiment_telemetry_json(tmp_path, capsys):
    import json

    path = tmp_path / "f6.json"
    assert main(["experiment", "F6", "--telemetry-json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["schema"] == "repro.runtime/v1"
    # One async run per Figure 6 panel, each tagged with its matrix.
    matrices = {run["annotations"]["matrix"] for run in data["runs"]}
    assert "fv1" in matrices and "s1rmt3m1" in matrices


def test_experiment_telemetry_unsupported_errors(tmp_path, capsys):
    path = tmp_path / "t1.json"
    assert main(["experiment", "T1", "--telemetry-json", str(path)]) == 2
    assert "telemetry" in capsys.readouterr().err
    assert not path.exists()


def test_experiment_all_rejects_telemetry(tmp_path, capsys):
    assert (
        main(
            [
                "experiment",
                "all",
                "--outdir",
                str(tmp_path),
                "--telemetry-json",
                str(tmp_path / "t.json"),
            ]
        )
        == 2
    )
    assert "single experiment" in capsys.readouterr().err


def test_serve_command_jobs_file(tmp_path, capsys):
    import json

    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        "\n".join(
            [
                '{"matrix": "Trefethen_2000", "id": "a", "rhs": "random", "seed": 0}',
                '{"matrix": "Trefethen_2000", "id": "b", "rhs": "random", "seed": 1}',
                "# comment lines and blanks are skipped",
                "",
                '{"matrix": "Trefethen_2000", "id": "c", "tol": 1e-6}',
            ]
        )
        + "\n"
    )
    telemetry = tmp_path / "serve.json"
    code = main(
        [
            "serve", str(jobs),
            "--tol", "1e-8", "--maxiter", "600",
            "--block-size", "128",
            "--stats",
            "--telemetry-json", str(telemetry),
        ]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    responses = [json.loads(line) for line in out_lines[:3]]
    by_id = {r["id"]: r for r in responses}
    assert set(by_id) == {"a", "b", "c"}
    # a and b share matrix/config/stopping → one batch; c stops differently.
    assert by_id["a"]["batch_size"] == 2 and by_id["b"]["batch_size"] == 2
    assert by_id["c"]["batch_size"] == 1
    assert all(r["status"] == "completed" and r["converged"] for r in responses)
    stats = json.loads("\n".join(out_lines[3:]))
    assert stats["service"]["requests"]["completed"] == 3

    def _reject(token):
        raise ValueError(token)

    doc = json.loads(telemetry.read_text(), parse_constant=_reject)
    assert doc["schema"] == "repro.serve/v1"
    assert len(doc["telemetry"]["runs"]) == 4  # 1 batched drive + 3 requests


def test_serve_command_stdin(monkeypatch, capsys):
    import io
    import json

    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('{"matrix": "Trefethen_2000", "id": "only", "tol": 1e-6}\n'),
    )
    code = main(["serve", "--block-size", "128", "--maxiter", "600"])
    assert code == 0
    response = json.loads(capsys.readouterr().out.strip())
    assert response["id"] == "only" and response["status"] == "completed"


def test_serve_command_bad_job_errors(tmp_path, capsys):
    jobs = tmp_path / "bad.jsonl"
    jobs.write_text('{"matrix": "Trefethen_2000", "typo_key": 1}\n')
    assert main(["serve", str(jobs)]) == 2
    assert "unknown job keys" in capsys.readouterr().err


def test_solve_schwarz_ras(capsys):
    code = main(
        ["solve", "Trefethen_2000", "--solver", "async", "--local-iterations", "3",
         "--partition", "uniform:32+o8",
         "--tol", "1e-8", "--maxiter", "300"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "async-RAS(3,o8)" in out
    assert "converged: True" in out


def test_solve_bad_partition_spec_is_a_clean_error(capsys):
    # Spec validation surfaces as an actionable CLI error (exit 2), not a
    # traceback — at the solver-construction level where AsyncConfig parses.
    code = main(["solve", "fv1", "--solver", "async", "--partition", "uniform:abc"])
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err
    code = main(["solve", "fv1", "--solver", "async", "--partition", "uniform:4+x2"])
    assert code == 2
    assert "overlap suffix" in capsys.readouterr().err


def test_serve_overlap_partition_threads_to_config(tmp_path, capsys):
    import json

    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('{"matrix": "Trefethen_2000", "id": "r", "tol": 1e-6}\n')
    code = main(
        ["serve", str(jobs), "--partition", "uniform:64+o8",
         "--block-size", "64", "--local-iterations", "3", "--maxiter", "600"]
    )
    assert code == 0
    response = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert response["status"] == "completed"
    assert response["method"] == "async-RAS(3,o8)"
