"""Multi-shard solves: convergence, staleness bound, telemetry shape."""

import queue

import numpy as np
import pytest

from repro.dist import DistAsyncSolver
from repro.dist.runtime import DistRuntime
from repro.runtime import StoppingCriterion


def test_two_shards_converge(small_system, stopping):
    A, b = small_system
    solver = DistAsyncSolver(
        shards=2, local_iterations=2, block_size=32, stopping=stopping
    )
    result = solver.solve(A, b)
    assert result.converged
    assert result.method == "dist(2)-async-(2)"
    res = float(np.linalg.norm(b - A.matvec(result.x)))
    assert res <= stopping.threshold(float(np.linalg.norm(b)))

    dist = result.info["dist"]
    assert dist["nshards"] == 2
    assert dist["max_staleness"] == 2
    assert dist["lead"] == 1
    # The bound is enforced, not just declared.
    assert dist["staleness_max_observed"] < dist["max_staleness"]
    assert len(dist["staleness_histogram"]) >= dist["max_staleness"]
    assert sum(dist["staleness_histogram"]) > 0
    assert len(dist["shards"]) == 2
    for row in dist["shards"]:
        assert row["sweeps"] > 0
        assert row["error"] is None
        lo, hi = row["row_range"]
        assert 0 <= lo < hi <= A.shape[0]
    assert dist["recoveries"] == []


def test_telemetry_document_schema(small_system, stopping):
    A, b = small_system
    solver = DistAsyncSolver(
        shards=2, local_iterations=2, block_size=32, stopping=stopping
    )
    solver.solve(A, b)
    doc = solver.last_telemetry
    assert doc["schema"] == "repro.dist/v1"
    assert doc["plan"]["ngroups"] == 2
    assert len(doc["shards"]) == 2
    runs = doc["driver"]["runs"]
    assert len(runs) == 1  # one driver run; worker runs live in shards[*]
    for payload in doc["shards"]:
        assert payload["run"]["meta"]["method"].startswith("shard-")
        assert len(payload["staleness"]) == payload["sweeps"]
    # The document must be JSON-ready as emitted (the CLI dumps it raw).
    import json

    json.dumps(doc, allow_nan=False)


def test_synchronous_outer_stage(small_system, stopping):
    A, b = small_system
    solver = DistAsyncSolver(
        shards=2,
        max_staleness=1,
        local_iterations=2,
        block_size=32,
        stopping=stopping,
    )
    result = solver.solve(A, b)
    assert result.converged
    dist = result.info["dist"]
    assert dist["lead"] == 0
    assert dist["staleness_max_observed"] == 0


def test_work_placement_and_three_shards(small_system, stopping):
    A, b = small_system
    solver = DistAsyncSolver(
        shards=3,
        placement="work",
        local_iterations=2,
        block_size=16,
        stopping=stopping,
    )
    result = solver.solve(A, b)
    assert result.converged
    dist = result.info["dist"]
    assert dist["placement"] == "work"
    assert dist["shard_map"]["placement"] == "work"
    rows = [tuple(r["row_range"]) for r in dist["shards"]]
    assert rows[0][0] == 0 and rows[-1][1] == A.shape[0]


def test_x0_passthrough(small_system):
    A, b = small_system
    stopping = StoppingCriterion(tol=1e-10, maxiter=300)
    solver = DistAsyncSolver(
        shards=2, local_iterations=2, block_size=32, stopping=stopping
    )
    cold = solver.solve(A, b)
    warm = DistAsyncSolver(
        shards=2, local_iterations=2, block_size=32, stopping=stopping
    ).solve(A, b, x0=cold.x)
    assert warm.converged
    # Starting at the solution: essentially no outer sweeps needed.
    assert warm.info["sweeps"] <= 2


def test_update_counts_cover_all_blocks(small_system, stopping):
    A, b = small_system
    solver = DistAsyncSolver(
        shards=2, local_iterations=2, block_size=32, stopping=stopping
    )
    result = solver.solve(A, b)
    counts = result.info["update_counts"]
    assert len(counts) == result.info["nblocks"]
    assert np.all(counts > 0)


@pytest.mark.parametrize("which", ["A", "b", "x0"])
def test_non_finite_input_rejected_before_spawning(small_system, which, monkeypatch):
    import repro.dist.solver as dist_solver

    def no_runtime(*args, **kwargs):
        raise AssertionError("workers started for an invalid system")

    monkeypatch.setattr(dist_solver, "DistRuntime", no_runtime)
    A, b = small_system
    A, b, x0 = A.copy(), b.copy(), np.zeros(A.shape[0])
    {"A": A.data, "b": b, "x0": x0}[which][5] = np.inf
    with pytest.raises(ValueError, match=f"^{which} has non-finite"):
        DistAsyncSolver(shards=2, block_size=32).solve(A, b, x0)


class _Proc:
    def __init__(self, alive):
        self.alive = alive

    def is_alive(self):
        return self.alive


class _Queue:
    """Hands out *items*, then counts the polls that found it empty."""

    def __init__(self, items):
        self.items = list(items)
        self.empty_polls = 0

    def get(self, timeout):
        if not self.items:
            self.empty_polls += 1
            raise queue.Empty
        return self.items.pop(0)

    def get_nowait(self):
        if not self.items:
            raise queue.Empty
        return self.items.pop(0)


def _drain(procs, items):
    runtime = DistRuntime.__new__(DistRuntime)
    runtime.procs, runtime.payloads, runtime._queue = procs, [], _Queue(items)
    runtime._drain()
    return runtime


def test_drain_stops_once_every_shard_delivered():
    # Both workers still alive (exiting): no empty poll after the last payload.
    runtime = _drain([_Proc(True), _Proc(True)], [{"shard": 1}, {"shard": 0}])
    assert runtime._queue.empty_polls == 0
    assert [p["shard"] for p in runtime.payloads] == [1, 0]


def test_drain_waits_past_a_crashed_predecessors_report():
    items = [{"shard": 0, "error": "RuntimeError: boom"}, {"shard": 1}, {"shard": 0}]
    runtime = _drain([_Proc(True), _Proc(True)], items)
    assert runtime._queue.empty_polls == 0 and len(runtime.payloads) == 3


def test_drain_gives_up_on_an_exited_silent_shard():
    runtime = _drain([_Proc(False), None, _Proc(True)], [{"shard": 2}])
    assert runtime._queue.empty_polls == 1
    assert runtime.payloads == [{"shard": 2}]
