"""Async restricted additive Schwarz: dispatch, parity, and the o=0 contract.

An ``+oK`` partition (K > 0) is the one spelling of async-RAS: the
engines resolve backend ``"ras"`` exactly when the partition carries
overlap, and ``+o0`` must run the classic engines bitwise.  Batched RAS
replicas must equal their sequential counterparts exactly (one shared
sweep kernel).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import AsyncConfig, BatchedAsyncEngine, BlockAsyncSolver
from repro.core.engine import AsyncEngine
from repro.core.fault import FaultScenario
from repro.matrices import default_rhs
from repro.partition import make_partition
from repro.solvers.base import StoppingCriterion
from repro.sparse import BlockRowView


def _view(A, spec, block_size=16):
    return BlockRowView(A, partition=make_partition(A, spec, block_size=block_size))


def _cfg(**over):
    base = dict(local_iterations=3, block_size=16, order="gpu", seed=11)
    base.update(over)
    return AsyncConfig(**base)


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #


def test_ras_backend_engages_only_with_overlap(small_spd):
    b = default_rhs(small_spd)
    eng = AsyncEngine(_view(small_spd, "uniform:16+o4"), b, _cfg())
    assert eng.backend == "ras"
    # A disjoint partition (with or without an explicit +o0): the classic resolver runs.
    for spec in ("uniform:16", "uniform:16+o0"):
        assert AsyncEngine(_view(small_spd, spec), b, _cfg()).backend != "ras"


@pytest.mark.parametrize("forced", ["levels", "stencil"])
def test_ras_rejects_forced_fast_backends(small_spd, forced):
    b = default_rhs(small_spd)
    view = _view(small_spd, "uniform:16+o4")
    with pytest.raises(ValueError, match="cannot execute async-RAS"):
        AsyncEngine(view, b, _cfg(backend=forced))


def test_ras_rejects_fault_scenarios(small_spd):
    b = default_rhs(small_spd)
    view = _view(small_spd, "uniform:16+o4")
    fault = FaultScenario(fraction=0.1, t0=1)
    with pytest.raises(ValueError, match="fault"):
        AsyncEngine(view, b, _cfg(), fault=fault)


def test_method_names():
    assert _cfg().method_name == "async-(3)"
    assert _cfg(partition="uniform:16+o4").method_name == "async-RAS(3,o4)"
    # No overlap: the name must not claim RAS ran.
    assert _cfg(partition="uniform:16+o0").method_name == "async-(3)"


# --------------------------------------------------------------------- #
# The overlap-0 bitwise contract
# --------------------------------------------------------------------- #


def test_overlap_zero_is_bitwise_the_classic_engine(small_spd):
    b = default_rhs(small_spd)
    x_none = np.zeros(small_spd.shape[0])
    x_req = np.zeros(small_spd.shape[0])
    eng_none = AsyncEngine(_view(small_spd, "uniform:16"), b, _cfg())
    eng_req = AsyncEngine(_view(small_spd, "uniform:16+o0"), b, _cfg(partition="uniform:16+o0"))
    assert eng_req.backend == eng_none.backend
    for _ in range(10):
        eng_none.sweep(x_none)
        eng_req.sweep(x_req)
    assert np.array_equal(x_none, x_req)


def test_solver_path_overlap_zero_bitwise(trefethen_small):
    b = default_rhs(trefethen_small)
    stop = StoppingCriterion(tol=1e-10, maxiter=120)
    r0 = BlockAsyncSolver(_cfg(partition="uniform:32"), stopping=stop).solve(
        trefethen_small, b
    )
    r1 = BlockAsyncSolver(
        _cfg(partition="uniform:32+o0"), stopping=stop
    ).solve(trefethen_small, b)
    assert r1.method == r0.method == "async-(3)"
    assert np.array_equal(r0.x, r1.x)
    assert np.array_equal(r0.residuals, r1.residuals)


# --------------------------------------------------------------------- #
# RAS semantics
# --------------------------------------------------------------------- #


def test_ras_reduces_sweeps_on_fv1(fv1):
    b = default_rhs(fv1)
    stop = StoppingCriterion(tol=1e-10, maxiter=150)
    cfg = dict(local_iterations=5, block_size=128, order="gpu", seed=0)
    base = BlockAsyncSolver(
        AsyncConfig(partition="uniform:128", **cfg), stopping=stop
    ).solve(fv1, b)
    ras = BlockAsyncSolver(
        AsyncConfig(partition="uniform:128+o32", **cfg), stopping=stop
    ).solve(fv1, b)
    assert base.converged and ras.converged
    assert ras.iterations < base.iterations
    assert ras.method == "async-RAS(5,o32)"


def test_ras_converges(small_spd):
    b = default_rhs(small_spd)
    solver = BlockAsyncSolver(
        _cfg(partition="uniform:16+o4"),
        stopping=StoppingCriterion(tol=1e-12, maxiter=200),
    )
    result = solver.solve(small_spd, b)
    assert result.converged
    r = small_spd.matvec(result.x) - b
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b) * 10


def test_ras_update_counts_cover_every_block(small_spd):
    b = default_rhs(small_spd)
    view = _view(small_spd, "uniform:16+o4")
    eng = AsyncEngine(view, b, _cfg())
    x = np.zeros(small_spd.shape[0])
    for _ in range(7):
        eng.sweep(x)
    assert np.all(eng.update_counts == 7)


# --------------------------------------------------------------------- #
# Batched parity
# --------------------------------------------------------------------- #


def test_batched_ras_matches_sequential_bitwise(small_spd):
    b = default_rhs(small_spd)
    cfg = _cfg(seed=7)
    view = _view(small_spd, "uniform:16+o4")
    nrep, sweeps = 4, 9
    bat = BatchedAsyncEngine(view, b, cfg, nreplicas=nrep, seed0=7)
    assert bat.backend == "ras"
    X = np.zeros((nrep, small_spd.shape[0]))
    for _ in range(sweeps):
        bat.sweep(X)
    for r in range(nrep):
        seq = AsyncEngine(
            _view(small_spd, "uniform:16+o4"),
            b,
            dataclasses.replace(cfg, seed=7 + r),
        )
        x = np.zeros(small_spd.shape[0])
        for _ in range(sweeps):
            seq.sweep(x)
        assert np.array_equal(X[r], x), f"replica {r} diverged from sequential"


def test_batched_ras_rejects_forced_fast_backends(small_spd):
    b = default_rhs(small_spd)
    view = _view(small_spd, "uniform:16+o4")
    with pytest.raises(ValueError, match="cannot execute async-RAS"):
        BatchedAsyncEngine(view, b, _cfg(backend="levels"), nreplicas=2)


def test_solver_names_the_partition_it_cuts(trefethen_small):
    # A partition= override decides the method, not the config's spec.
    b = default_rhs(trefethen_small)
    stop = StoppingCriterion(tol=0.0, maxiter=2)
    cfg = AsyncConfig(local_iterations=3, block_size=32)
    ras = BlockAsyncSolver(cfg, partition="uniform:32+o4", stopping=stop)
    assert ras.solve(trefethen_small, b).method == ras.name == "async-RAS(3,o4)"
    cfg = dataclasses.replace(cfg, partition="uniform:32+o4")
    plain = BlockAsyncSolver(cfg, partition="uniform:32", stopping=stop)
    assert plain.solve(trefethen_small, b).method == plain.name == "async-(3)"
