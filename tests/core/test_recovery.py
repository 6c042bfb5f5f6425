"""Tests for the self-healing solver (detect → localize → heal)."""

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver, FaultScenario, SelfHealingSolver
from repro.solvers import StoppingCriterion


def make_fault(**kw):
    defaults = dict(fraction=0.15, t0=12, recovery=None, kind="silent", clustered=True, seed=9)
    defaults.update(kw)
    return FaultScenario(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        SelfHealingSolver(suspects_per_alert=0)
    with pytest.raises(ValueError):
        SelfHealingSolver(heal_cooldown=-1)


def test_overlapped_partition_refused():
    # Its blocks are a disjoint cut; an +oK config would only
    # relabel the run as async-RAS.
    with pytest.raises(ValueError, match="async-RAS"):
        SelfHealingSolver(AsyncConfig(partition="uniform:16+o4"))


def test_view_cuts_the_configured_partition(trefethen_small):
    # Without a fault the self-healing solve is the plain async solve, so
    # both must cut config.partition's blocks.
    cfg = AsyncConfig(local_iterations=2, block_size=32, partition="work_balanced:4")
    solver = SelfHealingSolver(cfg, stopping=StoppingCriterion(tol=0.0, maxiter=5))
    assert solver._view(trefethen_small).nblocks == 4
    b = trefethen_small.matvec(np.ones(300))
    healed = solver.solve(trefethen_small, b)
    plain = BlockAsyncSolver(cfg, stopping=StoppingCriterion(tol=0.0, maxiter=5)).solve(trefethen_small, b)
    assert np.array_equal(healed.x, plain.x)


@pytest.mark.parametrize("which", ["A", "b", "x0"])
def test_non_finite_input_rejected(small_spd, which):
    # A NaN used to run the engine into a NaN "diverged" result.
    A, b, x0 = small_spd.copy(), np.ones(60), np.zeros(60)
    {"A": A.data, "b": b, "x0": x0}[which][3] = np.inf if which == "x0" else np.nan
    with pytest.raises(ValueError, match=f"^{which} has non-finite"):
        SelfHealingSolver(AsyncConfig(block_size=10)).solve(A, b, x0)


def test_heals_through_silent_fault(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10, seed=1)
    fault = make_fault()
    stop = StoppingCriterion(tol=1e-10, maxiter=400)

    plain = BlockAsyncSolver(cfg, fault=make_fault(), stopping=stop).solve(small_spd, b)
    assert not plain.converged  # the fault defeats the unprotected solver

    healed = SelfHealingSolver(cfg, fault=make_fault(), stopping=stop).solve(small_spd, b)
    assert healed.converged
    assert np.allclose(healed.x, 1.0, atol=1e-6)
    assert healed.info["heals"]  # at least one heal happened


def test_heals_through_freeze_fault(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10, seed=1)
    fault = make_fault(kind="freeze")
    stop = StoppingCriterion(tol=1e-10, maxiter=400)
    healed = SelfHealingSolver(cfg, fault=fault, stopping=stop).solve(small_spd, b)
    assert healed.converged


def test_no_fault_no_heals(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10, seed=1)
    r = SelfHealingSolver(cfg, stopping=StoppingCriterion(tol=1e-10, maxiter=300)).solve(
        small_spd, b
    )
    assert r.converged
    assert r.info["heals"] == []


def test_heal_log_structure(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10, seed=1)
    r = SelfHealingSolver(
        cfg, fault=make_fault(), stopping=StoppingCriterion(tol=1e-10, maxiter=400)
    ).solve(small_spd, b)
    for heal in r.info["heals"]:
        assert set(heal) == {"sweep", "reason", "blocks"}
        assert heal["sweep"] > 12  # after the injection
        assert all(0 <= blk < 6 for blk in heal["blocks"])


def test_engine_heal_rows_exempts_from_fault(small_spd):
    from repro.core.engine import AsyncEngine
    from repro.sparse import BlockRowView

    b = small_spd.matvec(np.ones(60))
    fault = FaultScenario(fraction=0.2, t0=0, recovery=None, kind="freeze", clustered=True, seed=3)
    view = BlockRowView(small_spd, block_size=10)
    engine = AsyncEngine(view, b, AsyncConfig(local_iterations=1, block_size=10, seed=1), fault=fault)
    mask = fault.failed_components(60)
    x = np.zeros(60)
    x = engine.sweep(x)
    assert np.all(x[mask] == 0.0)  # frozen from the start
    engine.heal_rows(np.flatnonzero(mask))
    x = engine.sweep(x)
    assert not np.all(x[mask] == 0.0)  # healed rows update again
