"""Tests for the run-ensemble driver."""

import dataclasses

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.solvers import StoppingCriterion
from repro.stats import run_ensemble


def _seed_factory(cfg, iterations, **solver_kwargs):
    """The per-seed path: one plain ``BlockAsyncSolver`` of *cfg* per seed."""

    def factory(seed):
        return BlockAsyncSolver(
            dataclasses.replace(cfg, seed=seed),
            stopping=StoppingCriterion(tol=0.0, maxiter=iterations),
            **solver_kwargs,
        )

    return factory


def test_ensemble_shapes(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10)
    s = run_ensemble(small_spd, b, nruns=5, iterations=20, config=cfg, checkpoints=[5, 10, 20])
    assert s.nruns == 5
    assert s.checkpoints.tolist() == [5, 10, 20]
    assert np.all(s.mean > 0)
    assert np.all(s.max >= s.min)


def test_ensemble_relative_vs_absolute(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=1, block_size=10)
    rel = run_ensemble(small_spd, b, 3, 5, config=cfg)
    absolute = run_ensemble(small_spd, b, 3, 5, config=cfg, relative=False)
    assert np.allclose(absolute.mean, rel.mean * np.linalg.norm(b))


def test_ensemble_seeds_distinct_runs(fv1):
    from repro.matrices import default_rhs

    b = default_rhs(fv1)
    cfg = AsyncConfig(local_iterations=2, block_size=128, order="gpu", concurrency=168)
    s = run_ensemble(fv1, b, nruns=4, iterations=15, config=cfg, checkpoints=[15])
    # gpu order with per-entry races: different seeds must differ.
    assert s.abs_variation[0] > 0


def test_ensemble_synchronous_is_deterministic(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=1, block_size=10, order="synchronous")
    s = run_ensemble(small_spd, b, nruns=4, iterations=10, config=cfg)
    assert np.all(s.abs_variation == 0.0)


def test_ensemble_custom_factory(small_spd):
    b = small_spd.matvec(np.ones(60))
    seen = []

    def factory(seed):
        seen.append(seed)
        return BlockAsyncSolver(AsyncConfig(local_iterations=1, block_size=10, seed=seed))

    run_ensemble(small_spd, b, nruns=3, iterations=4, factory=factory, seed0=100)
    assert seen == [100, 101, 102]


def test_ensemble_requires_config_or_factory(small_spd):
    with pytest.raises(ValueError, match="factory or config"):
        run_ensemble(small_spd, np.ones(60), 2, 3)


def test_ensemble_validation(small_spd):
    cfg = AsyncConfig(block_size=10)
    with pytest.raises(ValueError):
        run_ensemble(small_spd, np.ones(60), 0, 3, config=cfg)
    with pytest.raises(ValueError):
        run_ensemble(small_spd, np.ones(60), 2, 0, config=cfg)


def test_ensemble_pads_early_converged(small_spd):
    # Identity-like trivial system converges to exact zero quickly; the
    # histories must still align.
    from repro.sparse import CSRMatrix

    A = CSRMatrix.identity(20)
    b = np.ones(20)
    cfg = AsyncConfig(local_iterations=1, block_size=5)
    s = run_ensemble(A, b, nruns=3, iterations=10, config=cfg)
    assert len(s.mean) == 11
    assert s.mean[-1] == 0.0


def test_ensemble_batched_matches_sequential(small_spd):
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10, order="gpu")
    seq = run_ensemble(small_spd, b, 6, 8, factory=_seed_factory(cfg, 8))
    bat = run_ensemble(small_spd, b, 6, 8, config=cfg)
    for field in ("mean", "max", "min", "variance"):
        assert np.array_equal(getattr(seq, field), getattr(bat, field))


def test_ensemble_factory_records_every_sweep(small_spd):
    # A factory solver's residual cadence must not leak into the ensemble:
    # histories are aggregated entry j = sweep j, so with m=5 the recorded
    # sweeps 0, 5, 8 would silently misalign every checkpoint.
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=2, block_size=10, order="gpu")
    seq = run_ensemble(small_spd, b, 6, 8, factory=_seed_factory(cfg, 8, residual_every=5))
    bat = run_ensemble(small_spd, b, 6, 8, config=cfg)
    for field in ("mean", "max", "min", "variance"):
        assert np.array_equal(getattr(seq, field), getattr(bat, field))


def test_ensemble_batched_is_default_for_configs(small_spd, monkeypatch):
    # Config-driven ensembles take the batched path unless told otherwise.
    from repro.stats import ensembles

    called = {}
    orig = ensembles._batched_histories

    def spy(*args, **kwargs):
        called["batched"] = True
        return orig(*args, **kwargs)

    monkeypatch.setattr(ensembles, "_batched_histories", spy)
    b = small_spd.matvec(np.ones(60))
    cfg = AsyncConfig(local_iterations=1, block_size=10)
    run_ensemble(small_spd, b, 2, 3, config=cfg)
    assert called.get("batched")


def test_ensemble_preserves_factory_stopping(small_spd):
    # Only maxiter is capped; the factory's tolerance and divergence limit
    # must survive (they used to be clobbered wholesale).
    from repro.solvers import StoppingCriterion

    b = small_spd.matvec(np.ones(60))
    solvers = []

    def factory(seed):
        s = BlockAsyncSolver(
            AsyncConfig(local_iterations=1, block_size=10, seed=seed),
            stopping=StoppingCriterion(tol=1e-3, maxiter=99, divergence_limit=1e7),
        )
        solvers.append(s)
        return s

    run_ensemble(small_spd, b, 2, 5, factory=factory)
    for s in solvers:
        assert s.stopping.maxiter == 5
        assert s.stopping.tol == 1e-3
        assert s.stopping.divergence_limit == 1e7


def test_ensemble_rejects_overlong_history(small_spd):
    # A factory whose solver ignores the installed maxiter would silently
    # misalign every checkpoint; that is an error, not a shrug.
    from repro.solvers.base import SolveResult

    b = small_spd.matvec(np.ones(60))

    class RogueSolver(BlockAsyncSolver):
        def solve(self, A, bb, x0=None):
            return SolveResult(
                x=np.zeros(60),
                residuals=np.linspace(1.0, 0.1, 12),  # 11 iterations > 4
                converged=False,
                method="rogue",
                b_norm=float(np.linalg.norm(bb)),
            )

    def factory(seed):
        return RogueSolver(AsyncConfig(block_size=10, seed=seed))

    with pytest.raises(ValueError, match="more than the requested"):
        run_ensemble(small_spd, b, 2, 4, factory=factory)
