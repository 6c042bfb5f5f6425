"""``DistAsyncSolver(shards=1)`` is bitwise the in-process solver.

A single shard owns every block, its halo is empty, and the driver runs
strict lock-step — so the multiprocess pipeline must reproduce
:class:`repro.core.BlockAsyncSolver` exactly: same iterates, same residual
history, same update counts, same telemetry residuals.  Any drift here
means the sharded split changed the method instead of just distributing it.
"""

import numpy as np
import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.dist import DistAsyncSolver
from repro.runtime import StoppingCriterion
from repro.runtime.recorder import RunRecorder


def _pair(**kwargs):
    """(reference solver, one-shard dist solver) with identical settings."""
    ref_rec, dist_rec = RunRecorder(), RunRecorder()
    ref = BlockAsyncSolver(recorder=ref_rec, **kwargs)
    dist = DistAsyncSolver(shards=1, recorder=dist_rec, **kwargs)
    return ref, dist, ref_rec, dist_rec


def _assert_bitwise(small_system, **kwargs):
    A, b = small_system
    ref, dist, ref_rec, dist_rec = _pair(**kwargs)
    r_ref = ref.solve(A, b)
    r_dist = dist.solve(A, b)

    assert np.array_equal(r_ref.x, r_dist.x)
    assert np.array_equal(r_ref.residuals, r_dist.residuals)
    assert np.array_equal(r_ref.residual_iters, r_dist.residual_iters)
    assert r_ref.converged == r_dist.converged
    assert r_ref.method == r_dist.method
    assert np.array_equal(
        r_ref.info["update_counts"], r_dist.info["update_counts"]
    )
    assert r_ref.info["staleness_bound"] == r_dist.info["staleness_bound"]
    assert r_ref.info["nblocks"] == r_dist.info["nblocks"]

    # Telemetry residual streams match bitwise too.
    ref_run = ref_rec.to_dict()["runs"][0]
    dist_run = dist_rec.to_dict()["runs"][0]
    assert ref_run["residuals"]["norms"] == dist_run["residuals"]["norms"]
    assert ref_run["residuals"]["iters"] == dist_run["residuals"]["iters"]
    return r_ref, r_dist


def test_default_config_bitwise(small_system, stopping):
    _assert_bitwise(
        small_system, local_iterations=2, block_size=32, seed=3, stopping=stopping
    )


def test_relaxed_omega_bitwise(small_system, stopping):
    _assert_bitwise(
        small_system,
        local_iterations=3,
        block_size=48,
        seed=11,
        omega=0.9,
        stopping=stopping,
    )


def test_work_balanced_partition_bitwise(small_system, stopping):
    _assert_bitwise(
        small_system,
        local_iterations=2,
        block_size=32,
        seed=0,
        partition="work_balanced:6",
        stopping=stopping,
    )


def test_permuted_partition_bitwise(small_system, stopping):
    r_ref, r_dist = _assert_bitwise(
        small_system,
        local_iterations=2,
        block_size=32,
        seed=1,
        partition="rcm:48",
        stopping=stopping,
    )
    assert r_dist.info.get("permuted") is True
    assert r_ref.info.get("permuted") is True


def test_sparse_residual_cadence_bitwise(small_system, stopping):
    r_ref, r_dist = _assert_bitwise(
        small_system,
        local_iterations=2,
        block_size=32,
        seed=5,
        residual_every=3,
        stopping=stopping,
    )
    # The sparse cadence path actually exercised residual_iters.
    assert len(r_dist.residual_iters) == len(r_dist.residuals)
    assert len(r_dist.residuals) < r_dist.info["sweeps"] + 2


def test_one_shard_method_name_matches(small_system, stopping):
    A, b = small_system
    solver = DistAsyncSolver(shards=1, local_iterations=2, stopping=stopping)
    assert solver.name == "async-(2)"
    result = solver.solve(A, b)
    assert result.method == "async-(2)"
    assert result.info["dist"]["nshards"] == 1
    assert result.info["dist"]["lead"] == 0


def test_shards_must_be_positive():
    with pytest.raises(ValueError, match="shards"):
        DistAsyncSolver(shards=0)


@pytest.mark.parametrize("partition", ["uniform:16+o2", "work_balanced+o1"])
def test_overlapped_partition_refused(partition):
    # In-process, +oK runs async-RAS; shards run disjoint blocks, so a
    # sharded run would break shards=1 ≡ single-process under an RAS name.
    with pytest.raises(ValueError, match="async-RAS"):
        DistAsyncSolver(shards=1, partition=partition)
    with pytest.raises(ValueError, match="async-RAS"):
        DistAsyncSolver(AsyncConfig(partition=partition), shards=2)
