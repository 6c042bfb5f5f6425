"""Tests for AsyncConfig and the wave scheduler."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.core import AsyncConfig, UPDATE_ORDERS, WaveScheduler


def scheduler(order="gpu", nblocks=20, **kw):
    cfg = AsyncConfig(order=order, **kw)
    return WaveScheduler(nblocks, cfg, as_rng(cfg.seed)), cfg


# --------------------------------------------------------------------- #
# AsyncConfig validation
# --------------------------------------------------------------------- #


def test_config_defaults():
    cfg = AsyncConfig()
    assert cfg.local_iterations == 1
    assert cfg.order == "gpu"
    assert cfg.method_name == "async-(1)"


def test_method_name():
    assert AsyncConfig(local_iterations=5).method_name == "async-(5)"


@pytest.mark.parametrize(
    "kw",
    [
        dict(local_iterations=0),
        dict(block_size=0),
        dict(order="chaotic"),
        dict(concurrency=0),
        dict(stale_read_prob=1.5),
        dict(deferred_write_prob=-0.1),
        dict(omega=0.0),
        dict(pattern_pool=0),
        dict(jitter_swaps=-1),
        dict(backend="cuda"),
        dict(residual_every=0),
        # The partition spec is validated at config construction, so a
        # typo is caught where it is written, not at first solve.
        dict(partition=""),
        dict(partition="zigzag"),
        dict(partition="uniform:abc"),
        dict(partition="uniform: 4"),
        dict(partition="uniform:4+o"),
        dict(partition="uniform:4+x2"),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        AsyncConfig(**kw)


def test_config_method_name_follows_overlap():
    # The partition's +oK suffix is the one spelling of async-RAS.
    assert AsyncConfig(local_iterations=2).method_name == "async-(2)"
    cfg = AsyncConfig(partition="uniform:16+o4", local_iterations=2)
    assert cfg.method_name == "async-RAS(2,o4)"
    assert AsyncConfig(partition="work_balanced:8+o1").method_name == "async-RAS(1,o1)"
    # +o0 is the disjoint method, and named as such.
    assert AsyncConfig(partition="uniform:16+o0", local_iterations=2).method_name == "async-(2)"
    # The knob it replaced is gone, not silently accepted.
    with pytest.raises(TypeError):
        AsyncConfig(schwarz="ras")


def test_update_orders_registry():
    assert set(UPDATE_ORDERS) == {"synchronous", "sequential", "reversed", "random", "gpu"}


# --------------------------------------------------------------------- #
# ordering
# --------------------------------------------------------------------- #


def test_order_every_block_exactly_once_every_sweep():
    for order in UPDATE_ORDERS:
        sched, cfg = scheduler(order=order)
        rng = as_rng(1)
        for sweep in range(5):
            o = sched.order_for_sweep(sweep, rng)
            assert sorted(o.tolist()) == list(range(20)), order


def test_sequential_and_reversed():
    s_seq, _ = scheduler("sequential")
    s_rev, _ = scheduler("reversed")
    rng = as_rng(0)
    assert s_seq.order_for_sweep(0, rng).tolist() == list(range(20))
    assert s_rev.order_for_sweep(0, rng).tolist() == list(range(19, -1, -1))


def test_gpu_recurring_pattern_pool():
    sched, cfg = scheduler("gpu", pattern_pool=3, jitter_swaps=0)
    rng = as_rng(9)
    o0 = sched.order_for_sweep(0, rng)
    o3 = sched.order_for_sweep(3, rng)  # same pattern slot (3 % 3 == 0)
    assert np.array_equal(o0, o3)
    o1 = sched.order_for_sweep(1, rng)
    assert not np.array_equal(o0, o1)


def test_gpu_jitter_perturbs():
    cfg = AsyncConfig(order="gpu", pattern_pool=1, jitter_swaps=3)
    sched = WaveScheduler(50, cfg, as_rng(0))
    rng = as_rng(1)
    o0 = sched.order_for_sweep(0, rng)
    o1 = sched.order_for_sweep(1, rng)  # same pattern, fresh jitter
    assert sorted(o0.tolist()) == sorted(o1.tolist())
    assert not np.array_equal(o0, o1)


@pytest.mark.parametrize("nblocks", [1, 5, 76])
@pytest.mark.parametrize("swaps", [0, 1, 2, 3])
def test_gpu_jitter_is_one_draw_equal_to_per_swap_draws(nblocks, swaps):
    # All swaps come from one integers() call; its values and the generator
    # state after it equal one size-2 draw per swap, and no swap, no draw.
    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def integers(self, *args, **kwargs):
            self.calls += 1
            return self.rng.integers(*args, **kwargs)

    cfg = AsyncConfig(order="gpu", pattern_pool=2, jitter_swaps=swaps)
    for seed in (0, 1, 77, 4242):
        sched = WaveScheduler(nblocks, cfg, as_rng(3))
        rng, ref = Counting(as_rng(seed)), as_rng(seed)
        for sweep in range(3):
            want = sched._patterns[sweep % 2].copy()
            for _ in range(swaps):
                i, j = ref.integers(0, nblocks, size=2)
                want[i], want[j] = want[j], want[i]
            assert np.array_equal(sched.order_for_sweep(sweep, rng), want)
            assert rng.rng.bit_generator.state == ref.bit_generator.state
        assert rng.calls == (3 if swaps else 0)


def test_random_order_varies():
    sched, _ = scheduler("random")
    rng = as_rng(2)
    assert not np.array_equal(sched.order_for_sweep(0, rng), sched.order_for_sweep(1, rng))


def test_different_seeds_different_patterns():
    cfg = AsyncConfig(order="gpu", jitter_swaps=0, pattern_pool=1)
    s1 = WaveScheduler(30, cfg, as_rng(1))
    s2 = WaveScheduler(30, cfg, as_rng(2))
    assert not np.array_equal(s1.order_for_sweep(0, as_rng(0)), s2.order_for_sweep(0, as_rng(0)))


# --------------------------------------------------------------------- #
# staleness / gamma plans
# --------------------------------------------------------------------- #


def test_synchronous_gamma_all_zero():
    sched, _ = scheduler("synchronous")
    _, gamma = sched.plan_for_sweep(0, as_rng(0))
    assert np.all(gamma == 0.0)


def test_gpu_gamma_resident_rate():
    sched, _ = scheduler("gpu", nblocks=10, concurrency=10)
    _, gamma = sched.plan_for_sweep(0, as_rng(0))
    assert np.allclose(gamma, 1.0 - sched.GPU_STALENESS_CAP)


def test_pipeline_tail_reads_live():
    sched, _ = scheduler("gpu", nblocks=10, concurrency=4)
    _, gamma = sched.plan_for_sweep(0, as_rng(0))
    assert np.all(gamma[4:] == 1.0)
    assert np.all(gamma[:4] < 1.0)


def test_sequential_fully_fresh_tail_only():
    sched, _ = scheduler("sequential", nblocks=8, concurrency=2)
    _, gamma = sched.plan_for_sweep(0, as_rng(0))
    # Resident window stale (sequential derives staleness 1), tail live.
    assert np.all(gamma[:2] == 0.0)
    assert np.all(gamma[2:] == 1.0)


def test_explicit_stale_read_prob_override():
    sched, _ = scheduler("gpu", nblocks=10, stale_read_prob=0.7)
    assert np.isclose(sched.effective_stale_prob(), 0.7)


def test_concurrency_clamped_to_nblocks():
    sched, _ = scheduler("gpu", nblocks=5, concurrency=100)
    assert sched.concurrency == 5


def test_staleness_bound_condition2():
    sched, _ = scheduler("gpu")
    assert sched.staleness_bound() <= 2


def test_waves_partition_blocks():
    sched, _ = scheduler("gpu", nblocks=10, concurrency=3)
    waves = sched.waves(0, as_rng(0))
    flat = np.concatenate(waves)
    assert sorted(flat.tolist()) == list(range(10))
    assert all(len(w) <= 3 for w in waves)


def test_invalid_nblocks():
    with pytest.raises(ValueError, match="nblocks"):
        WaveScheduler(0, AsyncConfig(), as_rng(0))
