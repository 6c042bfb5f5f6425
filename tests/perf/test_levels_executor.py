"""The level executor is the per-block loop, bitwise (:mod:`repro.perf.backends`).

``"levels"`` runs a sweep as a few dependency levels of independent blocks;
forced ``"reference"`` is the per-block loop it must reproduce.  Every test
compares the iterates after every sweep and the generator states at the
end, across the regimes auto sends to the block loop, relaxation, a
right-hand side with ``-0.0`` entries, non-uniform partitions, a sparsity
pattern that is not symmetric (where a γ = 1 reader must run before the
later blocks it couples to write), batched lanes with a per-replica
right-hand-side stack swept in part, block slots with pad rows (1-row
blocks, an outsized block, a short last block) with levels cut into lane
groups, and the benchmark's headline solve run to convergence.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine, BatchedAsyncEngine, BlockAsyncSolver, FaultScenario
from repro.partition import Partition, make_partition
from repro.perf import LevelSweepExecutor
from repro.perf.plan import _slot_width
from repro.solvers import StoppingCriterion
from repro.sparse import BlockRowView, CSRMatrix


def _regimes(name):
    path = Path(__file__).resolve().parents[1] / "core" / "test_backends.py"
    spec = importlib.util.spec_from_file_location("_backend_regimes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


#: The regimes in which auto finds no whole-sweep path (test_backends).
NON_ENGAGING = _regimes("NON_ENGAGING")

#: Further block-loop regimes: relaxation, a γ = 1 tail with deferred
#: writes, live random orders with deferred writes.
MORE = {
    "omega": AsyncConfig(order="gpu", local_iterations=3, omega=0.85, block_size=32),
    "tail-defer-omega": AsyncConfig(
        order="gpu", local_iterations=2, block_size=32, concurrency=4,
        deferred_write_prob=0.4, omega=0.85,
    ),
    "random-live-defer": AsyncConfig(
        order="random", stale_read_prob=0.0, local_iterations=3, block_size=32,
        deferred_write_prob=0.3,
    ),
}

ALL = {**NON_ENGAGING, **MORE}


def _rhs(A, seed=2):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


def _sweeps(view, b, config, backend, *, sweeps=4, seed=0):
    engine = AsyncEngine(view, b, dataclasses.replace(config, backend=backend, seed=seed))
    x = np.zeros(view.n)
    iterates = []
    for _ in range(sweeps):
        engine.sweep(x)
        iterates.append(x.copy())
    return engine, iterates, engine.rng.random(8)


def assert_levels_match_reference(view, b, config, **kw):
    lev, it_l, probe_l = _sweeps(view, b, config, "auto", **kw)
    ref, it_r, probe_r = _sweeps(view, b, config, "reference", **kw)
    assert lev.backend == "levels" and ref.backend == "reference"
    for t, (xl, xr) in enumerate(zip(it_l, it_r)):
        assert np.array_equal(xl, xr), f"levels diverged from reference at sweep {t + 1}"
    assert np.array_equal(probe_l, probe_r), "generator states diverged"
    return lev


@pytest.fixture(scope="module")
def nonsymmetric():
    """Diagonally dominant, with a block coupling that is not symmetric.

    In blocks of 16 rows, every row reads the next two blocks, but only
    odd blocks read the block before.  In sequential order an odd block
    therefore sits a level above the even block after it, which it reads:
    that block must not have written yet when the odd block reads.
    """
    gen = np.random.default_rng(3)
    n = 160
    dense = np.zeros((n, n))
    i = np.arange(n)
    for shift in (16, 32):
        dense[i[:-shift], i[:-shift] + shift] = gen.standard_normal(n - shift)
    odd = i[(i // 16) % 2 == 1]
    dense[odd, odd - 16] = gen.standard_normal(len(odd))
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    inner = i[i % 16 != 0]
    dense[inner, inner - 1] += 0.1  # local coupling inside every block
    return CSRMatrix.from_dense(dense)


@pytest.mark.parametrize("regime", sorted(ALL), ids=sorted(ALL))
def test_levels_match_reference(trefethen_small, regime):
    cfg = ALL[regime]
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    assert_levels_match_reference(view, _rhs(trefethen_small), cfg)


@pytest.mark.parametrize("regime", sorted(ALL), ids=sorted(ALL))
def test_levels_match_reference_nonsymmetric(nonsymmetric, regime):
    cfg = dataclasses.replace(ALL[regime], block_size=16)
    view = BlockRowView(nonsymmetric, block_size=cfg.block_size)
    assert_levels_match_reference(view, _rhs(nonsymmetric), cfg, sweeps=5)


def test_levels_match_reference_on_fv1(fv1):
    cfg = AsyncConfig(order="gpu", local_iterations=5, block_size=128)
    view = BlockRowView(fv1, block_size=cfg.block_size)
    lev = assert_levels_match_reference(view, _rhs(fv1), cfg, sweeps=3, seed=11)
    # Decision telemetry: a handful of levels per sweep, not one per block.
    assert 1.0 < lev.decisions()["levels_mean"] < view.nblocks / 4


@pytest.mark.parametrize("regime", ["partial-stale", "partial-defer"])
def test_negative_zero_rhs(trefethen_small, regime):
    # The reference loop takes its np.add.at fallback here; the level
    # executor's in-place fold must agree with it.
    b = _rhs(trefethen_small)
    b[[5, 40, 41, 200]] = -0.0
    view = BlockRowView(trefethen_small, block_size=32)
    assert_levels_match_reference(view, b, ALL[regime])


@pytest.mark.parametrize("spec", ["work_balanced:32", "clustered:32"])
@pytest.mark.parametrize("regime", ["gpu-default", "live-reads", "partial-defer"])
def test_non_uniform_partitions(trefethen_small, spec, regime):
    cfg = ALL[regime]
    view = BlockRowView(trefethen_small, partition=make_partition(trefethen_small, spec))
    assert_levels_match_reference(view, _rhs(trefethen_small), cfg)


@pytest.mark.parametrize("regime", ["gpu-default", "tail-defer-omega", "live-reads"])
def test_batched_lanes_with_rhs_stack_and_subset(trefethen_small, regime):
    A = trefethen_small
    cfg = ALL[regime]
    seeds = [4, 9, 13]
    B = np.stack([_rhs(A, seed) for seed in (1, 2, 3)])
    view = BlockRowView(A, block_size=cfg.block_size)
    batched = BatchedAsyncEngine(view, B, cfg, 3, seeds=seeds)
    assert batched.backend == "levels"
    refs = [
        AsyncEngine(view, B[r], dataclasses.replace(cfg, backend="reference", seed=seeds[r]))
        for r in range(3)
    ]
    X = np.zeros((3, A.shape[0]))
    xs = [np.zeros(A.shape[0]) for _ in range(3)]
    # A shrinking active set, as the batched run loop freezes replicas.
    for reps in ([0, 1, 2], [0, 1, 2], [0, 2], [2]):
        batched.sweep(X, replicas=np.array(reps))
        for r in range(3):
            if r in reps:
                refs[r].sweep(xs[r])
            assert np.array_equal(X[r], xs[r]), f"replica {r} diverged after sweeping {reps}"
    for r in range(3):
        assert np.array_equal(batched.rngs[r].random(8), refs[r].rng.random(8))


def test_faults_resolve_to_reference(trefethen_small):
    fault = FaultScenario(fraction=0.2, t0=1, recovery=None, seed=3)
    view = BlockRowView(trefethen_small, block_size=32)
    for cfg in ALL.values():
        engine = AsyncEngine(view, _rhs(trefethen_small), cfg, fault=fault)
        assert engine.backend == "reference"


def test_levels_build_their_structures_instead_of_the_per_block_plans(trefethen_small):
    view = BlockRowView(trefethen_small, block_size=32)
    mixed = AsyncEngine(view, _rhs(trefethen_small), NON_ENGAGING["gpu-default"])
    plan = mixed.plan
    assert mixed.backend == "levels"
    assert plan._padded is not None
    # No γ = 1 position: no padded external panels.
    assert plan._padded_ext is None
    live = AsyncEngine(view, _rhs(trefethen_small), NON_ENGAGING["live-reads"])
    assert live.plan is plan and plan._padded_ext is not None
    # Compiled once: sweeps build no further gather plans ...
    x = np.zeros(view.n)
    mixed.sweep(x)
    built = plan.ell_plans_built
    for _ in range(3):
        mixed.sweep(x)
        live.sweep(x)
    assert plan.ell_plans_built == built and plan.external._ell_builds == 1
    # ... and none of the reference loop's per-block ones.
    assert plan._local_c is None
    assert all(blk.external._ell_builds == 0 for blk in view.blocks)


def test_full_solve_on_fv1_matches_reference(fv1):
    # The benchmark's headline solve, to convergence: the final iterate,
    # the residual history and the sweep count.
    b = np.random.default_rng(5).standard_normal(fv1.shape[0])
    cfg = AsyncConfig(order="gpu", local_iterations=5, block_size=128, seed=11)
    results = {}
    for backend in ("auto", "reference"):
        solver = BlockAsyncSolver(
            dataclasses.replace(cfg, backend=backend),
            stopping=StoppingCriterion(tol=1e-10, maxiter=2000),
        )
        results[backend] = solver.solve(fv1, b)
    lev, ref = results["auto"], results["reference"]
    assert lev.info["backend"] == "levels" and ref.info["backend"] == "reference"
    assert lev.converged and ref.converged
    assert np.array_equal(lev.x.view(np.int64), ref.x.view(np.int64))
    assert np.array_equal(lev.residuals.view(np.int64), ref.residuals.view(np.int64))
    assert lev.info["sweeps"] == ref.info["sweeps"]


def _padded_partition(n):
    """Explicit blocks that pad: 1-row blocks, one outsized block, a short last one."""
    sizes = [1, 1, 16, 16, 16, 80, 1, 16, 16, 16, 16, 16, 1, 16, 16, 16, 16, 21]
    sizes.append(n - sum(sizes))
    assert 0 < sizes[-1] < 16 and max(sizes) >= 4 * np.median(sizes)
    return Partition(np.concatenate([[0], np.cumsum(sizes)]))


PADDED_REGIMES = ["gpu-default", "live-reads", "partial-defer", "tail-defer-omega"]


@pytest.mark.parametrize("regime", PADDED_REGIMES)
@pytest.mark.parametrize("negzero", [False, True], ids=["rhs", "negzero-rhs"])
def test_padded_block_slots(trefethen_small, regime, negzero):
    A = trefethen_small
    view = BlockRowView(A, partition=_padded_partition(A.shape[0]))
    b = _rhs(A)
    if negzero:
        # Zeros in a 1-row block, the outsized block and the short last one.
        b[[0, 60, 130, 299]] = -0.0
    lev = assert_levels_match_reference(view, b, ALL[regime], sweeps=5)
    # Slots of 16 rows: the 1-row blocks and the 3-row last block pad,
    # the 80-row block owns five slots and the 21-row one two.
    width, first, _, rows = lev.plan.slots
    assert width == 16 and not isinstance(rows, slice)
    assert np.diff(first)[[0, 5, 17, 18]].tolist() == [1, 5, 2, 1]
    assert lev.plan.block_panels.diag.shape == (first[-1], 16)


@pytest.mark.parametrize("group_rows", [1, 24])
@pytest.mark.parametrize("regime", ["gpu-default", "tail-defer-omega", "live-reads"])
def test_batched_lane_groups_on_padded_slots(trefethen_small, monkeypatch, regime, group_rows):
    monkeypatch.setattr(LevelSweepExecutor, "_GROUP_ROWS", group_rows)
    split = LevelSweepExecutor._split_levels
    groups_beyond_levels = []

    def spy(self, lv, R):
        nlev, nodes, bounds = out = split(self, lv, R)
        groups_beyond_levels.append(len(bounds) - 1 - nlev)
        return out

    monkeypatch.setattr(LevelSweepExecutor, "_split_levels", spy)
    A = trefethen_small
    cfg = ALL[regime]
    seeds = [4, 9, 13]
    B = np.stack([_rhs(A, seed) for seed in (1, 2, 3)])
    view = BlockRowView(A, partition=_padded_partition(A.shape[0]))
    batched = BatchedAsyncEngine(view, B, cfg, 3, seeds=seeds)
    assert batched.backend == "levels"
    refs = [
        AsyncEngine(view, B[r], dataclasses.replace(cfg, backend="reference", seed=seeds[r]))
        for r in range(3)
    ]
    X = np.zeros((3, A.shape[0]))
    xs = [np.zeros(A.shape[0]) for _ in range(3)]
    # A shrinking active set, as the batched run loop freezes replicas.
    for reps in ([0, 1, 2], [0, 1, 2], [0, 1, 2], [1, 2]):
        batched.sweep(X, replicas=np.array(reps))
        for r in reps:
            refs[r].sweep(xs[r])
        for r in range(3):
            assert np.array_equal(X[r], xs[r]), f"replica {r} diverged after sweeping {reps}"
    for r in range(3):
        assert np.array_equal(batched.rngs[r].random(8), refs[r].rng.random(8))
    # The levels did split into lane groups.
    assert max(groups_beyond_levels) > 0


def _two_blocks():
    """16 rows in two blocks of 8 that read each other."""
    gen = np.random.default_rng(8)
    dense = np.where(gen.random((16, 16)) < 0.4, gen.standard_normal((16, 16)), 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def test_lane_groups_never_span_levels(monkeypatch):
    # Three lanes of two 8-row blocks, 4 rows per group.  Level 0 holds
    # block 0 of lane 0, both blocks of lane 1 and block 0 of lane 2; its
    # last lane run starts 3 nodes in, i.e. in group 3 * 8 // 4 = 6 — as
    # many as there are nodes.
    monkeypatch.setattr(LevelSweepExecutor, "_GROUP_ROWS", 4)
    A = _two_blocks()
    cfg = dataclasses.replace(ALL["gpu-default"], block_size=8)
    engine = BatchedAsyncEngine(BlockRowView(A, block_size=8), np.ones((3, 16)), cfg, 3)
    assert engine.backend == "levels"
    lv = np.array([0, 1, 0, 0, 0, 1])
    nlev, nodes, bounds = engine._executor._split_levels(lv, 3)
    assert nlev == 2
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert len(set(lv[nodes[lo:hi]])) == 1, "a lane group spans two levels"


@pytest.mark.parametrize("regime", ["gpu-default", "partial-defer", "tail-defer-omega"])
def test_batched_groups_as_many_as_nodes(monkeypatch, regime):
    # Groups of 5 rows on 8-row blocks: a level whose last lane run starts
    # four nodes in lands in group 32 // 5 = 6 = R * nblocks, the first
    # group number of the next level under a (level · nodes + group) key.
    monkeypatch.setattr(LevelSweepExecutor, "_GROUP_ROWS", 5)
    split = LevelSweepExecutor._split_levels
    collisions = []

    def spy(self, lv, R):
        nodes = np.argsort(lv, kind="stable")
        lvs = lv[nodes]
        cut = np.flatnonzero(np.diff(lvs, prepend=-1))
        runs = np.flatnonzero(np.diff(lvs * R + nodes // self.nb, prepend=-1))
        for level in range(len(cut) - 1):
            last = runs[runs < cut[level + 1]][-1]
            collisions.append((last - cut[level]) * self.width // self._GROUP_ROWS == len(lv))
        return split(self, lv, R)

    monkeypatch.setattr(LevelSweepExecutor, "_split_levels", spy)
    A = _two_blocks()
    cfg = dataclasses.replace(ALL[regime], block_size=8)
    view = BlockRowView(A, block_size=8)
    seeds = [1, 2, 3]
    B = np.stack([_rhs(A, seed) for seed in seeds])
    batched = BatchedAsyncEngine(view, B, cfg, 3, seeds=seeds)
    refs = [
        AsyncEngine(view, B[r], dataclasses.replace(cfg, backend="reference", seed=seeds[r]))
        for r in range(3)
    ]
    X = np.zeros((3, 16))
    xs = [np.zeros(16) for _ in range(3)]
    for t in range(12):
        batched.sweep(X, replicas=np.arange(3))
        for r in range(3):
            refs[r].sweep(xs[r])
            assert np.array_equal(X[r], xs[r]), f"replica {r} diverged at sweep {t + 1}"
    assert any(collisions)


def test_outsized_block_splits_into_slots(trefethen_small):
    # 150 one-row blocks and one of 150 rows: slots of the largest block
    # would hold 151 × 150 rows for 300; one-row slots hold the rows.
    n = trefethen_small.shape[0]
    view = BlockRowView(trefethen_small, partition=Partition(np.concatenate([np.arange(151), [n]])))
    lev = assert_levels_match_reference(view, _rhs(trefethen_small), ALL["gpu-default"])
    width, first, _, rows = lev.plan.slots
    assert width == 1 and first[-1] == n and rows == slice(0, n)


@pytest.mark.parametrize(
    "heights, width",
    [
        ([128] * 75 + [4], 128),  # fv1's uniform cut: the block size
        ([126] * 20 + [159], 126),  # one taller block takes two slots
        ([1] * 150 + [150], 1),
        (np.diff(_padded_partition(300).boundaries), 16),
    ],
)
def test_slot_width(heights, width):
    assert _slot_width(np.array(heights)) == width
