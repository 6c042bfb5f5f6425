"""Whole sweeps against the per-block loop, over random systems and regimes.

Where no block reads another's current-sweep write — snapshot reads, or
every write deferred — ``backend="auto"`` runs each sweep whole: on the
stencil kernels where the matrix passes the offset-plane gate, else as one
level of the level executor.  On random dense-ish systems, which fail that
gate, ``auto`` runs the level executor, and after every sweep its iterates
and every lane's generator state must be bitwise those of the forced
per-block ``reference`` loop.  On random few-offset banded systems, which
pass it, ``auto`` runs the stencil kernels, one row tile or several,
whose iterates match the loop under ``np.array_equal`` (a hole's
``0.0 * x`` may flip the sign of an exact zero) with bitwise generator
states, and whose matrix residual equals ``b - A.matvec(x)``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import AsyncConfig, AsyncEngine, BatchedAsyncEngine
from repro.partition import make_partition
from repro.perf import compile_sweep_plan, rhs_preserves_fold
from repro.sparse import BlockRowView, COOMatrix, CSRMatrix, dia

#: The whole-sweep regimes: snapshot reads (synchronous order, full
#: staleness) and all-deferred writes with mixed and with live γ.
REGIMES = {
    "synchronous": dict(order="synchronous"),
    "stale": dict(order="gpu", stale_read_prob=1.0),
    "alldefer-mixed": dict(order="gpu", deferred_write_prob=1.0),
    "alldefer-live": dict(order="sequential", stale_read_prob=0.0, deferred_write_prob=1.0),
}


def _system(seed: int, n: int, density: float) -> CSRMatrix:
    """A random sparse, strictly diagonally dominant system (fails the plane gate)."""
    gen = np.random.default_rng(seed)
    dense = gen.standard_normal((n, n)) * (gen.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


def _lanes(A, b, config, R, seed0):
    view = BlockRowView(A, partition=make_partition(A, config.partition, block_size=config.block_size))
    engine = BatchedAsyncEngine(view, b, config, R, seed0=seed0)
    return engine, np.zeros((R, A.shape[0]))


def _states(engine):
    return [rng.bit_generator.state for rng in engine.rngs]


def _assert_lockstep(A, b, config, R, *, seed0=3, sweeps=3, zero_signs=True):
    """Run auto and forced reference side by side; returns auto's engine and iterates.

    Iterates must match bit for bit, or with *zero_signs* off under
    ``np.array_equal`` (every nonzero bit equal, zeros of either sign).
    """
    auto, X = _lanes(A, b, config, R, seed0)
    ref, Y = _lanes(A, b, dataclasses.replace(config, backend="reference"), R, seed0)
    for t in range(sweeps):
        auto.sweep(X)
        ref.sweep(Y)
        same = np.array_equal(X.view(np.int64), Y.view(np.int64)) if zero_signs else np.array_equal(X, Y)
        assert same, f"iterates diverged at sweep {t + 1}"
        assert _states(auto) == _states(ref), f"generator states diverged at sweep {t + 1}"
    return auto, X


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(12, 70),
    density=st.sampled_from([0.08, 0.2, 0.4]),
    regime=st.sampled_from(sorted(REGIMES)),
    k=st.sampled_from([1, 2, 5]),
    omega=st.sampled_from([1.0, 0.7]),
    block_size=st.sampled_from([1, 3, 8, 16]),
    # work_balanced cuts uneven blocks: rows off the slot layout's prefix.
    strategy=st.sampled_from(["uniform", "work_balanced"]),
    R=st.sampled_from([1, 2]),
    stacked=st.booleans(),
)
def test_auto_whole_sweeps_match_reference(seed, n, density, regime, k, omega, block_size, strategy, R, stacked):
    A = _system(seed, n, density)
    gen = np.random.default_rng(seed + 1)
    b = gen.standard_normal((R, n) if stacked else n)
    config = AsyncConfig(
        local_iterations=k, omega=omega, block_size=block_size, partition=strategy, **REGIMES[regime]
    )
    auto, _ = _assert_lockstep(A, b, config, R)
    assert compile_sweep_plan(auto.view).stencil[0] is None
    assert auto.decisions() == {"backend": "levels", "levels_mean": 1.0}


@pytest.mark.parametrize("R", [1, 2])
def test_negative_zero_rhs_takes_the_general_level_path(R):
    # With mixed γ and every write deferred, the loop's race corrections
    # are signed zeros, and its fold turns a -0.0 off-block sum into +0.0.
    # Against a -0.0 right-hand side that changes the sign of s = b - ext,
    # so the regime is no whole sweep: the level executor's general path
    # runs and still matches.  Positive couplings make x all -0.0 after
    # one sweep, and every later off-block sum -0.0 before the fold.
    A = _system(11, 40, 0.2)
    A = CSRMatrix(A.indptr, A.indices, np.abs(A.data), A.shape)
    b = -np.zeros(40)
    config = AsyncConfig(local_iterations=2, block_size=4, **REGIMES["alldefer-mixed"])
    auto, _ = _assert_lockstep(A, b, config, R)
    assert auto.backend == "levels" and not auto._executor.whole


def test_rows_wider_than_the_panels_run_the_reference_loop():
    # 69 in-block entries per row of the first block: past the 64-entry
    # panel cap, so auto keeps the per-block loop and forced levels refuses.
    A = _system(4, 90, 1.0)
    b = np.ones(90)
    config = AsyncConfig(order="synchronous", block_size=70)
    view = BlockRowView(A, block_size=70)
    assert AsyncEngine(view, b, config).backend == "reference"
    with pytest.raises(ValueError, match="wider than the level executor's padded panels"):
        AsyncEngine(view, b, dataclasses.replace(config, backend="levels"))


@pytest.mark.parametrize("regime", ["synchronous", "stale"])
@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_empty_local_panels_on_chem97ztz(regime, omega):
    # Chem97ZtZ has no in-block entries at block 32: its local panels are
    # one all-pad lane, whose product the whole sweep subtracts as the
    # constant +0.0 instead of gathering it.  Against a right-hand side
    # with -0.0 entries the result must keep every zero sign.
    from repro.matrices import get_matrix

    A = get_matrix("Chem97ZtZ")
    b = np.random.default_rng(6).standard_normal(A.shape[0])
    b[::7] = -0.0
    config = AsyncConfig(local_iterations=3, omega=omega, block_size=32, **REGIMES[regime])
    auto, _ = _assert_lockstep(A, b, config, 1, sweeps=4)
    assert auto.plan.local_off.nnz == 0
    assert auto.decisions() == {"backend": "levels", "levels_mean": 1.0}
    assert auto._executor._panels[0] is None


# --------------------------------------------------------------------- #
# gate-passing systems: the stencil kernels
# --------------------------------------------------------------------- #


def _banded(seed: int, n: int, offsets, holes: float, constant: bool) -> CSRMatrix:
    """A diagonally dominant system on a few column offsets, with holes in its planes.

    With *constant* every off-diagonal plane carries one coefficient on
    all but a few rows (constant-mode planes) and the diagonal is one
    value (the kernels' scalar divisor); otherwise every weight differs
    (vector-mode planes).
    """
    gen = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for o in offsets:
        r = np.arange(max(0, -o), min(n, n - o))
        r = r[gen.random(len(r)) >= holes]
        if constant:
            v = np.full(len(r), gen.choice([-1.0, 1.0, 0.5]))
            odd = gen.random(len(r)) < 0.03
            v[odd] = gen.standard_normal(int(odd.sum()))
        else:
            v = gen.standard_normal(len(r))
        rows.append(r)
        cols.append(r + o)
        vals.append(v)
    off = COOMatrix(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n, n)).tocsr()
    dominance = off.row_abs_sums() + 1.0
    diag = np.full(n, dominance.max()) if constant else dominance
    return off.add(CSRMatrix.diagonal_matrix(diag))


@st.composite
def banded_systems(draw):
    """``(A, b, x)``: a gate-passing banded system, a right-hand side and a probe vector.

    Offsets reach at most a quarter of n, so planes stay well filled; short
    ones couple rows inside a block and long ones cross blocks, and a block
    cut through a plane splits it into local and external parts.  *b* and
    *x* hold ``-0.0`` entries.
    """
    n = draw(st.integers(12, 120))
    reach = n // 4
    offsets = draw(st.sets(st.integers(-reach, reach).filter(bool), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**16))
    A = _banded(seed, n, sorted(offsets), draw(st.sampled_from([0.0, 0.1, 0.2])), draw(st.booleans()))
    assume(A.offset_planes()[0] is not None)
    gen = np.random.default_rng(seed + 1)
    b, x = gen.standard_normal(n), gen.standard_normal(n)
    for v in (b, x):
        v[gen.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = -0.0
    return A, b, x


@settings(max_examples=250, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=banded_systems(),
    regime=st.sampled_from(sorted(REGIMES)),
    k=st.sampled_from([1, 2, 5]),
    omega=st.sampled_from([1.0, 0.7]),
    block_size=st.sampled_from([1, 3, 8, 16, 40]),
    R=st.sampled_from([1, 2]),
    # Row tiles of the plane kernels: one tile, or several whose local
    # iterations must not read rows a tile already rewrote.
    tile=st.sampled_from([None, 1, 7, 32]),
)
def test_auto_stencil_sweeps_match_reference(system, regime, k, omega, block_size, R, tile):
    A, b, x = system
    n = A.shape[0]
    config = AsyncConfig(local_iterations=k, omega=omega, block_size=block_size, **REGIMES[regime])
    with pytest.MonkeyPatch.context() as mp:
        if tile is not None:
            mp.setattr(dia, "_TILE_ROWS", tile)
        auto, X = _assert_lockstep(A, b, config, R, zero_signs=False)
        for v in (x, X[-1]):
            assert np.array_equal(A.residual(v, b), b - A.matvec(v))
    # Mixed γ with every write deferred keeps the block loop's fold of
    # a -0.0 right-hand side only on the level path.
    whole = regime != "alldefer-mixed" or rhs_preserves_fold(b)
    assert auto.backend == ("stencil" if whole else "levels")
    stack = np.zeros((2, n))
    with pytest.raises(ValueError, match=rf"x must have shape \({n},\), got \(2, {n}\)"):
        A.residual(stack, b)
    with pytest.raises(ValueError, match=rf"x must have shape \({n},\)"):
        A.matvec(stack)
    if whole:
        with pytest.raises(ValueError, match=rf"\({n},\)"):
            auto._executor.kernels.local_sweeps(b, stack, k)


def test_block_cuts_split_planes_into_both_parts():
    # A cut every 8 rows splits the ±1 and ±3 planes: rows inside a block
    # stay local, rows across a cut go external, and both run bitwise.
    A = _banded(5, 64, [-3, -1, 1, 3], 0.1, True)
    b = np.random.default_rng(2).standard_normal(64)
    b[::5] = -0.0
    config = AsyncConfig(order="synchronous", local_iterations=3, omega=0.7, block_size=8)
    auto, _ = _assert_lockstep(A, b, config, 1, sweeps=4, zero_signs=False)
    assert auto.backend == "stencil"
    ext, loc = auto._executor.kernels.n_diagonals
    assert ext == loc == 4
