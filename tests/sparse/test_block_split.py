"""Oracle test of the one-pass decomposition build.

:class:`repro.sparse.BlockRowView`, :func:`repro.partition.compute_stats`
and :class:`repro.perf.SweepPlan` all build from one whole-matrix entry
classification.  This file keeps the per-block construction they replaced
— slice each block's rows, split them by column range, pick the diagonal
out entry by entry, restack — as the reference, and checks on random
sparse systems and partitions that every structure comes out with the
same arrays in the same order, floats compared bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.partition import Partition, PartitionStats, make_partition
from repro.perf import compile_sweep_plan
from repro.sparse import BlockRowView, CSRMatrix

# --------------------------------------------------------------------- #
# reference construction (the per-block loop)
# --------------------------------------------------------------------- #


def _reference_blocks(A, boundaries):
    """``[(diag, local_off, external)]`` per block, built block by block."""
    out = []
    for start, stop in zip(boundaries[:-1].tolist(), boundaries[1:].tolist()):
        local, external = A.row_slice(start, stop).column_range_split(start, stop)
        rows = np.repeat(np.arange(stop - start, dtype=np.int64), local.row_nnz())
        on_diag = local.indices == rows + start
        diag = np.zeros(stop - start)
        diag[rows[on_diag]] = local.data[on_diag]
        out.append((diag, local._mask_select(~on_diag), external))
    return out


def _reference_stack(parts, n):
    """Per-block CSR parts restacked into one (n, n) matrix."""
    indptr = [np.zeros(1, dtype=np.int64)]
    nnz = 0
    for p in parts:
        indptr.append(nnz + p.indptr[1:])
        nnz += p.nnz
    return CSRMatrix(
        np.concatenate(indptr),
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.data for p in parts]),
        (n, n),
        check=False,
    )


def _reference_stats(A, boundaries, overlap):
    """Partition stats with a ``searchsorted`` block map of every entry."""
    n = int(boundaries[-1])
    block_rows = np.diff(boundaries)
    block_nnz = A.indptr[boundaries[1:]] - A.indptr[boundaries[:-1]]
    rows = np.repeat(np.arange(n, dtype=np.int64), A.row_nnz())
    entry_block = np.searchsorted(boundaries, rows, side="right") - 1
    cols = A.indices
    local = (cols >= boundaries[entry_block]) & (cols < boundaries[entry_block + 1])
    absdata = np.abs(A.data)
    ext_mass = float(absdata[~local].sum())
    loc_mass = float(absdata[local & (cols != rows)].sum())
    total = ext_mass + loc_mass
    capacity = float((block_rows.astype(np.float64) ** 2).sum())
    elo = np.maximum(boundaries[:-1] - overlap, 0)
    ehi = np.minimum(boundaries[1:] + overlap, n)
    captured = ~local & (cols >= elo[entry_block]) & (cols < ehi[entry_block])
    return PartitionStats(
        block_rows=block_rows,
        block_nnz=block_nnz,
        imbalance=float(block_nnz.max()) / float(block_nnz.mean()),
        off_block_fraction=ext_mass / total if total > 0 else 0.0,
        diag_block_density=float(local.sum()) / capacity,
        overlap=overlap,
        overlap_rows=int((ehi - elo - block_rows).sum()) if overlap else 0,
        duplicated_nnz=int((A.indptr[boundaries[:-1]] - A.indptr[elo]).sum()
                           + (A.indptr[ehi] - A.indptr[boundaries[1:]]).sum()),
        halo_captured_fraction=(
            float(absdata[captured].sum()) / ext_mass if overlap and ext_mass > 0 else 0.0
        ),
    )


def _reference_pad(parts, n, starts_of_row, sentinel):
    """Row-major padded-ELL panels of per-block parts (``starts_of_row`` rebases)."""
    lengths = np.concatenate([np.diff(p.indptr) for p in parts])
    W = max(1, int(lengths.max(initial=0)))
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    slot = np.arange(len(rows)) - offsets[rows]
    indices = np.concatenate([p.indices for p in parts])
    if starts_of_row is not None:
        indices = indices - starts_of_row[rows]
    cols = np.full((n, W), sentinel, dtype=np.int64)
    data = np.full((n, W), -0.0)
    cols[rows, slot] = indices
    data[rows, slot] = np.concatenate([p.data for p in parts])
    data[lengths == 0, 0] = 0.0
    return cols, data


# --------------------------------------------------------------------- #
# comparison helpers
# --------------------------------------------------------------------- #


def _same_floats(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _same_csr(M, R):
    assert M.shape == R.shape
    assert np.array_equal(M.indptr, R.indptr)
    assert np.array_equal(M.indices, R.indices)
    assert _same_floats(M.data, R.data)


def _check_view(view):
    A, b, n = view.matrix, view.boundaries, view.n
    ref = _reference_blocks(A, b)
    assert view.nblocks == len(ref)
    for blk, (diag, local_off, external) in zip(view.blocks, ref):
        assert _same_floats(blk.diag, diag)
        _same_csr(blk.local_off, local_off)
        _same_csr(blk.external, external)
    ref_E = _reference_stack([r[2] for r in ref], n)
    ref_L = _reference_stack([r[1] for r in ref], n)
    _same_csr(view.external_matrix(), ref_E)
    _same_csr(view.local_offdiag_matrix(), ref_L)
    assert _same_floats(view.diagonal_vector(), np.concatenate([r[0] for r in ref]))

    stats = view.partition_stats()
    ref_stats = _reference_stats(A, b, view.partition.overlap)
    for name in ("block_rows", "block_nnz"):
        assert np.array_equal(getattr(stats, name), getattr(ref_stats, name))
    for name in ("overlap", "overlap_rows", "duplicated_nnz"):
        assert getattr(stats, name) == getattr(ref_stats, name), name
    for name in ("imbalance", "off_block_fraction", "diag_block_density", "halo_captured_fraction"):
        assert _same_floats(getattr(stats, name), getattr(ref_stats, name)), name
    assert view.off_block_fraction() == stats.off_block_fraction

    plan = compile_sweep_plan(view)
    bor = np.searchsorted(b, np.arange(n), side="right") - 1
    assert np.array_equal(plan.ennz, [r[2].nnz for r in ref])
    assert np.array_equal(plan.block_of_row, bor)
    readers, owners = plan.entry_blocks
    assert np.array_equal(readers, bor[ref_E._expanded_rows()])
    assert np.array_equal(owners, bor[ref_E.indices])
    # The block-major panels, read row by row at each row's slot place.
    slot = plan.slots.slot
    panels = plan.block_panels
    for got, parts, rebase in (
        (panels[:2], [r[1] for r in ref], b[:-1][bor]),
        (plan.block_external, [r[2] for r in ref], None),
    ):
        cols, data = _reference_pad(parts, n, rebase, plan.PAD_SENTINEL)
        if rebase is None:  # external columns are slot places
            real = cols != plan.PAD_SENTINEL
            cols[real] = slot[cols[real]]
        got_cols, got_data = (a.reshape(-1, a.shape[-1])[slot] for a in got)
        assert np.array_equal(got_cols, cols)
        assert _same_floats(got_data, data)
    assert _same_floats(panels.diag.reshape(-1)[slot], view.diagonal_vector())


# --------------------------------------------------------------------- #
# random systems × random partitions
# --------------------------------------------------------------------- #


def _random_system(n, density, seed):
    """Random sparse matrix with a nonzero diagonal (signed values, stored zeros)."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(dense, rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n)))
    A = CSRMatrix.from_dense(dense)
    # A few stored signed zeros off the diagonal: the masks must keep them.
    off = np.flatnonzero(A.indices != A._expanded_rows())
    k = min(2, len(off))
    A.data[rng.choice(off, size=k, replace=False)] = [0.0, -0.0][:k]
    return A


def _boundaries(kind, n, rng):
    if kind == "single":
        return np.array([0, n])
    if kind == "ones":
        return np.arange(n + 1)
    if kind == "uneven":
        size = max(1, n // 3 + 1)
        return np.unique(np.r_[np.arange(0, n, size), n])
    # "random": up to five cuts anywhere.
    cuts = rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 6))), replace=False)
    return np.unique(np.r_[0, cuts, n]).astype(np.int64)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 60),
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["single", "ones", "uneven", "random", "rcm"]),
    overlap=st.sampled_from([0, 0, 1, 3]),
)
def test_one_pass_build_matches_per_block_construction(n, density, seed, kind, overlap):
    A = _random_system(n, density, seed)
    if kind == "rcm":
        part = make_partition(A, f"rcm:{max(1, n // 4)}+o{overlap}")
    else:
        cuts = _boundaries(kind, n, np.random.default_rng(seed))
        part = Partition(boundaries=cuts, overlap=overlap)
    _check_view(BlockRowView(A, partition=part))


def test_rcm_partition_is_permuted(small_spd):
    # The hypothesis "rcm" case above only covers a permutation if the
    # strategy actually reorders; pin that on a fixed system.
    view = BlockRowView(small_spd, partition=make_partition(small_spd, "rcm:8"))
    assert view.perm is not None
    _check_view(view)


def test_stencil_path_builds_no_block_parts():
    from repro.matrices.grids3d import stencil_laplacian_3d
    from repro.core import AsyncConfig, AsyncEngine

    A = stencil_laplacian_3d(12)
    view = BlockRowView(A, block_size=144)
    config = AsyncConfig(local_iterations=2, block_size=144, stale_read_prob=1.0)
    engine = AsyncEngine(view, np.ones(A.shape[0]), config)
    assert engine.backend == "stencil"
    engine.sweep(np.zeros(A.shape[0]))
    assert view._stacked == {} and view._blocks is None


# --------------------------------------------------------------------- #
# zero-diagonal rejection
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["missing", "+0.0", "-0.0"])
def test_zero_diagonal_names_row_and_block(kind):
    dense = np.diag(np.arange(1.0, 13.0)) + np.diag(np.full(11, -0.5), 1)
    row = 6  # middle block of [0, 4), [4, 8), [8, 12)
    if kind == "missing":
        dense[row, row] = 0.0
        A = CSRMatrix.from_dense(dense)
        assert not np.any((A._expanded_rows() == row) & (A.indices == row))
    else:
        dense[row, row] = 7.0
        A = CSRMatrix.from_dense(dense)
        A.data[(A._expanded_rows() == row) & (A.indices == row)] = float(kind)
    with pytest.raises(ValueError, match=r"block 1 \(rows \[4, 8\)\) has zero diagonal entries, first at row 6;"):
        BlockRowView(A, boundaries=[0, 4, 8, 12])
