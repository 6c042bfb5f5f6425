"""Unit tests for the block-row decomposition."""

import numpy as np
import pytest

from repro.partition import partition_rows
from repro.sparse import BlockRowView, CSRMatrix


# --------------------------------------------------------------------- #
# partition_rows
# --------------------------------------------------------------------- #


def test_partition_by_block_size():
    b = partition_rows(10, 3)
    assert b.tolist() == [0, 3, 6, 9, 10]


def test_partition_exact_division():
    b = partition_rows(9, 3)
    assert b.tolist() == [0, 3, 6, 9]


def test_partition_by_nblocks_balanced():
    b = partition_rows(10, nblocks=3)
    sizes = np.diff(b)
    assert b[0] == 0 and b[-1] == 10
    assert sizes.max() - sizes.min() <= 1


def test_partition_block_larger_than_n():
    assert partition_rows(5, 100).tolist() == [0, 5]


def test_partition_invalid():
    with pytest.raises(ValueError):
        partition_rows(0, 3)
    with pytest.raises(ValueError):
        partition_rows(5, -1)
    with pytest.raises(ValueError):
        partition_rows(5)
    with pytest.raises(ValueError):
        partition_rows(5, 2, nblocks=2)
    with pytest.raises(ValueError):
        partition_rows(5, nblocks=6)


# --------------------------------------------------------------------- #
# BlockRowView
# --------------------------------------------------------------------- #


def test_blocks_reassemble_matrix(small_spd):
    view = BlockRowView(small_spd, block_size=7)
    dense = small_spd.to_dense()
    recon = np.zeros_like(dense)
    for blk in view.blocks:
        recon[blk.rows] += blk.local_off.to_dense() + blk.external.to_dense()
        idx = np.arange(blk.start, blk.stop)
        recon[idx, idx] += blk.diag
    assert np.allclose(recon, dense)


def test_local_entries_within_block(small_spd):
    view = BlockRowView(small_spd, block_size=13)
    for blk in view.blocks:
        if blk.local_off.nnz:
            assert blk.local_off.indices.min() >= blk.start
            assert blk.local_off.indices.max() < blk.stop
        if blk.external.nnz:
            inside = (blk.external.indices >= blk.start) & (blk.external.indices < blk.stop)
            assert not inside.any()


def test_local_off_excludes_diagonal(small_spd):
    view = BlockRowView(small_spd, block_size=11)
    for blk in view.blocks:
        rows = blk.local_off._expanded_rows() + blk.start
        assert not np.any(rows == blk.local_off.indices)


def test_diag_matches_matrix(small_spd):
    view = BlockRowView(small_spd, block_size=9)
    d = small_spd.diagonal()
    for blk in view.blocks:
        assert np.allclose(blk.diag, d[blk.start : blk.stop])


def test_zero_diagonal_rejected():
    dense = np.array([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="zero diagonal"):
        BlockRowView(CSRMatrix.from_dense(dense), block_size=1)


def test_nonsquare_rejected():
    A = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        BlockRowView(A, block_size=1)


def test_explicit_boundaries(small_spd):
    view = BlockRowView(small_spd, boundaries=[0, 10, 25, 60])
    assert view.nblocks == 3
    assert view.block_sizes().tolist() == [10, 15, 35]


def test_bad_boundaries(small_spd):
    for bad in ([0, 10], [1, 30, 60], [0, 30, 30, 60], [0, 70]):
        if bad[-1] == small_spd.shape[0] and bad[0] == 0 and len(bad) > 2 and all(
            bad[i] < bad[i + 1] for i in range(len(bad) - 1)
        ):
            continue
        with pytest.raises(ValueError):
            BlockRowView(small_spd, boundaries=bad)


def test_block_of_row(small_spd):
    view = BlockRowView(small_spd, block_size=7)
    for i in (0, 6, 7, 59):
        k = view.block_of_row(i)
        blk = view.blocks[k]
        assert blk.start <= i < blk.stop
    with pytest.raises(IndexError):
        view.block_of_row(60)


def test_off_block_fraction_extremes(small_spd):
    # One block: everything local.
    whole = BlockRowView(small_spd, block_size=60)
    assert whole.off_block_fraction() == 0.0
    # Size-1 blocks: everything external.
    single = BlockRowView(small_spd, block_size=1)
    assert single.off_block_fraction() == 1.0


def test_off_block_fraction_monotone_in_block_size(fv1):
    f128 = BlockRowView(fv1, block_size=128).off_block_fraction()
    f448 = BlockRowView(fv1, block_size=448).off_block_fraction()
    f896 = BlockRowView(fv1, block_size=896).off_block_fraction()
    assert f128 > f448 > f896


def test_rows_of(small_spd):
    view = BlockRowView(small_spd, block_size=25)
    rows = view.rows_of([0, 2])
    assert rows.tolist() == list(range(0, 25)) + list(range(50, 60))
    assert view.rows_of([]).size == 0


def test_block_mass_properties(small_spd):
    view = BlockRowView(small_spd, block_size=15)
    dense = small_spd.to_dense()
    for blk in view.blocks:
        sub = dense[blk.start : blk.stop]
        inside = np.abs(sub[:, blk.start : blk.stop]).sum() - np.abs(blk.diag).sum()
        outside = np.abs(sub).sum() - inside - np.abs(blk.diag).sum()
        assert np.isclose(blk.local_mass, inside)
        assert np.isclose(blk.external_mass, outside)
