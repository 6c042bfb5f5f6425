"""Tests for the canonical boundary builders (repro.partition.rows)."""

import numpy as np
import pytest

from repro.partition import partition_rows, partition_rows_by_work


def test_block_size_boundaries_match_cuda_grid():
    b = partition_rows(10, 3)
    assert b.tolist() == [0, 3, 6, 9, 10]
    assert b.dtype == np.int64
    # block_size >= n collapses to a single block.
    assert partition_rows(10, 10).tolist() == [0, 10]
    assert partition_rows(10, 64).tolist() == [0, 10]


def test_nblocks_boundaries_are_balanced():
    b = partition_rows(10, nblocks=4)
    sizes = np.diff(b)
    assert b[0] == 0 and b[-1] == 10 and len(b) == 5
    assert sizes.max() - sizes.min() <= 1


@pytest.mark.parametrize("nblocks", [0, -1, 11, 1000])
def test_partition_rows_rejects_bad_nblocks(nblocks):
    with pytest.raises(ValueError, match=r"nblocks must be in \[1, n\]"):
        partition_rows(10, nblocks=nblocks)


def test_partition_rows_rejects_ambiguous_arguments():
    with pytest.raises(ValueError, match="exactly one"):
        partition_rows(10)
    with pytest.raises(ValueError, match="exactly one"):
        partition_rows(10, 3, nblocks=4)
    with pytest.raises(ValueError, match="block_size must be positive"):
        partition_rows(10, 0)
    with pytest.raises(ValueError, match="n must be positive"):
        partition_rows(0, 3)


def test_nblocks_equal_n_gives_singleton_blocks():
    b = partition_rows(7, nblocks=7)
    assert np.array_equal(b, np.arange(8))


@pytest.mark.parametrize("nblocks", [0, -3, 301, 5000])
def test_partition_rows_by_work_rejects_bad_nblocks(trefethen_small, nblocks):
    with pytest.raises(ValueError, match=r"nblocks must be in \[1, n\]"):
        partition_rows_by_work(trefethen_small, nblocks)


@pytest.mark.parametrize("nblocks", [1, 2, 16, 77])
def test_partition_rows_by_work_covers_all_rows_without_empty_blocks(
    trefethen_small, nblocks
):
    n = trefethen_small.shape[0]
    b = partition_rows_by_work(trefethen_small, nblocks)
    assert b[0] == 0 and b[-1] == n and len(b) == nblocks + 1
    assert np.all(np.diff(b) > 0)


def test_partition_rows_by_work_levels_nnz_on_skewed_rows(trefethen_small):
    # Trefethen's leading rows carry ~2 log2(n) entries, the tail far
    # fewer: equal-work cuts must beat equal-row cuts on nnz spread.
    A = trefethen_small
    nnz = A.row_nnz()

    def spread(bounds):
        per = np.add.reduceat(nnz, bounds[:-1])
        return per.max() / per.mean()

    uniform = partition_rows(A.shape[0], nblocks=16)
    work = partition_rows_by_work(A, 16)
    assert spread(work) < spread(uniform)
