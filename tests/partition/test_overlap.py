"""Overlap halos: the +oK partition machinery.

Property tests for the restricted-Schwarz partition extensions: halo
ranges clip at the matrix edge and cover exactly the rows reachable
within ``overlap`` hops on banded systems, and — the bitwise contract —
an overlap-0 partition is indistinguishable from a pre-overlap one in
stats, telemetry and fingerprint.
"""

import numpy as np
import pytest

from repro.partition import Partition, compute_stats, make_partition
from repro.sparse import CSRMatrix


def _tridiag(n):
    """Path-graph Laplacian-ish tridiagonal system (bandwidth exactly 1)."""
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, 4.0)
    idx = np.arange(n - 1)
    dense[idx, idx + 1] = -1.0
    dense[idx + 1, idx] = -1.0
    return CSRMatrix.from_dense(dense)


# --------------------------------------------------------------------- #
# Halo ranges
# --------------------------------------------------------------------- #


def test_halo_ranges_clip_at_matrix_edges(small_spd):
    p = make_partition(small_spd, "uniform:16+o5")
    ranges = p.halo_ranges()
    assert ranges.shape == (p.nblocks, 2)
    assert ranges[0, 0] == 0  # first block cannot extend below row 0
    assert ranges[-1, 1] == p.n  # last block cannot extend past n
    for k in range(p.nblocks):
        start, stop = int(p.boundaries[k]), int(p.boundaries[k + 1])
        elo, ehi = int(ranges[k, 0]), int(ranges[k, 1])
        assert elo == max(start - 5, 0)
        assert ehi == min(stop + 5, p.n)
        assert elo <= start < stop <= ehi  # owned rows inside the extension


@pytest.mark.parametrize("overlap", [1, 2, 4])
def test_halo_covers_offblock_support_up_to_overlap_hops(overlap):
    # On a bandwidth-1 system the rows reachable within `overlap` hops of
    # a block are exactly [start - overlap, stop + overlap) clipped — the
    # halo range must capture all of them, i.e. every off-block column a
    # row up to `overlap` hops deep references lies inside the halo.
    A = _tridiag(64)
    p = make_partition(A, f"uniform:16+o{overlap}")
    ranges = p.halo_ranges()
    for k in range(p.nblocks):
        elo, ehi = int(ranges[k, 0]), int(ranges[k, 1])
        # BFS frontier of the owned rows, `overlap` hops deep.
        reach = set(range(int(p.boundaries[k]), int(p.boundaries[k + 1])))
        for _ in range(overlap):
            nxt = set(reach)
            for i in reach:
                lo, hi = A.indptr[i], A.indptr[i + 1]
                nxt.update(int(j) for j in A.indices[lo:hi])
            reach = nxt
        assert reach == set(range(elo, ehi))


def test_halo_captured_fraction_hits_one_past_the_bandwidth():
    # Once the halo depth reaches the matrix bandwidth, the extended
    # blocks see every off-block coupling.
    A = _tridiag(64)
    p1 = make_partition(A, "uniform:16+o1")
    s1 = p1.ensure_stats(A)
    assert s1.halo_captured_fraction == 1.0
    assert s1.overlap_rows > 0
    assert s1.duplicated_nnz > 0


# --------------------------------------------------------------------- #
# The overlap-0 bitwise contract
# --------------------------------------------------------------------- #


def test_overlap_zero_stats_equal_baseline_exactly(small_spd):
    p0 = make_partition(small_spd, "uniform:16")
    pe = make_partition(small_spd, "uniform:16+o0")
    s0 = compute_stats(small_spd, p0.boundaries)
    se = compute_stats(small_spd, pe.boundaries, overlap=0)
    assert np.array_equal(s0.block_rows, se.block_rows)
    assert np.array_equal(s0.block_nnz, se.block_nnz)
    assert s0.summary() == se.summary()  # no overlap keys in either
    assert "overlap_rows" not in s0.summary()


def test_overlap_zero_partition_is_indistinguishable(small_spd):
    p0 = make_partition(small_spd, "uniform:16")
    pe = make_partition(small_spd, "uniform:16+o0")
    assert pe.overlap == 0
    # overlap=0 contributes nothing to the digest: a partition identical
    # except for the (unset) overlap field fingerprints identically, so
    # historical digests stay valid.  (The spec *string* is hashed as
    # before, so "uniform:16+o0" differs from "uniform:16" textually —
    # exactly as "uniform" vs "uniform:16" always did.)
    same = Partition(
        boundaries=p0.boundaries, strategy=p0.strategy, spec=p0.spec, overlap=0
    )
    assert same.fingerprint() == p0.fingerprint()
    p0.ensure_stats(small_spd), pe.ensure_stats(small_spd)
    t0, te = p0.telemetry(), pe.telemetry()
    t0.pop("spec"), te.pop("spec")  # specs differ textually ("+o0")
    assert t0 == te
    assert "overlap" not in te
    # halo ranges degenerate to the block boundaries themselves.
    ranges = pe.halo_ranges()
    assert np.array_equal(ranges[:, 0], pe.boundaries[:-1])
    assert np.array_equal(ranges[:, 1], pe.boundaries[1:])


def test_overlap_changes_the_fingerprint(small_spd):
    p0 = make_partition(small_spd, "uniform:16")
    p2 = make_partition(small_spd, "uniform:16+o2")
    assert p2.overlap == 2
    assert p2.fingerprint() != p0.fingerprint()
    assert p2.telemetry()["overlap"] == 2
    assert "overlap=2" in repr(p2)


def test_overlap_validation():
    with pytest.raises(ValueError, match="overlap"):
        Partition(boundaries=np.array([0, 5, 10]), overlap=-1)
    with pytest.raises(TypeError, match="overlap"):
        Partition(boundaries=np.array([0, 5, 10]), overlap=True)
    with pytest.raises(TypeError, match="overlap"):
        Partition(boundaries=np.array([0, 5, 10]), overlap=2.0)
