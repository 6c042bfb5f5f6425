"""Stencil structure detection (:func:`repro.perf.detect_stencil`).

The detector is a gate, not a heuristic: matrices it accepts run the
matrix-free stencil executor, so a false accept would silently change
iterates and a false reject only costs speed.  These tests pin both
sides — the suite's stencil matrices (fv*, the 3-D grid family) detect
with the right descriptor, the irregular ones (Trefethen, Chem97ZtZ)
fail with a precise reason, permuted partitions fail cleanly, and a
single perturbed coefficient is enough to reject a near-miss.
"""

import json

import numpy as np
import pytest

from repro.matrices import get_matrix
from repro.matrices.grids import stencil_laplacian_2d
from repro.matrices.grids3d import stencil_laplacian_3d
from repro.partition import make_partition
from repro.perf import StencilDescriptor, detect_stencil
from repro.sparse import BlockRowView, CSRMatrix


def _view(A, spec="uniform", block_size=128):
    return BlockRowView(A, partition=make_partition(A, spec, block_size=block_size))


@pytest.fixture(scope="module")
def lap3d():
    """12^3 7-point Laplacian — interior fraction 0.579, detects."""
    return stencil_laplacian_3d(12)


# --------------------------------------------------------------------- #
# accepts
# --------------------------------------------------------------------- #


def test_fv1_detects(fv1):
    desc, reason = detect_stencil(_view(fv1))
    assert desc is not None and reason == ""
    # Two-material coefficient field: several constant-coefficient
    # interior classes, the rest exact clipped boundary variants.
    assert desc.n_interior_classes > 1
    assert desc.n_classes == desc.n_interior_classes + desc.n_variants
    assert desc.interior_fraction >= 0.5
    assert desc.grid_shape == (98, 98)
    assert 0 in desc.offsets


def test_lap3d_7pt_detects_with_grid_shape(lap3d):
    desc, reason = detect_stencil(_view(lap3d))
    assert desc is not None, reason
    assert desc.offsets.tolist() == [-144, -12, -1, 0, 1, 12, 144]
    assert desc.grid_shape == (12, 12, 12)
    assert desc.n_interior_classes == 1
    assert desc.n_variants > 0  # clipped boundary rows
    # The dominant interior class is the constant-coefficient core.
    assert desc.coeffs[desc.offsets.tolist().index(0)] == 6.0


@pytest.mark.parametrize("stencil", ["19pt", "27pt"])
def test_lap3d_wide_stencils_detect(stencil):
    desc, reason = detect_stencil(_view(stencil_laplacian_3d(12, stencil=stencil)))
    assert desc is not None, reason
    if stencil == "19pt":
        assert desc.grid_shape == (12, 12, 12)
    else:
        # The Q1 27-point stencil has zero face weights, so the sparsity
        # carries no +-1 offsets and grid inference correctly declines —
        # metadata only, execution never needs it.
        assert desc.grid_shape is None


def test_anisotropic_coefficients_detect():
    desc, reason = detect_stencil(
        _view(stencil_laplacian_3d(12, anisotropy=(1.0, 1.0, 0.01)))
    )
    assert desc is not None, reason
    assert desc.grid_shape == (12, 12, 12)


def test_one_row_blocks_are_fine(lap3d):
    # Detection is a property of the matrix, not the decomposition size.
    desc, _ = detect_stencil(_view(lap3d, block_size=1))
    assert desc is not None
    assert desc.grid_shape == (12, 12, 12)


def test_descriptor_telemetry_is_json_safe(lap3d):
    desc, _ = detect_stencil(_view(lap3d))
    blob = desc.telemetry()
    assert json.loads(json.dumps(blob, allow_nan=False)) == blob
    assert blob["grid_shape"] == [12, 12, 12]
    assert blob["classes"] == desc.n_classes


# --------------------------------------------------------------------- #
# rejects
# --------------------------------------------------------------------- #


def test_trefethen_fails_on_row_patterns(trefethen_small):
    # The per-row prime diagonal makes every row pattern unique.
    desc, reason = detect_stencil(_view(trefethen_small))
    assert desc is None
    assert "distinct row patterns" in reason


def test_chem97_fails_on_offset_cap():
    desc, reason = detect_stencil(_view(get_matrix("Chem97ZtZ")))
    assert desc is None
    assert "distinct offsets" in reason


@pytest.mark.parametrize("spec", ["rcm", "clustered:8"])
def test_permuted_partitions_fail_cleanly(lap3d, spec):
    # Offsets are meaningless after reordering; the detector must refuse
    # before looking at any entry.
    desc, reason = detect_stencil(_view(lap3d, spec=spec))
    assert desc is None
    assert "permutation" in reason


def test_near_miss_one_perturbed_coefficient_fails(lap3d):
    # Perturb a single off-diagonal entry of one interior row: the row is
    # no longer a clipped variant of any interior class, and the matrix
    # must NOT detect — a false accept would silently change iterates.
    A = lap3d
    lengths = np.diff(A.indptr)
    row = int(np.flatnonzero(lengths == lengths.max())[lengths.max() // 2])
    data = A.data.copy()
    j = A.indptr[row]
    if A.indices[j] == row:  # don't touch the diagonal slot
        j += 1
    data[j] *= 1.0 + 1e-9
    B = CSRMatrix(A.indptr.copy(), A.indices.copy(), data, A.shape)
    desc, reason = detect_stencil(_view(B))
    assert desc is None
    assert "clipped variant" in reason


def test_tiny_matrix_fails():
    desc, reason = detect_stencil(_view(CSRMatrix.identity(3), block_size=1))
    assert desc is None
    assert "too small" in reason


def test_low_fill_band_fails():
    # A wide scattered band: few offsets repeat, so the offsets x rows
    # plane is mostly empty and the fill gate exits.
    gen = np.random.default_rng(5)
    n = 96
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, 4.0)
    for i in range(n):
        for j in gen.choice(n, size=3, replace=False):
            if j != i:
                dense[i, j] = -0.1
    desc, reason = detect_stencil(_view(CSRMatrix.from_dense(dense), block_size=16))
    assert desc is None
    assert ("fill" in reason) or ("distinct offsets" in reason)


def test_interior_fraction_gate():
    # 8^3 7-point: boundary rows dominate ((6/8)^3 = 0.42 interior), so
    # the grid is honestly too small for interior-dominated dispatch.
    desc, reason = detect_stencil(_view(stencil_laplacian_3d(8), block_size=64))
    assert desc is None
    assert "interior fraction" in reason


def test_2d_grid_detects_small():
    desc, reason = detect_stencil(_view(stencil_laplacian_2d(16), block_size=16))
    assert desc is not None, reason
    assert desc.grid_shape == (16, 16)
    assert isinstance(desc, StencilDescriptor)


# --------------------------------------------------------------------- #
# exactness of the row grouping
# --------------------------------------------------------------------- #


def _with_offset_values(A, offset, rows, value):
    """Copy of *A* with the stored entry at *offset* of each of *rows* set to *value*."""
    data = A.data.copy()
    at = np.isin(A._expanded_rows(), rows) & (A.indices - A._expanded_rows() == offset)
    data[at] = value
    return CSRMatrix(A.indptr.copy(), A.indices.copy(), data, A.shape)


@pytest.mark.parametrize(
    "value, other",
    [(0.0, -0.0), (-1.0, np.nextafter(-1.0, 0.0))],
    ids=["signed-zero", "one-ulp"],
)
def test_rows_differing_in_one_coefficient_bit_pattern_split(lap3d, value, other):
    # Half the rows carry `other` instead of `value` at offset +1: a second
    # interior class, never merged with the first.
    n = lap3d.shape[0]
    base = _with_offset_values(lap3d, 1, np.arange(n), value)
    split = _with_offset_values(base, 1, np.arange(n // 2, n), other)
    d0, r0 = detect_stencil(_view(base))
    d1, r1 = detect_stencil(_view(split))
    assert d0 is not None and d1 is not None, (r0, r1)
    assert d0.n_interior_classes == 1
    assert d1.n_interior_classes == 2
    assert d1.n_classes > d0.n_classes
    # One such row alone is neither interior nor a clipped variant.
    row = int(np.flatnonzero(np.diff(lap3d.indptr) == 7)[10])
    lone = _with_offset_values(base, 1, [row], other)
    desc, reason = detect_stencil(_view(lone))
    assert desc is None and "clipped variant" in reason


def test_hash_collision_is_caught_not_merged(lap3d, monkeypatch):
    import repro.perf.stencil as stencil

    monkeypatch.setattr(stencil, "_row_hash", lambda bits: np.zeros(bits.shape[1], np.uint64))
    desc, reason = detect_stencil(_view(lap3d))
    assert desc is None and reason == "row-pattern hash collision"


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


#: Descriptors of the suite's stencil matrices (uniform blocks of 128),
#: pinned from the void-row ``np.unique`` grouping the hash grouping
#: replaced: offsets, dominant coefficients (as bits), class counts,
#: interior fraction and grid shape.
_PINNED = {
    "lap3d16": (
        [-256, -16, -1, 0, 1, 16, 256],
        _bits([-1.0, -1.0, -1.0, 6.0, -1.0, -1.0, -1.0]),
        (27, 1, 26), 0.669921875, (16, 16, 16),
    ),
    "fv1": (
        [-99, -98, -97, -1, 0, 1, 97, 98, 99],
        [-4623695617433709227] * 4 + [4614207668210047466] + [-4623695617433709227] * 4,
        (20, 6, 14), 0.9596001665972511, (98, 98),
    ),
    "fv3": (
        [-100, -99, -98, -1, 0, 1, 98, 99, 100],
        [-4623695617433709227] * 4 + [4613186977716345772] + [-4623695617433709227] * 4,
        (20, 6, 14), 0.9600040812162024, (99, 99),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_descriptors_pinned(name):
    A = stencil_laplacian_3d(16) if name == "lap3d16" else get_matrix(name)
    desc, reason = detect_stencil(_view(A))
    assert desc is not None, reason
    offsets, coeff_bits, counts, fraction, shape = _PINNED[name]
    assert desc.offsets.tolist() == offsets
    assert desc.coeffs.view(np.int64).tolist() == coeff_bits
    assert (desc.n_classes, desc.n_interior_classes, desc.n_variants) == counts
    assert desc.interior_fraction == fraction
    assert desc.grid_shape == shape


@pytest.mark.parametrize(
    "name, reason",
    [
        ("Trefethen_2000", "2000 distinct row patterns exceed the cap of 64"),
        ("Chem97ZtZ", "1983 distinct offsets exceed the cap of 32"),
    ],
)
def test_rejection_reasons_pinned(name, reason):
    assert detect_stencil(_view(get_matrix(name))) == (None, reason)
