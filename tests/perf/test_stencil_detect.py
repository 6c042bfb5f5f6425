"""The stencil gate (:func:`repro.perf.detect_stencil`).

One decision picks the systems that run the offset-plane kernels, for the
residual and the sweep alike: a finite matrix that passes
:func:`repro.sparse.dia.plane_gate`.  The kernels read the view's own
matrix entries, so an accept never changes iterates; these tests pin
which matrices the gate accepts, why it refuses the others, and that the
accepted edge cases — permuted views, tiny systems, perturbed
coefficients — run bitwise the reference loop.
"""

import json

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine
from repro.matrices import get_matrix
from repro.matrices.grids import stencil_laplacian_2d
from repro.matrices.grids3d import stencil_laplacian_3d
from repro.partition import make_partition
from repro.perf import StencilDescriptor, compile_sweep_plan, detect_stencil
from repro.sparse import BlockRowView, CSRMatrix, dia


def _view(A, spec="uniform", block_size=128):
    return BlockRowView(A, partition=make_partition(A, spec, block_size=block_size))


def _tridiagonal(n):
    dense = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return CSRMatrix.from_dense(dense)


def _bits_equal_reference(view, sweeps=3):
    """Auto's backend on *view* and whether it matches the reference loop bit for bit."""
    b = np.random.default_rng(2).standard_normal(view.n)
    runs = []
    for backend in ("auto", "reference"):
        cfg = AsyncConfig(order="gpu", stale_read_prob=1.0, local_iterations=2, backend=backend)
        engine = AsyncEngine(view, b, cfg)
        x = np.zeros(view.n)
        iterates = []
        for _ in range(sweeps):
            engine.sweep(x)
            iterates.append(x.copy())
        runs.append((engine.backend, np.stack(iterates), engine.rng.random(8)))
    (auto, xs, ps), (_, xr, pr) = runs
    same = np.array_equal(xs.view(np.int64), xr.view(np.int64))
    return auto, same and np.array_equal(ps.view(np.int64), pr.view(np.int64))


@pytest.fixture(scope="module")
def lap3d():
    """12^3 7-point Laplacian."""
    return stencil_laplacian_3d(12)


# --------------------------------------------------------------------- #
# one gate: the sweep runs planes exactly where the residual does
# --------------------------------------------------------------------- #

#: Suite matrices and whether their offset planes pass the gate.
_GATE = {
    "fv1": True,
    "fv2": True,
    "fv3": True,
    "Trefethen_2000": True,
    "lap3d7pt_32": True,
    "lap3d19pt_32": True,
    "lap3d27pt_24": True,
    "lap3d7pt_aniso_32": True,
    "Chem97ZtZ": False,
    "s1rmt3m1": False,
    "rcm-tridiagonal": True,
}


@pytest.mark.parametrize("name", sorted(_GATE))
def test_stencil_accepts_iff_residual_runs_planes(name):
    if name == "rcm-tridiagonal":
        view = _view(_tridiagonal(400), spec="rcm", block_size=32)
        assert view.perm is not None
    else:
        view = _view(get_matrix(name))
    desc, reason = compile_sweep_plan(view).stencil
    assert (desc is not None) == (view.matrix.offset_planes()[0] is not None)
    assert (desc is not None) == _GATE[name], reason


# --------------------------------------------------------------------- #
# accepts
# --------------------------------------------------------------------- #


def test_fv1_detects(fv1):
    desc, reason = detect_stencil(_view(fv1))
    assert desc is not None and reason == ""
    assert desc.offsets.tolist() == [-99, -98, -97, -1, 0, 1, 97, 98, 99]


def test_lap3d_7pt_detects(lap3d):
    desc, reason = detect_stencil(_view(lap3d))
    assert desc is not None, reason
    assert desc.offsets.tolist() == [-144, -12, -1, 0, 1, 12, 144]
    # The planes hold the matrix's own entries, on the rows that store them.
    n = lap3d.shape[0]
    rows, vals = desc.planes[3].entries()
    assert np.array_equal(rows, np.arange(n)) and np.array_equal(vals, lap3d.diagonal())
    rows, vals = desc.planes[0].entries()
    assert np.array_equal(rows, np.arange(144, n)) and (vals == -1.0).all()
    assert desc.planes is lap3d.offset_planes()[0]  # the residual's planes


@pytest.mark.parametrize("stencil", ["19pt", "27pt"])
def test_lap3d_wide_stencils_detect(stencil):
    desc, reason = detect_stencil(_view(stencil_laplacian_3d(12, stencil=stencil)))
    assert desc is not None, reason
    assert desc.offsets.tolist() == (-desc.offsets[::-1]).tolist()


def test_anisotropic_coefficients_detect():
    desc, reason = detect_stencil(
        _view(stencil_laplacian_3d(12, anisotropy=(1.0, 1.0, 0.01)))
    )
    assert desc is not None, reason


def test_one_row_blocks_are_fine(lap3d):
    # The gate is a property of the matrix, not the decomposition size.
    desc, _ = detect_stencil(_view(lap3d, block_size=1))
    assert desc is not None


def test_descriptor_telemetry_is_json_safe(lap3d):
    desc, _ = detect_stencil(_view(lap3d))
    blob = desc.telemetry()
    assert json.loads(json.dumps(blob, allow_nan=False)) == blob
    assert blob == {
        "offsets": desc.offsets.tolist(),
        "fill": lap3d.nnz / (7 * lap3d.shape[0]),
        "residual": dia.plane_modes(desc.planes),
    }


def test_2d_grid_detects_small():
    desc, reason = detect_stencil(_view(stencil_laplacian_2d(16), block_size=16))
    assert desc is not None, reason
    assert isinstance(desc, StencilDescriptor)
    assert desc.offsets.tolist() == [-17, -16, -15, -1, 0, 1, 15, 16, 17]


def _modes(constant, deviation):
    return {"planes": len(deviation), "constant": constant, "gather": 0, "deviation": deviation}


#: Offsets, plane fill and residual plane modes of the suite's stencil
#: matrices (uniform blocks of 128).  lap3d's planes run constant (grid
#: boundary holes are 6% of its ±1/±16 rows); fv1/fv3's variable
#: coefficients leave half the rows off any one weight, so theirs stay
#: on vectors.
_PINNED = {
    "lap3d16": (
        [-256, -16, -1, 0, 1, 16, 256],
        0.9464285714285714,
        _modes(7, {"-256": 0.0, "-16": 0.0588, "-1": 0.0623, "0": 0.0,
                   "1": 0.0623, "16": 0.0588, "256": 0.0}),
    ),
    "fv1": (
        [-99, -98, -97, -1, 0, 1, 97, 98, 99],
        0.9864408348373362,
        _modes(0, {"-99": 0.5203, "-98": 0.5102, "-97": 0.5102, "-1": 0.5051, "0": 0.4949,
                   "1": 0.5051, "97": 0.5102, "98": 0.5102, "99": 0.5203}),
    ),
    "fv3": (
        [-100, -99, -98, -1, 0, 1, 98, 99, 100],
        0.9865773333786801,
        _modes(0, {"-100": 0.5101, "-99": 0.5, "-98": 0.4999, "-1": 0.515, "0": 0.5051,
                   "1": 0.515, "98": 0.4999, "99": 0.5, "100": 0.5101}),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_descriptors_pinned(name):
    A = stencil_laplacian_3d(16) if name == "lap3d16" else get_matrix(name)
    desc, reason = detect_stencil(_view(A))
    assert desc is not None, reason
    assert desc.telemetry() == dict(zip(("offsets", "fill", "residual"), _PINNED[name]))


def test_trefethen_passes_the_gate(trefethen_small):
    # Every row's prime diagonal differs, but the nonzeros sit on 19
    # power-of-two offsets that fill 82% of their plane.
    desc, reason = detect_stencil(_view(trefethen_small))
    assert desc is not None and reason == ""
    blob = desc.telemetry()
    assert blob["fill"] == pytest.approx(0.8207, abs=1e-4)
    # The band's weights are all 1: every plane but the diagonal is constant.
    assert blob["residual"]["constant"] == blob["residual"]["planes"] - 1


@pytest.mark.parametrize("spec", ["rcm", "clustered:8"])
def test_permuted_views_are_judged_on_their_own_matrix(spec):
    # The kernels read the permuted matrix, so a permutation is no reason
    # to refuse: rcm keeps a tridiagonal tridiagonal and runs stencil,
    # clustered spreads its offsets and falls to one-level levels.
    view = _view(_tridiagonal(400), spec=spec, block_size=32)
    desc, reason = compile_sweep_plan(view).stencil
    assert (desc is not None) == (view.matrix.offset_planes()[0] is not None)
    backend, same = _bits_equal_reference(view)
    assert backend == ("stencil" if spec == "rcm" else "levels"), reason
    assert same


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("block_size", [1, 2, 3])
def test_tiny_matrices_run_stencil(n, block_size):
    view = _view(_tridiagonal(n), block_size=block_size)
    assert _bits_equal_reference(view) == ("stencil", True)


def test_perturbed_coefficients_run_bitwise(lap3d):
    # Per-row weights come from the matrix itself: one perturbed entry is
    # just another weight, not a reason to leave the plane path.
    data = lap3d.data.copy()
    data[np.flatnonzero(lap3d.data == -1.0)[500]] *= 1.0 + 1e-9
    B = CSRMatrix(lap3d.indptr.copy(), lap3d.indices.copy(), data, lap3d.shape)
    assert _bits_equal_reference(_view(B, block_size=64)) == ("stencil", True)


# --------------------------------------------------------------------- #
# rejects
# --------------------------------------------------------------------- #


def test_chem97_fails_on_offset_cap():
    desc, reason = detect_stencil(_view(get_matrix("Chem97ZtZ")))
    assert desc is None
    assert "distinct offsets" in reason


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


def test_non_finite_entries_fail(lap3d):
    # A hole's 0.0 * x turns an inf iterate into NaN where the reference
    # loop, which skips holes, keeps the inf.
    data = lap3d.data.copy()
    data[7] = np.inf
    B = CSRMatrix(lap3d.indptr.copy(), lap3d.indices.copy(), data, lap3d.shape)
    assert detect_stencil(_view(B)) == (None, "matrix entries are not finite")


@pytest.mark.parametrize(
    "name, reason",
    [
        ("Chem97ZtZ", "1983 distinct offsets exceed the cap of 32"),
        ("s1rmt3m1", "49 distinct offsets exceed the cap of 32"),
    ],
)
def test_rejection_reasons_pinned(name, reason):
    assert detect_stencil(_view(get_matrix(name))) == (None, reason)
