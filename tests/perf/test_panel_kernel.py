"""The panel product is a strict left-to-right row sum, bit for bit.

Every product over the level executor's and the level programs' padded
panels is one call of :func:`repro.perf.program._panel_product`, SciPy's
compiled ``csr_matvec`` started from ``-0.0``.  Their bitwise agreement
with the per-block loop rests on three facts pinned here:

* it sums each row one entry at a time, left to right, with no fused
  multiply-add and no reordering — the lane fold a pure NumPy loop does;
* a pad (``-0.0`` times the operand's ``+0.0``) leaves every sum alone,
  signed zeros, infinities and NaNs included, and an empty row (first pad
  ``+0.0``) sums to ``+0.0``;
* which NaN comes out where two NaNs meet is the one bit pattern left
  open: IEEE 754 does not fix it, and NumPy itself varies (on x86-64 a
  one-element ``+=`` keeps its right operand's NaN, a long one its left
  operand's, as the compiled kernel does), so NaN results compare as NaN;
* the plan's own operands are C-contiguous int64 / float64, so the
  compiled call writes *out* in place instead of a converted copy.
"""

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine
from repro.krylov import AsyncSweepPreconditioner
from repro.matrices import get_matrix
from repro.perf import compile_sweep_plan
from repro.perf.program import _panel_product, _row_starts
from repro.sparse import BlockRowView

#: Values the random panels and operands draw from besides normals.
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])


def _lane_fold(cols, data, x):
    """The reference: products lane by lane, summed from ``-0.0`` one lane at a time."""
    acc = np.full(len(cols), -0.0)
    for j in range(cols.shape[1]):
        acc += data[:, j] * x[cols[:, j]]
    return acc


def _values(gen, shape, rate):
    v = gen.standard_normal(shape)
    special = gen.random(shape) < rate
    v[special] = gen.choice(SPECIAL, int(special.sum()))
    return v


def _panel(gen, m, W, ncols, rate):
    """A random padded panel the way SweepPlan._pad lays it out, pads on the operand's +0.0."""
    lengths = gen.integers(0, W + 1, m)
    cols = gen.integers(0, ncols, (m, W))
    data = _values(gen, (m, W), rate)
    pad = np.arange(W) >= lengths[:, None]
    cols[pad] = ncols
    data[pad] = -0.0
    # Half the zero-length rows are empty rows (first pad +0.0), the
    # others all-pad rows that sum to -0.0.
    empty = (lengths == 0) & (gen.random(m) < 0.5)
    data[empty, 0] = 0.0
    return cols, data


def _same_bits(a, b):
    """Bitwise equal, except that any NaN equals any NaN."""
    return bool(np.all((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matches_the_lane_fold_bitwise():
    gen = np.random.default_rng(2024)
    indptr = {}
    for _ in range(200):
        W = int(gen.integers(1, 65))
        m = int(gen.integers(0, 301))
        ncols = int(gen.integers(1, 50))
        # Special values in some rows of long panels, or in most rows.
        rate = float(gen.choice([0.0, 0.005, 0.15]))
        cols, data = _panel(gen, m, W, ncols, rate)
        x = np.append(_values(gen, ncols, rate), 0.0)
        out = np.empty(m)
        # One row pointer per width serves every row count.
        ptr = indptr.setdefault(W, _row_starts(300, W))
        assert _panel_product(ptr, cols, data, x, out) is out
        assert _same_bits(out, _lane_fold(cols, data, x))


def test_empty_and_all_pad_rows_keep_their_zero_signs():
    x = np.array([-0.0, 0.0])
    cols = np.array([[1, 1], [1, 1], [0, 1]])
    data = np.array([[0.0, -0.0], [-0.0, -0.0], [1.0, -0.0]])
    out = _panel_product(_row_starts(3, 2), cols, data, x, np.empty(3))
    # Empty row: +0.0; all-pad row: -0.0; 1.0 × -0.0 plus a pad: -0.0.
    assert np.signbit(out).tolist() == [False, True, True]


def test_no_fused_multiply_add_and_no_reordering():
    # (1 + 2⁻³⁰)(1 − 2⁻³⁰) = 1 − 2⁻⁶⁰ rounds to 1.0 unfused, so the row sums
    # to -0.0 − 1.0 + 1.0 = +0.0; a fused multiply-add would give −2⁻⁶⁰.
    data = np.array([[-1.0, 1.0 + 2.0**-30]])
    x = np.array([1.0, 1.0 - 2.0**-30, 0.0])
    out = _panel_product(_row_starts(1, 2), np.array([[0, 1]]), data, x, np.empty(1))
    assert out.view(np.int64)[0] == np.float64(0.0).view(np.int64)
    # 2⁵³ + 1 − 2⁵³ is 0.0 summed left to right (the 1 rounds away) and
    # 1.0 summed right to left (−2⁵³ + 1 is exact).
    big = np.array([[2.0**53, 1.0, -(2.0**53)]])
    out = _panel_product(_row_starts(1, 3), np.zeros((1, 3), dtype=np.int64), big, np.ones(2), np.empty(1))
    assert out[0] == 0.0


def _contiguous(a, dtype):
    return a.dtype == dtype and a.flags.c_contiguous


def test_plan_operands_meet_the_kernel_contract():
    """Indices int64, values float64, all C-contiguous: the call never converts."""
    A = get_matrix("fv1")
    view = BlockRowView(A, block_size=128)
    plan = compile_sweep_plan(view)
    panels = plan.block_panels
    ecols, edata = plan.block_external
    cols, data, diag = plan.row_panels
    for c, d in ((panels.lcols, panels.ldata), (ecols, edata), (cols, data)):
        assert _contiguous(c, np.int64) and _contiguous(d, np.float64)
        assert c.shape == d.shape
    assert panels.lcols.shape[:2] == panels.diag.shape
    assert cols.shape[0] == view.n
    rows = np.arange(0, view.n, 3)
    for external in (False, True):
        c, d = plan.panel_rows(rows, external=external)
        assert c.shape == d.shape == (len(rows), c.shape[1])
        assert _contiguous(c, np.int64) and _contiguous(d, np.float64)

    # A level program's per-level operands and buffers.
    M = AsyncSweepPreconditioner(A, sweeps=1, config=AsyncConfig(local_iterations=2, block_size=128))
    program = M._program
    assert program is not None
    for level in program._levels:
        _, _, lcols, ldata, _, ecols, edata, zbuf, z, s, acc = level
        assert lcols.max() < len(zbuf) and ecols.max() <= view.n
        for c, d in ((lcols, ldata), (ecols, edata)):
            assert _contiguous(c, np.int64) and _contiguous(d, np.float64)
        for buf in (zbuf, s, acc):
            assert _contiguous(buf, np.float64)


def test_out_is_written_in_place():
    # A converted (float32) out is refused, not silently written to a copy.
    cols, data = np.zeros((4, 2), dtype=np.int64), np.ones((4, 2))
    with pytest.raises(ValueError):
        _panel_product(_row_starts(4, 2), cols, data, np.ones(1), np.empty(4, dtype=np.float32))


def test_level_executor_panel_products_in_place():
    # One engine sweep of the general level path writes through the kernel.
    A = get_matrix("fv1")
    b = np.ones(A.shape[0])
    engine = AsyncEngine(BlockRowView(A, block_size=128), b, AsyncConfig(order="gpu", local_iterations=2))
    assert engine.backend == "levels" and not engine._executor.whole
    x = np.zeros(A.shape[0])
    engine.sweep(x)
    ref = AsyncEngine(
        BlockRowView(A, block_size=128), b, AsyncConfig(order="gpu", local_iterations=2, backend="reference")
    )
    y = np.zeros(A.shape[0])
    ref.sweep(y)
    assert np.array_equal(x.view(np.int64), y.view(np.int64))
