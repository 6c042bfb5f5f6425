"""Row-tiled plane kernels against the one-pass kernels they replaced.

:func:`repro.sparse.dia.accumulate_planes`, :meth:`CSRMatrix.residual`
and :class:`repro.perf.stencil.StencilKernels` run their offset planes one
row tile at a time, each plane in constant, vector or gather mode.  Each
row must still get the same IEEE operations in the same plane order as a
whole-vector pass with one weight vector per offset, so every result is
compared bit for bit (``.view(np.int64)``, zero signs included) against
the one-pass oracle kept below.  The oracle builds its planes from the
matrix's row lists (one ``offs == o`` mask per offset), never from the
planes under test.  The systems are random offset-plane matrices whose
gather planes straddle tile edges, whose dense planes carry holes, and
whose planes carry one coefficient on all, most or few of their rows.
Constant mode is also checked against vector mode plane by plane, with
signed zeros and non-finite operands.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.matrices import stencil_laplacian_3d
from repro.perf import compile_sweep_plan
from repro.perf.stencil import StencilDescriptor, StencilKernels
from repro.sparse import BlockRowView, COOMatrix, dia

# --------------------------------------------------------------------- #
# the one-pass oracle: whole-vector plane kernels
# --------------------------------------------------------------------- #


class OraclePlane:
    """One offset's weights as the whole-vector kernels store them.

    Built from a row list, not from a :class:`dia.DiagonalPlane`: a dense
    offset is one weight vector over its trimmed range, holes 0.0; a
    sparse one (below ``dia._DENSE_SLICE`` of its range) is gathered.
    """

    def __init__(self, offset, rows, vals):
        self.offset = offset
        self.lo, self.hi = int(rows[0]), int(rows[-1]) + 1
        self.w = None
        if len(rows) >= dia._DENSE_SLICE * (self.hi - self.lo):
            self.w = np.zeros(self.hi - self.lo)
            self.w[rows - self.lo] = vals
        else:
            self.idx, self.wi = rows, vals


def masked_groups(A):
    """``[(offset, rows, vals)]``: one ``offs == o`` mask per offset."""
    rows, offs, offsets = dia.entry_offsets(A)
    return [(int(o), rows[offs == o], A.data[offs == o]) for o in offsets]


def oracle_planes(A):
    return [OraclePlane(o, r, v) for o, r, v in masked_groups(A)]


def oracle_split(A, block_size):
    """The external and local oracle planes of a uniform *block_size* cut."""
    ext, loc = [], []
    for o, r, v in masked_groups(A):
        if o == 0:
            continue
        same = r // block_size == (r + o) // block_size
        for mask, planes in ((~same, ext), (same, loc)):
            if mask.any():
                planes.append(OraclePlane(o, r[mask], v[mask]))
    return ext, loc


def _oracle_write(d, x, out):
    o = d.offset
    if d.w is not None:
        out[..., : d.lo] = 0.0
        out[..., d.hi :] = 0.0
        np.multiply(d.w, x[..., d.lo + o : d.hi + o], out=out[..., d.lo : d.hi])
    else:
        out[...] = 0.0
        out[..., d.idx] += d.wi * x[..., d.idx + o]


def _oracle_apply(d, x, out, scratch):
    o = d.offset
    if d.w is not None:
        t = scratch[..., d.lo : d.hi]
        np.multiply(d.w, x[..., d.lo + o : d.hi + o], out=t)
        sl = out[..., d.lo : d.hi]
        np.add(sl, t, out=sl)
    else:
        out[..., d.idx] += d.wi * x[..., d.idx + o]


def oracle_accumulate(planes, x, out):
    if not planes:
        out[...] = 0.0
        return out
    scratch = np.empty_like(out)
    _oracle_write(planes[0], x, out)
    for d in planes[1:]:
        _oracle_apply(d, x, out, scratch)
    return out


def oracle_residual(A, x, b):
    r = oracle_accumulate(oracle_planes(A), x, np.empty(x.shape[:-1] + (A.nrows,)))
    np.subtract(b, r, out=r)
    return r


def oracle_local_sweeps(local, diag, s, z, sweeps, omega=1.0, out=None):
    """The whole-vector ``StencilKernels.local_sweeps`` over oracle *local* planes."""
    acc = np.empty(s.shape)
    bufs = [np.empty(s.shape), np.empty(s.shape)]
    for it in range(sweeps):
        oracle_accumulate(local, z, acc)
        last = it == sweeps - 1
        if omega == 1.0:
            new = out if last and out is not None else bufs[it & 1]
            np.subtract(s, acc, out=new)
            np.divide(new, diag, out=new)
        else:
            t = np.empty(s.shape)
            np.subtract(s, acc, out=t)
            np.divide(t, diag, out=t)
            np.multiply(t, omega, out=t)
            if last and out is not None and out is z:
                np.multiply(z, 1.0 - omega, out=z)
                np.add(z, t, out=z)
                new = z
            else:
                new = out if last and out is not None else bufs[it & 1]
                np.multiply(z, 1.0 - omega, out=new)
                np.add(new, t, out=new)
        z = new
    return z


def assert_bitwise(got, want):
    """Equal bits wherever *want* is not NaN; NaN exactly where *want* is."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


# --------------------------------------------------------------------- #
# random offset-plane systems
# --------------------------------------------------------------------- #

_VALUES = st.sampled_from([1.0, -1.0, 0.5, -2.25, 3.0, 1e-3, -7.5])
#: Off-diagonal plane coefficients: ±1 take the subtract/add identities,
#: the signed zeros test a hole's weight against the plane's.
_COEFFS = st.sampled_from([1.0, -1.0, 0.5, -2.25, 1e-3, 0.0, -0.0])
_OPERANDS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 0.3, -1e300, 1e-310])


@st.composite
def plane_systems(draw):
    """A square offset-plane matrix, its row tile, and ``x``/``b`` operands.

    Each off-diagonal offset keeps its rows with its own density, so some
    planes are dense with holes and some sparse enough to be gathered,
    and draws one coefficient that a share of its rows (all, most, a few
    or none) carries, so planes run constant with holes and variant rows
    as well as on vectors.  The diagonal is nonzero, sometimes one value
    (the sweep's scalar divisor), sometimes not.
    """
    n = draw(st.integers(2, 160))
    # Short offsets couple rows inside a block (local planes), long ones
    # mostly cross blocks (external planes).
    offset = st.one_of(st.integers(-8, 8), st.integers(-(n - 1), n - 1))
    offsets = draw(st.sets(offset.filter(lambda o: o and abs(o) < n), max_size=6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    diag = np.full(n, draw(_VALUES) * 4.0)
    if draw(st.booleans()):
        diag *= rng.choice([1.0, 2.0], n)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [diag]
    for o in sorted(offsets):
        r = np.arange(max(0, -o), min(n, n - o))
        keep = rng.random(len(r)) < draw(st.sampled_from([0.03, 0.1, 0.2, 0.6, 0.95, 1.0]))
        rows.append(r[keep])
        cols.append(r[keep] + o)
        v = rng.choice([1.0, -1.0, 0.5, -2.25, 3.0, 1e-3], size=int(keep.sum()))
        variant = draw(st.sampled_from([1.0, 0.3, 0.05, 0.0]))
        vals.append(np.where(rng.random(len(v)) < variant, v, draw(_COEFFS)))
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    A = COOMatrix(rows, cols, vals, (n, n)).tocsr()
    nvec = draw(st.sampled_from([1, 2]))
    shape = (n,) if nvec == 1 else (2, n)
    pick = st.lists(_OPERANDS, min_size=2 * n, max_size=2 * n)
    x = np.array(draw(pick))[: int(np.prod(shape))].reshape(shape)
    b = np.array(draw(pick))[: int(np.prod(shape))].reshape(shape)
    tile = draw(st.integers(1, n + 3))
    return A, x, b, tile


def _kernels(A, block_size):
    """Stencil kernels over *A*'s own planes, whether or not the gate passes."""
    view = BlockRowView(A, block_size=block_size)
    planes = A.offset_planes()[0] or [dia.DiagonalPlane(o, r, v) for o, r, v in masked_groups(A)]
    offsets = np.array([d.offset for d in planes])
    return StencilKernels(view, StencilDescriptor(offsets, 1.0, planes))


def _tiled_accumulate(planes, x):
    got = np.full(x.shape, np.nan)
    scratch = np.empty(dia.tile_shape(x.shape))
    for lo, hi in dia.row_tiles(x.shape[-1]):
        dia.accumulate_planes(planes, x, got[..., lo:hi], scratch[..., : hi - lo], lo, hi)
    return got


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #


# monkeypatch is function-scoped: each example re-patches the tile itself.
_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(plane_systems())
def test_accumulate_and_residual_bitwise(monkeypatch, system):
    A, x, b, tile = system
    monkeypatch.setattr(dia, "_TILE_ROWS", tile)
    planes = [dia.DiagonalPlane(o, r, v) for o, r, v in masked_groups(A)]
    want = oracle_accumulate(oracle_planes(A), x, np.empty(x.shape))
    assert_bitwise(_tiled_accumulate(planes, x), want)
    if A.offset_planes()[0] is not None:
        assert_bitwise(A.residual(x, b), oracle_residual(A, x, b))
        if x.ndim == 2:  # (R, n) against one shared right-hand side
            assert_bitwise(A.residual(x, b[0]), oracle_residual(A, x, b[0]))


@settings(max_examples=60, deadline=None)
@given(plane_systems())
def test_offset_planes_match_the_masked_build(system):
    # The counting-sort build groups every entry under its offset exactly
    # as one `offs == o` mask per offset does, rows ascending.
    A = system[0]
    planes, reason = A.offset_planes()
    if planes is None:
        assert reason and dia.plane_gate(len(masked_groups(A)), A.nnz, A.nrows) == reason
        return
    groups = masked_groups(A)
    assert [d.offset for d in planes] == [o for o, _, _ in groups]
    for d, (o, r, v) in zip(planes, groups):
        rows, vals = d.entries()
        assert np.array_equal(rows, r)
        assert np.array_equal(vals.view(np.int64), v.view(np.int64))


@_SETTINGS
@given(
    plane_systems(),
    st.integers(1, 40),
    st.integers(1, 3),
    st.sampled_from([1.0, 0.8]),
    st.sampled_from(["none", "alias", "separate"]),
)
def test_stencil_kernels_bitwise(monkeypatch, system, block_size, sweeps, omega, out_kind):
    A, x, b, tile = system
    monkeypatch.setattr(dia, "_TILE_ROWS", tile)
    kern = _kernels(A, block_size)
    ext, loc = oracle_split(A, block_size)
    diag = A.diagonal()
    s = kern.external_residual(x, b, np.full(x.shape, np.nan))
    assert_bitwise(s, b - oracle_accumulate(ext, x, np.empty(x.shape)))
    want = oracle_local_sweeps(loc, diag, s, x.copy(), sweeps, omega=omega)
    z = x.copy()
    if out_kind == "none":
        got = kern.local_sweeps(s, z, sweeps, omega=omega)
    elif out_kind == "alias":
        got = kern.local_sweeps(s, z, sweeps, omega=omega, out=z)
        assert got is z
    else:
        out = np.full(x.shape, np.nan)
        got = kern.local_sweeps(s, z, sweeps, omega=omega, out=out)
        assert got is out
    if out_kind != "alias":
        assert_bitwise(z, x)  # z is read, never written
    assert_bitwise(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_operands_land_where_the_oracle_puts_them(monkeypatch, bad):
    A = stencil_laplacian_3d(9)
    n = A.shape[0]
    monkeypatch.setattr(dia, "_TILE_ROWS", 50)
    x = np.random.default_rng(8).standard_normal(n)
    x[[0, 49, 50, 351, n - 1]] = bad
    b = np.ones(n)
    assert_bitwise(A.residual(x, b), oracle_residual(A, x, b))
    kern = _kernels(A, 27)
    ext, loc = oracle_split(A, 27)
    s = kern.external_residual(x, b, np.empty(n))
    assert_bitwise(s, b - oracle_accumulate(ext, x, np.empty(n)))
    assert_bitwise(
        kern.local_sweeps(s, x, 2), oracle_local_sweeps(loc, A.diagonal(), s, x, 2)
    )


def test_lap3d_64_default_tile_matches_oracle():
    # The harness's lap3d-stencil system: 262144 rows, eight default tiles.
    A = stencil_laplacian_3d(64)
    n = A.shape[0]
    assert n > dia._TILE_ROWS
    b = A.matvec(np.ones(n))
    view = BlockRowView(A, block_size=1024)
    kern = compile_sweep_plan(view).stencil_kernels()
    ext, loc = oracle_split(A, 1024)
    diag = A.diagonal()
    x = np.zeros(n)
    xo = np.zeros(n)
    for _ in range(3):
        s = kern.external_residual(x, b, np.empty(n))
        kern.local_sweeps(s, x, 2, out=x)
        so = b - oracle_accumulate(ext, xo, np.empty(n))
        oracle_local_sweeps(loc, diag, so, xo, 2, out=xo)
        assert_bitwise(x, xo)
        assert_bitwise(A.residual(x, b), oracle_residual(A, xo, b))


# --------------------------------------------------------------------- #
# constant mode against vector mode
# --------------------------------------------------------------------- #


@st.composite
def constant_planes(draw):
    """Rows and weights of one dense plane: one coefficient, holes, variants.

    Returns ``(offset, rows, vals, ncols, x)``; *x* is ``(ncols,)`` or
    ``(R, ncols)`` and may hold signed zeros and non-finite values.
    """
    length = draw(st.integers(1, 120))
    offset = draw(st.integers(-5, 5))
    lo = max(0, -offset) + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = lo + np.arange(length)
    holes = rng.random(length) < draw(st.sampled_from([0.0, 0.03, 0.1]))
    holes[[0, -1]] = False  # the trimmed range ends on stored rows
    rows = rows[~holes]
    vals = np.full(len(rows), draw(_COEFFS))
    variant = rng.random(len(rows)) < draw(st.sampled_from([0.0, 0.03, 0.3]))
    vals[variant] = rng.choice([2.0, -1.0, 1.0, -0.0, 0.0, 5e-324], size=int(variant.sum()))
    ncols = lo + length + max(offset, 0) + draw(st.integers(0, 3))
    shape = (ncols,) if draw(st.booleans()) else (draw(st.integers(2, 3)), ncols)
    pool = [0.0, -0.0, 1.0, -2.5, 1e-310, 3.0, np.inf, -np.inf, np.nan]
    x = rng.choice(pool, size=shape, p=[0.2, 0.2, 0.2, 0.1, 0.05, 0.1, 0.05, 0.05, 0.05])
    return offset, rows, vals, ncols, x


def _run_plane(d, x, nrows, acc0, tile):
    """``write`` then ``apply`` of *d* over every *tile*-row tile of an ``acc0`` start."""
    shape = x.shape[:-1] + (nrows,)
    wrote, applied = np.full(shape, np.nan), acc0.copy()
    scratch = np.empty(x.shape[:-1] + (tile,))
    for lo in range(0, nrows, tile):
        hi = min(lo + tile, nrows)
        d.write(x, wrote[..., lo:hi], lo, hi)
        d.apply(x, applied[..., lo:hi], scratch[..., : hi - lo], lo, hi)
    return wrote, applied


def assert_same_bits(got, want):
    """Identical bits everywhere but in a NaN's sign and payload."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=200, deadline=None)
@given(constant_planes(), st.integers(1, 130))
def test_constant_mode_matches_vector_mode(plane, tile):
    offset, rows, vals, ncols, x = plane
    nrows = ncols
    const = dia.DiagonalPlane(offset, rows, vals)
    # The mode follows the deviation-row share: too many stay on a vector.
    assert (const.mode == "constant") == (const.deviation <= dia._CONSTANT_DEVIATIONS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dia, "_CONSTANT_DEVIATIONS", -1.0)
        vector = dia.DiagonalPlane(offset, rows, vals)
    assert vector.mode == "vector"
    rng = np.random.default_rng(len(rows))
    acc0 = rng.choice([0.0, -0.0, 1.5, -3.0], size=x.shape[:-1] + (nrows,))
    runs = (_run_plane(d, x, nrows, acc0, tile) for d in (const, vector))
    for got, want in zip(*runs):
        assert_same_bits(got, want)
    r, v = const.entries()
    assert np.array_equal(r, rows) and np.array_equal(v.view(np.int64), vals.view(np.int64))


def test_constant_mode_fixes_up_holes_and_variants():
    # -1 on every row but a hole (row 3) and a variant weight (row 6).
    rows = np.delete(np.arange(1, 41), 2)
    vals = np.full(len(rows), -1.0)
    vals[rows == 6] = 2.0
    d = dia.DiagonalPlane(1, rows, vals)
    assert d.mode == "constant" and d.c == -1.0
    assert d.dev.tolist() == [3, 6] and d.wdev.tolist() == [0.0, 2.0]
    x = np.arange(42, dtype=float)
    out = np.full(41, 10.0)
    d.apply(x, out, np.empty(41), 0, 41)
    want = np.full(41, 10.0)
    want[rows] += vals * x[rows + 1]
    assert np.array_equal(out, want)


def test_too_many_deviations_stay_vector():
    # Every 10th row off the modal weight is 10% > the cut-off: vector.
    rows = np.arange(200)
    vals = np.full(200, -1.0)
    vals[::10] = 3.0
    d = dia.DiagonalPlane(0, rows, vals)
    assert d.mode == "vector" and d.deviation == 0.1 > dia._CONSTANT_DEVIATIONS
    vals[::20] = -1.0  # 5%: constant
    d = dia.DiagonalPlane(0, rows, vals)
    assert d.mode == "constant" and d.deviation == 0.05


def test_lap3d_planes_run_constant():
    # Off-diagonals -1 and a diagonal of 6: all seven residual planes and
    # every dense sweep plane run constant, the diagonal divides as a scalar.
    A = stencil_laplacian_3d(16)
    modes = dia.plane_modes(A.offset_planes()[0])
    assert modes["planes"] == modes["constant"] == 7
    assert modes["deviation"] == {
        "-256": 0.0, "-16": 0.0588, "-1": 0.0623, "0": 0.0, "1": 0.0623, "16": 0.0588, "256": 0.0
    }
    view = BlockRowView(A, block_size=256)
    kern = compile_sweep_plan(view).stencil_kernels()
    assert kern.diag_value == 6.0
    assert all(d.mode in ("constant", "gather") for d in kern._external + kern._local)
