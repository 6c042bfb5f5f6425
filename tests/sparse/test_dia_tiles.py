"""Row-tiled plane kernels against the one-pass kernels they replaced.

:func:`repro.sparse.dia.accumulate_planes`, :meth:`CSRMatrix.residual`
and :class:`repro.perf.stencil.StencilKernels` run their offset planes one
row tile at a time.  Each row must still get the same IEEE operations in
the same plane order as a whole-vector pass, so every result is compared
bit for bit (``.view(np.int64)``, zero signs included) against the
one-pass oracle kept below, on random offset-plane matrices whose gather
planes straddle tile edges and whose dense planes carry holes.
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
    r = oracle_accumulate(A._dia_plan(), x, np.empty(x.shape[:-1] + (A.nrows,)))
    np.subtract(b, r, out=r)
    return r


def oracle_local_sweeps(kern, s, z, sweeps, omega=1.0, out=None):
    """The whole-vector ``StencilKernels.local_sweeps``."""
    acc = np.empty(s.shape)
    bufs = [np.empty(s.shape), np.empty(s.shape)]
    for it in range(sweeps):
        oracle_accumulate(kern._local, z, acc)
        last = it == sweeps - 1
        if omega == 1.0:
            new = out if last and out is not None else bufs[it & 1]
            np.subtract(s, acc, out=new)
            np.divide(new, kern.diag, out=new)
        else:
            t = np.empty(s.shape)
            np.subtract(s, acc, out=t)
            np.divide(t, kern.diag, out=t)
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
_OPERANDS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 0.3, -1e300, 1e-310])


@st.composite
def plane_systems(draw):
    """A square offset-plane matrix, its row tile, and ``x``/``b`` operands.

    Each off-diagonal offset keeps its rows with its own density, so some
    planes are dense with holes and some sparse enough to be gathered.
    The diagonal is full and nonzero (the sweep divides by it).
    """
    n = draw(st.integers(2, 160))
    # Short offsets couple rows inside a block (local planes), long ones
    # mostly cross blocks (external planes).
    offset = st.one_of(st.integers(-8, 8), st.integers(-(n - 1), n - 1))
    offsets = draw(st.sets(offset.filter(lambda o: o and abs(o) < n), max_size=6))
    rows, cols = [np.arange(n)], [np.arange(n)]
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    for o in sorted(offsets):
        r = np.arange(max(0, -o), min(n, n - o))
        keep = rng.random(len(r)) < draw(st.sampled_from([0.03, 0.1, 0.2, 0.6, 1.0]))
        rows.append(r[keep])
        cols.append(r[keep] + o)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = rng.choice([1.0, -1.0, 0.5, -2.25, 3.0, 1e-3], size=len(rows))
    vals[: n] = draw(_VALUES) * 4.0  # the diagonal
    A = COOMatrix(rows, cols, vals, (n, n)).tocsr()
    nvec = draw(st.sampled_from([1, 2]))
    shape = (n,) if nvec == 1 else (2, n)
    pick = st.lists(_OPERANDS, min_size=2 * n, max_size=2 * n)
    x = np.array(draw(pick))[: int(np.prod(shape))].reshape(shape)
    b = np.array(draw(pick))[: int(np.prod(shape))].reshape(shape)
    tile = draw(st.integers(1, n + 3))
    return A, x, b, tile


def _kernels(A, block_size):
    """Stencil kernels over *A*'s own coefficient plane (no detection needed)."""
    view = BlockRowView(A, block_size=block_size)
    rows, offs, offsets = dia.entry_offsets(A)
    n = A.shape[0]
    plane = np.full((len(offsets), n), np.nan)
    plane[np.searchsorted(offsets, offs), rows] = A.data
    return StencilKernels(view, StencilDescriptor(offsets=offsets, plane=plane))


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
    rows, offs, offsets = dia.entry_offsets(A)
    planes = [dia.DiagonalPlane(int(o), rows[offs == o], A.data[offs == o]) for o in offsets]
    want = oracle_accumulate(planes, x, np.empty(x.shape))
    got = np.full(x.shape, np.nan)
    scratch = np.empty(dia.tile_shape(x.shape))
    for lo, hi in dia.row_tiles(A.shape[0]):
        dia.accumulate_planes(planes, x, got[..., lo:hi], scratch[..., : hi - lo], lo, hi)
    assert_bitwise(got, want)
    if A._dia_plan() is not None:
        assert_bitwise(A.residual(x, b), oracle_residual(A, x, b))
        if x.ndim == 2:  # (R, n) against one shared right-hand side
            assert_bitwise(A.residual(x, b[0]), oracle_residual(A, x, b[0]))


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
    ext = kern.apply_external(x, np.full(x.shape, np.nan))
    assert_bitwise(ext, oracle_accumulate(kern._external, x, np.empty(x.shape)))
    s = b - ext
    want = oracle_local_sweeps(kern, s, x.copy(), sweeps, omega=omega)
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
    s = b - kern.apply_external(x, np.empty(n))
    assert_bitwise(s, b - oracle_accumulate(kern._external, x, np.empty(n)))
    assert_bitwise(kern.local_sweeps(s, x, 2), oracle_local_sweeps(kern, s, x, 2))


def test_lap3d_64_default_tile_matches_oracle():
    # The harness's lap3d-stencil system: 262144 rows, eight default tiles.
    A = stencil_laplacian_3d(64)
    n = A.shape[0]
    assert n > dia._TILE_ROWS
    b = A.matvec(np.ones(n))
    view = BlockRowView(A, block_size=1024)
    kern = compile_sweep_plan(view).stencil_kernels()
    x = np.zeros(n)
    xo = np.zeros(n)
    for _ in range(3):
        s = b - kern.apply_external(x, np.empty(n))
        kern.local_sweeps(s, x, 2, out=x)
        so = b - oracle_accumulate(kern._external, xo, np.empty(n))
        oracle_local_sweeps(kern, so, xo, 2, out=xo)
        assert_bitwise(x, xo)
        assert_bitwise(A.residual(x, b), oracle_residual(A, xo, b))
