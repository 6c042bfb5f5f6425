"""Shared fixtures: small deterministic systems and suite-matrix caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrices import get_matrix
from repro.sparse import CSRMatrix, dia

#: Row tiles the plane-kernel tests run under: the default (``None``; one
#: tile for every test system), 100 rows (one z-plane of a 10³ grid) and
#: 37 rows (aligned with no block, grid line or plane).
TILE_ROWS = (None, 100, 37)
TILE_IDS = ["default" if t is None else f"tile{t}" for t in TILE_ROWS]


def tiled(values):
    """Parametrize *values* × :data:`TILE_ROWS` for the indirect ``tile`` fixture.

    The default tile keeps each value's own test id; the others append
    ``-tile<rows>``.
    """
    return [
        pytest.param(v, t, id=str(v) if t is None else f"{v}-{tid}")
        for v in values
        for t, tid in zip(TILE_ROWS, TILE_IDS)
    ]


@pytest.fixture
def tile(request, monkeypatch):
    """Patch ``repro.sparse.dia._TILE_ROWS`` to the parametrized row count.

    ``None`` (also the value when the test is not parametrized) keeps the
    default.
    """
    rows = getattr(request, "param", None)
    if rows is not None:
        monkeypatch.setattr(dia, "_TILE_ROWS", rows)
    return rows


@pytest.fixture(scope="session")
def rng():
    """Session RNG for tests that want arbitrary (but fixed) data."""
    return np.random.default_rng(20120712)


@pytest.fixture(scope="session")
def small_spd():
    """A small, strictly diagonally dominant SPD matrix (n=60)."""
    gen = np.random.default_rng(7)
    n = 60
    dense = gen.standard_normal((n, n))
    dense = (dense + dense.T) / 2.0
    dense[np.abs(dense) < 1.0] = 0.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


@pytest.fixture(scope="session")
def small_rect():
    """A small rectangular sparse matrix (50x70) with empty rows/cols."""
    gen = np.random.default_rng(11)
    dense = gen.standard_normal((50, 70))
    dense[np.abs(dense) < 1.4] = 0.0
    dense[7, :] = 0.0  # empty row
    dense[:, 13] = 0.0  # empty column
    return CSRMatrix.from_dense(dense), dense


@pytest.fixture(scope="session")
def fv1():
    """The fv1 reconstruction (cached across the whole test session)."""
    return get_matrix("fv1")


@pytest.fixture(scope="session")
def trefethen_small():
    """A small exact Trefethen matrix (n=300) for fast solver tests."""
    from repro.matrices import trefethen

    return trefethen(300)
