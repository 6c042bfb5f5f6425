"""Contiguous row-partition boundary builders.

Home of the boundary helpers that used to live in
``repro.sparse.blocked``.  Both builders validate their inputs up
front — in particular ``nblocks`` outside ``[1, n]`` raises a clear
:class:`ValueError` instead of silently emitting empty blocks — and both
guarantee a strictly increasing ``[0, ..., n]`` boundary array, i.e. a
partition that covers every row exactly once with no empty block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .._util import check_square

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sparse.csr import CSRMatrix

__all__ = ["partition_rows", "partition_rows_by_work"]


def _check_nblocks(nblocks: int, n: int) -> int:
    """Reject block counts that would force empty blocks (or none at all)."""
    nblocks = int(nblocks)
    if not (1 <= nblocks <= n):
        raise ValueError(
            f"nblocks must be in [1, n]: got nblocks={nblocks} for n={n} rows "
            "(every block must own at least one row)"
        )
    return nblocks


def partition_rows(n: int, block_size: Optional[int] = None, *, nblocks: Optional[int] = None) -> np.ndarray:
    """Contiguous partition boundaries for *n* rows.

    Exactly one of *block_size* and *nblocks* must be given.  Returns an
    ``int64`` array ``[0, b1, ..., n]`` of length ``nblocks + 1``.  With
    *block_size*, the final block holds the remainder (as a CUDA grid
    would); with *nblocks*, block sizes are balanced to within one row.

    Raises
    ------
    ValueError
        If *n* or *block_size* is non-positive, or *nblocks* is outside
        ``[1, n]`` (which would force empty blocks).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if (block_size is None) == (nblocks is None):
        raise ValueError("specify exactly one of block_size / nblocks")
    if block_size is not None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        cuts = np.arange(0, n, block_size, dtype=np.int64)
        return np.concatenate([cuts, [n]])
    nblocks = _check_nblocks(nblocks, n)
    # linspace steps of n/nblocks >= 1 round to strictly increasing cuts,
    # so no empty blocks are possible once nblocks <= n is enforced.
    return np.linspace(0, n, nblocks + 1).round().astype(np.int64)


def partition_rows_by_work(A: "CSRMatrix", nblocks: int) -> np.ndarray:
    """Contiguous boundaries balancing *nonzeros* (work) instead of rows.

    A GPU assigns one thread block per row block; when row costs vary
    (Trefethen's leading rows carry 2 log2(n) entries, the tail far fewer)
    equal-row blocks make some thread blocks finish much later — the skew
    behind the §4.1 races.  Equal-work blocks level that out: boundary *k*
    is placed where the cumulative nnz crosses ``k/nblocks`` of the total.

    Raises
    ------
    ValueError
        If *nblocks* is outside ``[1, n]`` — more blocks than rows cannot
        be satisfied without empty blocks.
    """
    n = check_square(A.shape, "partition_rows_by_work matrix")
    nblocks = _check_nblocks(nblocks, n)
    csum = np.concatenate([[0], np.cumsum(A.row_nnz())]).astype(np.float64)
    targets = np.linspace(0.0, csum[-1], nblocks + 1)
    bounds = np.searchsorted(csum, targets, side="left").astype(np.int64)
    bounds[0], bounds[-1] = 0, n
    # Strictly increasing: collapse empty blocks onto their neighbours.
    for k in range(1, nblocks + 1):
        if bounds[k] <= bounds[k - 1]:
            bounds[k] = min(bounds[k - 1] + 1, n)
    bounds[-1] = n
    if np.any(np.diff(bounds) <= 0):
        # Degenerate (more blocks than distinct crossings near the end):
        # fall back to row-balanced boundaries.
        return partition_rows(n, nblocks=nblocks)
    return bounds
