"""Small shared helpers used across the :mod:`repro` package.

Everything here is deliberately dependency-light: only :mod:`numpy` is used.
The helpers enforce the package-wide conventions:

* all floating data is ``float64`` C-contiguous,
* all index data is ``int64``,
* randomness is always funnelled through :func:`as_rng` so every stochastic
  component is reproducible from an explicit seed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "as_rng",
    "as_float_array",
    "as_index_array",
    "check_square",
    "check_vector",
    "check_finite",
    "check_system",
    "RNGLike",
]

#: Anything acceptable as a seed / generator argument.
RNGLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` gives a fresh nondeterministic generator; an ``int`` or
    :class:`~numpy.random.SeedSequence` gives a reproducible one; an existing
    generator is passed through unchanged (so callers can share state).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_float_array(x: Iterable, name: str = "array", *, copy: bool = False) -> np.ndarray:
    """Coerce *x* to a contiguous 1-D or 2-D ``float64`` array."""
    arr = np.array(x, dtype=np.float64, copy=copy, order="C") if copy else np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


def as_index_array(x: Iterable, name: str = "index array") -> np.ndarray:
    """Coerce *x* to a contiguous 1-D ``int64`` array."""
    arr = np.ascontiguousarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    return arr


def check_square(shape: Sequence[int], what: str = "matrix") -> int:
    """Validate a square shape tuple and return its dimension."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} must be square, got shape {tuple(shape)}")
    return int(shape[0])


def check_vector(x: np.ndarray, n: int, name: str = "vector") -> np.ndarray:
    """Validate that *x* is a length-*n* 1-D float vector; return it as float64."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def check_finite(x: np.ndarray, name: str = "vector") -> np.ndarray:
    """Raise :class:`ValueError` if *x* holds a NaN or infinite entry; return *x*."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries (NaN or inf)")
    return x


def check_system(
    A, b: np.ndarray, x0: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Validate a solve's inputs; return ``(b, x0)`` as ``float64`` vectors.

    The one validation step of every solve (``IterativeSolver.solve``) and
    of every serve request, so each bad input raises the same
    :class:`ValueError`: a non-square or empty *A*, a *b* or *x0* not of
    length n, or a NaN or infinite entry in *A*, *b* or *x0*.  *x0* stays
    ``None`` when not given; otherwise it may be the caller's own array,
    so copy it before iterating in place.
    """
    n = check_square(A.shape, "A")
    if n == 0:
        raise ValueError("A is empty (0 x 0); a solve needs at least one row")
    check_finite(A.data, "A")
    b = check_finite(check_vector(b, n, "b"), "b")
    if x0 is not None:
        x0 = check_finite(check_vector(x0, n, "x0"), "x0")
    return b, x0


def cumulative_segments(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum turning per-segment *counts* into CSR-style offsets."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out
