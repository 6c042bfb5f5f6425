"""Sparse-matrix substrate.

This subpackage is the storage and kernel layer everything else in
:mod:`repro` is built on.  It deliberately re-implements the small set of
sparse operations the paper's algorithms need (CSR/COO containers, SpMV,
row-block decomposition, triangular sweeps, spectral estimation) instead of
leaning on :mod:`scipy.sparse`, so the block decomposition used by the
two-stage block-asynchronous method (local/global column split, Eq. (4) of
the paper) is a first-class data structure rather than an ad-hoc slicing of a
third-party type.  SciPy interoperability is provided for testing and user
convenience.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .ell import ELLMatrix, SlicedELLMatrix
from .blocked import BlockRowView, RASBlock, RowBlock
from .linalg import (
    gershgorin_bounds,
    power_method,
    spectral_radius,
    lanczos_extreme_eigenvalues,
    condition_number,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "SlicedELLMatrix",
    "BlockRowView",
    "RASBlock",
    "RowBlock",
    "gershgorin_bounds",
    "power_method",
    "spectral_radius",
    "lanczos_extreme_eigenvalues",
    "condition_number",
]
