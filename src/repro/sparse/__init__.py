"""Sparse-matrix substrate.

This subpackage is the storage and kernel layer everything else in
:mod:`repro` is built on.  It re-implements the small set of sparse
operations the paper's algorithms need (CSR/COO containers, SpMV,
row-block decomposition, triangular sweeps, spectral estimation) instead
of wrapping :mod:`scipy.sparse` types, so the block decomposition used by
the two-stage block-asynchronous method (local/global column split,
Eq. (4) of the paper) is a first-class data structure rather than an
ad-hoc slicing of a third-party type.  SciPy interoperability is provided
for testing and user convenience.

One SciPy kernel is used directly.  The padded-panel products of the
level executor and the level programs (:mod:`repro.perf`) call SciPy's
compiled CSR product, ``csr_matvec`` from the private module
``scipy.sparse._sparsetools``.  A NumPy lane fold pays one dispatch per
panel lane, and on a host limited to NumPy and SciPy that compiled loop
is the only way to sum a padded row in one call.  It sums every row
strictly left to right, bitwise the packed ELL kernel of
:class:`CSRMatrix` from a ``-0.0`` start; ``tests/perf/test_panel_kernel.py``
pins that order, the absence of fused multiply-adds and the operand
layout it needs.
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
