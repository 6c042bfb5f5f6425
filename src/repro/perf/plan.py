"""Sweep-plan compilation: the block decomposition as precomputed kernels.

The asynchronous engine's global sweep used to rebuild, on every visit to
every block, the small index structures its kernels need — expanded row
ids for the scatter of per-entry race corrections, right-hand-side slices,
compressed local matrices — and built each block's ELL gather plan lazily
inside the first timed sweep.  For fine decompositions (thousands of
blocks) that bookkeeping, not arithmetic, dominated the time-per-iteration
the paper's Figure 8 / Table 5 measure.

:class:`SweepPlan` compiles the decomposition once, at first engine
construction, into the structures both execution backends consume:

* **per-block** (the reference loop): cached ELL gather plans for every
  external and compressed-local part, per-entry scatter segment ids (the
  ``np.bincount`` replacement for ``np.add.at``), per-block scatter bases
  and external nonzero counts;
* **whole-system** (the fused path): the restacked external and local
  off-diagonal matrices with warmed gather plans, plus the concatenated
  diagonal — one multi-vector-shaped kernel set for the entire sweep.

The plan is attached to the :class:`repro.sparse.BlockRowView` itself
(``view._perf_plan``), so every engine built on one view — sequential,
batched, preconditioner-internal — shares a single compilation.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from ..sparse import BlockRowView
from ..sparse.csr import CSRMatrix

__all__ = ["SweepPlan", "compile_sweep_plan", "plan_compile_count", "rhs_preserves_fold"]

#: Total SweepPlan compilations since import — a diagnostic counter the
#: serve-layer cache tests use to assert "one compilation per structure".
_COMPILE_COUNT = 0


def plan_compile_count() -> int:
    """Number of :class:`SweepPlan` objects compiled since import.

    :func:`compile_sweep_plan` increments this only when it actually
    builds a plan (cache hits on the view do not count), so the delta
    across a workload measures real compilation work — the quantity the
    structure-keyed cache of :mod:`repro.serve` exists to amortise.
    """
    return _COMPILE_COUNT


def rhs_preserves_fold(b: np.ndarray) -> bool:
    """Whether *b* is free of ``-0.0`` entries.

    The segment-sum scatter (:func:`repro.sparse.scatter_add_fold`) seeds
    each accumulator with ``0.0 + base``, which differs from the in-place
    fold only by flipping a ``-0.0`` base to ``+0.0`` — a difference that
    can reach the iterate through ``s = b - ext`` only where *b* itself
    holds a negative zero.  Every practically occurring right-hand side
    passes; the backend dispatch degrades gracefully when one does not.
    """
    b = np.asarray(b)
    return not bool(np.any((b == 0.0) & np.signbit(b)))


class SweepPlan:
    """Compiled execution structures of one block decomposition.

    Built by :func:`compile_sweep_plan`; construction itself is cheap —
    the heavier per-backend structures are materialised on demand by
    :meth:`warm_reference` / :meth:`warm_fused` so an engine only pays for
    the backend it runs.

    Attributes
    ----------
    view:
        The decomposition this plan compiles.  The view owns the plan
        (``view._perf_plan``), so the plan holds it weakly: no reference
        cycle keeps a finished solve's view, plan and kernels alive until
        a full garbage-collection pass.  Every holder of a plan — an
        executor, a serve cache entry — holds its view too.
    partition:
        The :class:`repro.partition.Partition` the view was built on — one
        compilation per partition, shared by every engine on the view.
    ennz:
        Per-block external nonzero counts (freshness-draw sizes).
    ell_plans_built:
        Diagnostic: number of ELL gather plans this plan's warm calls have
        constructed.  Stays constant across sweeps — plans are compiled
        once and reused, which the test suite asserts.
    """

    def __init__(self, view: BlockRowView):
        self._view = weakref.ref(view)
        self.partition = view.partition
        self.ennz = np.array([blk.external.nnz for blk in view.blocks], dtype=np.int64)
        self._ext_rows: Optional[List[np.ndarray]] = None
        self._scatter_base: Optional[List[np.ndarray]] = None
        self._local_c: Optional[List[CSRMatrix]] = None
        self._warmed_reference = False
        self._warmed_fused = False
        self._warmed_ras = False
        self._ras_ennz: Optional[np.ndarray] = None
        self._stencil = None
        self._stencil_kernels = None
        self._padded: Optional[Tuple[Optional[List[np.ndarray]], List[np.ndarray], int]] = None

    @property
    def view(self) -> BlockRowView:
        return self._view()

    # ------------------------------------------------------------------ #
    # reference-loop structures
    # ------------------------------------------------------------------ #

    @property
    def ext_rows(self) -> List[np.ndarray]:
        """Per-block scatter segment ids: local row of every external entry."""
        if self._ext_rows is None:
            self._ext_rows = [blk.external._expanded_rows() for blk in self.view.blocks]
        return self._ext_rows

    @property
    def scatter_base(self) -> List[np.ndarray]:
        """Per-block base ids (``arange(block_rows)``), shared across equal sizes."""
        if self._scatter_base is None:
            by_size = {}
            self._scatter_base = [
                by_size.setdefault(blk.nrows, np.arange(blk.nrows, dtype=np.int64))
                for blk in self.view.blocks
            ]
        return self._scatter_base

    @property
    def local_c(self) -> List[CSRMatrix]:
        """Per-block compressed (block-local-column) local off-diagonal parts."""
        if self._local_c is None:
            self._local_c = [blk.local_off_compressed() for blk in self.view.blocks]
        return self._local_c

    def warm_reference(self) -> "SweepPlan":
        """Materialise and warm everything the per-block reference loop uses."""
        if not self._warmed_reference:
            for blk, lc in zip(self.view.blocks, self.local_c):
                blk.external.warm_plan()
                lc.warm_plan()
            self.ext_rows
            self.scatter_base
            self._warmed_reference = True
        return self

    # ------------------------------------------------------------------ #
    # fused whole-system structures
    # ------------------------------------------------------------------ #

    @property
    def external(self) -> CSRMatrix:
        """The restacked whole-system external matrix (Eq. (4)'s global part)."""
        return self.view.external_matrix()

    @property
    def local_off(self) -> CSRMatrix:
        """The restacked block-diagonal local off-diagonal matrix."""
        return self.view.local_offdiag_matrix()

    @property
    def diag(self) -> np.ndarray:
        """The concatenated system diagonal."""
        return self.view.diagonal_vector()

    def warm_fused(self) -> "SweepPlan":
        """Materialise and warm the stacked whole-system kernels."""
        if not self._warmed_fused:
            self.view.warm_stacked_kernels()
            self._warmed_fused = True
        return self

    # ------------------------------------------------------------------ #
    # padded-ELL local panels (the batched engine's position-grouped loop)
    # ------------------------------------------------------------------ #

    #: Column sentinel for pad entries of the padded-ELL local panels;
    #: clipped to the shared zero slot at product time.
    PAD_SENTINEL = np.int64(1) << 48

    @property
    def padded_local(self) -> Tuple[Optional[List[np.ndarray]], List[np.ndarray], int]:
        """Uniform-width (padded ELL) layout of every block's local part (cached).

        Returns ``(cols, data, W)``: per block, lane-major ``(W, block_rows)``
        column and value panels, W the widest local row over *all* blocks.
        Pad entries hold the value ``-0.0`` and the :attr:`PAD_SENTINEL`
        column that resolves to a shared ``+0.0`` operand slot, so every pad
        contributes the product ``-0.0 * +0.0 == -0.0`` — and IEEE-754
        addition of ``-0.0`` is the identity for every float (signed zeros,
        infinities and NaNs included).  A padded row therefore sums bitwise
        identically to the unpadded left-to-right sum of
        :meth:`repro.sparse.CSRMatrix._packed_product`, while giving all
        blocks one common rectangular shape that concatenates across blocks
        with no per-length-class bookkeeping.

        The one exception is an *empty* row: the packed kernel writes it as
        ``+0.0`` while an all-pad row would sum to ``-0.0``, so empty rows
        get ``+0.0`` as their first pad.  Rows wider than the packed
        kernel's panel cap would be summed by ``reduceat`` (a different
        order), so such decompositions get ``cols = None`` and the
        concatenated path stays off.
        """
        if self._padded is None:
            self._padded = self._build_padded()
        return self._padded

    def _build_padded(self):
        blocks = self.view.blocks
        widths = [int(np.diff(blk.local_off.indptr).max(initial=0)) for blk in blocks]
        if max(widths, default=0) > CSRMatrix._ELL_MAX_WIDTH:
            return None, [], 0
        W = max(1, max(widths, default=1))
        pad_cols, pad_data = [], []
        for blk, lc in zip(blocks, self.local_c):
            lengths = np.diff(lc.indptr)
            cols = np.full((blk.nrows, W), self.PAD_SENTINEL, dtype=np.int64)
            data = np.full((blk.nrows, W), -0.0)
            r = lc._expanded_rows()
            p = np.arange(lc.nnz, dtype=np.int64) - lc.indptr[r]
            cols[r, p] = lc.indices
            data[r, p] = lc.data
            data[lengths == 0, 0] = 0.0
            # Lane-major (W, rows) storage: the product then runs one
            # contiguous gather-multiply-add per lane instead of strided
            # column reductions over a (rows, W) panel.
            pad_cols.append(np.ascontiguousarray(cols.T))
            pad_data.append(np.ascontiguousarray(data.T))
        return pad_cols, pad_data, W

    # ------------------------------------------------------------------ #
    # restricted-Schwarz extended-block structures
    # ------------------------------------------------------------------ #

    @property
    def ras_ennz(self) -> np.ndarray:
        """Per-extended-block external nonzero counts (RAS freshness-draw sizes)."""
        if self._ras_ennz is None:
            self._ras_ennz = np.array(
                [blk.external.nnz for blk in self.view.ras_blocks()], dtype=np.int64
            )
        return self._ras_ennz

    def warm_ras(self) -> "SweepPlan":
        """Materialise and warm the extended-block (RAS) kernel structures.

        Builds the view's :meth:`~repro.sparse.BlockRowView.ras_blocks`
        and their gather plans so an async-RAS engine's first timed sweep
        does no compilation — the same contract :meth:`warm_reference`
        gives the disjoint loop.  Never called at ``overlap=0``; the
        classic structures stay the only ones built then.
        """
        if not self._warmed_ras:
            for blk in self.view.ras_blocks():
                blk.external.warm_plan()
                blk.local_off.warm_plan()
            self.ras_ennz
            self._warmed_ras = True
        return self

    # ------------------------------------------------------------------ #
    # matrix-free stencil structures
    # ------------------------------------------------------------------ #

    @property
    def stencil_attempted(self) -> bool:
        """Whether stencil detection has run on this plan (telemetry gate)."""
        return self._stencil is not None

    @property
    def stencil(self):
        """``(descriptor, reason)`` of stencil detection, run lazily once.

        The descriptor is a :class:`repro.perf.stencil.StencilDescriptor`
        when the view's blocks are stencil-regular, else ``None`` with a
        human-readable failure *reason* — recorded in the partition
        telemetry so every fallback is explainable.
        """
        if self._stencil is None:
            from .stencil import detect_stencil

            self._stencil = detect_stencil(self.view)
        return self._stencil

    def stencil_kernels(self):
        """The compiled :class:`repro.perf.stencil.StencilKernels` (cached).

        Raises :class:`ValueError` when detection failed — callers gate on
        :attr:`stencil` first (the backend dispatcher does).
        """
        if self._stencil_kernels is None:
            desc, reason = self.stencil
            if desc is None:
                raise ValueError(f"view is not stencil-regular: {reason}")
            from .stencil import StencilKernels

            self._stencil_kernels = StencilKernels(self.view, desc.offsets)
        return self._stencil_kernels

    @property
    def ell_plans_built(self) -> int:
        """Total ELL gather plans constructed across this plan's matrices."""
        total = 0
        if self._warmed_fused:
            total += self.external._ell_builds + self.local_off._ell_builds
        if self._local_c is not None:
            total += sum(lc._ell_builds for lc in self._local_c)
            total += sum(blk.external._ell_builds for blk in self.view.blocks)
        return total


def compile_sweep_plan(view: BlockRowView) -> SweepPlan:
    """The (cached) compiled sweep plan of *view*.

    The first call compiles and attaches the plan; later calls — from
    other engines sharing the view, e.g. a preconditioner constructing an
    engine per application — return the same object.
    """
    global _COMPILE_COUNT
    if view._perf_plan is None:
        view._perf_plan = SweepPlan(view)
        _COMPILE_COUNT += 1
    return view._perf_plan
