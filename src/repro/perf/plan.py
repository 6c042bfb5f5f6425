"""Sweep-plan compilation: the block decomposition as precomputed kernels.

The asynchronous engine's global sweep used to rebuild, on every visit to
every block, the small index structures its kernels need — expanded row
ids of the per-entry race corrections, right-hand-side slices,
compressed local matrices — and built each block's ELL gather plan lazily
inside the first timed sweep.  For fine decompositions (thousands of
blocks) that bookkeeping, not arithmetic, dominated the time-per-iteration
the paper's Figure 8 / Table 5 measure.

:class:`SweepPlan` compiles the decomposition once, at first engine
construction, into the structures both execution backends consume:

* **per-block** (the reference loop): one :class:`BlockUpdate` record per
  block — its read, owned and write ranges, its external part with the
  local row of every entry (the ``np.add.at`` targets of the race
  corrections), its compressed local part and its diagonal, every gather
  plan warmed — over the paper's disjoint blocks, or over the extended
  blocks of an ``+oK`` (async-RAS) partition;
* **levels** (the dependency-level block loop): padded-ELL panels of the
  local and external parts, laid out block-major (every block in whole
  slots of one common height, :class:`BlockSlots`, :class:`BlockPanels`),
  the restacked external matrix with a warmed gather plan, its
  entry-to-block maps, and the block coupling graph — or, for sweeps
  that run whole as one level, the local panels in row order with
  absolute columns (:attr:`SweepPlan.row_panels`);
* **level programs** (draw-free schedules): compiled
  :class:`repro.perf.program.LevelProgram` objects, cached per
  (orders, k, ω) by :meth:`SweepPlan.level_program`.

The plan is attached to the :class:`repro.sparse.BlockRowView` itself
(``view._perf_plan``), so every engine built on one view — sequential,
batched, preconditioner-internal — shares a single compilation.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .._util import cumulative_segments
from ..sparse import BlockRowView
from ..sparse.csr import CSRMatrix
from .program import LevelProgram

__all__ = [
    "BlockPanels",
    "BlockSlots",
    "BlockUpdate",
    "SweepPlan",
    "compile_sweep_plan",
    "plan_compile_count",
    "rhs_preserves_fold",
]

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

    With mixed γ and all-deferred writes every race correction of the
    block loop is a ``±0.0``, which ``np.add.at`` folds into the off-block
    sum: a ``+0.0`` correction flips a ``-0.0`` sum to ``+0.0``.  That
    flip reaches the iterate through ``s = b - ext`` only where *b* itself
    holds a negative zero, so the whole-sweep kernels, which skip the
    corrections, are exact for such regimes only when this holds
    (:func:`repro.perf.whole_sweep_exact`).  Every practically occurring
    right-hand side passes; the dispatch keeps the block loop when one
    does not.
    """
    b = np.asarray(b)
    return not bool(np.any((b == 0.0) & np.signbit(b)))


class BlockUpdate(NamedTuple):
    """One block update of the reference loop (Algorithm 1's body, Eq. (4)).

    The block gathers ``b − external · x`` over its *read* rows, runs the
    local Jacobi sweeps there and writes the *owned* part of the result
    to the *write* rows.  A disjoint block reads and writes its own rows;
    an extended (restricted-Schwarz) block also reads and sweeps up to
    ``overlap`` halo rows on each side.
    """

    #: Rows gathered and swept, global numbering.
    read: slice
    #: The written rows inside the read range.
    owned: slice
    #: The written rows, global numbering.
    write: slice
    #: Out-of-range entries of the read rows, full column space.
    external: CSRMatrix
    #: Read-range row of every external entry.
    ext_rows: np.ndarray
    #: In-range off-diagonal entries, read-range column numbering.
    local: CSRMatrix
    #: Diagonal of the read rows.
    diag: np.ndarray


class BlockSlots(NamedTuple):
    """Where the level executor's block-major layout puts each row (:attr:`SweepPlan.slots`).

    The layout is a run of *slots* of ``width`` rows each.  Block ``j``
    owns the ``first[j + 1] - first[j]`` consecutive slots from
    ``first[j]``; its rows fill them in order, and pad rows fill the rest
    of its last slot.  Gathering whole blocks is then one ``take`` of
    slots per array.  On a uniform partition ``width`` is the block size
    and every block owns one slot.
    """

    #: Rows per slot (see :func:`_slot_width`).
    width: int
    #: ``(nblocks + 1,)`` first slot of every block, then the slot count.
    first: np.ndarray
    #: Block-major position of every row: ``first[block] * width + row in block``.
    slot: np.ndarray
    #: The rows in a slot-major vector: a prefix slice when they are its
    #: first ``n`` entries, else :attr:`slot` itself.
    rows: Union[slice, np.ndarray]


class BlockPanels(NamedTuple):
    """The level executor's local operands, block-major (:attr:`SweepPlan.block_panels`).

    Laid out by :attr:`SweepPlan.slots`.  A pad row has only pad entries
    and a unit diagonal, and no real row reads it.
    """

    #: ``(W, nslots, width)`` block-local columns of the local panels,
    #: :attr:`SweepPlan.PAD_SENTINEL` on pads.
    lcols: np.ndarray
    #: ``(W, nslots, width)`` values of the local panels, ``-0.0`` on pads.
    ldata: np.ndarray
    #: ``(nslots, width)`` diagonal, ``1.0`` on pad rows.
    diag: np.ndarray


#: What one more slot costs the level executor, in laid-out rows.  On
#: fv1 (async-(5), gpu order, block 128) a padded row cost ≈0.12 µs of
#: level time per sweep and a slot 0.04–0.18 µs (widths 1–128 forced).
_SLOT_COST_ROWS = 1


def _slot_width(heights: np.ndarray) -> int:
    """The slot height of the block-major layout for blocks of *heights* rows.

    Among the block heights and 1, the width that minimises the laid-out
    rows plus :data:`_SLOT_COST_ROWS` per slot (the larger one on a tie).
    A uniform partition gets its block size, with only its last block
    padded; one outsized block among small ones owns several slots
    instead of padding every other block to its height.  Width 1 lays out
    exactly the rows, so the layout never costs more than ``n`` rows and
    ``n`` slots.
    """
    h, count = np.unique(np.asarray(heights, dtype=np.int64), return_counts=True)
    width = np.union1d(h, [1])[::-1]
    nslots = (-(-h // width[:, None]) * count).sum(axis=1)
    return int(width[np.argmin((width + _SLOT_COST_ROWS) * nslots)])


class SweepPlan:
    """Compiled execution structures of one block decomposition.

    Built by :func:`compile_sweep_plan`; construction itself is cheap —
    the heavier per-backend structures are materialised on demand by
    :meth:`warm_reference` and :meth:`stencil_kernels` so an engine only
    pays for the backend it runs.

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
        self.ennz = view.classification.ennz
        self._local_c: Optional[List[CSRMatrix]] = None
        self._updates = {}
        self._stencil = None
        self._stencil_kernels = None
        self._padded = None
        self._padded_ext = None
        self._slots = None
        self._blocked = None
        self._row_panels = None
        self._blocked_ext = None
        self._entry_blocks: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._coupling: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._programs = {}

    @property
    def view(self) -> BlockRowView:
        return self._view()

    # ------------------------------------------------------------------ #
    # reference-loop structures
    # ------------------------------------------------------------------ #

    @property
    def local_c(self) -> List[CSRMatrix]:
        """Per-block compressed (block-local-column) local off-diagonal parts."""
        if self._local_c is None:
            self._local_c = [blk.local_off_compressed() for blk in self.view.blocks]
        return self._local_c

    def block_updates(self, extended: bool = False) -> List[BlockUpdate]:
        """The reference loop's :class:`BlockUpdate` records, gather plans warmed (cached).

        One per block: the view's disjoint :attr:`~repro.sparse.BlockRowView.blocks`,
        or with *extended* its :meth:`~repro.sparse.BlockRowView.ras_blocks`
        (async-RAS on an ``+oK`` partition; never built at ``overlap=0``).
        """
        updates = self._updates.get(extended)
        if updates is None:
            if extended:
                parts = [
                    (slice(b.elo, b.ehi), b.owned, slice(b.start, b.stop), b.external, b.local_off, b.diag)
                    for b in self.view.ras_blocks()
                ]
            else:
                parts = [
                    (b.rows, slice(0, b.nrows), b.rows, b.external, lc, b.diag)
                    for b, lc in zip(self.view.blocks, self.local_c)
                ]
            updates = []
            for read, owned, write, external, local, diag in parts:
                external.warm_plan()
                local.warm_plan()
                updates.append(
                    BlockUpdate(read, owned, write, external, external._expanded_rows(), local, diag)
                )
            self._updates[extended] = updates
        return updates

    def warm_reference(
        self, gamma: Optional[np.ndarray] = None, *, extended: bool = False, whole: bool = False
    ) -> "SweepPlan":
        """Compile, once, the structures of the block loop that will run.

        Without *gamma*: the per-block reference loop's
        :meth:`block_updates` (of the extended blocks with *extended*).
        With the γ profile of the sweeps a
        :class:`repro.perf.LevelSweepExecutor` will run: *instead* of
        those, the block-major local panels (:attr:`block_panels`), plus
        the warmed restacked external matrix when a position reads the
        snapshot (γ < 1), its entry-to-block maps and entry rows when one
        races (0 < γ < 1), and the block-major external panels and the
        block coupling graph (derived from those maps) when one reads live
        (γ = 1).  With *whole* (every sweep one level): the local panels
        in row order (:attr:`row_panels`) and the warmed external matrix
        alone.
        """
        if gamma is not None:
            if self.block_panels is None:
                return self
            if whole:
                self.row_panels
                self.external.warm_plan()
                return self
            if np.any(gamma < 1.0):
                self.external.warm_plan()
            if np.any((gamma > 0.0) & (gamma < 1.0)):
                self.entry_blocks
                self.external._expanded_rows()
            if np.any(gamma >= 1.0):
                self.block_external
                self.coupling
        else:
            self.block_updates(extended)
        return self

    # ------------------------------------------------------------------ #
    # level-executor structures (stacked parts, padded-ELL panels, block
    # coupling graph)
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

    #: Column sentinel for pad entries of the padded-ELL panels; gathers
    #: use ``mode="clip"``, which lands it on the operand's trailing
    #: ``+0.0`` slot.
    PAD_SENTINEL = np.int64(1) << 48

    def _panels(self, *, external: bool):
        """The block-major storage of the local (or external) panels, built once; ``False`` without."""
        if external:
            if self._padded_ext is None:
                self._padded_ext = self._pad(self.external, local=False)
            return self._padded_ext
        if self._padded is None:
            self._padded = self._pad(self.local_off, local=True)
        return self._padded

    @staticmethod
    def fits_panels(part: CSRMatrix) -> bool:
        """Whether *part* gets padded panels: no row wider than the packed kernel's panel cap."""
        return int(part.row_nnz().max(initial=0)) <= CSRMatrix._ELL_MAX_WIDTH

    @property
    def slots(self) -> BlockSlots:
        """The block-major layout of the level executor's operands (cached)."""
        if self._slots is None:
            view = self.view
            heights = np.diff(view.boundaries)
            width = _slot_width(heights)
            first = cumulative_segments(-(-heights // width))
            bor = self.block_of_row
            slot = first[bor] * width + (np.arange(view.n, dtype=np.int64) - view.boundaries[:-1][bor])
            rows = slice(0, view.n) if slot[-1] == view.n - 1 else slot
            self._slots = BlockSlots(width, first, slot, rows)
        return self._slots

    def panel_rows(self, rows: np.ndarray, *, external: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Rows *rows* of the local (or external) padded panels, ``(W, len(rows))`` copies.

        Gathered from the block-major storage, one ``take`` per panel at
        the rows' :attr:`slots` places.  Local columns are block-local,
        external ones global.
        """
        at = self.slots.slot[rows]
        return tuple(a.reshape(len(a), -1).take(at, axis=1) for a in self._panels(external=external))

    def _pad(self, part: CSRMatrix, *, local: bool):
        """Uniform-width (padded ELL) layout of a stacked part's rows, block-major.

        Pad entries hold the value ``-0.0`` and the :attr:`PAD_SENTINEL`
        column that resolves to a ``+0.0`` operand slot, so every pad
        contributes the product ``-0.0 * +0.0 == -0.0`` — and IEEE-754
        addition of ``-0.0`` is the identity for every float (signed zeros,
        infinities and NaNs included).  Accumulated column by column, a
        padded row therefore sums bitwise like the packed kernel's strict
        left-to-right row sum, while every row set shares one rectangular
        shape.  An *empty* row is the exception: the packed kernel writes
        it as ``+0.0`` while an all-pad row would sum to ``-0.0``, so empty
        rows get ``+0.0`` as their first pad.  Rows wider than the packed
        kernel's panel cap are summed by ``reduceat`` (a different order),
        so such a system gets ``False`` (no panels).

        Each row sits at its :attr:`slots` place, so the panels come out
        ``(W, nslots, width)``; the pad rows that end a block's last slot
        hold only pads.
        """
        if not self.fits_panels(part):
            return False
        lengths = part.row_nnz()
        W = max(1, int(lengths.max(initial=0)))
        n = self.view.n
        width, first, slot, prefix = self.slots
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        lane = np.arange(len(rows), dtype=np.int64) - part.indptr[rows]
        indices = part.indices
        if local:
            indices = indices - self.view.boundaries[:-1][self.block_of_row[rows]]
        shape = (W, int(first[-1]) * width)
        cols = np.full(shape, self.PAD_SENTINEL, dtype=np.int64)
        data = np.full(shape, -0.0)
        at = rows if isinstance(prefix, slice) else slot[rows]
        cols[lane, at] = indices
        data[lane, at] = part.data
        data[0, slot[lengths == 0]] = 0.0
        shape = (W, int(first[-1]), width)
        return cols.reshape(shape), data.reshape(shape)

    @property
    def block_panels(self) -> Optional[BlockPanels]:
        """The local panels and the diagonal, block-major (cached).

        ``None`` without padded panels.  Built in a few whole-array
        passes, no loop over blocks.
        """
        if self._blocked is None:
            panels = self._panels(external=False)
            if not panels:
                self._blocked = False
            else:
                width, first, _, rows = self.slots
                diag = np.ones(int(first[-1]) * width)
                diag[rows] = self.diag
                self._blocked = BlockPanels(*panels, diag.reshape(-1, width))
        return self._blocked or None

    @property
    def row_panels(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The local panels in row order with absolute columns, and the diagonal (cached).

        ``(cols, data, diag)``: ``(W, n)`` panels and the ``(n,)``
        diagonal, what a sweep run as one level of all blocks gathers,
        with no slot layout in between.  A pad's column is ``n``, the
        operand's trailing ``+0.0`` slot.
        """
        if self._row_panels is None:
            view = self.view
            cols, data = self.panel_rows(np.arange(view.n), external=False)
            pad = cols == self.PAD_SENTINEL
            cols += view.boundaries[:-1][self.block_of_row]
            cols[pad] = view.n
            self._row_panels = (cols, data, self.diag)
        return self._row_panels

    @property
    def block_external(self) -> Tuple[np.ndarray, np.ndarray]:
        """The external panels block-major, columns as slot places (cached).

        ``(cols, data)``, both ``(W, nslots, width)``: a real entry's
        column is the :attr:`slots` place of its global column, a pad
        keeps :attr:`PAD_SENTINEL`.  Where the slots are the rows the
        columns are the global ones and the arrays are the stored panels.
        """
        if self._blocked_ext is None:
            cols, data = self._panels(external=True)
            _, _, slot, rows = self.slots
            if not isinstance(rows, slice):
                real = cols != self.PAD_SENTINEL
                cols = cols.copy()
                cols[real] = slot[cols[real]]
            self._blocked_ext = (cols, data)
        return self._blocked_ext

    @property
    def block_of_row(self) -> np.ndarray:
        """Owning block of every row (the view's entry classification)."""
        return self.view.classification.block_of_row

    @property
    def entry_blocks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Reading block and owning block of every restacked external entry (cached)."""
        if self._entry_blocks is None:
            readers = np.repeat(np.arange(self.view.nblocks, dtype=np.int64), self.ennz)
            self._entry_blocks = (readers, self.block_of_row[self.external.indices])
        return self._entry_blocks

    @property
    def coupling(self) -> Tuple[np.ndarray, np.ndarray]:
        """Block coupling graph ``(readers, owners)``, deduplicated (cached).

        One pair per (block, other block owning a column of its external
        part): the blocks a γ = 1 position reads live.
        """
        if self._coupling is None:
            nb = self.view.nblocks
            readers, owners = self.entry_blocks
            key = np.unique(readers * nb + owners)
            self._coupling = (key // nb, key % nb)
        return self._coupling

    #: Level programs a plan keeps; the oldest goes first.  Each holds its
    #: own operand panels, and a frozen preconditioner needs one.
    _PROGRAMS_MAX = 8

    def level_program(
        self,
        orders: Sequence[np.ndarray],
        local_iterations: int,
        omega: float,
    ) -> LevelProgram:
        """The (cached) :class:`repro.perf.program.LevelProgram` of a draw-free schedule.

        *orders* holds one block order per sweep.  Keyed by (orders, k, ω),
        so every preconditioner on the view compiles a given program once.
        """
        key = (
            tuple(np.asarray(o, dtype=np.int64).tobytes() for o in orders),
            int(local_iterations),
            float(omega),
        )
        program = self._programs.get(key)
        if program is None:
            if len(self._programs) >= self._PROGRAMS_MAX:
                del self._programs[next(iter(self._programs))]
            program = LevelProgram(self, orders, local_iterations, omega)
            self._programs[key] = program
        return program

    # ------------------------------------------------------------------ #
    # matrix-free stencil structures
    # ------------------------------------------------------------------ #

    @property
    def stencil_attempted(self) -> bool:
        """Whether the stencil gate has run on this plan (telemetry gate)."""
        return self._stencil is not None

    @property
    def stencil(self):
        """``(descriptor, reason)`` of :func:`repro.perf.stencil.detect_stencil`, run once.

        The descriptor is a :class:`repro.perf.stencil.StencilDescriptor`
        when the view's matrix passes the offset-plane gate, else ``None``
        with a human-readable failure *reason* — recorded in the partition
        telemetry so every fallback is explainable.
        """
        if self._stencil is None:
            from .stencil import detect_stencil

            self._stencil = detect_stencil(self.view)
        return self._stencil

    def stencil_kernels(self):
        """The compiled :class:`repro.perf.stencil.StencilKernels` (cached).

        Raises :class:`ValueError` when the gate refused the matrix —
        callers check :attr:`stencil` first (the backend dispatcher does).
        """
        if self._stencil_kernels is None:
            desc, reason = self.stencil
            if desc is None:
                raise ValueError(f"view fails the stencil gate: {reason}")
            from .stencil import StencilKernels

            self._stencil_kernels = StencilKernels(self.view, desc)
        return self._stencil_kernels

    def stencil_telemetry(self) -> dict:
        """The gate's outcome for the partition telemetry (runs the gate once).

        ``{"detected": False, "reason": ...}`` on a refusal; on success the
        descriptor's telemetry and, once the kernels are compiled, their
        plane modes under ``"sweep"``.
        """
        desc, reason = self.stencil
        if desc is None:
            return {"detected": False, "reason": reason}
        out = {"detected": True, **desc.telemetry()}
        if self._stencil_kernels is not None:
            out["sweep"] = self._stencil_kernels.telemetry()
        return out

    @property
    def ell_plans_built(self) -> int:
        """Total ELL gather plans constructed across this plan's matrices."""
        view = self.view
        total = sum(
            m._ell_builds for m in (view._ext_matrix, view._local_matrix) if m is not None
        )
        if self._local_c is not None:
            total += sum(lc._ell_builds for lc in self._local_c)
            total += sum(blk.external._ell_builds for blk in view.blocks)
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
