"""Sweep-execution backends: whole-system kernels vs the block loop.

Each executor advances an ``(R, n)`` block of replica iterates through one
global sweep.  Executors are stateless across sweeps: every call receives
the engine's *lane state* — per-replica generators ``rngs``, schedulers
``schedulers``, the shared ``sweep_index``, the right-hand side through
``rhs(r)`` and the fault hooks ``fault`` / ``frozen_blocks()`` — so one
executor object serves both :class:`repro.core.AsyncEngine` (R = 1) and
:class:`repro.core.BatchedAsyncEngine`.  The engines own the update
counts and the sweep index; executors only move iterates and consume each
lane's generator exactly as a sequential run would.

* :class:`ReferenceSweepExecutor` — the per-block Python loop, semantics
  for every regime (mixed per-entry races, faults, partial deferred
  writes), over the compiled per-block records of
  :meth:`repro.perf.SweepPlan.block_updates`: warmed ELL gather plans,
  compressed block-local inner sweeps with one write-back per block.
  The oracle of every other executor, the fault path, and — over the
  extended blocks of an ``+oK`` partition — the async-RAS loop (backend
  ``"ras"``).
* :class:`LevelSweepExecutor` — the same loop run as a few dependency
  levels of independent blocks (resolved name ``"levels"``): what
  ``"auto"`` runs wherever the stencil kernels do not and no fault is
  injected.  A sweep with no live read runs as one level over the
  whole system: one external product, one right-hand-side assembly, *k*
  local Jacobi sweeps over the plan's local panels.  No Python loop over
  blocks at all, which is what removes the interpreter floor from fine
  decompositions (the regime of Figure 8 / Table 5).
* :class:`WholeSweepExecutor` — the same whole sweep over the
  matrix-free offset-shifted slice kernels of :mod:`repro.perf.stencil`,
  for systems that pass the offset-plane gate (backend ``"stencil"``,
  engaged only when :attr:`repro.perf.SweepPlan.stencil` accepts).

**Exactness contract.** The whole sweep runs only where its result is
bitwise the reference loop's — same iterates *and* same generator
state (:func:`whole_sweep_exact`):

* **snapshot reads** (γ ≡ 0): the ``"synchronous"`` order, or full
  staleness with no pipeline tail.  No block observes another's
  current-sweep writes, so block updates commute and the sweep collapses
  to one global two-stage update;
* **all-deferred writes** (``deferred_write_prob == 1``): every write
  lands at the sweep end, so live reads — any γ — observe pre-sweep
  values; with mixed γ the race corrections of the reference loop are
  exact signed zeros, which its ``np.add.at`` fold cannot propagate into
  the iterate unless the right-hand side carries ``-0.0`` entries
  (checked at dispatch, :func:`repro.perf.rhs_preserves_fold`).

Scheduler randomness is consumed identically on every path:
``Generator.random`` fills doubles sequentially from the bit stream, so
a whole sweep's single draw call per lane advances the generator
to bitwise the state the reference loop's interleaved per-block draws
leave behind.  Faults always take the reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

import numpy as np

from .._util import cumulative_segments
from .plan import SweepPlan
from .program import _jacobi_sweeps, _longest_paths, _panel_product, _ranges, _row_starts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedules import AsyncConfig, WaveScheduler

__all__ = [
    "whole_sweep_exact",
    "resolve_backend",
    "consume_schedule_draws",
    "ReferenceSweepExecutor",
    "WholeSweepExecutor",
    "LevelSweepExecutor",
    "make_executor",
]


def whole_sweep_exact(
    config: "AsyncConfig",
    scheduler: "WaveScheduler",
    *,
    has_fault: bool = False,
    rhs_fold_safe: bool = True,
) -> bool:
    """Whether one whole-system sweep is bitwise-exact for this configuration.

    See the module docstring for the regime analysis.  *rhs_fold_safe* is
    :func:`repro.perf.rhs_preserves_fold` of the engine's right-hand side;
    it only matters for mixed-γ all-deferred regimes.
    """
    if has_fault:
        return False
    gamma = scheduler.gamma_profile()
    if np.all(gamma <= 0.0):
        return True
    if config.deferred_write_prob >= 1.0:
        mixed = bool(np.any((gamma > 0.0) & (gamma < 1.0)))
        return rhs_fold_safe or not mixed
    return False


def resolve_backend(
    config: "AsyncConfig",
    scheduler: "WaveScheduler",
    *,
    has_fault: bool = False,
    rhs_fold_safe: bool = True,
    plan: SweepPlan,
) -> str:
    """Resolve ``config.backend`` to the executor actually used.

    A *plan* whose partition has ``overlap > 0`` (an ``+oK`` spec:
    async restricted additive Schwarz) always resolves to ``"ras"``; it
    supports neither faults nor the forced ``"stencil"``/``"levels"``.
    Otherwise ``"auto"`` prefers **stencil > levels > reference**: in the
    whole-sweep exact regimes it runs the matrix-free stencil executor
    when *plan*'s matrix passes the offset-plane gate
    (:mod:`repro.perf.stencil`), else the block loop as dependency levels
    (:class:`LevelSweepExecutor`, one level per sweep in those regimes) —
    or the per-block reference loop under a fault, or where a row is too
    wide for the level executor's padded panels.  ``"reference"`` always
    honours the request; ``"stencil"`` / ``"levels"`` raise where they
    cannot run — the backends are execution strategies, never
    approximations, and a silent fallback would make ``--backend=levels``
    timings lie.
    """
    requested = config.backend
    if plan.partition.overlap > 0:
        if has_fault:
            raise ValueError(
                "async-RAS (an overlapped '+oK' partition) does not support "
                "fault scenarios; drop the '+oK' suffix for fault experiments"
            )
        if requested in ("levels", "stencil"):
            raise ValueError(
                f"backend={requested!r} cannot execute async-RAS sweeps; "
                "use backend='auto' or 'reference' on an overlapped partition"
            )
        return "ras"
    if requested == "reference":
        return "reference"
    exact = whole_sweep_exact(
        config, scheduler, has_fault=has_fault, rhs_fold_safe=rhs_fold_safe
    )
    if requested == "levels":
        if has_fault:
            raise ValueError(
                "backend='levels' cannot run fault scenarios; use backend='auto' "
                "or 'reference'"
            )
        if not _levels_fit(plan, scheduler, whole=exact):
            raise ValueError(
                "backend='levels' requested, but a row is wider than the level "
                "executor's padded panels hold; use backend='auto' to fall back "
                "to the reference loop"
            )
        return "levels"
    if requested == "stencil":
        if not exact:
            raise ValueError(
                "backend='stencil' requested, but whole-sweep execution is not "
                "exact for this regime (it requires snapshot reads [gamma == 0 "
                "everywhere] or all-deferred writes, and no fault scenario); "
                "use backend='auto' to fall back"
            )
        desc, reason = plan.stencil
        if desc is None:
            raise ValueError(
                f"backend='stencil' requested, but the stencil gate refused the "
                f"matrix: {reason}; use backend='auto' to fall back to the levels/"
                "reference paths"
            )
        return "stencil"
    # "auto"
    if exact and plan.stencil[0] is not None:
        return "stencil"
    fits = not has_fault and _levels_fit(plan, scheduler, whole=exact)
    return "levels" if fits else "reference"


def _levels_fit(plan: SweepPlan, scheduler: "WaveScheduler", *, whole: bool) -> bool:
    """Whether the level executor runs this regime.

    It needs its padded local panels (no row wider than the packed
    kernel's panel cap).  Unless the sweep runs *whole* (one level, no
    live read), it also needs one race rate over the mixed positions, as
    :class:`repro.core.WaveScheduler` gives, and padded external panels
    where a position reads live.
    """
    if not plan.fits_panels(plan.local_off):
        return False
    if whole:
        return True
    gamma = scheduler.gamma_profile()
    race = gamma[(gamma > 0.0) & (gamma < 1.0)]
    if np.any(race != race[:1]):
        return False
    return bool(np.all(gamma < 1.0)) or plan.fits_panels(plan.external)


def consume_schedule_draws(
    config: "AsyncConfig",
    ennz: np.ndarray,
    rng: np.random.Generator,
    scheduler: "WaveScheduler",
    sweep_index: int,
) -> np.ndarray:
    """Draw one lane's schedule plan and consume the reference loop's RNG.

    Shared by the whole sweeps (stencil, one-level levels): the reference
    loop's per-block freshness/defer draws are consumed in one
    ``Generator.random`` call — same double count, same bit stream, same
    final state (``random`` fills doubles sequentially).  The values are
    irrelevant: in every whole-sweep-exact regime the drawn races/defers
    cannot change the iterate.  *ennz* are the per-block external nonzero
    counts (the freshness-draw sizes).  Returns the sweep's block order.
    """
    order, gamma = scheduler.plan_for_sweep(sweep_index, rng)
    ndraws = 0
    mixed = (gamma > 0.0) & (gamma < 1.0)
    if mixed.any():
        ndraws += int(ennz[order[mixed]].sum())
    if config.deferred_write_prob > 0.0:
        ndraws += len(order)
    if ndraws:
        rng.random(ndraws)
    return order


class WholeSweepExecutor:
    """One global sweep per lane over the plan's stencil kernels (no block loop).

    The stencil planes apply in ascending-offset order, which is exactly
    the left-to-right per-row entry order the CSR row-panel kernels sum
    in, and take their weights from the actual matrix entries, so
    variable coefficients are reproduced exactly.  Lanes advance one
    after another through a preallocated work vector (the kernels
    allocate only their constant planes' deviation-row temporaries per
    sweep), and replica *r* is the sequential run by construction.  Each
    lane's ``s = b - E x`` is subtracted tile by tile inside the
    kernels' external pass.
    """

    def __init__(self, plan: SweepPlan, config: "AsyncConfig"):
        self.plan = plan
        self.config = config
        self.kernels = plan.stencil_kernels()
        self._s_buf = np.empty(plan.view.n)

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        cfg = self.config
        for r in reps:
            consume_schedule_draws(
                cfg, self.plan.ennz, lanes.rngs[r], lanes.schedulers[r], lanes.sweep_index
            )
            x = X[r]
            s = self.kernels.external_residual(x, lanes.rhs(r), out=self._s_buf)
            self.kernels.local_sweeps(s, x, cfg.local_iterations, omega=cfg.omega)


class ReferenceSweepExecutor:
    """The per-block sweep loop, exact in every regime.

    Identical semantics to the historical ``AsyncEngine.sweep`` loop, run
    over the plan's :class:`repro.perf.plan.BlockUpdate` records — the
    paper's disjoint blocks, or with *extended* the halo-widened blocks of
    an ``+oK`` partition (async restricted additive Schwarz: the same
    update over a subdomain that reads a few rows beyond the ones it
    writes).  Each block reads the sweep-start snapshot or live memory as its γ says,
    folds its per-entry race corrections in with ``np.add.at``, iterates
    on its read-range slice and writes the owned rows once (nobody reads
    a block's rows until its update completes, so intermediate
    write-backs were unobservable).  Gather plans and index structures
    are compiled once per view (:meth:`repro.perf.SweepPlan.block_updates`).

    Lanes advance one after another.
    """

    def __init__(self, plan: SweepPlan, config: "AsyncConfig", *, extended: bool = False):
        self.plan = plan.warm_reference(extended=extended)
        self.config = config
        self.updates = plan.block_updates(extended)

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        for r in reps:
            self._sweep_lane(X[r], lanes, r)

    def _sweep_lane(self, x: np.ndarray, lanes, r: int) -> None:
        cfg = self.config
        rng = lanes.rngs[r]
        b = lanes.rhs(r)
        fault = lanes.fault
        frozen = lanes.frozen_blocks()

        order, gamma = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, rng)
        snapshot = x if np.all(gamma >= 1.0) else x.copy()
        deferred: List[Tuple[slice, np.ndarray]] = []

        for pos, bid in enumerate(order):
            u = self.updates[bid]
            g = gamma[pos]
            read = x if g >= 1.0 else snapshot
            ext = u.external.matvec(read)
            if 0.0 < g < 1.0:
                # Per-entry races: each off-block component is, with
                # probability γ, read after its owner's write from this
                # sweep landed.  Systems with many small off-block
                # couplings self-average (fv1's variation is tiny); systems
                # with a few heavy ones do not (Trefethen's is not) — the
                # §4.1 contrast emerges from the matrix, not from a knob.
                e = u.external
                fresh = rng.random(e.nnz) < g
                if fresh.any():
                    cols = e.indices[fresh]
                    np.add.at(ext, u.ext_rows[fresh], e.data[fresh] * (x[cols] - snapshot[cols]))
            s = b[u.read] - ext

            frozen_local = frozen[bid] if frozen is not None else None
            defer = cfg.deferred_write_prob > 0.0 and rng.random() < cfg.deferred_write_prob
            # Local iterations on the read-range slice; the shared iterate
            # is written once, after the block finishes (or at sweep end
            # for a deferred write) — no earlier read can observe the
            # difference, so this is bitwise the in-place variant.
            z = read[u.read]
            for _ in range(cfg.local_iterations):
                new = (s - u.local.matvec(z)) / u.diag
                if cfg.omega != 1.0:
                    new = (1.0 - cfg.omega) * z + cfg.omega * new
                if frozen_local is not None and len(frozen_local):
                    if fault.kind == "silent":
                        # Silent errors (§4.5 outlook): the core computes,
                        # but wrongly — every update is slightly off.
                        new[frozen_local] *= fault.corruption
                    else:
                        # Broken cores never compute: their components keep
                        # the stale value through every local sweep.
                        new[frozen_local] = z[frozen_local]
                z = new
            if defer:
                deferred.append((u.write, z[u.owned]))
            else:
                x[u.write] = z[u.owned]

        for rows, vals in deferred:
            x[rows] = vals


class _Layout(NamedTuple):
    """One sweep's (lane, block) nodes in level-major order (:meth:`LevelSweepExecutor._layout`)."""

    #: Dependency levels of the sweep.
    nlev: int
    #: Level-major slot bounds of every lane group, in level order.
    bounds: np.ndarray
    #: Plan slot of every level-major slot.
    ps: np.ndarray
    #: Work-copy slot (``lane · nslots + plan slot``) of every level-major slot.
    ws: np.ndarray
    #: ``(slots, 1, 1)``: the first level-major place of every slot's
    #: node, the offset of its block-local columns.
    off: np.ndarray
    #: By (lane, block) node: its first level-major place less its
    #: block's first row (the level-major place of a row is its row plus
    #: this).
    base: np.ndarray
    #: By (lane, block) node: its lane group.
    group: np.ndarray
    #: The (lane, block) node of every level-major slot.
    node: np.ndarray


class LevelSweepExecutor:
    """The block loop as a few levels of independent blocks, exact in every regime.

    On the paper's GPU all thread blocks of a sweep run at once; only a
    read that races an already finished neighbour is ordered (§3.3,
    Eq. (4)).  This executor reproduces the per-block loop bitwise while
    running it that way.  Per sweep and lane it draws every freshness and
    deferred-write double in one ``Generator.random`` call (the loop's
    interleaved draws, in stream order) and computes the snapshot part of
    all off-block gathers as one ``E @ S`` over the restacked external
    matrix.  It then puts each block one level above the deepest
    earlier-positioned, non-deferred block it reads live — every coupled
    block at a γ = 1 position, the owners of its fresh entries at a mixed
    one — and, at a γ = 1 position, no lower than any later-positioned,
    non-deferred block it couples to, so none of those has written when it
    reads.  The levels are assigned on (lane, owner, reader) block pairs,
    not on entries.  A fresh entry reads the live value only when its
    owner precedes it in the lane's order and is not deferred, the
    snapshot value otherwise, exactly as in the loop.

    The plan lays every block out in whole slots of one common height
    (:class:`repro.perf.plan.BlockSlots`: every block owns as many slots
    as it needs) and stores its :class:`repro.perf.plan.BlockPanels` that
    way.  Once per sweep the executor orders the (lane, block) nodes by
    level — lane groups of a level one after another — and gathers the
    work copy, the snapshot external part, the right-hand side and the
    diagonal into that *level-major* order with one ``take`` of whole
    slots each, so every level reads and writes contiguous slices.  A
    level takes its blocks' panel slots (local columns rebased to the
    level-major places) and runs all its (lane, block) pairs at once,
    with every read of the level before any of its writes: one
    race-correction ``np.add.at`` straight into the level-major external
    part (the in-place fold itself, so a ``-0.0`` right-hand side needs
    no fallback), one ``s = b − ext`` and *k* local Jacobi sweeps over
    the padded panels, in place, every panel product one call of
    :func:`repro.perf.program._panel_product` (the level's rebased pad
    columns clamped once onto the work copy's ``+0.0``).  It then
    publishes its results to the slot-major copy
    ``(R · nslots + 1, width)`` every later read gathers
    from — fresh entries and γ = 1 reads — whose last row holds the
    external pads' ``+0.0``; a deferred result is published at the sweep
    end.  The caller's *X* stays the sweep-start snapshot until the
    copy-back.  The two iterate copies are kept while the lane count
    stays the same, their pad rows zero; the right-hand sides are staged
    afresh every sweep, since a caller may change them between sweeps (a
    shard worker folds its halo into its own in place).  Pad rows are
    never copied out.

    Lanes are native: a batched sweep is one level loop over all its
    replicas.  Deterministic schedules (no freshness or defer draws) reuse
    their level-major layout per order.  :attr:`levels_mean` is the mean
    number of levels per sweep — the decision telemetry of the engines.
    Faults stay on :class:`ReferenceSweepExecutor`.

    With *whole* (:func:`whole_sweep_exact`: snapshot reads, or every
    write deferred with a fold-safe right-hand side) no block observes
    another's current-sweep write, so every sweep is one level of all
    blocks and none of the above is needed: per lane the sweep consumes
    the draws as :func:`consume_schedule_draws` does, forms
    ``s = b − E x`` and runs the *k* Jacobi sweeps over all rows at once,
    on the local panels in row order with absolute columns
    (:attr:`repro.perf.SweepPlan.row_panels`: no slot layout, no index
    scatter) and work buffers kept across sweeps.  A system with no
    in-block entries has one all-pad panel lane, whose product is the
    same ``+0.0`` every sweep: the sweeps subtract it without a kernel
    call.
    """

    #: Orders whose level assignment a deterministic schedule remembers.
    _CACHE_MAX = 64
    #: Rows per lane group of a level (see :meth:`_split_levels`).
    _GROUP_ROWS = 4096

    def __init__(
        self, plan: SweepPlan, config: "AsyncConfig", gamma: np.ndarray, *, whole: bool = False
    ):
        self.plan = plan.warm_reference(gamma, whole=whole)
        self.config = config
        view = plan.view
        self.E = plan.external
        self.ennz = plan.ennz
        self.levels_run = 0
        self.sweeps_run = 0
        self.whole = whole
        if whole:
            self._s, self._acc = np.empty(view.n), np.empty(view.n)
            self._zbuf = np.zeros(view.n + 1)
            cols, data, diag = plan.row_panels
            indptr = _row_starts(view.n, cols.shape[1])
            if not plan.local_off.nnz:
                # One all-pad lane (no in-block entries): its product is
                # +0.0 × data[:, 0] whatever the iterate, +0.0 on every
                # (empty) row, so the sweeps subtract it without a kernel
                # call (Chem97ZtZ: 1.27–1.35× faster per whole sweep).
                cols, data = None, data[:, 0] * 0.0
            self._panels = (cols, data, diag, indptr)
            return
        self.nb = view.nblocks
        self.width, self.first, self.slot, self.rows = plan.slots
        self.nslots = int(self.first[-1])
        self.count = np.diff(self.first)
        self.lcols, self.ldata, self.diag = plan.block_panels
        self.starts = view.boundaries[:-1]
        self.gamma = gamma
        self.mixed = (gamma > 0.0) & (gamma < 1.0)
        self.snapshot = bool(np.any(gamma < 1.0))
        self.live = bool(np.any(gamma >= 1.0))
        if self.mixed.any():
            #: The one race rate of the mixed positions (see _levels_fit).
            self.race = gamma[self.mixed][0]
            self.eptr = self.E.indptr[self.starts]
            self.e_owner = plan.entry_blocks[1]
            self.e_rows = self.E._expanded_rows()
            #: Slot-major place of every external entry's column.
            self.e_slot = self.E.indices if isinstance(self.rows, slice) else self.slot[self.E.indices]
        if self.live:
            self.ecols, self.edata = plan.block_external
            self.readers, self.owners = plan.coupling
        self._cache = {}
        self._R = 0

    @property
    def levels_mean(self) -> float:
        """Mean dependency levels per sweep so far (0 before the first)."""
        return self.levels_run / self.sweeps_run if self.sweeps_run else 0.0

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        if self.whole:
            self._sweep_whole(X, lanes, reps)
            return
        M, S, rows = self.width, self.nslots, self.rows
        reps = np.asarray(reps, dtype=np.int64)
        R = len(reps)
        orders, pos, defer, hits = self._draw(lanes, reps)
        lay, efresh = self._assign_levels(orders, pos, defer, hits)
        XW, zbuf = self._buffers(R)
        XL = XW[:-1].reshape(R, -1)
        XL[:, rows] = X[reps]
        # The sweep's operands in level-major order: one take of whole slots
        # each, from slot-major copies whose pad rows are zero.
        Z = zbuf[:-1].reshape(-1, M)
        XW.take(lay.ws, axis=0, out=Z, mode="clip")
        # A shared right-hand side is read by plan slot, a stack by work-copy slot.
        b = lanes.b if lanes.b.ndim == 1 else lanes.b[reps]
        B = np.zeros(b.shape[:-1] + (S * M,))
        B[..., rows] = b
        B = B.reshape(-1, M).take(lay.ps if b.ndim == 1 else lay.ws, axis=0)
        D = self.diag.take(lay.ps, axis=0)
        EXT = None
        if self.snapshot:
            EXT = np.zeros((R, S * M))
            for i, r in enumerate(reps):
                EXT[i, rows] = self.E.matvec(X[r])
            EXT = EXT.reshape(-1, M).take(lay.ws, axis=0)
        fresh = None if efresh is None else self._fresh(efresh, lay, XW)
        live = None
        if self.live and self.snapshot:
            live = (self.gamma[pos] >= 1.0).reshape(-1)[lay.node]
        deferred = defer.reshape(-1)[lay.node] if self.config.deferred_write_prob > 0.0 else None
        late = []
        sb = lay.bounds
        for g in range(len(sb) - 1):
            a, c = int(sb[g]), int(sb[g + 1])
            gfresh = None
            if fresh is not None:
                e = slice(fresh[0][g], fresh[0][g + 1])
                gfresh = tuple(v[e] for v in fresh[1:])
            self._level(
                a, c, lay, XW, zbuf, Z, EXT, B, D, gfresh,
                None if live is None else live[a:c],
                None if deferred is None else deferred[a:c],
                late,
            )
        for ws, z in late:
            XW[ws] = z
        X[reps] = XL[:, rows]
        self.levels_run += lay.nlev
        self.sweeps_run += 1

    def _buffers(self, R: int):
        """The iterate copies of an *R*-lane sweep, kept while *R* stays the same.

        ``(XW, zbuf)``: the slot-major published iterate, its last row the
        external pads' ``+0.0``, and the flat level-major work copy, its
        last place the local pads' ``+0.0``.  Their pad rows stay zero.
        """
        if self._R != R:
            S, M = self.nslots, self.width
            self._work = np.zeros((R * S + 1, M)), np.zeros(R * S * M + 1)
            # Row pointers of the panels of up to all R · S slots.
            self._lptr = _row_starts(R * S * M, self.lcols.shape[-1])
            if self.live:
                self._eptr = _row_starts(R * S * M, self.ecols.shape[-1])
            self._R = R
        return self._work

    def _sweep_whole(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        """Every lane's sweep as one level of all blocks, lane after lane."""
        cfg = self.config
        s, zbuf = self._s, self._zbuf
        z = zbuf[:-1]
        for r in reps:
            consume_schedule_draws(cfg, self.ennz, lanes.rngs[r], lanes.schedulers[r], lanes.sweep_index)
            x = X[r]
            self.E.matvec(x, out=s)
            np.subtract(lanes.rhs(r), s, out=s)
            z[...] = x
            _jacobi_sweeps(s, zbuf, z, *self._panels, self._acc, cfg.local_iterations, cfg.omega)
            x[...] = z
        self.levels_run += 1
        self.sweeps_run += 1

    def _draw(self, lanes, reps):
        """Each lane's order and every double its loop would draw, in one call.

        Per position the loop draws the fresh mask (mixed γ), then the
        defer double.  Returns ``(orders, pos, defer, hits)``: *pos* and
        *defer* indexed by (lane, block), *hits* the fresh entries as
        ``(entry, segment)`` — a segment is a (lane, position) pair,
        ``lane · nblocks + position`` — or ``None`` without mixed positions.
        """
        nb = self.nb
        R = len(reps)
        dwp = self.config.deferred_write_prob
        orders = np.empty((R, nb), dtype=np.int64)
        for i, r in enumerate(reps):
            orders[i] = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, lanes.rngs[r])[0]
        lane = np.arange(R)[:, None]
        # Each order is a permutation: its inverse is its argsort.
        pos = orders.argsort(axis=1)
        # One segment per (lane, position): its fresh doubles, then its
        # defer double; the lanes' draws concatenated, lane after lane.
        cnt = np.where(self.mixed, self.ennz[orders], 0)
        if dwp > 0.0:
            cnt += 1
        us = [lanes.rngs[r].random(int(c)) for r, c in zip(reps, cnt.sum(axis=1))]
        u = us[0] if R == 1 else np.concatenate(us)
        end = np.cumsum(cnt)
        defer = np.zeros((R, nb), dtype=bool)
        if dwp > 0.0:
            defer[lane, orders] = (u[end - 1] < dwp).reshape(R, nb)
        if not self.mixed.any():
            return orders, pos, defer, None
        j = np.flatnonzero(u < self.race)
        # The hits are sorted: one search per segment end counts each segment's.
        k = np.searchsorted(j, end)
        k[1:] -= k[:-1].copy()
        seg = np.repeat(np.arange(R * nb), k)
        if dwp > 0.0:
            # A defer double is no fresh entry.
            fresh = j < end[seg] - 1
            j, seg = j[fresh], seg[fresh]
        # Entry = the reader's first external entry + the draw's place in its segment.
        base = self.eptr[orders.reshape(-1)] - (end - cnt.reshape(-1))
        return orders, pos, defer, (base[seg] + j, seg)

    def _assign_levels(self, orders, pos, defer, hits):
        """Dependency levels of the (lane, block) nodes, and the fresh entries' reads.

        Returns :meth:`_layout` of the levels, then ``(entry, reader
        node, live)`` of the fresh entries — *live* whether the owner
        writes visibly before the entry is read — or ``None``.
        """
        nb = self.nb
        R = len(orders)
        N = R * nb
        src, dst, wgt = [], [], []
        fresh = None
        if hits is not None:
            ent, seg = hits
            # Nodes are lane · nblocks + block, segments lane · nblocks + position.
            lanes = np.arange(0, N, nb)[:, None]
            reader = (orders + lanes).reshape(-1)[seg]
            owner = (reader - orders.reshape(-1)[seg]) + self.e_owner[ent]
            live = (pos + lanes).reshape(-1)[owner] < seg
            if self.config.deferred_write_prob > 0.0:
                live &= ~defer.reshape(-1)[owner]
            fresh = ent, reader, live
            # One edge per (owner, reader) node pair, however many entries form it.
            pair = np.sort((reader * N + owner)[live])
            first = np.empty(len(pair), dtype=bool)
            first[:1] = True
            np.not_equal(pair[1:], pair[:-1], out=first[1:])
            rd, ow = np.divmod(pair[first], N)
            src.append(ow)
            dst.append(rd)
            wgt.append(np.ones(len(rd), dtype=np.int64))
        if self.live:
            P = len(self.readers)
            L = np.repeat(np.arange(R), P)
            PR, PO = np.tile(self.readers, R), np.tile(self.owners, R)
            sel = self.gamma[pos[L, PR]] >= 1.0
            L, PR, PO = L[sel], PR[sel], PO[sel]
            writes = ~defer[L, PO]
            before = pos[L, PO] < pos[L, PR]
            dep, anti = writes & before, writes & ~before
            src += [L[dep] * nb + PO[dep], L[anti] * nb + PR[anti]]
            dst += [L[dep] * nb + PR[dep], L[anti] * nb + PO[anti]]
            wgt += [np.ones(int(dep.sum()), dtype=np.int64), np.zeros(int(anti.sum()), dtype=np.int64)]
        if hits is not None or self.config.deferred_write_prob > 0.0:
            return self._layout(_longest_paths(N, src, dst, wgt), R), fresh
        key = orders.tobytes()
        lay = self._cache.get(key)
        if lay is None:
            if len(self._cache) >= self._CACHE_MAX:
                self._cache.clear()
            lay = self._cache[key] = self._layout(_longest_paths(N, src, dst, wgt), R)
        return lay, fresh

    def _split_levels(self, lv, R):
        """Cut each level into lane groups of about :attr:`_GROUP_ROWS` rows.

        Pairs of different lanes never read each other, so a level's lane
        groups may run one after another: this bounds the per-level work
        arrays, not the result.  A (level, lane) run of nodes stays whole,
        and every node counts its slots' rows.  Returns the level count,
        the nodes in group order and the group boundaries.
        """
        nodes = np.argsort(lv, kind="stable")
        cut = cumulative_segments(np.bincount(lv))
        nlev = len(cut) - 1
        if R > 1:
            # Every run takes the group of the rows before it in its level.
            lv_sorted = lv[nodes]
            before = cumulative_segments(self.count[nodes % self.nb])
            first = np.flatnonzero(np.diff(lv_sorted * R + nodes // self.nb, prepend=-1))
            level = lv_sorted[first]
            group = (before[first] - before[cut[level]]) * self.width // self._GROUP_ROWS
            new = (np.diff(level, prepend=-1) != 0) | (np.diff(group, prepend=-1) != 0)
            cut = np.append(first[new], len(lv))
        return nlev, nodes, cut

    def _layout(self, lv, R) -> "_Layout":
        """The sweep's slots in level-major order: node after node, group after group."""
        nlev, nodes, bounds = self._split_levels(lv, R)
        lane, bk = np.divmod(nodes, self.nb)
        M = self.width
        if self.nslots == self.nb:
            # One slot per block: the nodes are the slots.
            start = np.arange(len(nodes) + 1)
            ps, node, off = bk, nodes, start[:-1] * M
        else:
            cnt = self.count[bk]
            start = cumulative_segments(cnt)
            ps = _ranges(self.first[bk], cnt)
            node, lane, off = np.repeat(nodes, cnt), np.repeat(lane, cnt), np.repeat(start[:-1] * M, cnt)
        # Every node's first level-major place, less its block's first row.
        base = np.empty(len(nodes), dtype=np.int64)
        base[nodes] = start[:-1] * M - self.starts[bk]
        group = np.empty(len(nodes), dtype=np.int64)
        group[nodes] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        return _Layout(nlev, start[bounds], ps, ps + lane * self.nslots, off[:, None, None], base, group, node)

    def _fresh(self, fresh, lay, XW):
        """The fresh entries grouped like the slots, with what their corrections read.

        Returns ``(ebounds, epos, data, eflat, snap, live)``: per entry its
        place in the level-major external part, its value, its place in
        the slot-major published iterate, its snapshot operand (read from
        *XW* before any write) and whether its owner writes visibly first;
        entries of group *g* are ``ebounds[g]:ebounds[g + 1]``, each row's
        in entry order.
        """
        ent, reader, live = fresh
        group = lay.group[reader]
        ngroups = len(lay.bounds) - 1
        # A stable sort on the narrowest type that holds the groups (a radix sort for most).
        order = np.argsort(group.astype(np.min_scalar_type(ngroups)), kind="stable")
        ent, reader = ent[order], reader[order]
        epos = lay.base[reader] + self.e_rows[ent]
        eflat = reader // self.nb * (self.nslots * self.width) + self.e_slot[ent]
        ebounds = cumulative_segments(np.bincount(group, minlength=ngroups))
        return ebounds, epos, self.E.data[ent], eflat, XW.reshape(-1).take(eflat), live[order]

    def _level(self, a, c, lay, XW, zbuf, Z, EXT, B, D, fresh, live, deferred, late) -> None:
        """Update the level-major slots ``a:c`` (one lane group of a level): reads, then writes.

        *EXT*, *B* and *D* are the level-major snapshot products (``None``
        without), right-hand sides and diagonal; *live* flags the slots at
        γ = 1 positions (``None``: all or none, as the γ profile says);
        *deferred* the slots whose write waits for the sweep end (appended
        to *late*); *fresh* holds the group's race-corrected entries.
        """
        ps, ws = lay.ps[a:c], lay.ws[a:c]
        if EXT is None:
            ext = self._live_external(ps, ws - ps, XW)
        else:
            ext = EXT[a:c]
            if live is not None and live.any():
                ext[live] = self._live_external(ps[live], (ws - ps)[live], XW)
        if fresh is not None:
            epos, edata, eflat, esnap, elive = fresh
            # A fresh entry whose owner has not (visibly) written in this
            # lane's order reads the snapshot: an exact zero delta.
            xv = np.where(elive, XW.reshape(-1).take(eflat), esnap)
            xv -= esnap
            xv *= edata
            np.add.at(EXT.reshape(-1), epos, xv)
        s = np.subtract(B[a:c], ext, out=ext)
        lcols = self.lcols.take(ps, axis=0)
        lcols += lay.off[a:c]
        # Pads land past the end: clamped once onto the work copy's +0.0.
        np.minimum(lcols, zbuf.size - 1, out=lcols)
        cfg = self.config
        z = _jacobi_sweeps(
            s, zbuf, Z[a:c], lcols, self.ldata.take(ps, axis=0), D[a:c],
            self._lptr, np.empty(s.shape), cfg.local_iterations, cfg.omega,
        )
        if deferred is None or not deferred.any():
            XW[ws] = z
        else:
            XW[ws[~deferred]] = z[~deferred]
            late.append((ws[deferred], z[deferred]))

    def _live_external(self, ps, lane, XW) -> np.ndarray:
        """Off-block sums of the slots *ps* (work-copy slots ``ps + lane``) over current values."""
        idx = self.ecols.take(ps, axis=0)
        if lane.any():
            idx += (lane * self.width)[:, None, None]
        # Pads stay past the end: clamped onto XW's last (+0.0) row.
        np.minimum(idx, XW.size - 1, out=idx)
        out = np.empty((len(ps), self.width))
        return _panel_product(self._eptr, idx, self.edata.take(ps, axis=0), XW, out)


def make_executor(
    backend: str, plan: SweepPlan, config: "AsyncConfig", gamma: np.ndarray, *, whole: bool = False
):
    """The shared executor for a resolved backend name.

    *gamma* is the γ profile; *whole* is :func:`whole_sweep_exact` of
    the regime, which runs every ``"levels"`` sweep as one level.
    """
    if backend == "levels":
        return LevelSweepExecutor(plan, config, gamma, whole=whole)
    if backend == "stencil":
        return WholeSweepExecutor(plan, config)
    if backend == "reference":
        return ReferenceSweepExecutor(plan, config)
    if backend == "ras":
        return ReferenceSweepExecutor(plan, config, extended=True)
    raise ValueError(f"unknown resolved backend {backend!r}")
