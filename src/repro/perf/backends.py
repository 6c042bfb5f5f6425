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

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .._util import cumulative_segments
from .plan import SweepPlan
from .program import _jacobi_sweeps, _longest_paths, _ranges, _row_sums

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
            # out=x folds the final write-back into the last local iteration.
            self.kernels.local_sweeps(s, x, cfg.local_iterations, omega=cfg.omega, out=x)


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

    Everything a level touches is laid out block-major, in the plan's
    slots (:class:`repro.perf.plan.BlockSlots`: every block owns whole
    slots of one common height, as many as it needs) — the plan's
    :class:`repro.perf.plan.BlockPanels`, and per lane the work copy,
    the right-hand side and the snapshot external part.  A level gathers
    its operands as one ``take`` of its blocks' slots per array and runs
    all its (lane, block) pairs at once, with every read of the level
    before any of its writes: one race-correction ``np.add.at`` (the
    in-place fold itself, so a ``-0.0`` right-hand side needs no
    fallback), one ``s = b − ext`` and *k* local Jacobi sweeps over the
    padded panels.  Pad rows stay
    zero and are never copied out.  Iterates move in an
    ``(R · nslots + 1, width)`` work copy whose last row holds the pads'
    ``+0.0`` slot; the caller's *X* stays the sweep-start snapshot until
    the copy-back.

    Lanes are native: a batched sweep is one level loop over all its
    replicas.  Deterministic schedules (no freshness or defer draws) reuse
    their level assignment per order.  :attr:`levels_mean` is the mean
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
    scatter) and work buffers kept across sweeps.
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
            self._s = np.empty(view.n)
            self._zbuf = np.zeros(view.n + 1)
            self._vals = np.empty(plan.row_panels[0].shape)
            self._vrows = list(self._vals)
            return
        self.nb = view.nblocks
        self.width, self.first, self.slot, self.rows = plan.slots
        self.nslots = int(self.first[-1])
        self.count = np.diff(self.first)
        self.lcols, self.ldata, self.diag = plan.block_panels
        self.gamma = gamma
        self.mixed = (gamma > 0.0) & (gamma < 1.0)
        self.snapshot = bool(np.any(gamma < 1.0))
        self.live = bool(np.any(gamma >= 1.0))
        if self.mixed.any():
            #: The one race rate of the mixed positions (see _levels_fit).
            self.race = gamma[self.mixed][0]
            self.starts = view.boundaries[:-1]
            self.eptr = self.E.indptr[self.starts]
            self.e_owner = plan.entry_blocks[1]
            self.e_rows = self.E._expanded_rows()
        if self.live:
            self.ecols, self.edata = plan.block_external
            self.readers, self.owners = plan.coupling
        self._cache = {}

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
        (nlev, nodes, bounds), elive = self._assign_levels(orders, pos, defer, hits)

        # Slot-major work copy; its last row holds the external pads' +0.0.
        XW = np.zeros((R * S + 1, M))
        XL = XW[:-1].reshape(R, S * M)
        XL[:, rows] = X[reps]
        fresh = None
        if hits is not None:
            fresh, ebounds = self._fresh_by_level(hits, elive, XW, nodes, bounds)
        EXT = None
        if self.snapshot:
            EXT = np.zeros((R, S * M))
            for i, r in enumerate(reps):
                EXT[i, rows] = self.E.matvec(X[r])
            EXT = EXT.reshape(R * S, M)
        # A shared right-hand side is read by plan slot, a stack by work-copy slot.
        b = lanes.b if lanes.b.ndim == 1 else lanes.b[reps]
        B = np.zeros(b.shape[:-1] + (S * M,))
        B[..., rows] = b
        B = B.reshape(-1, M)
        live_node = (self.gamma[pos] >= 1.0).ravel()[nodes] if self.live and self.snapshot else None
        defer_node = defer.ravel()[nodes]
        late = []
        for g in range(len(bounds) - 1):
            lo, hi = bounds[g], bounds[g + 1]
            efresh = None
            if fresh is not None and ebounds[g + 1] > ebounds[g]:
                e = slice(ebounds[g], ebounds[g + 1])
                efresh = tuple(a[e] for a in fresh)
            live = live_node[lo:hi] if live_node is not None else None
            self._level(nodes[lo:hi], XW, EXT, B, b.ndim == 1, efresh, live, defer_node[lo:hi], late)
        for ws, z in late:
            XW[ws] = z
        X[reps] = XL[:, rows]
        self.levels_run += nlev
        self.sweeps_run += 1

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
            _jacobi_sweeps(
                s, zbuf, z, *self.plan.row_panels, self._vals, self._vrows,
                cfg.local_iterations, cfg.omega,
            )
            x[...] = z
        self.levels_run += 1
        self.sweeps_run += 1

    def _draw(self, lanes, reps):
        """Each lane's order and every double its loop would draw, in one call.

        Per position the loop draws the fresh mask (mixed γ), then the
        defer double.  Returns ``(orders, pos, defer, hits)``: *pos* and
        *defer* indexed by (lane, block), *hits* the fresh entries as
        ``(entry, lane, reader position, reader block)``, or ``None``
        without mixed positions.
        """
        nb = self.nb
        R = len(reps)
        dwp = self.config.deferred_write_prob
        orders = np.empty((R, nb), dtype=np.int64)
        for i, r in enumerate(reps):
            orders[i] = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, lanes.rngs[r])[0]
        lane = np.arange(R)[:, None]
        pos = np.empty_like(orders)
        pos[lane, orders] = np.arange(nb)
        # One segment per (lane, position): its fresh doubles, then its defer double.
        cnt = np.where(self.mixed, self.ennz[orders], 0)
        if dwp > 0.0:
            cnt += 1
        end = np.cumsum(cnt, axis=1)
        mixed = self.mixed.any()
        hits = []
        udefer = np.empty((R, nb))
        base = 0
        for i, r in enumerate(reps):
            u = lanes.rngs[r].random(int(end[i, -1]))
            if mixed:
                hits.append(np.flatnonzero(u < self.race) + base)
                base += len(u)
            if dwp > 0.0:
                udefer[i] = u[end[i] - 1]
        defer = np.zeros((R, nb), dtype=bool)
        if dwp > 0.0:
            defer[lane, orders] = udefer < dwp
        if not mixed:
            return orders, pos, defer, None
        j = hits[0] if R == 1 else np.concatenate(hits)
        cnt, end = cnt.reshape(-1), cumulative_segments(cnt.reshape(-1))[1:]
        seg = np.searchsorted(end, j, side="right")
        at = j - end[seg] + cnt[seg]
        if dwp > 0.0:
            # A defer double is no fresh entry.
            fresh = at < cnt[seg] - 1
            seg, at = seg[fresh], at[fresh]
        reader = orders.reshape(-1)[seg]
        return orders, pos, defer, (self.eptr[reader] + at, seg // nb, seg % nb, reader)

    def _assign_levels(self, orders, pos, defer, hits):
        """Dependency levels of the (lane, block) nodes, and the fresh entries' reads.

        Returns :meth:`_split_levels` of the levels, then per fresh entry
        whether its owner writes visibly before it reads (or ``None``).
        """
        nb = self.nb
        R = len(orders)
        src, dst, wgt = [], [], []
        elive = None
        if hits is not None:
            ent, eln, rpos, rd = hits
            owner = eln * nb + self.e_owner[ent]
            elive = pos.reshape(-1)[owner] < rpos
            if self.config.deferred_write_prob > 0.0:
                elive &= ~defer.reshape(-1)[owner]
            # One edge per (lane, owner, reader) pair, however many entries form it.
            pair = np.unique(owner[elive] * nb + rd[elive])
            src.append(pair // nb)
            dst.append(pair // (nb * nb) * nb + pair % nb)
            wgt.append(np.ones(len(pair), dtype=np.int64))
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
            return self._split_levels(_longest_paths(R * nb, src, dst, wgt), R), elive
        key = orders.tobytes()
        split = self._cache.get(key)
        if split is None:
            if len(self._cache) >= self._CACHE_MAX:
                self._cache.clear()
            split = self._cache[key] = self._split_levels(_longest_paths(R * nb, src, dst, wgt), R)
        return split, elive

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

    def _fresh_by_level(self, hits, elive, XW, nodes, bounds):
        """The fresh entries grouped like the nodes, with what their corrections read.

        Returns ``((epos, data, eflat, snap, live), ebounds)``: per entry its
        place in its group's gathered slots, its value, its place in the
        flat work copy, its snapshot operand (read from *XW* before any
        write) and whether its owner writes visibly first; entries of
        group *g* are ``ebounds[g]:ebounds[g + 1]``, in lane, block and
        entry order.
        """
        nb, M = self.nb, self.width
        ent, eln, _, rd = hits
        group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        before = cumulative_segments(self.count[nodes % nb])
        total = int(before[-1])
        rank = np.empty(len(nodes), dtype=np.int64)
        # First gathered slot of every node inside its group's operands.
        rank[nodes] = (before[:-1] - before[bounds[group]]) + group * total
        key = rank[eln * nb + rd]
        by_group = np.argsort(key // total, kind="stable")
        key = key[by_group]
        ebounds = np.searchsorted(key, np.arange(len(bounds)) * total)
        ent, eln = ent[by_group], eln[by_group]
        epos = key % total * M + self.e_rows[ent] - self.starts[rd[by_group]]
        eflat = eln * (self.nslots * M) + self.slot[self.E.indices[ent]]
        return (epos, self.E.data[ent], eflat, XW.reshape(-1)[eflat], elive[by_group]), ebounds

    def _level(self, nd, XW, EXT, B, shared, fresh, live, deferred, late) -> None:
        """Update the (lane, block) pairs *nd* of one level: reads, then writes.

        *B* is the slot-major right-hand side, one block set for all lanes
        when *shared*; *live* flags the pairs at γ = 1 positions (``None``:
        all or none, as the γ profile says); *deferred* the pairs whose
        write waits for the sweep end (appended to *late*); *fresh* holds
        the level's race-corrected entries.
        """
        M = self.width
        bk = nd % self.nb
        cnt = self.count[bk]
        start = cumulative_segments(cnt)
        m = int(start[-1])
        # Plan slots of the pairs' blocks and the pair owning each gathered slot.
        if m == len(nd):
            ps, own = self.first[bk], slice(None)
        else:
            ps, own = _ranges(self.first[bk], cnt), np.repeat(np.arange(len(nd)), cnt)
        lane = (nd // self.nb * self.nslots)[own]
        ws = ps + lane
        if EXT is None:
            ext = self._live_external(ps, lane, XW)
        else:
            ext = EXT.take(ws, axis=0)
            if live is not None and live.any():
                live = live[own]
                ext[live] = self._live_external(ps[live], lane[live], XW)
        if fresh is not None:
            epos, edata, eflat, esnap, elive = fresh
            # A fresh entry whose owner has not (visibly) written in this
            # lane's order reads the snapshot: an exact zero delta.
            xv = np.where(elive, XW.reshape(-1).take(eflat), esnap)
            np.add.at(ext.reshape(-1), epos, edata * (xv - esnap))
        s = np.subtract(B.take(ps if shared else ws, axis=0), ext, out=ext)
        # The blocks' iterates, then the +0.0 slot every pad clips to.
        zbuf = np.empty(m * M + 1)
        zbuf[-1] = 0.0
        z = zbuf[:-1].reshape(m, M)
        XW.take(ws, axis=0, out=z)
        lcols = self.lcols.take(ps, axis=1)
        lcols += (start[:-1][own] * M)[:, None]
        vals = np.empty(lcols.shape)
        cfg = self.config
        z = _jacobi_sweeps(
            s, zbuf, z, lcols, self.ldata.take(ps, axis=1), self.diag.take(ps, axis=0),
            vals, vals, cfg.local_iterations, cfg.omega,
        )
        if not deferred.any():
            XW[ws] = z
        else:
            deferred = deferred[own]
            XW[ws[~deferred]] = z[~deferred]
            late.append((ws[deferred], z[deferred]))

    def _live_external(self, ps, lane, XW) -> np.ndarray:
        """Off-block sums of the slots *ps* (work-copy slots ``ps + lane``) over current values."""
        idx = self.ecols.take(ps, axis=1)
        if lane.any():
            # Lane offsets; pads stay past the end and clip to the +0.0.
            idx += (lane * self.width)[:, None]
        vals = XW.reshape(-1).take(idx, mode="clip")
        vals *= self.edata.take(ps, axis=1)
        return _row_sums(vals)


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
