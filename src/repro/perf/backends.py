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
  extended blocks — the overlapped ``schwarz="ras"`` loop (backend
  ``"ras"``).
* :class:`LevelSweepExecutor` — the same loop run as a few dependency
  levels of independent blocks (resolved name ``"levels"``): what
  ``"auto"`` runs wherever no whole-sweep kernel is exact and no fault is
  injected.
* :class:`WholeSweepExecutor` — the whole sweep as a handful of
  whole-system kernels: one external product, one right-hand-side
  assembly, *k* local Jacobi sweeps.  No Python loop over blocks at all,
  which is what removes the interpreter floor from fine decompositions
  (the regime of Figure 8 / Table 5).  It runs over one of two kernel
  sets: the stacked CSR matrices (backend ``"fused"``), or the
  matrix-free offset-shifted slice kernels of :mod:`repro.perf.stencil`
  for stencil-regular systems (backend ``"stencil"``, engaged only when
  structure detection on the plan succeeds).
* :class:`repro.perf.ras.RASWorkspace` — the weighted ``schwarz="wras"``
  fold over the extended blocks (backend ``"ras"``).

**Exactness contract.** The whole-sweep paths engage only where their
result is bitwise the reference loop's — same iterates *and* same
generator state:

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

Scheduler randomness is consumed identically on both paths:
``Generator.random`` fills doubles sequentially from the bit stream, so
the whole-sweep path's single draw call per sweep advances the generator
to bitwise the state the reference loop's interleaved per-block draws
leave behind.  Faults always take the reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .._util import cumulative_segments
from ..solvers.block_jacobi import local_jacobi_sweeps
from .plan import SweepPlan
from .program import _jacobi_sweeps, _longest_paths, _row_sums
from .ras import RASWorkspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedules import AsyncConfig, WaveScheduler

__all__ = [
    "fused_sweep_exact",
    "resolve_backend",
    "consume_schedule_draws",
    "ReferenceSweepExecutor",
    "WholeSweepExecutor",
    "LevelSweepExecutor",
    "make_executor",
]


def fused_sweep_exact(
    config: "AsyncConfig",
    scheduler: "WaveScheduler",
    *,
    has_fault: bool = False,
    rhs_fold_safe: bool = True,
) -> bool:
    """Whether the fused path is bitwise-exact for this configuration.

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

    An overlapped Schwarz mode (``config.schwarz != "none"`` on a *plan*
    whose partition has ``overlap > 0``) always resolves to ``"ras"``; it
    supports neither faults nor the forced whole-sweep backends.
    Otherwise ``"auto"`` prefers **stencil > fused > levels**: in the
    whole-sweep exact regimes it runs the matrix-free stencil executor
    when structure detection on *plan* succeeds (:mod:`repro.perf.stencil`),
    the fused CSR path otherwise, and outside those regimes the block loop
    as dependency levels (:class:`LevelSweepExecutor`) — or the per-block
    reference loop under a fault, or where a row is too wide for the
    level executor's padded panels.  ``"reference"`` always honours the request; ``"fused"``
    / ``"stencil"`` raise where they would change the iterates — the
    backends are execution strategies, never approximations, and a silent
    fallback would make ``--backend=fused`` timings lie.
    """
    requested = config.backend
    if config.schwarz != "none" and plan.partition.overlap > 0:
        if has_fault:
            raise ValueError(
                "Schwarz modes do not support fault scenarios; use "
                "schwarz='none' for fault experiments"
            )
        if requested in ("fused", "stencil"):
            raise ValueError(
                f"backend={requested!r} cannot execute async-RAS sweeps; "
                "use backend='auto' or 'reference' with schwarz modes"
            )
        return "ras"
    if requested == "reference":
        return "reference"
    exact = fused_sweep_exact(
        config, scheduler, has_fault=has_fault, rhs_fold_safe=rhs_fold_safe
    )
    if requested == "fused":
        if not exact:
            raise ValueError(
                "backend='fused' requested, but the fused sweep is not exact for "
                "this regime (it requires snapshot reads [gamma == 0 everywhere] "
                "or all-deferred writes, and no fault scenario); use "
                "backend='auto' to fall back to the reference loop"
            )
        return "fused"
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
                f"backend='stencil' requested, but structure detection failed: "
                f"{reason}; use backend='auto' to fall back to the fused/"
                "reference paths"
            )
        return "stencil"
    # "auto"
    if not exact:
        fits = not has_fault and _levels_fit(plan, scheduler)
        return "levels" if fits else "reference"
    if plan.stencil[0] is not None:
        return "stencil"
    return "fused"


def _levels_fit(plan: SweepPlan, scheduler: "WaveScheduler") -> bool:
    """Whether the level executor runs this regime.

    It needs its padded panels (no row wider than the packed kernel's
    panel cap) and one race rate over the mixed positions, as
    :class:`repro.core.WaveScheduler` gives.
    """
    gamma = scheduler.gamma_profile()
    race = gamma[(gamma > 0.0) & (gamma < 1.0)]
    if np.any(race != race[:1]) or plan.padded_local is None:
        return False
    return bool(np.all(gamma < 1.0)) or plan.padded_external is not None


def consume_schedule_draws(
    config: "AsyncConfig",
    ennz: np.ndarray,
    rng: np.random.Generator,
    scheduler: "WaveScheduler",
    sweep_index: int,
) -> np.ndarray:
    """Draw one lane's schedule plan and consume the reference loop's RNG.

    Shared by the whole-sweep kernel sets (fused, stencil): the reference
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


class _CSRKernels:
    """The fused path's kernel set: the plan's stacked CSR matrices.

    Shaped like :class:`repro.perf.stencil.StencilKernels` so both run
    through one :class:`WholeSweepExecutor`.  Bitwise the per-block
    products: the restacked matrices hold each row's entries in identical
    order, and the ELL row-length-class kernels sum a row the same way in
    every matrix that contains it.
    """

    def __init__(self, plan: SweepPlan):
        plan.warm_fused()
        self.external = plan.external
        self.local_off = plan.local_off
        self.diag = plan.diag

    def apply_external(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.external.matvec(x, out=out)

    def local_sweeps(
        self, s: np.ndarray, z: np.ndarray, sweeps: int, *, omega: float, out: np.ndarray
    ) -> np.ndarray:
        out[...] = local_jacobi_sweeps(self.local_off, self.diag, s, z, sweeps, omega=omega)
        return out


class WholeSweepExecutor:
    """One global sweep per lane as whole-system kernels (no block loop).

    *kernels* is the plan's stencil kernel set (backend ``"stencil"``) or
    its stacked CSR matrices (backend ``"fused"``): the two are structural
    twins — same two-stage update, same draw consumption, same exactness
    regimes.  The stencil planes apply in ascending-offset order, which is
    exactly the left-to-right per-row entry order the CSR row-panel
    kernels sum in, and take their weights from the actual matrix entries,
    so variable coefficients are reproduced exactly.  Lanes advance one
    after another through preallocated work vectors (the stencil kernels
    allocate nothing per sweep), and replica *r* is the sequential run by
    construction.
    """

    def __init__(self, plan: SweepPlan, config: "AsyncConfig", kernels):
        self.plan = plan
        self.config = config
        self.kernels = kernels
        self._ext_buf = np.empty(plan.view.n)
        self._s_buf = np.empty(plan.view.n)

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        cfg = self.config
        for r in reps:
            consume_schedule_draws(
                cfg, self.plan.ennz, lanes.rngs[r], lanes.schedulers[r], lanes.sweep_index
            )
            x = X[r]
            ext = self.kernels.apply_external(x, out=self._ext_buf)
            s = np.subtract(lanes.rhs(r), ext, out=self._s_buf)
            # out=x folds the final write-back into the last local iteration.
            self.kernels.local_sweeps(s, x, cfg.local_iterations, omega=cfg.omega, out=x)


class ReferenceSweepExecutor:
    """The per-block sweep loop, exact in every regime.

    Identical semantics to the historical ``AsyncEngine.sweep`` loop, run
    over the plan's :class:`repro.perf.plan.BlockUpdate` records — the
    paper's disjoint blocks, or with *extended* the halo-widened blocks of
    ``schwarz="ras"`` (restricted additive Schwarz: the same update over a
    subdomain that reads a few rows beyond the ones it writes).  Each
    block reads the sweep-start snapshot or live memory as its γ says,
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
    reads.  A fresh entry reads the live value only when its owner precedes
    it in the lane's order and is not deferred, the snapshot value
    otherwise, exactly as in the loop.

    Each level runs all its (lane, block) pairs at once, with every read
    of the level before any of its writes: one race-correction
    ``np.add.at`` (the in-place fold itself, so a ``-0.0`` right-hand
    side needs no fallback), one ``s = b − ext``, and *k* local Jacobi
    sweeps over the padded-ELL panels of
    :attr:`repro.perf.SweepPlan.padded_local` — on contiguous slices, with
    no index gather, when the level is one block.  Iterates move in a
    ``(R, n + 1)`` work copy whose last column is the pads' ``+0.0`` slot;
    the caller's *X* stays the sweep-start snapshot until the copy-back.

    Lanes are native: a batched sweep is one level loop over all its
    replicas.  Deterministic schedules (no freshness or defer draws) reuse
    their level assignment per order.  :attr:`levels_mean` is the mean
    number of levels per sweep — the decision telemetry of the engines.
    Faults stay on :class:`ReferenceSweepExecutor`.
    """

    #: Orders whose level assignment a deterministic schedule remembers.
    _CACHE_MAX = 64
    #: Rows per lane group of a level (see :meth:`_split_levels`).
    _GROUP_ROWS = 4096

    def __init__(self, plan: SweepPlan, config: "AsyncConfig", gamma: np.ndarray):
        self.plan = plan.warm_reference(gamma)
        self.config = config
        view = plan.view
        self.n = view.n
        self.nb = view.nblocks
        self.starts = view.boundaries[:-1]
        self.sizes = np.diff(view.boundaries)
        self.diag = plan.diag
        self.lcols, self.ldata = plan.padded_local
        self.gamma = gamma
        self.mixed = (gamma > 0.0) & (gamma < 1.0)
        self.snapshot = bool(np.any(gamma < 1.0))
        self.live = bool(np.any(gamma >= 1.0))
        self.E = plan.external
        self.eptr = self.E.indptr[self.starts]
        if self.mixed.any():
            #: The one race rate of the mixed positions (see _levels_fit).
            self.race = gamma[self.mixed][0]
            self.e_rows = self.E._expanded_rows()
            self.e_reader, self.e_owner = plan.entry_blocks
        if self.live:
            self.ecols, self.edata = plan.padded_external
            self.readers, self.owners = plan.coupling
        self._cache = {}
        self.levels_run = 0
        self.sweeps_run = 0

    @property
    def levels_mean(self) -> float:
        """Mean dependency levels per sweep so far (0 before the first)."""
        return self.levels_run / self.sweeps_run if self.sweeps_run else 0.0

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        n, nb = self.n, self.nb
        reps = np.asarray(reps, dtype=np.int64)
        R = len(reps)
        orders, pos, defer, hits = self._draw(lanes, reps)
        nlev, lv, nodes, bounds, fresh = self._assign_levels(orders, pos, defer, hits)
        if fresh is not None:
            fresh, ebounds = self._fresh_by_level(fresh, X, reps, lv, nodes, bounds)

        XW = np.empty((R, n + 1))
        XW[:, n] = 0.0
        EXT = np.empty((R, n)) if self.snapshot else None
        for i, r in enumerate(reps):
            XW[i, :n] = X[r]
            if EXT is not None:
                self.E.matvec(X[r], out=EXT[i])
        live_node = (self.gamma[pos] >= 1.0).ravel()
        defer_node = defer.ravel()
        late = []
        for lvl in range(len(bounds) - 1):
            efresh = None
            if fresh is not None and ebounds[lvl + 1] > ebounds[lvl]:
                e = slice(ebounds[lvl], ebounds[lvl + 1])
                efresh = tuple(a[e] for a in fresh)
            nd = nodes[bounds[lvl] : bounds[lvl + 1]]
            self._level(nd, XW, EXT, efresh, lanes.b, reps, live_node[nd], defer_node[nd], late)
        XWf = XW.reshape(-1)
        for flat, z in late:
            XWf[flat] = z
        X[reps] = XW[:, :n]
        self.levels_run += nlev
        self.sweeps_run += 1

    def _draw(self, lanes, reps):
        """Each lane's order and every double its loop would draw, in one call.

        Per position the loop draws the fresh mask (mixed γ), then the
        defer double.  Returns ``(orders, pos, defer, hits)``:
        *pos* and *defer* indexed by (lane, block), *hits* the fresh
        entries as flat indices into all lanes' concatenated masks (or
        ``None`` without mixed positions).
        """
        nb = self.nb
        R = len(reps)
        dwp = self.config.deferred_write_prob
        orders = np.empty((R, nb), dtype=np.int64)
        for i, r in enumerate(reps):
            orders[i] = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, lanes.rngs[r])[0]
        pos = np.empty_like(orders)
        pos[np.arange(R)[:, None], orders] = np.arange(nb)
        fsz = np.where(self.mixed, self.plan.ennz[orders], 0)
        cnt = fsz + (dwp > 0.0)
        defer = np.zeros((R, nb), dtype=bool)
        hits = []
        base = 0
        for i, r in enumerate(reps):
            u = lanes.rngs[r].random(int(cnt[i].sum()))
            if dwp > 0.0:
                last = np.cumsum(cnt[i]) - 1
                defer[i, orders[i]] = u[last] < dwp
                u = np.delete(u, last)
            if self.mixed.any():
                hits.append(np.flatnonzero(u < self.race) + base)
                base += len(u)
        if not self.mixed.any():
            return orders, pos, defer, None
        # Hit j lies in the (lane, position) segment holding it.
        j = np.concatenate(hits)
        seg_start = cumulative_segments(fsz.ravel())
        seg = np.searchsorted(seg_start, j, side="right") - 1
        ent = self.eptr[orders.ravel()[seg]] + (j - seg_start[seg])
        return orders, pos, defer, (ent, seg // nb)

    def _assign_levels(self, orders, pos, defer, hits):
        """Dependency levels of the (lane, block) nodes, and the fresh entries.

        Returns :meth:`_split_levels` of the levels, then *fresh*:
        ``(ent, lane, reader, live)`` per fresh entry, or ``None``.
        """
        nb = self.nb
        R = len(orders)
        src, dst, wgt = [], [], []
        fresh = None
        if hits is not None:
            ent, eln = hits
            rd, ow = self.e_reader[ent], self.e_owner[ent]
            elive = (pos[eln, ow] < pos[eln, rd]) & ~defer[eln, ow]
            src.append(eln[elive] * nb + ow[elive])
            dst.append(eln[elive] * nb + rd[elive])
            wgt.append(np.ones(int(elive.sum()), dtype=np.int64))
            fresh = (ent, eln, rd, elive)
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
        if fresh is not None or self.config.deferred_write_prob > 0.0:
            return self._split_levels(_longest_paths(R * nb, src, dst, wgt), R) + (fresh,)
        key = orders.tobytes()
        split = self._cache.get(key)
        if split is None:
            if len(self._cache) >= self._CACHE_MAX:
                self._cache.clear()
            split = self._cache[key] = self._split_levels(_longest_paths(R * nb, src, dst, wgt), R)
        return split + (fresh,)

    def _split_levels(self, lv, R):
        """Cut each level into lane groups of about :attr:`_GROUP_ROWS` rows.

        Pairs of different lanes never read each other, so a level's lane
        groups may run one after another: this bounds the per-level work
        arrays, not the result.  Returns the group of every node (the new
        ``lv``), the nodes in group order and the group boundaries, after
        the level count.
        """
        nb = self.nb
        nodes = np.argsort(lv, kind="stable")
        sizes = self.sizes[nodes % nb]
        crows = cumulative_segments(sizes)
        lv_sorted = lv[nodes]
        level_rows = crows[:-1] - crows[cumulative_segments(np.bincount(lv_sorted))[lv_sorted]]
        # Every node takes the group of its (level, lane) run's first node.
        run = lv_sorted * R + nodes // nb
        first = np.flatnonzero(np.diff(run, prepend=-1))
        group = np.repeat(level_rows[first] // self._GROUP_ROWS, np.diff(np.append(first, len(run))))
        key = lv_sorted * (int(group.max()) + 1) + group
        cut = np.flatnonzero(np.diff(key, prepend=-1))
        sub = np.empty_like(lv)
        sub[nodes] = np.repeat(np.arange(len(cut)), np.diff(np.append(cut, len(key))))
        return int(lv_sorted[-1]) + 1, sub, nodes, np.append(cut, len(key))

    def _fresh_by_level(self, fresh, X, reps, lv, nodes, bounds):
        """The fresh entries grouped by level, with what their corrections read.

        Returns ``((epos, data, eflat, snap, live), ebounds)``: per entry its
        row inside its level's concatenated rows, its value, its column in
        the flat work copy, its snapshot operand and whether its owner
        writes visibly first; entries of level *l* are
        ``ebounds[l]:ebounds[l + 1]``, in lane, block and entry order.
        """
        n, nb = self.n, self.nb
        ent, eln, rd, elive = fresh
        csz = cumulative_segments(self.sizes[nodes % nb])
        node_off = np.empty(len(lv), dtype=np.int64)
        node_off[nodes] = csz[:-1] - csz[bounds[:-1]][lv[nodes]]
        enode = eln * nb + rd
        epos = node_off[enode] + self.e_rows[ent] - self.starts[rd]
        elv = lv[enode]
        by_level = np.argsort(elv, kind="stable")
        ebounds = cumulative_segments(np.bincount(elv, minlength=len(bounds) - 1))
        ent, eln, elive, epos = (a[by_level] for a in (ent, eln, elive, epos))
        cols = self.E.indices[ent]
        return (epos, self.E.data[ent], eln * (n + 1) + cols, X[reps[eln], cols], elive), ebounds

    def _level(self, nd, XW, EXT, fresh, b, reps, live, deferred, late) -> None:
        """Update the (lane, block) pairs *nd* of one level: reads, then writes.

        *live* / *deferred* flag the pairs at γ = 1 positions and the
        pairs whose write waits for the sweep end (appended to *late*);
        *fresh* holds the level's race-corrected entries.
        """
        n, nb = self.n, self.nb
        XWf = XW.reshape(-1)
        li, bk = nd // nb, nd % nb
        if len(nd) == 1:
            # One block: contiguous slices, block-local columns as they are.
            i, lo = int(li[0]), int(self.starts[bk[0]])
            m = int(self.sizes[bk[0]])
            rows = slice(lo, lo + m)
            flat = slice(i * (n + 1) + lo, i * (n + 1) + lo + m)
            lcols = self.lcols[:, rows]
            bv = b[reps[i], rows] if b.ndim == 2 else b[rows]
            if live[0]:
                ext = _row_sums(XW[i].take(self.ecols[:, rows], mode="clip") * self.edata[:, rows])
            else:
                ext = EXT[i, rows].copy()
        else:
            sz = self.sizes[bk]
            off = cumulative_segments(sz)
            m = int(off[-1])
            rows = np.repeat(self.starts[bk] - off[:-1], sz) + np.arange(m)
            lrow = np.repeat(li, sz)
            flat = lrow * (n + 1) + rows
            lcols = self.lcols[:, rows]
            lcols += np.repeat(off[:-1], sz)
            bv = b.reshape(-1)[reps[lrow] * n + rows] if b.ndim == 2 else b[rows]
            ext = EXT.reshape(-1)[lrow * n + rows] if EXT is not None else np.empty(m)
            if live.any():
                lr = np.repeat(live, sz)
                idx = self.ecols[:, rows[lr]] + lrow[lr] * (n + 1)
                ext[lr] = _row_sums(XWf.take(idx, mode="clip") * self.edata[:, rows[lr]])
        if fresh is not None:
            epos, edata, eflat, esnap, elive = fresh
            # A fresh entry whose owner has not (visibly) written in this
            # lane's order reads the snapshot: an exact zero delta.
            xv = np.where(elive, XWf[eflat], esnap)
            np.add.at(ext, epos, edata * (xv - esnap))
        s = np.subtract(bv, ext, out=ext)
        z = self._local_sweeps(s, XWf[flat], lcols, self.ldata[:, rows], self.diag[rows])
        if not deferred.any():
            XWf[flat] = z
        elif len(nd) == 1:
            late.append((flat, z))
        else:
            dr = np.repeat(deferred, sz)
            XWf[flat[~dr]] = z[~dr]
            late.append((flat[dr], z[dr]))

    def _local_sweeps(self, s, z0, lcols, ldata, d) -> np.ndarray:
        """*k* Jacobi sweeps ``z ← (s − L z) / d`` over padded panels.

        *lcols* index a work vector whose trailing slot is the pads'
        ``+0.0`` (see :func:`repro.perf.program._jacobi_sweeps`).
        """
        m = len(s)
        zbuf = np.empty(m + 1)
        zbuf[m] = 0.0
        zbuf[:m] = z0
        vals = np.empty(lcols.shape)
        cfg = self.config
        return _jacobi_sweeps(s, zbuf, lcols, ldata, d, vals, vals, cfg.local_iterations, cfg.omega)


def make_executor(backend: str, plan: SweepPlan, config: "AsyncConfig", gamma: np.ndarray):
    """The shared executor for a resolved backend name (*gamma*: the γ profile)."""
    if backend == "levels":
        return LevelSweepExecutor(plan, config, gamma)
    if backend == "stencil":
        return WholeSweepExecutor(plan, config, plan.stencil_kernels())
    if backend == "fused":
        return WholeSweepExecutor(plan, config, _CSRKernels(plan))
    if backend == "reference":
        return ReferenceSweepExecutor(plan, config)
    if backend == "ras":
        if config.schwarz == "ras":
            return ReferenceSweepExecutor(plan, config, extended=True)
        return RASWorkspace(plan, config)
    raise ValueError(f"unknown resolved backend {backend!r}")
