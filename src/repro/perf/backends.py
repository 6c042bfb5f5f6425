"""Sweep-execution backends: whole-system kernels vs the block loop.

Each executor advances an ``(R, n)`` block of replica iterates through one
global sweep.  Executors are stateless across sweeps: every call receives
the engine's *lane state* — per-replica generators ``rngs``, schedulers
``schedulers``, the shared ``sweep_index``, the right-hand side through
``rhs(r)``, the ``fold_safe`` flag and the fault hook ``frozen_blocks()``
— so one executor object serves both :class:`repro.core.AsyncEngine` (R = 1)
and :class:`repro.core.BatchedAsyncEngine`.  The engines own the update
counts and the sweep index; executors only move iterates and consume each
lane's generator exactly as a sequential run would.

* :class:`ReferenceSweepExecutor` — the per-block Python loop, semantics
  for every regime (mixed per-entry races, faults, partial deferred
  writes), sped up by the compiled per-block plans of
  :class:`repro.perf.SweepPlan`: warmed ELL gather plans, segment-sum
  scatter instead of ``np.add.at``, compressed block-local inner sweeps
  with one write-back per block.
* :class:`WholeSweepExecutor` — the whole sweep as a handful of
  whole-system kernels: one external product, one right-hand-side
  assembly, *k* local Jacobi sweeps.  No Python loop over blocks at all,
  which is what removes the interpreter floor from fine decompositions
  (the regime of Figure 8 / Table 5).  It runs over one of two kernel
  sets: the stacked CSR matrices (backend ``"fused"``), or the
  matrix-free offset-shifted slice kernels of :mod:`repro.perf.stencil`
  for stencil-regular systems (backend ``"stencil"``, engaged only when
  structure detection on the plan succeeds).
* :class:`repro.perf.ras.RASWorkspace` — the extended-block loop of the
  overlapped Schwarz modes (backend ``"ras"``).

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
  exact signed zeros, which its fold accumulation cannot propagate into
  the iterate unless the right-hand side carries ``-0.0`` entries
  (checked at dispatch).

Scheduler randomness is consumed identically on both paths:
``Generator.random`` fills doubles sequentially from the bit stream, so
the whole-sweep path's single draw call per sweep advances the generator
to bitwise the state the reference loop's interleaved per-block draws
leave behind.  Faults always take the reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..solvers.block_jacobi import local_jacobi_sweeps
from ..sparse.csr import scatter_add_fold
from .plan import SweepPlan
from .ras import RASWorkspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedules import AsyncConfig, WaveScheduler

__all__ = [
    "fused_sweep_exact",
    "resolve_backend",
    "consume_schedule_draws",
    "ReferenceSweepExecutor",
    "WholeSweepExecutor",
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
    plan: "SweepPlan" = None,
) -> str:
    """Resolve ``config.backend`` to the executor actually used.

    An overlapped Schwarz mode (``config.schwarz != "none"`` on a *plan*
    whose partition has ``overlap > 0``) always resolves to ``"ras"``; it
    supports neither faults nor the forced whole-sweep backends.
    Otherwise ``"auto"`` prefers **stencil > fused > reference**: in the
    whole-sweep exact regimes it runs the matrix-free stencil executor
    when structure detection on *plan* succeeds (:mod:`repro.perf.stencil`),
    the fused CSR path otherwise, and the per-block reference loop outside
    those regimes.  ``"reference"`` always honours the request; ``"fused"``
    / ``"stencil"`` raise where they would change the iterates — the
    backends are execution strategies, never approximations, and a silent
    fallback would make ``--backend=fused`` timings lie.  Without a *plan*
    (legacy callers) stencil and RAS dispatch are never considered.
    """
    requested = config.backend
    if plan is not None and config.schwarz != "none" and plan.partition.overlap > 0:
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
        if plan is None:
            raise ValueError(
                "backend='stencil' requires a compiled sweep plan for structure "
                "detection"
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
        return "reference"
    if plan is not None and plan.stencil[0] is not None:
        return "stencil"
    return "fused"


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

    Identical semantics to the historical ``AsyncEngine.sweep`` loop, with
    three plan-powered accelerations that keep the iterates bitwise:

    * block updates iterate on the compressed block-local slice and write
      the shared iterate once per block (nobody reads a block's rows
      until its update completes, so intermediate write-backs were
      unobservable);
    * the per-entry race corrections scatter through the plan's
      precomputed segment ids via one ``np.bincount``
      (:func:`repro.sparse.scatter_add_fold`) instead of ``np.add.at``;
      where the right-hand side carries ``-0.0`` entries (the lanes'
      ``fold_safe`` is false) it falls back to ``np.add.at``, because the
      segment sum flips ``-0.0`` bases to ``+0.0``;
    * all gather plans and index structures are compiled once
      (:meth:`repro.perf.SweepPlan.warm_reference`) instead of per sweep.

    Lanes advance one after another; the batched engine replaces this loop
    by its position-grouped multi-replica kernel when R > 1.
    """

    def __init__(self, plan: SweepPlan, config: "AsyncConfig"):
        self.plan = plan.warm_reference()
        self.config = config

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        for r in reps:
            self._sweep_lane(X[r], lanes, r)

    def _sweep_lane(self, x: np.ndarray, lanes, r: int) -> None:
        cfg = self.config
        rng = lanes.rngs[r]
        b = lanes.rhs(r)
        fold_safe = lanes.fold_safe
        fault = lanes.fault
        blocks = self.plan.view.blocks
        plan = self.plan
        ext_rows = plan.ext_rows
        scatter_base = plan.scatter_base
        local_c = plan.local_c
        frozen = lanes.frozen_blocks()

        order, gamma = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, rng)
        snapshot = x if np.all(gamma >= 1.0) else x.copy()
        deferred: List[Tuple[slice, np.ndarray]] = []

        for pos, bid in enumerate(order):
            blk = blocks[bid]
            rows = blk.rows
            g = gamma[pos]
            if g <= 0.0:
                ext = blk.external.matvec(snapshot)
            elif g >= 1.0:
                ext = blk.external.matvec(x)
            else:
                # Per-entry races: each off-block component is, with
                # probability γ, read after its owner's write from this
                # sweep landed.  Systems with many small off-block
                # couplings self-average (fv1's variation is tiny); systems
                # with a few heavy ones do not (Trefethen's is not) — the
                # §4.1 contrast emerges from the matrix, not from a knob.
                ext = blk.external.matvec(snapshot)
                e = blk.external
                fresh = rng.random(plan.ennz[bid]) < g
                if fresh.any():
                    cols = e.indices[fresh]
                    delta = e.data[fresh] * (x[cols] - snapshot[cols])
                    if fold_safe:
                        ext = scatter_add_fold(
                            ext, ext_rows[bid][fresh], delta, base_ids=scatter_base[bid]
                        )
                    else:
                        np.add.at(ext, ext_rows[bid][fresh], delta)
            s = b[rows] - ext

            frozen_local = frozen[bid] if frozen is not None else None
            defer = cfg.deferred_write_prob > 0.0 and rng.random() < cfg.deferred_write_prob
            # Local iterations on the block-local slice; the shared iterate
            # is written once, after the block finishes (or at sweep end
            # for a deferred write) — no earlier read can observe the
            # difference, so this is bitwise the in-place variant.
            z = x[rows]
            for _ in range(cfg.local_iterations):
                new = (s - local_c[bid].matvec(z)) / blk.diag
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
                deferred.append((rows, z))
            else:
                x[rows] = z

        for rows, vals in deferred:
            x[rows] = vals


def make_executor(backend: str, plan: SweepPlan, config: "AsyncConfig"):
    """The shared executor for a resolved backend name."""
    if backend == "stencil":
        return WholeSweepExecutor(plan, config, plan.stencil_kernels())
    if backend == "fused":
        return WholeSweepExecutor(plan, config, _CSRKernels(plan))
    if backend == "reference":
        return ReferenceSweepExecutor(plan, config)
    if backend == "ras":
        return RASWorkspace(plan.view, config)
    raise ValueError(f"unknown resolved backend {backend!r}")
