"""Asynchronous restricted-additive-Schwarz sweeps over extended blocks.

The classic engine (``schwarz="none"``) runs the paper's disjoint
decomposition: each block sweeps its own rows with off-block values
frozen.  The Schwarz modes widen every subdomain by the partition's
``overlap`` halo rows (Nayak/Cojean et al.'s abstract asynchronous
Schwarz setting): a block gathers and iterates its *extended* system —
halo rows advance locally, giving the owned rows near the cuts fresher
boundary values at every inner sweep — and then restricts the fold-back:

``"ras"``
    Only owned rows write (halo copies are read-only) — each row written
    by exactly one block, so the γ freshness semantics, deferred writes
    and schedule orders of :class:`repro.core.WaveScheduler` carry over
    verbatim from the disjoint loop, just over extended gathers.
``"wras"``
    Every extended row contributes with partition-of-unity weights
    (``1 / coverage``), accumulated over the sweep and folded at the
    sweep end.  All reads therefore observe the pre-sweep iterate and no
    freshness or defer draws exist to consume — the mode ignores
    ``stale_read_prob`` / ``deferred_write_prob`` by construction.

:class:`RASWorkspace` is the single sweep executor (backend ``"ras"``)
both engines call, so replica *r* of a batched RAS run is bitwise the
sequential run for seed ``seed0 + r`` *by construction*, not by parallel
re-implementation.  None of this code runs at ``overlap=0``
— the engines dispatch here only for ``schwarz != "none"`` with a
positive ``+oK`` partition suffix, which is what keeps the zero-overlap
configuration bitwise the historical engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..sparse.csr import scatter_add_fold
from .plan import compile_sweep_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedules import AsyncConfig, WaveScheduler
    from ..sparse import BlockRowView

__all__ = ["RASWorkspace"]


class RASWorkspace:
    """Compiled extended-block sweep executor shared by both engines.

    Construction warms the plan's RAS structures
    (:meth:`repro.perf.SweepPlan.warm_ras`) so the first timed sweep does
    no compilation.  Like every executor of :mod:`repro.perf.backends` the
    workspace is stateless across sweeps: each call receives the engine's
    lane state (generators, schedulers, sweep index, right-hand side), which
    is what lets R batched replicas share one workspace while each
    consumes its own stream exactly as a sequential engine would.
    """

    def __init__(self, view: "BlockRowView", config: "AsyncConfig"):
        if config.schwarz not in ("ras", "wras"):
            raise ValueError(f"RASWorkspace needs schwarz='ras'|'wras', got {config.schwarz!r}")
        if view.partition.overlap < 1:
            raise ValueError("RASWorkspace needs a partition with overlap >= 1 (spec '+oK')")
        self.view = view
        self.config = config
        self.plan = compile_sweep_plan(view).warm_ras()
        self.blocks = view.ras_blocks()
        self.ennz = self.plan.ras_ennz
        self.weighted = config.schwarz == "wras"
        self.weights = (
            view.partition.restriction_weights("wras") if self.weighted else None
        )
        # Scatter segment ids of the extended externals (the np.add.at
        # replacement), plus shared base-id aranges by extended size.
        self._ext_rows: List[np.ndarray] = [
            blk.external._expanded_rows() for blk in self.blocks
        ]
        by_size = {}
        self._scatter_base: List[np.ndarray] = [
            by_size.setdefault(blk.nrows, np.arange(blk.nrows, dtype=np.int64))
            for blk in self.blocks
        ]

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        """One global async-RAS sweep of every lane in *reps*, in place."""
        for r in reps:
            lane = (X[r], lanes.rhs(r), lanes.rngs[r], lanes.schedulers[r], lanes.sweep_index)
            if self.weighted:
                self._sweep_wras(*lane)
            else:
                self._sweep_ras(*lane, fold_safe=lanes.fold_safe)

    def _sweep_ras(
        self,
        x: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator,
        scheduler: "WaveScheduler",
        sweep_index: int,
        fold_safe: bool,
    ) -> None:
        cfg = self.config
        order, gamma = scheduler.plan_for_sweep(sweep_index, rng)
        snapshot = x if np.all(gamma >= 1.0) else x.copy()
        draw_defer = cfg.deferred_write_prob > 0.0
        deferred: List[Tuple[slice, np.ndarray]] = []

        for pos, bid in enumerate(order):
            blk = self.blocks[bid]
            g = gamma[pos]
            if g <= 0.0:
                ext = blk.external.matvec(snapshot)
                read = snapshot
            elif g >= 1.0:
                ext = blk.external.matvec(x)
                read = x
            else:
                # Per-entry races over the *extended* external entries —
                # the same stochastic shift function as the disjoint loop,
                # with the halo's captured couplings no longer among them.
                ext = blk.external.matvec(snapshot)
                e = blk.external
                fresh = rng.random(self.ennz[bid]) < g
                if fresh.any():
                    cols = e.indices[fresh]
                    delta = e.data[fresh] * (x[cols] - snapshot[cols])
                    if fold_safe:
                        ext = scatter_add_fold(
                            ext, self._ext_rows[bid][fresh], delta,
                            base_ids=self._scatter_base[bid],
                        )
                    else:
                        np.add.at(ext, self._ext_rows[bid][fresh], delta)
                read = snapshot
            s = b[blk.elo : blk.ehi] - ext
            z = read[blk.elo : blk.ehi]
            for _ in range(cfg.local_iterations):
                new = (s - blk.local_off.matvec(z)) / blk.diag
                if cfg.omega != 1.0:
                    new = (1.0 - cfg.omega) * z + cfg.omega * new
                z = new
            owned = z[blk.owned]
            if draw_defer and rng.random() < cfg.deferred_write_prob:
                deferred.append((slice(blk.start, blk.stop), owned))
            else:
                x[blk.start : blk.stop] = owned

        for rows, vals in deferred:
            x[rows] = vals

    def _sweep_wras(
        self,
        x: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator,
        scheduler: "WaveScheduler",
        sweep_index: int,
    ) -> None:
        """Weighted-RAS sweep: partition-of-unity fold at the sweep end.

        Every block reads the pre-sweep iterate (*x* is untouched until
        the final fold), so there is no freshness to race on and no write
        to defer — the order draw is the only randomness consumed.
        """
        cfg = self.config
        order, _ = scheduler.plan_for_sweep(sweep_index, rng)
        acc = np.zeros_like(x)
        for bid in order:
            blk = self.blocks[bid]
            ext = blk.external.matvec(x)
            s = b[blk.elo : blk.ehi] - ext
            z = x[blk.elo : blk.ehi]
            for _ in range(cfg.local_iterations):
                new = (s - blk.local_off.matvec(z)) / blk.diag
                if cfg.omega != 1.0:
                    new = (1.0 - cfg.omega) * z + cfg.omega * new
                z = new
            acc[blk.elo : blk.ehi] += self.weights[bid] * z
        x[:] = acc

