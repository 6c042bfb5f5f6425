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
    verbatim from the disjoint loop.  It *is* the disjoint loop:
    :class:`repro.perf.ReferenceSweepExecutor` over the plan's extended
    :class:`repro.perf.plan.BlockUpdate` records.
``"wras"``
    Every extended row contributes with partition-of-unity weights
    (``1 / coverage``), accumulated over the sweep and folded at the
    sweep end.  All reads therefore observe the pre-sweep iterate and no
    freshness or defer draws exist to consume — the mode ignores
    ``stale_read_prob`` / ``deferred_write_prob`` by construction.
    :class:`RASWorkspace` runs this additive fold.

Both engines call the same executor (backend ``"ras"``), so replica *r*
of a batched RAS run is bitwise the sequential run for seed
``seed0 + r`` *by construction*.  None of this code runs at
``overlap=0`` — the engines dispatch here only for ``schwarz != "none"``
with a positive ``+oK`` partition suffix, which is what keeps the
zero-overlap configuration bitwise the historical engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..solvers.block_jacobi import local_jacobi_sweeps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedules import AsyncConfig
    from .plan import SweepPlan

__all__ = ["RASWorkspace"]


class RASWorkspace:
    """Weighted-RAS (``schwarz="wras"``) sweep executor shared by both engines.

    Runs over the plan's extended :meth:`repro.perf.SweepPlan.block_updates`,
    compiled (gather plans warmed) at construction so the first timed
    sweep does no compilation.  Like every executor of
    :mod:`repro.perf.backends` it is stateless across sweeps: each call
    receives the engine's lane state, which is what lets R batched
    replicas share one workspace.
    """

    def __init__(self, plan: "SweepPlan", config: "AsyncConfig"):
        if config.schwarz != "wras":
            raise ValueError(f"RASWorkspace needs schwarz='wras', got {config.schwarz!r}")
        partition = plan.partition
        if partition.overlap < 1:
            raise ValueError("RASWorkspace needs a partition with overlap >= 1 (spec '+oK')")
        self.config = config
        self.updates = plan.warm_reference(extended=True).block_updates(extended=True)
        self.weights = partition.restriction_weights("wras")

    def sweep(self, X: np.ndarray, lanes, reps: Sequence[int]) -> None:
        """One weighted-RAS sweep of every lane in *reps*, in place.

        Every block reads the pre-sweep iterate (*x* is untouched until
        the final fold), so there is no freshness to race on and no write
        to defer — the order draw is the only randomness consumed.
        """
        cfg = self.config
        for r in reps:
            x, b = X[r], lanes.rhs(r)
            order, _ = lanes.schedulers[r].plan_for_sweep(lanes.sweep_index, lanes.rngs[r])
            acc = np.zeros_like(x)
            for bid in order:
                u = self.updates[bid]
                s = b[u.read] - u.external.matvec(x)
                z = local_jacobi_sweeps(
                    u.local, u.diag, s, x[u.read], cfg.local_iterations, omega=cfg.omega
                )
                acc[u.read] += self.weights[bid] * z
            x[:] = acc
