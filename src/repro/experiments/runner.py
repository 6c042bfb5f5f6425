"""Shared experiment plumbing.

Centralises the configuration choices the paper's experiments share — the
Fermi-occupancy-derived concurrency, the paper's block sizes, iteration
budgets per matrix — so every ``exp_*`` module reads the same way.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from ..core.schedules import AsyncConfig
from ..gpu.device import FERMI_C2070, occupancy
from ..solvers.base import SolveResult

__all__ = [
    "is_full_mode",
    "ensemble_runs",
    "paper_async_config",
    "iterations_to_tolerance",
    "FIG6_ITERS",
    "PAPER_BLOCK_SIZE",
    "VARIATION_BLOCK_SIZE",
]

#: §3.2: production thread-block size used for the convergence/performance
#: experiments (Figs. 6-9).
PAPER_BLOCK_SIZE = 448

#: §4.1: the moderate block size used for the non-determinism study.
VARIATION_BLOCK_SIZE = 128

#: Iteration budgets of the Fig. 6/7 convergence plots (x-axis extents).
FIG6_ITERS: Dict[str, int] = {
    "Chem97ZtZ": 200,
    "fv1": 200,
    "fv2": 200,
    "fv3": 25000,
    "s1rmt3m1": 200,
    "Trefethen_2000": 200,
}


def is_full_mode() -> bool:
    """Whether paper-scale parameters were requested (``REPRO_FULL=1``)."""
    return os.environ.get("REPRO_FULL", "") == "1"


def ensemble_runs(quick: bool) -> int:
    """Ensemble size for the §4.1 study.

    The paper uses 1000 runs; quick mode defaults to 50 (enough for stable
    min/max envelopes), overridable via ``REPRO_RUNS``.
    """
    env = os.environ.get("REPRO_RUNS")
    if env:
        return max(2, int(env))
    return 50 if quick else 1000


def paper_async_config(
    local_iterations: int,
    *,
    block_size: int = PAPER_BLOCK_SIZE,
    seed: int = 0,
    omega: float = 1.0,
    backend: str = "auto",
    partition: str = "uniform",
    residual_every: int = 1,
) -> AsyncConfig:
    """The experiment-standard async-(k) configuration.

    Concurrency comes from the Fermi C2070 occupancy at the given thread
    block size, as on the paper's hardware.  *backend* selects the sweep
    execution strategy (:data:`repro.core.schedules.BACKENDS`) — a timing
    knob only, never a change in iterates.  *partition* selects the
    row-block decomposition strategy (``strategy[:param][+oK]``, see
    :mod:`repro.partition.strategies`; the default ``"uniform"`` is the
    paper's CUDA-grid cut; an ``+oK`` suffix runs async restricted
    additive Schwarz).  *residual_every* sets the full-residual
    recording cadence (paper figures use 1; see
    :class:`repro.runtime.RunLoop`).
    """
    return AsyncConfig(
        local_iterations=local_iterations,
        block_size=block_size,
        order="gpu",
        concurrency=occupancy(FERMI_C2070, block_size),
        seed=seed,
        omega=omega,
        backend=backend,
        partition=partition,
        residual_every=residual_every,
    )


def pad_history(h: np.ndarray, length: int) -> np.ndarray:
    """Pad a residual history to *length* points by repeating the last value.

    Fixed-iteration runs can still stop early when the residual hits exact
    zero; padding keeps ensemble/plot arrays aligned.
    """
    if len(h) >= length:
        return h[:length]
    return np.concatenate([h, np.full(length - len(h), h[-1])])


def iterations_to_tolerance(result: SolveResult, tol: float) -> Optional[int]:
    """First global iteration at which the relative residual is <= *tol*."""
    rel = result.relative_residuals()
    hits = np.flatnonzero(rel <= tol)
    return int(hits[0]) if len(hits) else None
