"""Update orders, staleness and write visibility — the chaotic part.

Chazan–Miranker asynchronous iteration (paper §2.2) is characterised by an
update function ``u(k)`` (which component is updated at step *k*) and a shift
function ``s(k, j)`` (how stale the value of component *j* is at step *k*).
On a GPU neither is chosen by the programmer: the hardware thread-block
scheduler determines both.  This module models that scheduler as an
execution **order** over the blocks plus a **freshness plan**: per sweep,
each block gets a fraction γ of off-block components whose current-sweep
writes it observes (0 = pure snapshot/Jacobi semantics, 1 = fully live /
Gauss-Seidel-in-order semantics).

Knobs, and what they reproduce:

``order``
    * ``"synchronous"`` — every block reads the sweep-start snapshot
      (γ = 0).  With one local iteration this makes async-(1) *identical*
      to global Jacobi (a test fixture, and the zero-asynchronism
      reference).
    * ``"sequential"`` / ``"reversed"`` — fixed block order; with
      ``concurrency`` below the block count, the pipeline tail reads live:
      block Gauss-Seidel flavour.
    * ``"random"`` — fresh random permutation every sweep: i.i.d. chaos.
    * ``"gpu"`` — the observed GPU behaviour (§4.1): the scheduler draws
      its orders from a small recurring pool of patterns with light
      per-sweep jitter, and resident blocks see a small race-rate γ of
      fresh components (staggered warp completion).

``concurrency``
    Number of simultaneously resident blocks — on hardware, SM count ×
    blocks per SM (:func:`repro.gpu.device.occupancy`).  Positions beyond
    it form the pipeline tail and read live values (γ = 1); large values
    push behaviour toward Jacobi, small toward Gauss-Seidel.

``stale_read_prob``
    Explicit override of the staleness: γ for resident blocks is
    ``1 − stale_read_prob``.  The default ``None`` derives it from the
    device model (see :meth:`WaveScheduler.effective_stale_prob`).

``deferred_write_prob``
    Probability a block's write becomes visible only at the end of the
    sweep (models write-buffer latency).  Together with the snapshot reads
    this bounds the shift function by two global sweeps, satisfying
    condition (2) of §2.2; :func:`repro.core.convergence.check_well_posedness`
    verifies condition (1) from the engine's update counts.

All run-to-run nondeterminism is realised **per entry** inside the engine
(each off-block coupling independently races with probability γ), so the
*magnitude* of the §4.1 variation is decided by the matrix: many small
off-block couplings self-average, few heavy ones do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .._util import RNGLike, as_rng
from ..partition import Partition, parse_partition_spec

__all__ = [
    "AsyncConfig",
    "WaveScheduler",
    "UPDATE_ORDERS",
    "BACKENDS",
    "replica_rngs",
]


def replica_rngs(seed0: int, nreplicas: int) -> List[np.random.Generator]:
    """Independent per-replica generators for an ensemble of schedules.

    Replica *r* gets ``as_rng(seed0 + r)`` — bitwise the stream a
    sequential ensemble hands its engine when it runs
    ``dataclasses.replace(config, seed=seed0 + r)`` — so a batched engine
    drawing replica *r*'s schedule from ``replica_rngs(seed0, R)[r]``
    reproduces the sequential run for seed ``seed0 + r`` exactly.
    """
    if nreplicas < 1:
        raise ValueError("nreplicas must be >= 1")
    return [as_rng(seed0 + r) for r in range(nreplicas)]

#: Recognised update-order policies.
UPDATE_ORDERS = ("synchronous", "sequential", "reversed", "random", "gpu")

#: Recognised sweep-execution backends (see :mod:`repro.perf`):
#: ``"auto"`` runs the matrix-free stencil path where the matrix passes
#: the offset-plane gate and a whole sweep is exact for the configured
#: regime, and otherwise the block loop as dependency levels (one level
#: per sweep where a whole sweep is exact); ``"stencil"``/``"levels"``
#: demand their path (an error where it cannot run: stencil outside the
#: exact regimes or where the gate refuses the matrix, levels under a
#: fault or where a row outgrows its panels); ``"reference"`` forces the
#: per-block loop everywhere.
BACKENDS = ("auto", "stencil", "levels", "reference")


@dataclass(frozen=True)
class AsyncConfig:
    """Configuration of a block-asynchronous run.

    Attributes
    ----------
    local_iterations:
        *k* in async-(k): Jacobi sweeps per block update with frozen
        off-block values (Algorithm 1's inner loop).
    block_size:
        Rows per block ("subdomain"); the paper uses 128–512 (§3.2 uses a
        thread-block size of 448, §4.1 studies 128).
    order:
        Update-order policy, one of :data:`UPDATE_ORDERS`.
    concurrency:
        Blocks per wave; ``None`` means all blocks in one wave.
    stale_read_prob / deferred_write_prob:
        Staleness knobs, see the module docstring.
    omega:
        Relaxation weight of the local updates (1 = plain Jacobi updates;
        the τ of :func:`repro.solvers.estimate_tau` for ρ(B) > 1 systems).
    pattern_pool / jitter_swaps:
        "gpu" order parameters: number of recurring patterns the scheduler
        cycles through, and random transpositions applied per sweep.
    backend:
        Sweep-execution backend, one of :data:`BACKENDS`.  An execution
        strategy, not a semantic knob: every backend produces bitwise the
        same iterates wherever it is allowed to run (:mod:`repro.perf`).
    partition:
        ``strategy[:param][+oK]`` spec naming the row-block decomposition
        strategy (see :mod:`repro.partition.strategies`): ``"uniform"``
        (the default — bitwise-identical to the historical
        ``block_size`` cuts), ``"work_balanced"``, ``"rcm"``,
        ``"clustered"``.  A missing param falls back to
        :attr:`block_size`.  An ``+oK`` suffix with K > 0 selects async
        restricted additive Schwarz (async-RAS): every block sweeps its
        owned rows widened by K halo rows on each side and writes back
        only the owned ones.  ``+o0`` is the paper's disjoint method.
    seed:
        Master seed of the run — two runs with the same seed are bitwise
        identical; different seeds model different nondeterministic
        hardware schedules (§4.1's 1000-run study varies exactly this).
    residual_every:
        Full-residual recording cadence *m* of the run loop
        (:class:`repro.runtime.RunLoop`): ``||b − A x||`` is evaluated and
        the stopping rule applied every *m* global sweeps.  The default 1
        — used by every paper figure — records each sweep; larger values
        skip the dominant non-sweep cost on large systems.  The sweeps
        themselves never depend on the evaluations, so the iterates
        visited are identical for every *m*.
    """

    local_iterations: int = 1
    block_size: int = 128
    order: str = "gpu"
    concurrency: Optional[int] = None
    stale_read_prob: Optional[float] = None
    deferred_write_prob: float = 0.0
    omega: float = 1.0
    pattern_pool: int = 4
    jitter_swaps: int = 2
    backend: str = "auto"
    partition: str = "uniform"
    seed: RNGLike = 0
    residual_every: int = 1

    def __post_init__(self) -> None:
        if self.local_iterations < 1:
            raise ValueError("local_iterations must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.order not in UPDATE_ORDERS:
            raise ValueError(f"order must be one of {UPDATE_ORDERS}, got {self.order!r}")
        if self.concurrency is not None and self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.stale_read_prob is not None and not (0.0 <= self.stale_read_prob <= 1.0):
            raise ValueError("stale_read_prob must be in [0, 1]")
        if not (0.0 <= self.deferred_write_prob <= 1.0):
            raise ValueError("deferred_write_prob must be in [0, 1]")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.pattern_pool < 1:
            raise ValueError("pattern_pool must be >= 1")
        if self.jitter_swaps < 0:
            raise ValueError("jitter_swaps must be >= 0")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        parse_partition_spec(self.partition)  # raises ValueError on bad specs
        if self.residual_every < 1:
            raise ValueError("residual_every must be >= 1")

    @property
    def method_name(self) -> str:
        """Paper-style tag of :attr:`partition`'s method (:func:`method_tag`)."""
        return method_tag(self.local_iterations, parse_partition_spec(self.partition)[2])


def method_tag(local_iterations: int, overlap: int) -> str:
    """Paper-style tag, e.g. ``async-(5)`` or, with overlap, ``async-RAS(5,o2)``."""
    if overlap > 0:
        return f"async-RAS({local_iterations},o{overlap})"
    return f"async-({local_iterations})"


class WaveScheduler:
    """Produces, per sweep, the wave decomposition of the block set.

    Parameters
    ----------
    partition:
        The :class:`repro.partition.Partition` being scheduled — the block
        count (and hence the wave shapes and staleness bound) comes from
        it.  A bare block count (``int``) is accepted for partition-free
        callers.
    config:
        The :class:`AsyncConfig` whose ordering knobs apply.
    rng:
        Generator supplying all schedule randomness (owned by the engine so
        schedule and staleness draws share one reproducible stream).
    """

    def __init__(self, partition, config: AsyncConfig, rng: np.random.Generator):
        if isinstance(partition, Partition):
            self.partition: Optional[Partition] = partition
            nblocks = partition.nblocks
        else:
            self.partition = None
            nblocks = int(partition)
        if nblocks < 1:
            raise ValueError("nblocks must be >= 1")
        self.nblocks = nblocks
        self.config = config
        conc = config.concurrency
        self.concurrency = nblocks if conc is None else min(conc, nblocks)
        if config.order == "synchronous":
            self.concurrency = nblocks
        self._gamma: Optional[np.ndarray] = None
        self._patterns: Optional[List[np.ndarray]] = None
        if config.order == "gpu":
            # The recurring pattern pool: the hardware scheduler's order is
            # nondeterministic *across runs* but repeats *within* a run.
            self._patterns = [rng.permutation(nblocks) for _ in range(config.pattern_pool)]


    def order_for_sweep(self, sweep: int, rng: np.random.Generator) -> np.ndarray:
        """Block execution order for the given sweep."""
        cfg = self.config
        if cfg.order in ("synchronous", "sequential"):
            return np.arange(self.nblocks, dtype=np.int64)
        if cfg.order == "reversed":
            return np.arange(self.nblocks - 1, -1, -1, dtype=np.int64)
        if cfg.order == "random":
            return rng.permutation(self.nblocks)
        # "gpu": recurring pattern + light jitter.
        assert self._patterns is not None
        base = self._patterns[sweep % len(self._patterns)].copy()
        if cfg.jitter_swaps:
            # One draw for all swaps: the same values and generator state
            # as one size-2 draw per swap.
            for i, j in rng.integers(0, self.nblocks, size=(cfg.jitter_swaps, 2)).tolist():
                base[i], base[j] = base[j], base[i]
        return base

    def waves(self, sweep: int, rng: np.random.Generator) -> List[np.ndarray]:
        """Wave decomposition (list of block-id arrays) for the given sweep."""
        order = self.order_for_sweep(sweep, rng)
        c = self.concurrency
        return [order[i : i + c] for i in range(0, len(order), c)]

    def plan_for_sweep(self, sweep: int, rng: np.random.Generator):
        """(execution order, per-position freshness fractions γ) for one sweep.

        ``gamma[pos]`` is the fraction of off-block *components* whose
        writes from this sweep land before the block at position *pos*
        performs its read: 0 = the pure sweep-start snapshot (Jacobi
        semantics), 1 = fully live memory (Gauss-Seidel semantics in
        schedule order).  Two regimes compose it:

        * **pipeline tail** — positions beyond the occupancy window start
          only after earlier blocks finished, so they read live: γ = 1;
        * **in-flight races** — resident blocks still see a small fraction
          *f* of fresh components (staggered warp completion), with *f*
          derived from the configured/derived staleness.

        The race *rate* γ is a deterministic device property — identical
        for every block and every run; all randomness lives in the
        per-entry realisations inside the engine.  Systems with many small
        off-block couplings therefore self-average (fv1's variation is
        tiny) while systems with a few heavy couplings do not (Trefethen's
        is large) — the §4.1 contrast is decided by the matrix, not by a
        knob.
        """
        return self.order_for_sweep(sweep, rng), self.gamma_profile()

    def gamma_profile(self) -> np.ndarray:
        """Per-position freshness fractions γ — deterministic and sweep-free.

        γ is a device property (occupancy + staleness), not a draw: it
        depends only on the configuration, so it is computed once and
        cached, and the backend dispatch of :mod:`repro.perf` can classify
        the execution regime at engine construction.  Callers must not
        mutate the returned array.
        """
        if self._gamma is None:
            if self.config.order == "synchronous":
                self._gamma = np.zeros(self.nblocks)
            else:
                gamma = np.full(self.nblocks, 1.0 - self.effective_stale_prob())
                if self.concurrency < self.nblocks:
                    gamma[self.concurrency :] = 1.0  # the pipeline tail reads live
                self._gamma = gamma
        return self._gamma

    #: Residual-freshness cap for the "gpu" order: even among concurrent
    #: blocks, staggered completion means a few percent of reads see fresh
    #: data — the seed of the paper's run-to-run variation.
    GPU_STALENESS_CAP = 0.95

    def effective_stale_prob(self) -> float:
        """The stale-read probability actually used by the engine.

        Explicit configuration wins; otherwise it is derived from the
        occupancy as described in the module docstring.
        """
        cfg = self.config
        if cfg.order == "synchronous":
            return 1.0
        if cfg.stale_read_prob is not None:
            return cfg.stale_read_prob
        if cfg.order in ("gpu", "random"):
            # Resident blocks are concurrent, but staggered completion
            # leaves a small mean fresh fraction.
            return self.GPU_STALENESS_CAP
        return 1.0

    def staleness_bound(self) -> int:
        """Upper bound on the shift function, in global sweeps.

        Reads are at worst one sweep old (the sweep-start snapshot) and
        writes at worst deferred to the sweep end, so the Chazan–Miranker
        shift is bounded by 2 sweeps — condition (2) of §2.2 holds for
        every configuration this scheduler can produce.
        """
        return 2
