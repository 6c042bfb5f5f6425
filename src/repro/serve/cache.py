"""Structure-keyed cache of compiled solve artifacts.

Compilation — cutting a :class:`repro.partition.Partition`, building the
:class:`repro.sparse.BlockRowView`, compiling the shared
:class:`repro.perf.SweepPlan` — is the per-matrix fixed cost every solve
pays before its first sweep.  A service receiving many requests for the
same system should pay it **once**: :class:`PlanCache` maps a matrix
content fingerprint plus decomposition spec to the compiled artifacts, so
repeat matrices skip compilation entirely and every engine built on a
cached entry shares one plan (the sharing the plan compiler was designed
for, now across independent callers instead of within one).

Eviction is LRU with a bounded capacity: a service solving a rotating set
of systems keeps the hot ones compiled and lets cold decompositions go.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..partition import Partition, make_partition, parse_partition_spec, spec_permutes
from ..perf.plan import SweepPlan, compile_sweep_plan
from ..sparse import BlockRowView
from ..sparse.csr import CSRMatrix
from .fingerprint import matrix_fingerprint

__all__ = ["CacheEntry", "PlanCache", "check_servable_spec"]


def check_servable_spec(partition_spec: str) -> None:
    """Raise :class:`ValueError` for a spec whose strategy permutes rows.

    The service solves in original row order, so only non-permuting
    strategies (``uniform``, ``work_balanced``) are served.  Decided from
    the spec alone (:func:`repro.partition.spec_permutes`): nothing is cut.
    """
    if spec_permutes(partition_spec):
        raise ValueError(
            f"partition spec {partition_spec!r} carries a row permutation; "
            "the serve layer only supports non-permuting strategies "
            "(uniform, work_balanced)"
        )


@dataclass
class CacheEntry:
    """Compiled artifacts of one (matrix, decomposition) pair."""

    #: Cache key: (matrix fingerprint, partition spec, block size,
    #: requested backend, parsed overlap).
    key: Tuple[str, str, int, str, int]
    #: The matrix the artifacts were compiled for (content-identical to
    #: every matrix that hits this entry).
    matrix: CSRMatrix
    #: The cut partition.
    partition: Partition
    #: The block view every engine on this entry shares.
    view: BlockRowView
    #: The compiled sweep plan (attached to the view; one compilation).
    plan: SweepPlan
    #: Times this entry served a lookup after compilation.
    hits: int = field(default=0)


class PlanCache:
    """LRU cache from matrix fingerprints to compiled solve artifacts.

    Parameters
    ----------
    capacity:
        Maximum number of live entries; the least recently used entry is
        evicted when a compile would exceed it.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[str, str, int, str, int], CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        A: CSRMatrix,
        partition_spec: str = "uniform",
        block_size: int = 128,
        *,
        backend: str = "auto",
        fingerprint: Optional[str] = None,
    ) -> Tuple[CacheEntry, bool]:
        """The compiled entry for ``(A, spec, block_size, backend)`` and hit status.

        A hit returns the existing artifacts (the fingerprint guarantees
        *A* is content-identical to the cached matrix); a miss cuts the
        partition, builds the view and compiles the sweep plan, evicting
        the least recently used entry if the cache is full.  Permuting
        partition strategies (``rcm``, ``clustered``) are rejected before
        anything is cut (:func:`check_servable_spec`).  Pass *fingerprint* when the
        caller already computed :func:`matrix_fingerprint(A)
        <repro.serve.matrix_fingerprint>` (the service batch keys carry
        it) to skip re-hashing the arrays.

        *backend* is the request's **requested** backend and is part of
        the key: an entry whose plan was warmed (and possibly
        stencil-compiled) under ``backend="auto"`` dispatch is never
        served to a request that forced ``backend="reference"`` — the two
        requests must not share warm/telemetry state, and a forced
        backend's errors must surface on its own entry.

        The spec's parsed ``+oK`` overlap is an explicit key component:
        two requests differing only in overlap compile different extended
        block systems and must never share a plan, even if a future spec
        normalisation were to canonicalise the strings.
        """
        fp = fingerprint if fingerprint is not None else matrix_fingerprint(A)
        overlap = parse_partition_spec(str(partition_spec))[2]
        key = (fp, str(partition_spec), int(block_size), str(backend), overlap)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            return entry, True
        check_servable_spec(partition_spec)
        self.misses += 1
        partition = make_partition(A, partition_spec, block_size=block_size)
        view = BlockRowView(A, partition=partition)
        plan = compile_sweep_plan(view)
        entry = CacheEntry(key=key, matrix=A, partition=partition, view=view, plan=plan)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry, False

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly counters (hit rate over all lookups so far)."""
        lookups = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
