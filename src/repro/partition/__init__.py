"""First-class row-block decompositions (:class:`Partition`) and strategies.

One object — boundaries, optional reordering, strategy name, cached
quality stats — threaded through :class:`repro.sparse.BlockRowView`,
sweep plans, engines, solvers, and experiments, replacing raw
``block_size``/boundary-array plumbing.  See :mod:`repro.partition.core`
for the dataclass and :mod:`repro.partition.strategies` for the
``strategy[:param][+oK]`` registry (``uniform``, ``work_balanced``,
``rcm``, ``clustered``; ``+oK`` sets the restricted-Schwarz halo depth).
:mod:`repro.partition.halo` holds the shared extended-block extraction
used by RAS sweeps and the dist shard workers alike.
"""

from .core import EntryClassification, Partition, PartitionStats, compute_stats
from .halo import extract_block_system, split_block_diagonal
from .placement import contiguous_placement, group_ranges, placement_telemetry
from .rows import partition_rows, partition_rows_by_work
from .strategies import (
    available_strategies,
    make_partition,
    parse_partition_spec,
    register_strategy,
    spec_permutes,
)

__all__ = [
    "EntryClassification",
    "Partition",
    "PartitionStats",
    "available_strategies",
    "compute_stats",
    "contiguous_placement",
    "extract_block_system",
    "group_ranges",
    "make_partition",
    "split_block_diagonal",
    "parse_partition_spec",
    "partition_rows",
    "partition_rows_by_work",
    "placement_telemetry",
    "register_strategy",
    "spec_permutes",
]
