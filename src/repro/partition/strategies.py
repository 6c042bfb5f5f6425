"""Strategy registry: named, parameterised ways to build a :class:`Partition`.

Strategies are registered by name and selected with a
``strategy[:param][+oK]`` spec string (the same grammar the CLI's
``--partition`` knob and :class:`repro.core.AsyncConfig` use):

``uniform[:block_size]``
    Equal-row contiguous blocks in natural order — the paper's CUDA-grid
    decomposition and the bitwise-default everywhere.
``work_balanced[:nblocks]``
    Equal-*nonzero* blocks (absorbs ``partition_rows_by_work``): boundary
    *k* sits where cumulative nnz crosses ``k/nblocks`` of the total.
``rcm[:block_size]``
    Reverse Cuthill–McKee reordering (``matrices/rcm.py``) + uniform
    blocks — bandwidth reduction pulls couplings into the diagonal blocks.
``clustered[:block_size]``
    Greedy coupling-clustered reordering (``matrices/clustering.py``) +
    uniform blocks — directly minimises off-block coupling mass.

Any spec may carry an ``+oK`` overlap suffix (e.g. ``work_balanced:8+o2``)
setting :attr:`Partition.overlap` — the halo depth async restricted
additive Schwarz (async-RAS) sweeps read past each block's owned rows.
``+o0`` is accepted and means the disjoint default.

Matrix-analysis imports happen lazily inside the builders so this package
never drags ``repro.matrices`` (and its ``repro.sparse`` dependency) into
import cycles.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple, Union

import numpy as np

from .core import Partition
from .rows import partition_rows, partition_rows_by_work

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sparse.csr import CSRMatrix

__all__ = [
    "available_strategies",
    "make_partition",
    "parse_partition_spec",
    "register_strategy",
    "spec_permutes",
]

#: A builder maps (A, n, param, block_size) -> (boundaries, perm-or-None).
StrategyBuilder = Callable[..., Tuple[np.ndarray, Optional[np.ndarray]]]

_REGISTRY: Dict[str, StrategyBuilder] = {}

#: Names of the registered strategies that reorder rows.
_PERMUTING: Set[str] = set()


def register_strategy(
    name: str, *, permutes: bool = False
) -> Callable[[StrategyBuilder], StrategyBuilder]:
    """Decorator registering a partition strategy under *name*.

    A builder that returns a row permutation must be registered with
    *permutes* (:func:`make_partition` checks).
    """

    def deco(fn: StrategyBuilder) -> StrategyBuilder:
        _REGISTRY[name] = fn
        if permutes:
            _PERMUTING.add(name)
        return fn

    return deco


def spec_permutes(spec: str) -> bool:
    """Whether a ``strategy[:param][+oK]`` spec's strategy reorders rows.

    Decided from the spec alone — nothing is cut — so callers that solve
    in original row order (the serve layer, an inner-sweep
    preconditioner) can refuse a permuting spec up front.
    """
    return parse_partition_spec(spec)[0] in _PERMUTING


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


#: Bare non-negative decimal — what a spec param/overlap digit string may
#: be.  Deliberately stricter than ``int()``, which tolerates whitespace,
#: signs, and underscores that would make specs ambiguous in telemetry.
_DIGITS = re.compile(r"[0-9]+")


def parse_partition_spec(spec: str) -> Tuple[str, Optional[int], int]:
    """Split a ``strategy[:param][+oK]`` spec into ``(name, param, overlap)``.

    The optional param is a positive integer whose meaning is per-strategy
    (a block size for ``uniform``/``rcm``/``clustered``, a block count for
    ``work_balanced``); the optional ``+oK`` suffix is a non-negative halo
    depth (``work_balanced:8+o2`` = 8 work-balanced blocks, each extended
    2 rows per side).  Raises :class:`ValueError` with an actionable
    message for unknown strategies, empty strategies, non-integer params,
    or trailing garbage.
    """
    if not isinstance(spec, str):
        raise ValueError(f"partition spec must be a string, got {type(spec).__name__}")
    body, plus, suffix = spec.partition("+")
    overlap = 0
    if plus:
        if not suffix.startswith("o") or not _DIGITS.fullmatch(suffix[1:]):
            raise ValueError(
                f"partition spec overlap suffix must look like '+oK' with K a "
                f"non-negative integer, got {'+' + suffix!r} in {spec!r}"
            )
        overlap = int(suffix[1:])
    name, sep, raw = body.partition(":")
    if not name:
        raise ValueError(
            f"partition spec has an empty strategy name in {spec!r}; "
            f"expected 'strategy[:param][+oK]' with strategy one of: "
            f"{', '.join(available_strategies())}"
        )
    if name not in _REGISTRY:
        raise ValueError(f"unknown partition strategy {name!r}; available: {', '.join(available_strategies())}")
    if not sep:
        return name, None, overlap
    if not _DIGITS.fullmatch(raw):
        raise ValueError(f"partition spec param must be an integer, got {raw!r} in {spec!r}")
    param = int(raw)
    if param <= 0:
        raise ValueError(f"partition spec param must be positive, got {param} in {spec!r}")
    return name, param, overlap


@register_strategy("uniform")
def _uniform(A: "CSRMatrix", n: int, param: Optional[int], block_size: int):
    return partition_rows(n, min(param or block_size, n)), None


@register_strategy("work_balanced")
def _work_balanced(A: "CSRMatrix", n: int, param: Optional[int], block_size: int):
    # Default block count: however many blocks the uniform grid would cut.
    nblocks = param if param is not None else len(partition_rows(n, min(block_size, n))) - 1
    return partition_rows_by_work(A, nblocks), None


@register_strategy("rcm", permutes=True)
def _rcm(A: "CSRMatrix", n: int, param: Optional[int], block_size: int):
    from ..matrices.rcm import reverse_cuthill_mckee

    return partition_rows(n, min(param or block_size, n)), reverse_cuthill_mckee(A)


@register_strategy("clustered", permutes=True)
def _clustered(A: "CSRMatrix", n: int, param: Optional[int], block_size: int):
    from ..matrices.clustering import cluster_reorder

    bs = min(param or block_size, n)
    return partition_rows(n, bs), cluster_reorder(A, bs)


def make_partition(
    A: "CSRMatrix",
    spec: Union[str, Partition] = "uniform",
    *,
    block_size: int = 128,
) -> Partition:
    """Build a :class:`Partition` for *A* from a ``strategy[:param][+oK]`` spec.

    *block_size* is the fallback sizing used when the spec carries no
    param (solvers pass their configured block size, so ``"uniform"`` with
    no param reproduces today's ``BlockRowView(A, block_size=...)`` cuts
    exactly).  A ready-made :class:`Partition` passes through unchanged
    after a row-count check, so every consumer can accept either form.
    """
    from .._util import check_square

    n = check_square(A.shape, "make_partition matrix")
    if isinstance(spec, Partition):
        if spec.n != n:
            raise ValueError(f"partition covers {spec.n} rows but the matrix has {n}")
        return spec
    name, param, overlap = parse_partition_spec(spec)
    boundaries, perm = _REGISTRY[name](A, n, param, int(block_size))
    if perm is not None and name not in _PERMUTING:
        raise ValueError(
            f"partition strategy {name!r} returned a row permutation but was "
            "registered without permutes=True"
        )
    return Partition(
        boundaries=boundaries, perm=perm, strategy=name, spec=spec, overlap=overlap
    )
