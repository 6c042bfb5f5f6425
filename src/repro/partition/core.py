"""The :class:`Partition` object — one first-class row-block decomposition.

The paper's async-(k) method is defined entirely in terms of a row-block
decomposition (§3.3's "subdomains", one per GPU thread block), and its
results show the decomposition is decisive: matrices whose diagonal blocks
are nearly diagonal gain little from local sweeps while fv1–fv3 gain a
lot.  A :class:`Partition` bundles everything that defines one such
decomposition — the boundary array, an optional symmetric row permutation
(RCM / clustering reorderings change *which* couplings are local), the
strategy that built it, and cached quality statistics — so views, sweep
plans, engines, and experiments all speak about the same object instead of
re-deriving block metadata from raw boundary arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from .._util import as_index_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sparse.csr import CSRMatrix

__all__ = ["EntryClassification", "Partition", "PartitionStats", "compute_stats"]


@dataclass(frozen=True)
class PartitionStats:
    """Quality statistics of a partition, measured on a concrete matrix.

    All quantities are computed in *partition order* (after any row
    permutation has been applied), since that is the order the blocks see.
    """

    #: Rows per block.
    block_rows: np.ndarray
    #: Stored entries per block (each block's full rows).
    block_nnz: np.ndarray
    #: ``max / mean`` of :attr:`block_nnz` — the GPU load-skew measure
    #: (1.0 = perfectly work-balanced thread blocks).
    imbalance: float
    #: Fraction of off-diagonal ``|mass|`` coupling across blocks — the
    #: paper's §4.1/§4.3 predictor of async-(k) gains.
    off_block_fraction: float
    #: Stored in-block entries over total in-block capacity
    #: ``sum(rows_k^2)`` — how "dense" the diagonal blocks are.
    diag_block_density: float
    #: The overlap depth the halo figures below were measured at
    #: (0 = disjoint blocks; the fields below are then identically zero).
    overlap: int = 0
    #: Total halo rows across all blocks — rows a block reads and iterates
    #: but does not own (duplicated work in a restricted-Schwarz sweep).
    overlap_rows: int = 0
    #: Stored entries of those halo rows summed over blocks — the extra
    #: gather/compute volume overlap buys its convergence gains with.
    duplicated_nnz: int = 0
    #: Fraction of the off-block coupling ``|mass|`` whose column falls
    #: inside the owning row's *extended* block — the share of Eq. (4)'s
    #: frozen "global part" that overlap converts into locally-iterated
    #: coupling.  The direct predictor of where async-RAS pays.
    halo_captured_fraction: float = 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly scalar summary (no per-block arrays).

        Overlap figures appear only for overlapped partitions, so the
        ``overlap=0`` summary is exactly the historical document.
        """
        out = {
            "imbalance": float(self.imbalance),
            "off_block_fraction": float(self.off_block_fraction),
            "diag_block_density": float(self.diag_block_density),
            "block_rows_min": int(self.block_rows.min()),
            "block_rows_max": int(self.block_rows.max()),
            "block_nnz_min": int(self.block_nnz.min()),
            "block_nnz_max": int(self.block_nnz.max()),
        }
        if self.overlap > 0:
            out.update(
                overlap=int(self.overlap),
                overlap_rows=int(self.overlap_rows),
                duplicated_nnz=int(self.duplicated_nnz),
                halo_captured_fraction=float(self.halo_captured_fraction),
            )
        return out


class EntryClassification:
    """Every stored entry of a partition-order matrix, labelled once.

    The one place the package sorts a matrix's entries by owning block:
    a few vectorised passes over the stored entries label every entry as
    in-block (its column inside its row's block) or external, and as
    diagonal or not.  :class:`repro.sparse.BlockRowView` takes its
    diagonal, its stacked parts and its coupling masses from here,
    :func:`compute_stats` its :class:`PartitionStats`, and the compiled
    sweep plan (:mod:`repro.perf`) its row-to-block map and per-block
    external counts — so no layer re-derives the decomposition.

    Attributes
    ----------
    boundaries:
        The ``[0, ..., n]`` cut array classified against.
    block_of_row:
        ``(n,)`` owning block of every row.
    block_nnz:
        ``(nblocks,)`` stored entries per block.
    local:
        ``(nnz,)`` bool: the entry's column lies inside its row's block
        (diagonal entries included).
    on_diag:
        ``(nnz,)`` bool: the entry is its row's diagonal.
    ennz:
        ``(nblocks,)`` external (out-of-block) entries per block.
    diag:
        ``(n,)`` stored diagonal, ``0.0`` where a row stores none.
    external_mass, local_mass:
        Sums of ``|a_ij|`` over the external entries and over the
        in-block off-diagonal entries, each one whole-array sum.
    """

    def __init__(self, A: "CSRMatrix", boundaries: np.ndarray):
        b = np.asarray(boundaries, dtype=np.int64)
        sizes = np.diff(b)
        self.boundaries = b
        self.block_of_row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        bounds_nnz = A.indptr[b]
        self.block_nnz = np.diff(bounds_nnz)
        cols = A.indices
        rows = A._expanded_rows()
        self.local = self.block_of_row[cols] == self.entry_block()
        self.on_diag = cols == rows
        ext = np.flatnonzero(~self.local)
        self.ennz = np.diff(np.searchsorted(ext, bounds_nnz))
        on = np.flatnonzero(self.on_diag)
        self.diag = np.zeros(len(self.block_of_row))
        self.diag[rows[on]] = A.data[on]
        absdata = np.abs(A.data)
        self.external_mass = float(absdata[ext].sum())
        # np.compress selects what boolean indexing would, in about half
        # the time on a mask this dense.
        self.local_mass = float(np.compress(self.local_off, absdata).sum())

    def entry_block(self) -> np.ndarray:
        """``(nnz,)`` owning block of every stored entry (rebuilt per call, not kept)."""
        return np.repeat(np.arange(len(self.block_nnz), dtype=np.int64), self.block_nnz)

    @property
    def local_off(self) -> np.ndarray:
        """``(nnz,)`` bool: in-block off-diagonal entries."""
        return self.local & ~self.on_diag

    @property
    def off_block_fraction(self) -> float:
        """Fraction of off-diagonal ``|mass|`` coupling across blocks."""
        total = self.external_mass + self.local_mass
        return self.external_mass / total if total > 0 else 0.0

    def stats(self, A: "CSRMatrix", overlap: int = 0) -> PartitionStats:
        """:class:`PartitionStats` of the partition on *A* (the classified matrix).

        With *overlap* > 0 the halo figures (duplicated rows/nnz, captured
        external coupling) are measured against each block's clipped
        extended range ``[start - overlap, stop + overlap)``.
        """
        boundaries = self.boundaries
        n = int(boundaries[-1])
        block_rows = np.diff(boundaries)
        block_nnz = self.block_nnz
        capacity = float((block_rows.astype(np.float64) ** 2).sum())
        mean_nnz = float(block_nnz.mean()) if block_nnz.size else 0.0
        overlap = int(overlap)
        overlap_rows = 0
        duplicated_nnz = 0
        halo_captured = 0.0
        if overlap > 0:
            elo = np.maximum(boundaries[:-1] - overlap, 0)
            ehi = np.minimum(boundaries[1:] + overlap, n)
            overlap_rows = int((ehi - elo - block_rows).sum())
            duplicated_nnz = int(
                (A.indptr[boundaries[:-1]] - A.indptr[elo]).sum()
                + (A.indptr[ehi] - A.indptr[boundaries[1:]]).sum()
            )
            entry_block = self.entry_block()
            cols = A.indices
            captured = ~self.local & (cols >= elo[entry_block]) & (cols < ehi[entry_block])
            captured_mass = float(np.abs(A.data[captured]).sum())
            if self.external_mass > 0:
                halo_captured = captured_mass / self.external_mass
        return PartitionStats(
            block_rows=block_rows,
            block_nnz=block_nnz,
            imbalance=float(block_nnz.max()) / mean_nnz if mean_nnz > 0 else 1.0,
            off_block_fraction=self.off_block_fraction,
            diag_block_density=float(np.count_nonzero(self.local)) / capacity if capacity > 0 else 0.0,
            overlap=overlap,
            overlap_rows=overlap_rows,
            duplicated_nnz=duplicated_nnz,
            halo_captured_fraction=halo_captured,
        )


def compute_stats(
    A: "CSRMatrix", boundaries: np.ndarray, overlap: int = 0
) -> PartitionStats:
    """Measure partition quality on *A*, assumed already in partition order.

    Classifies the stored entries once (:class:`EntryClassification`):
    in-block vs external by column range, the diagonal excluded from the
    coupling-mass ratio — the very figures
    :meth:`repro.sparse.BlockRowView.off_block_fraction` reads.
    """
    return EntryClassification(A, boundaries).stats(A, overlap)


@dataclass(eq=False)
class Partition:
    """A contiguous row-block decomposition, optionally under a reordering.

    Attributes
    ----------
    boundaries:
        Strictly increasing ``int64`` cut array ``[0, b1, ..., n]`` —
        block *k* owns rows ``[boundaries[k], boundaries[k+1])`` of the
        (possibly permuted) system, so the blocks cover ``[0, n)`` exactly
        once.
    perm:
        Optional symmetric row permutation (new index → old index, the
        convention of :func:`repro.matrices.rcm.permute_symmetric`).
        ``None`` means natural order.  Consumers holding a permuted system
        use :meth:`permute_vector` / :meth:`unpermute_vector` to translate
        between orderings.
    strategy:
        Name of the registry strategy that built this partition
        (``"uniform"``, ``"work_balanced"``, ``"rcm"``, ``"clustered"``,
        or ``"explicit"`` for raw boundary arrays).
    spec:
        The ``strategy[:param]`` string this partition was parsed from,
        for telemetry round-tripping.
    stats:
        Cached :class:`PartitionStats`, filled lazily by
        :meth:`ensure_stats` (they need a concrete matrix).
    overlap:
        Halo depth in rows.  Block *k*'s *extended* range is
        ``[boundaries[k] - overlap, boundaries[k+1] + overlap)`` clipped to
        ``[0, n)`` — the restricted-Schwarz subdomain it reads and sweeps,
        while writes stay restricted to the owned (disjoint) range.
        ``overlap=0`` is exactly the paper's disjoint decomposition.
    """

    boundaries: np.ndarray
    perm: Optional[np.ndarray] = None
    strategy: str = "explicit"
    spec: Optional[str] = None
    stats: Optional[PartitionStats] = None
    overlap: int = 0
    _inv_perm: Optional[np.ndarray] = field(default=None, repr=False)
    _permuted_source: Any = field(default=None, repr=False)
    _permuted_matrix: Any = field(default=None, repr=False)

    def __post_init__(self) -> None:
        b = as_index_array(self.boundaries, "boundaries")
        if len(b) < 2 or b[0] != 0 or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing from 0 to n")
        self.boundaries = b
        n = int(b[-1])
        if self.perm is not None:
            p = as_index_array(self.perm, "perm")
            if len(p) != n or not np.array_equal(np.bincount(p, minlength=n), np.ones(n, dtype=np.int64)):
                raise ValueError("perm must be a permutation of range(n)")
            self.perm = p
        if not isinstance(self.overlap, (int, np.integer)) or isinstance(self.overlap, bool):
            raise TypeError(f"overlap must be an int, got {type(self.overlap).__name__}")
        if self.overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {self.overlap}")
        self.overlap = int(self.overlap)
        if self.spec is None:
            self.spec = self.strategy

    @property
    def n(self) -> int:
        """Number of rows covered by the partition."""
        return int(self.boundaries[-1])

    @property
    def nblocks(self) -> int:
        """Number of blocks."""
        return len(self.boundaries) - 1

    def block_sizes(self) -> np.ndarray:
        """Row counts per block."""
        return np.diff(self.boundaries)

    def halo_ranges(self) -> np.ndarray:
        """``(nblocks, 2)`` extended ``[elo, ehi)`` ranges, clipped to ``[0, n)``.

        Row *k*'s owned range widened by :attr:`overlap` on each side —
        the restricted-Schwarz subdomain.  With ``overlap=0`` this is just
        the boundary pairs.
        """
        lo = np.maximum(self.boundaries[:-1] - self.overlap, 0)
        hi = np.minimum(self.boundaries[1:] + self.overlap, self.n)
        return np.stack([lo, hi], axis=1)

    @property
    def inverse_perm(self) -> Optional[np.ndarray]:
        """Inverse permutation (old index → new index), or ``None``."""
        if self.perm is None:
            return None
        if self._inv_perm is None:
            inv = np.empty(self.n, dtype=np.int64)
            inv[self.perm] = np.arange(self.n, dtype=np.int64)
            self._inv_perm = inv
        return self._inv_perm

    def permute_matrix(self, A: "CSRMatrix") -> "CSRMatrix":
        """*A* brought into partition order (cached per source matrix).

        Identity (the same object) when :attr:`perm` is ``None``.
        """
        if self.perm is None:
            return A
        if self._permuted_source is not A:
            from ..matrices.rcm import permute_symmetric

            self._permuted_matrix = permute_symmetric(A, self.perm)
            self._permuted_source = A
        return self._permuted_matrix

    def permute_vector(self, v: np.ndarray) -> np.ndarray:
        """Original-order vector → partition-order vector."""
        return v if self.perm is None else np.asarray(v)[self.perm]

    def unpermute_vector(self, v: np.ndarray) -> np.ndarray:
        """Partition-order vector → original-order vector."""
        if self.perm is None:
            return v
        out = np.empty_like(np.asarray(v))
        out[self.perm] = v
        return out

    def ensure_stats(
        self, A: "CSRMatrix", classification: Optional[EntryClassification] = None
    ) -> PartitionStats:
        """Compute (once) and cache quality stats on *A*.

        *A* must be in **partition order** — pass ``permute_matrix(A)``
        (or a :class:`~repro.sparse.BlockRowView`'s ``.matrix``) when the
        partition carries a permutation.  A *classification* of *A* on
        this partition, when the caller holds one, is reused instead of
        classifying the entries again.
        """
        if self.stats is None:
            if classification is None:
                classification = EntryClassification(A, self.boundaries)
            self.stats = classification.stats(A, self.overlap)
        return self.stats

    def fingerprint(self) -> str:
        """Stable content digest of this decomposition.

        Hashes the boundary array, the optional row permutation, and the
        strategy/spec identity — everything that determines which blocks
        exist and in what order they see the rows.  Two partitions with
        the same fingerprint compile to interchangeable
        :class:`repro.perf.SweepPlan` structures on the same matrix, which
        is what the structure-keyed cache of :mod:`repro.serve` relies on.
        """
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.strategy}|{self.spec}|".encode())
        h.update(self.boundaries.tobytes())
        h.update(b"|perm|")
        if self.perm is not None:
            h.update(self.perm.tobytes())
        if self.overlap > 0:
            # Appended only when overlapped so overlap=0 digests match every
            # fingerprint ever produced before overlap existed.
            h.update(f"|overlap|{self.overlap}".encode())
        return h.hexdigest()

    def telemetry(self) -> Dict[str, Any]:
        """JSON-friendly annotation block for :class:`RunRecorder`.

        Always includes strategy/spec/nblocks/permuted; quality stats are
        merged in when :meth:`ensure_stats` has run.
        """
        out: Dict[str, Any] = {
            "strategy": self.strategy,
            "spec": self.spec,
            "nblocks": self.nblocks,
            "permuted": self.perm is not None,
        }
        if self.overlap > 0:
            out["overlap"] = self.overlap
        if self.stats is not None:
            out.update(self.stats.summary())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = " perm" if self.perm is not None else ""
        if self.overlap > 0:
            tag += f" overlap={self.overlap}"
        return f"<Partition {self.strategy} n={self.n} nblocks={self.nblocks}{tag}>"
