"""Row-block decomposition of a CSR matrix.

This is the data structure at the heart of the paper's method (§3.3): the
system is cut into contiguous blocks of rows ("subdomains", one per GPU
thread block), and every block's rows are split into

* a **diagonal** vector ``d`` (the Jacobi scaling),
* a **local off-diagonal** part (columns inside the block, diagonal removed)
  — what the inner Jacobi sweeps iterate against, and
* an **external** part (columns outside the block) — frozen during local
  iterations; Eq. (4)'s "global part".

:class:`BlockRowView` classifies every stored entry once
(:class:`repro.partition.EntryClassification`) and keeps the diagonal
eagerly; the stacked local and external parts are one mask selection
each, built on first use, and the per-block :class:`RowBlock` parts are
row slices of them — so the asynchronous engine's hot loop is nothing but
slim vectorized kernels, and the whole-system executors never pay for the
per-block structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .._util import as_index_array, check_square
from ..partition.core import EntryClassification, Partition
from ..partition.halo import extract_block_system, split_block_diagonal
from ..partition.rows import partition_rows
from .csr import CSRMatrix

__all__ = ["RASBlock", "RowBlock", "BlockRowView"]


@dataclass
class RowBlock:
    """One subdomain: rows ``[start, stop)`` of the system.

    Attributes
    ----------
    index:
        Position of this block in the partition.
    start, stop:
        Row range (half-open).
    diag:
        Diagonal entries of the block's rows (length ``stop - start``).
    local_off:
        CSR with the block's in-block, off-diagonal entries.  Shape is
        ``(stop - start, n)`` — the full column space — so SpMV against a
        full-length iterate needs no index translation.
    external:
        CSR with the block's out-of-block entries, same shape convention.
    """

    index: int
    start: int
    stop: int
    diag: np.ndarray
    local_off: CSRMatrix
    external: CSRMatrix
    _local_c: Optional[CSRMatrix] = field(default=None, repr=False, compare=False)

    def local_off_compressed(self) -> CSRMatrix:
        """``local_off`` with its columns shifted into block-local numbering.

        Shape ``(nrows, nrows)``: entry ``(i, j)`` couples local rows *i*
        and *j* of this block.  Multiplying it against the block-local
        iterate slice ``x[start:stop]`` is bitwise identical to multiplying
        ``local_off`` against the full-length iterate (same entries, same
        order) — this is the kernel the per-block loop uses so local
        sweeps never touch full-length vectors.
        """
        if self._local_c is None:
            lo = self.local_off
            self._local_c = CSRMatrix(
                lo.indptr, lo.indices - self.start, lo.data, (self.nrows, self.nrows), check=False
            )
        return self._local_c

    @property
    def nrows(self) -> int:
        """Number of rows in this block."""
        return self.stop - self.start

    @property
    def rows(self) -> slice:
        """Row slice of this block in the global numbering."""
        return slice(self.start, self.stop)

    @property
    def local_mass(self) -> float:
        """Sum of |entries| coupling within the block (off-diagonal only)."""
        return float(np.abs(self.local_off.data).sum())

    @property
    def external_mass(self) -> float:
        """Sum of |entries| coupling outside the block."""
        return float(np.abs(self.external.data).sum())


@dataclass
class RASBlock:
    """One *extended* subdomain: rows ``[elo, ehi)`` around owned ``[start, stop)``.

    The restricted-additive-Schwarz analogue of :class:`RowBlock`: the
    block reads and sweeps its owned rows plus up to ``overlap`` halo rows
    on each side (clipped at the system boundary), but only the owned rows
    fold back into the global iterate.

    Attributes
    ----------
    index:
        Position of this block in the partition.
    start, stop:
        Owned row range (half-open) — identical to the disjoint block's.
    elo, ehi:
        Extended row range including the halo.
    diag:
        Diagonal of the extended rows (length ``ehi - elo``).
    local_off:
        Square ``(ehi-elo, ehi-elo)`` CSR of in-range off-diagonal
        couplings in extended-local column numbering — the matrix the
        local sweeps iterate against.
    external:
        CSR of the extended rows' out-of-range entries, full column
        space — the frozen "global part" of the extended system.
    """

    index: int
    start: int
    stop: int
    elo: int
    ehi: int
    diag: np.ndarray
    local_off: CSRMatrix
    external: CSRMatrix

    @property
    def nrows(self) -> int:
        """Number of rows in the extended block."""
        return self.ehi - self.elo

    @property
    def owned(self) -> slice:
        """Owned rows in extended-local numbering."""
        return slice(self.start - self.elo, self.stop - self.elo)


class BlockRowView:
    """Precomputed row-block decomposition of a square CSR matrix.

    Parameters
    ----------
    A:
        Square :class:`CSRMatrix`, in the caller's **original** row order.
    block_size / nblocks / boundaries / partition:
        Partition specification; a :class:`repro.partition.Partition`
        wins if given, then *boundaries* (a ``[0, ..., n]`` cut array),
        otherwise a uniform partition is built from *block_size*/*nblocks*.
        When the partition carries a row permutation the view permutes the
        matrix internally: :attr:`matrix` (and every block) lives in
        partition order, :attr:`original_matrix` keeps the input, and
        :meth:`permute_vector` / :meth:`unpermute_vector` translate
        vectors so solutions and histories can be reported in original
        row order.

    Raises
    ------
    ValueError
        If any diagonal entry inside the partition is exactly zero (or not
        stored) — Jacobi sweeps would divide by zero.  The message names
        the first such row and its block.
    """

    def __init__(
        self,
        A: CSRMatrix,
        block_size: Optional[int] = None,
        *,
        nblocks: Optional[int] = None,
        boundaries: Optional[Sequence[int]] = None,
        partition: Optional[Partition] = None,
    ):
        n = check_square(A.shape, "BlockRowView matrix")
        if partition is not None:
            if block_size is not None or nblocks is not None or boundaries is not None:
                raise ValueError("partition is mutually exclusive with block_size/nblocks/boundaries")
            if partition.n != n:
                raise ValueError(f"partition covers {partition.n} rows but the matrix has {n}")
            self.partition = partition
        elif boundaries is not None:
            b = as_index_array(boundaries, "boundaries")
            if len(b) < 2 or b[0] != 0 or b[-1] != n or np.any(np.diff(b) <= 0):
                raise ValueError("boundaries must be strictly increasing from 0 to n")
            self.partition = Partition(boundaries=b, strategy="explicit")
        else:
            self.partition = Partition(
                boundaries=partition_rows(n, block_size, nblocks=nblocks), strategy="uniform"
            )
        self.original_matrix = A
        # In partition order; identical object to A when unpermuted.
        self.matrix = self.partition.permute_matrix(A)
        self.boundaries = self.partition.boundaries
        self.n = n
        #: Every stored entry labelled once (owning block, in-block,
        #: diagonal): the diagonal, the stacked parts, the coupling masses
        #: and the partition stats all come from this one pass.
        self.classification = EntryClassification(self.matrix, self.boundaries)
        zero = np.flatnonzero(self.classification.diag == 0.0)
        if len(zero):
            i = int(zero[0])
            k = int(self.classification.block_of_row[i])
            where = "" if self.perm is None else f" (row {int(self.perm[i])} of the input matrix)"
            raise ValueError(
                f"block {k} (rows [{int(self.boundaries[k])}, {int(self.boundaries[k + 1])})) "
                f"has zero diagonal entries, first at row {i}{where}; "
                "Jacobi-type local sweeps are undefined"
            )
        self._stacked: dict = {}
        self._blocks: Optional[List[RowBlock]] = None
        # Set once a stacked part is handed out as a whole-system matrix
        # (the level executor); the per-block loop only slices.
        self._ext_matrix: Optional[CSRMatrix] = None
        self._local_matrix: Optional[CSRMatrix] = None
        self._ras_blocks: Optional[List[RASBlock]] = None
        # Compiled whole-system sweep plan (repro.perf.SweepPlan), attached
        # on first engine construction and shared by every engine built on
        # this view — the decomposition is compiled once, not per engine.
        self._perf_plan = None

    def _stack(self, part: str) -> CSRMatrix:
        """The (n, n) CSR of every row's ``"external"`` or ``"local"`` entries (cached).

        One mask selection over the classified entries: global row *i*
        holds the entries of row *i* of the matrix in stored order, so a
        row slice of it is exactly the owning block's part.  The view
        keeps one copy: :attr:`blocks` slices it, and
        :meth:`external_matrix` / :meth:`local_offdiag_matrix` hand it out.
        """
        m = self._stacked.get(part)
        if m is None:
            cls = self.classification
            keep = ~cls.local if part == "external" else cls.local_off
            m = self._stacked[part] = self.matrix._mask_select(keep)
        return m

    @property
    def blocks(self) -> List[RowBlock]:
        """Per-block :class:`RowBlock` parts, built on first access (cached).

        Each block's diagonal, local and external parts are row slices of
        :meth:`diagonal_vector` and the stacked parts — views, not copies.
        The per-block loops (reference executor, threaded and multi-GPU
        simulations, block Jacobi) read them; the whole-system executors
        never build them.
        """
        if self._blocks is None:
            E, L, d = self._stack("external"), self._stack("local"), self.diagonal_vector()
            b = self.boundaries.tolist()
            self._blocks = [
                RowBlock(k, s, t, d[s:t], L.row_slice(s, t), E.row_slice(s, t))
                for k, (s, t) in enumerate(zip(b[:-1], b[1:]))
            ]
        return self._blocks

    def external_matrix(self) -> CSRMatrix:
        """All blocks' external parts as one (n, n) CSR (cached).

        Row *i* holds the entries of row *i* of A whose columns fall outside
        *i*'s block — Eq. (4)'s "global part" for the whole system at once.
        One whole-system ``matvec`` against it is bitwise identical to the
        per-block matvecs of a sweep (same entries, same order).
        """
        if self._ext_matrix is None:
            self._ext_matrix = self._stack("external")
        return self._ext_matrix

    def local_offdiag_matrix(self) -> CSRMatrix:
        """All blocks' in-block off-diagonal parts as one (n, n) CSR (cached).

        Block-diagonal by construction: one whole-system Jacobi sweep against
        it advances every block's local iteration simultaneously, bitwise
        identical to the per-block sweeps (no block reads another's rows).
        """
        if self._local_matrix is None:
            self._local_matrix = self._stack("local")
        return self._local_matrix

    def diagonal_vector(self) -> np.ndarray:
        """The system diagonal as one length-n vector."""
        return self.classification.diag

    def ras_blocks(self) -> List[RASBlock]:
        """Extended block systems for restricted-Schwarz sweeps (cached).

        One :class:`RASBlock` per partition block, carved at the
        partition's :meth:`~repro.partition.Partition.halo_ranges` with the
        shared :func:`repro.partition.extract_block_system` halo machinery.
        At ``overlap=0`` the extended system degenerates to the disjoint
        one, but engines never take this path then — the classic
        :attr:`blocks` pipeline stays in sole charge.
        """
        if self._ras_blocks is None:
            ranges = self.partition.halo_ranges()
            out: List[RASBlock] = []
            for k in range(self.nblocks):
                start, stop = int(self.boundaries[k]), int(self.boundaries[k + 1])
                elo, ehi = int(ranges[k, 0]), int(ranges[k, 1])
                local, external = extract_block_system(self.matrix, elo, ehi)
                diag, local_off = split_block_diagonal(
                    local, label=f"extended block {k} (rows [{elo}, {ehi}))"
                )
                out.append(RASBlock(k, start, stop, elo, ehi, diag, local_off, external))
            self._ras_blocks = out
        return self._ras_blocks

    @property
    def nblocks(self) -> int:
        """Number of blocks in the partition."""
        return len(self.boundaries) - 1

    @property
    def perm(self) -> Optional[np.ndarray]:
        """Row permutation (new → old) in effect, or ``None``."""
        return self.partition.perm

    def permute_vector(self, v: np.ndarray) -> np.ndarray:
        """Original-order vector → partition-order vector (identity if unpermuted)."""
        return self.partition.permute_vector(v)

    def unpermute_vector(self, v: np.ndarray) -> np.ndarray:
        """Partition-order vector → original-order vector (identity if unpermuted)."""
        return self.partition.unpermute_vector(v)

    def partition_stats(self):
        """Quality stats of the partition on this matrix (cached on the partition)."""
        return self.partition.ensure_stats(self.matrix, self.classification)

    def partition_telemetry(self) -> dict:
        """The partition's :class:`RunRecorder` annotation block, stats included.

        When this view's compiled sweep plan has run the stencil gate
        (:mod:`repro.perf.stencil`), the outcome rides along under a
        ``"stencil"`` key — offsets, plane fill and plane modes on success
        (:meth:`repro.perf.SweepPlan.stencil_telemetry`), the failure
        reason on fallback — so every dispatch decision is explainable
        from the telemetry alone.  The gate is never *forced*
        here: views whose engines never considered stencil dispatch report
        plain partition telemetry.
        """
        self.partition_stats()
        out = self.partition.telemetry()
        plan = self._perf_plan
        if plan is not None and plan.stencil_attempted:
            out["stencil"] = plan.stencil_telemetry()
        return out

    def block_sizes(self) -> np.ndarray:
        """Row counts per block."""
        return np.diff(self.boundaries)

    def block_of_row(self, i: int) -> int:
        """Index of the block owning row *i*."""
        if not (0 <= i < self.n):
            raise IndexError(f"row {i} out of range")
        return int(self.classification.block_of_row[i])

    def off_block_fraction(self) -> float:
        """Fraction of off-diagonal |mass| that couples across blocks.

        The paper's qualitative predictor (§4.1, §4.3): small values (fv1)
        mean local iterations capture almost all coupling — low run-to-run
        variation and large async-(k) gains; large values (Trefethen) mean
        the opposite.  The same figure as
        :attr:`repro.partition.PartitionStats.off_block_fraction`: both
        read :attr:`classification`.
        """
        return self.classification.off_block_fraction

    def rows_of(self, block_indices: Iterable[int]) -> np.ndarray:
        """Concatenated row indices of the given blocks."""
        b = self.boundaries
        parts = [np.arange(b[k], b[k + 1], dtype=np.int64) for k in block_indices]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BlockRowView n={self.n} nblocks={self.nblocks}>"
