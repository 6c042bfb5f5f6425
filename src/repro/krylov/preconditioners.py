"""Two-stage preconditioners built from block-asynchronous sweeps.

The paper's §5 outlook — component-wise relaxation as a preconditioner —
made concrete along the lines of Thomas et al., "Two-Stage Gauss-Seidel
Preconditioners and Smoothers for Krylov Solvers on a GPU cluster": the
outer Krylov iteration is deterministic, and each preconditioner
application runs a *fixed* number of inner async-(k) sweeps on ``A z = r``
from a zero initial guess.  Because every block update is linear in the
inputs, the zero-guess sweep composition is a linear operator ``z = P r``
— exactly what a preconditioner must be.

Two contracts are enforced rather than assumed:

* **Fixed operator** — a preconditioner must be the *same* linear map at
  every outer iteration.  :class:`AsyncSweepPreconditioner` therefore
  freezes the schedule (deterministic update order, no stale reads, no
  deferred writes) and reuses one compiled engine pair across
  applications; the frozen regimes consume no randomness, so persistent
  engines are bitwise-identical to rebuilding per application.
* **Zero-guess linearity** — ``P 0 = 0`` is asserted at construction (the
  affine part of the sweep must vanish for linearity to hold); a fault
  injector or a sweep that secretly reads nonzero state would break it.

Compile-once: both preconditioners build everything expensive exactly
once.  :class:`AsyncSweepPreconditioner` holds one
:class:`~repro.sparse.BlockRowView` (whose :class:`~repro.perf.SweepPlan`
is compiled once and cached on the view) plus persistent forward/reverse
engines bound to an internal rhs buffer — repeated applications only
overwrite that buffer and sweep.  Where those engines run the
dependency-level block loop, a whole application — ``sweeps`` forward
plus ``sweeps`` reverse — runs instead as one
:class:`~repro.perf.program.LevelProgram`, whose levels cross the sweep
boundaries the way the paper's barrier-free kernel does; it is cached on
the plan, so every preconditioner on the view compiles it once.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from .._util import check_finite
from ..core.engine import AsyncEngine
from ..core.schedules import AsyncConfig
from ..partition import make_partition, parse_partition_spec, spec_permutes
from ..solvers.scaling import estimate_tau
from ..sparse import BlockRowView, CSRMatrix

__all__ = [
    "Preconditioner",
    "AsyncSweepPreconditioner",
    "JacobiPreconditioner",
]

#: Update orders that are deterministic and consume no randomness; any
#: other requested order is frozen to "sequential".
_DETERMINISTIC_ORDERS = ("sequential", "reversed", "synchronous")

#: Safety margins applied to Lanczos eigenvalue estimates (the estimator
#: approaches the extremes from inside); same convention as ChebyshevSolver.
_LANCZOS_MARGIN = (0.9, 1.05)


@runtime_checkable
class Preconditioner(Protocol):
    """A fixed linear operator ``z = P r`` approximating ``A⁻¹``.

    Any callable mapping a residual vector to a vector of the same shape
    satisfies the protocol structurally; implementations here also carry a
    ``name`` used in telemetry/method strings, and may offer
    ``spectrum_bounds()`` returning a provable inclusion interval for the
    eigenvalues of ``P A`` (consumed by the second-order Richardson
    solver's automatic parameter choice).
    """

    name: str

    def __call__(self, r: np.ndarray) -> np.ndarray: ...


class AsyncSweepPreconditioner:
    """``M⁻¹ ≈`` a fixed number of async-(k) sweeps on ``A z = r``.

    Parameters
    ----------
    A:
        The system matrix (SPD for the CG use; any diagonally dominant
        matrix for Richardson/GMRES).
    sweeps:
        Global sweeps per application (1–3 are typical).
    config:
        Asynchronism parameters.  Under ``freeze=True`` (the default) the
        schedule is forced deterministic: ``stale_read_prob=0``,
        ``deferred_write_prob=0``, ``seed=0``, and the update order is
        kept only if already deterministic (``"sequential"``,
        ``"reversed"`` or ``"synchronous"``), else forced to
        ``"sequential"``.  The ``"synchronous"`` order is the *snapshot*
        regime: with ``local_iterations=1`` each sweep is exactly one
        damped-Jacobi step, every sweep runs whole (stencil, or one-level
        ``levels``: γ ≡ 0 is bitwise-exact for them), and :meth:`spectrum_bounds`
        can bound the spectrum of ``P A`` analytically.
    symmetrize:
        Apply a forward sweep set followed by a reversed one (an SSOR-like
        pairing).  The one-sided operator's asymmetry breaks CG on
        strongly graded systems; the forward/reverse pair is robust.
        Under the ``"synchronous"`` order both directions are the same
        operator, so symmetrization just doubles the sweep count.
    freeze:
        ``True`` (default) for preconditioner semantics as above.
        ``False`` keeps *config* verbatim — including nondeterministic
        orders — for multigrid-smoother use via :meth:`smooth`; the
        zero-guess application :meth:`__call__` is unavailable because a
        randomized schedule is not a fixed operator.
    view:
        Optional pre-built :class:`BlockRowView` of *A* to share a
        compiled :class:`~repro.perf.SweepPlan` (e.g. the serve layer's
        ``PlanCache`` entry).  Its partition must match the config's
        ``block_size``/``partition``; without one the view is cut from
        ``config.partition`` (a non-permuting, non-overlapped spec).

    Examples
    --------
    >>> from repro import ConjugateGradientSolver, get_matrix, default_rhs
    >>> A = get_matrix("fv1"); b = default_rhs(A)
    >>> M = AsyncSweepPreconditioner(A, sweeps=2)
    >>> pcg = ConjugateGradientSolver(preconditioner=M)
    """

    def __init__(
        self,
        A: CSRMatrix,
        sweeps: int = 2,
        config: Optional[AsyncConfig] = None,
        *,
        symmetrize: bool = True,
        freeze: bool = True,
        view: Optional[BlockRowView] = None,
    ):
        if sweeps < (1 if freeze else 0):
            raise ValueError("sweeps must be >= 1" if freeze else "sweeps must be >= 0")
        check_finite(A.data, "A")
        base = config if config is not None else AsyncConfig(local_iterations=2, block_size=256)
        if parse_partition_spec(base.partition)[2] > 0:
            raise ValueError(
                "AsyncSweepPreconditioner does not support Schwarz inner sweeps; "
                f"drop the '+oK' suffix from partition {base.partition!r} "
                "(overlap belongs to the outer solve)"
            )
        if spec_permutes(base.partition):
            raise ValueError(
                "AsyncSweepPreconditioner applies in original row order; "
                f"partition {base.partition!r} permutes rows — use a "
                "non-permuting strategy (uniform, work_balanced)"
            )
        if freeze:
            order = base.order if base.order in _DETERMINISTIC_ORDERS else "sequential"
            self.config = dataclasses.replace(
                base, order=order, stale_read_prob=0.0, deferred_write_prob=0.0, seed=0
            )
        else:
            self.config = base
        reverse = "sequential" if self.config.order == "reversed" else "reversed"
        if self.config.order == "synchronous":
            reverse = "synchronous"  # snapshot sweeps have no direction
        self.reverse_config = dataclasses.replace(self.config, order=reverse)
        self.sweeps = sweeps
        self.symmetrize = symmetrize
        self.frozen = freeze
        self.A = A
        if view is None:
            part = make_partition(A, self.config.partition, block_size=self.config.block_size)
            view = BlockRowView(A, partition=part)
        self.view = view
        self._forward: Optional[AsyncEngine] = None
        self._reverse: Optional[AsyncEngine] = None
        self._program = None
        if freeze:
            # Compile-once: both engines bind to an internal rhs buffer and
            # are reused by every application (the frozen schedule draws no
            # randomness, so reuse is bitwise-equal to rebuilding).  The
            # executors read the rhs through live views/attributes, so
            # overwriting the buffer in place rebinds them.
            self._rhs = np.zeros(self.view.n)
            self._forward = AsyncEngine(self.view, self._rhs, self.config)
            assert self._forward.b is self._rhs  # in-place rebinding contract
            if symmetrize:
                self._reverse = AsyncEngine(self.view, self._rhs, self.reverse_config)
            self._program = self._compile_program()
            self._assert_zero_guess_linearity()

    @property
    def name(self) -> str:
        sym = ",sym" if self.symmetrize else ""
        return f"async({self.config.local_iterations}x{self.sweeps}{sym})"

    @property
    def backend(self) -> str:
        """Backend the forward inner sweeps dispatch to (frozen mode only)."""
        if self._forward is None:
            raise ValueError("backend is only resolved for frozen preconditioners")
        return self._forward.backend

    @property
    def levels_per_apply(self) -> Optional[int]:
        """Dependency levels of one application's level program, or ``None``.

        ``None`` where the engines run whole sweeps (the snapshot
        regime, on stencil or one-level ``levels``) or the forced
        per-block reference loop.
        """
        return None if self._program is None else self._program.nlevels

    def decisions(self) -> dict:
        """Why an application costs what it does: name, backend, levels per application."""
        return {
            "name": self.name,
            "backend": self.backend,
            "levels_per_apply": self.levels_per_apply,
        }

    def _engines(self):
        return [e for e in (self._forward, self._reverse) if e is not None]

    def _compile_program(self):
        """One application as one level program, where the engines read live on ``"levels"``.

        A frozen sequential or reversed schedule reads live memory at
        every position (γ = 1, no staleness), so the application is a
        straight-line sequence of block updates: the forward engine's
        order ``sweeps`` times, then the reverse one's.  The synchronous
        order reads the snapshot (γ = 0) and keeps its whole sweeps.
        """
        engines = self._engines()
        if any(e.backend != "levels" or np.any(e.scheduler.gamma_profile() < 1.0) for e in engines):
            return None
        orders = [
            e.scheduler.order_for_sweep(t, e.rng) for e in engines for t in range(self.sweeps)
        ]
        cfg = self.config
        return self._forward.plan.level_program(orders, cfg.local_iterations, cfg.omega)

    def _assert_zero_guess_linearity(self) -> None:
        # The zero-guess sweep composition is linear iff its affine part
        # vanishes: P applied to the zero residual must return exactly 0.
        z = self._apply(np.zeros(self.view.n))
        if np.any(z != 0.0):
            raise AssertionError(
                "zero-guess linearity violated: P(0) != 0 — the inner sweep "
                "carries an affine term and cannot serve as a preconditioner"
            )

    def _apply(self, r: np.ndarray) -> np.ndarray:
        if self._program is not None:
            z = self._program.run(np.zeros(self.view.n), r)
            # The engines account for the sweeps the program ran for them.
            for engine in self._engines():
                engine.update_counts += self.sweeps
                engine.sweep_index += self.sweeps
            return z
        self._rhs[:] = r
        z = np.zeros_like(self._rhs)
        for _ in range(self.sweeps):
            z = self._forward.sweep(z)
        if self._reverse is not None:
            for _ in range(self.sweeps):
                z = self._reverse.sweep(z)
        return z

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: approximate ``A z = r`` from zero."""
        if not self.frozen:
            raise ValueError(
                "an unfrozen AsyncSweepPreconditioner (freeze=False) is a smoother, "
                "not a fixed linear operator; use smooth(x, b) or construct with freeze=True"
            )
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.view.n,):
            raise ValueError(f"residual must have shape ({self.view.n},), got {r.shape}")
        return self._apply(r)

    def smooth(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Run ``sweeps`` engine sweeps on ``A x = b`` from the current *x*.

        Multigrid-smoother semantics: a fresh engine per call (sharing the
        compiled plan through the view) so the smoother is a fixed-length
        operator per visit while a nondeterministic schedule stays
        nondeterministic across seeds, exactly as on hardware.
        """
        engine = AsyncEngine(self.view, b, self.config)
        for _ in range(self.sweeps):
            x = engine.sweep(x)
        return x

    def spectrum_bounds(
        self,
        *,
        steps: int = 150,
        lambda_bounds: Optional[Tuple[float, float]] = None,
    ) -> Tuple[float, float]:
        """Inclusion interval for the eigenvalues of ``P A`` (snapshot regime).

        Only available for the analytically tractable configuration —
        ``order="synchronous"`` with ``local_iterations=1`` — where each
        sweep is one damped-Jacobi step ``x ← x + ω D⁻¹ (b − A x)`` and
        ``M`` zero-guess sweeps give (in ``D^{1/2}`` coordinates)

            eig(P A) = { 1 − (1 − ω λ)^M : λ ∈ eig(D⁻¹A) }.

        *lambda_bounds* supplies known ``eig(D⁻¹A)`` bounds; otherwise
        they are Lanczos-estimated with the standard safety margins.
        Raises if the resulting interval is not strictly positive (``P``
        would not be positive definite — lower ``omega``).
        """
        cfg = self.config
        if cfg.order != "synchronous" or cfg.local_iterations != 1:
            raise ValueError(
                "spectrum bounds are only available in the snapshot regime "
                "(order='synchronous', local_iterations=1); got "
                f"order={cfg.order!r}, local_iterations={cfg.local_iterations}"
            )
        if lambda_bounds is None:
            ts = estimate_tau(self.A, steps=steps)
            lo, hi = _LANCZOS_MARGIN[0] * ts.lambda_min, _LANCZOS_MARGIN[1] * ts.lambda_max
        else:
            lo, hi = lambda_bounds
        if not (0.0 < lo <= hi):
            raise ValueError(f"need 0 < lambda_min <= lambda_max, got ({lo}, {hi})")
        m = self.sweeps * (2 if self.symmetrize else 1)
        lam = np.linspace(lo, hi, 4097)
        f = 1.0 - (1.0 - cfg.omega * lam) ** m
        mu_lo, mu_hi = float(f.min()), float(f.max())
        if mu_lo <= 0.0:
            raise ValueError(
                f"preconditioned spectrum is not positive on [{lo:.3g}, {hi:.3g}] "
                f"(min eigenvalue bound {mu_lo:.3g}); lower omega below 2/lambda_max"
            )
        return mu_lo, mu_hi


class JacobiPreconditioner:
    """The diagonal-scaling baseline ``z = D⁻¹ r``.

    The degenerate two-stage operator (zero inner coupling); its
    preconditioned spectrum is ``eig(D⁻¹A)`` itself, so
    :meth:`spectrum_bounds` is just the (margined) Lanczos estimate.
    """

    name = "jacobi"

    def __init__(self, A: CSRMatrix):
        d = A.diagonal()
        if np.any(d <= 0.0):
            raise ValueError("Jacobi preconditioning requires a positive diagonal")
        self.A = A
        self.inv_diag = 1.0 / d

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.inv_diag * r

    def spectrum_bounds(
        self,
        *,
        steps: int = 150,
        lambda_bounds: Optional[Tuple[float, float]] = None,
    ) -> Tuple[float, float]:
        """Margined Lanczos bounds on ``eig(D⁻¹A)``."""
        if lambda_bounds is not None:
            return lambda_bounds
        ts = estimate_tau(self.A, steps=steps)
        return _LANCZOS_MARGIN[0] * ts.lambda_min, _LANCZOS_MARGIN[1] * ts.lambda_max
