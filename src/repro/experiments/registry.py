"""Experiment registry: paper artifact id → runner.

``run_experiment("F9")`` regenerates Figure 9; ids are the paper's table
and figure numbers (``T`` = table, ``F`` = figure, ``X`` = extension).
Aliases map grouped artifacts (T2/T3/F5 share one ensemble study; F10/T6
share one fault study) to their shared runner.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .report import ExperimentResult

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "supports_telemetry",
]

Runner = Callable[[bool], ExperimentResult]


@dataclass(frozen=True)
class Experiment:
    """Registry entry for one paper artifact."""

    id: str
    title: str
    runner: Runner


def _build() -> Dict[str, Experiment]:
    from . import (
        exp_ablations,
        exp_dist,
        exp_extensions,
        exp_fault,
        exp_fig1,
        exp_fig6,
        exp_fig7,
        exp_fig8,
        exp_fig9,
        exp_fig11,
        exp_krylov,
        exp_ras,
        exp_stencil,
        exp_table1,
        exp_table4,
        exp_threaded,
        exp_table5,
        exp_variation,
    )

    entries = [
        Experiment("T1", "Table 1: test-matrix characteristics", exp_table1.run),
        Experiment("F1", "Figure 1: sparsity structure", exp_fig1.run),
        Experiment("T2", "Tables 2/3 + Figure 5: non-determinism study", exp_variation.run),
        Experiment("F6", "Figure 6: GS / Jacobi / async-(1) convergence", exp_fig6.run),
        Experiment("F7", "Figure 7: async-(5) vs Gauss-Seidel", exp_fig7.run),
        Experiment("T4", "Table 4: local-iteration overhead", exp_table4.run),
        Experiment("T5", "Table 5: average iteration timings", exp_table5.run),
        Experiment("F8", "Figure 8: average time per iteration", exp_fig8.run),
        Experiment("F9", "Figure 9: residual vs runtime", exp_fig9.run),
        Experiment("F10", "Figure 10 + Table 6: fault tolerance", exp_fault.run),
        Experiment("F11", "Figure 11: multi-GPU strategies", exp_fig11.run),
        Experiment("X1", "Extension: multigrid smoothing", exp_extensions.run_x1),
        Experiment("X2", "Extension: async-preconditioned CG", exp_extensions.run_x2),
        Experiment("X3", "Extension: RCM reordering", exp_extensions.run_x3),
        Experiment("X4", "Extension: silent-error detection", exp_extensions.run_x4),
        Experiment("X5", "Extension: seeded model vs real threads", exp_threaded.run),
        Experiment("X6", "Extension: multiprocess sharding scaling", exp_dist.run),
        Experiment("X7", "Extension: matrix-free stencil backend", exp_stencil.run),
        Experiment("X8", "Extension: asynchronous restricted additive Schwarz", exp_ras.run),
        Experiment("X9", "Extension: krylov preconditioning layer", exp_krylov.run),
        Experiment("A1", "Ablations: staleness / block size / order / sync-vs-async", exp_ablations.run),
    ]
    reg = {e.id: e for e in entries}
    # Grouped-artifact aliases.
    reg["T3"] = reg["T2"]
    reg["F5"] = reg["T2"]
    reg["T6"] = reg["F10"]
    for alias in ("A2", "A3", "A4", "A5"):
        reg[alias] = reg["A1"]
    return reg


EXPERIMENTS: Dict[str, Experiment] = _build()


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by paper artifact id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; options: {sorted(set(EXPERIMENTS))}")
    return EXPERIMENTS[key]


def supports_telemetry(experiment: Experiment) -> bool:
    """Whether the experiment's runner takes a ``telemetry_path`` keyword."""
    return "telemetry_path" in inspect.signature(experiment.runner).parameters


def run_experiment(
    experiment_id: str,
    *,
    quick: bool = True,
    telemetry_path: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment and return its result.

    *telemetry_path* asks the experiment to write its
    :class:`repro.runtime.RunRecorder` JSON there.  Passing it to an
    experiment that emits no telemetry is an error, not a silent no-op.
    """
    exp = get_experiment(experiment_id)
    kwargs = {}
    if telemetry_path is not None:
        if not supports_telemetry(exp):
            raise ValueError(f"experiment {exp.id} does not emit run telemetry")
        kwargs["telemetry_path"] = telemetry_path
    return exp.runner(quick, **kwargs)
