"""Ensemble statistics for the non-determinism study (paper §4.1).

Asynchronous runs are not deterministic: each hardware schedule produces a
different approximation sequence.  The paper quantifies this over 1000
solver runs (its Tables 2/3 and Figure 5); this subpackage provides the
run-ensemble driver and the statistics it reports — mean/min/max residuals,
absolute and relative variation, variance, standard deviation and standard
error, all per global-iteration checkpoint.
"""

from .ensembles import run_ensemble
from .runstats import EnsembleStats

__all__ = ["EnsembleStats", "run_ensemble"]
