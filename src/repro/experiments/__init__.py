"""Experiment harness: per-figure drivers regenerating the paper's results.

Also includes design-choice ablations (:mod:`repro.experiments.ablations`),
extension studies (:mod:`repro.experiments.extensions`), and a full
markdown report generator (:mod:`repro.experiments.report`).  Run any of
them from the command line with ``python -m repro.experiments``.
"""

from repro.experiments.runner import ExperimentScale, RunContext, run_one, run_pair
from repro.experiments import ablations, extensions, figures
from repro.experiments.report import generate_report

__all__ = [
    "run_one",
    "run_pair",
    "ExperimentScale",
    "RunContext",
    "figures",
    "ablations",
    "extensions",
    "generate_report",
]
