"""Experiment harness reproducing the paper's evaluation (§6).

:mod:`repro.experiments.scenario` defines a declarative experiment
configuration (network behaviour, churn model, FD QoS, algorithm, duration,
seed); :mod:`repro.experiments.runner` builds the full simulated system from
a configuration, runs it, and returns the paper's metrics;
:mod:`repro.experiments.figures` encodes the exact parameter grids of
Figures 3-8 together with the paper's reported numbers, so the CLI's
``--figure`` sweeps (and RESULTS.md) print paper-vs-measured side by side;
:mod:`repro.experiments.orchestrator` runs a grid of cells across worker
processes and returns their results in input order;
:mod:`repro.experiments.report` renders ASCII tables.
"""

from repro.experiments.orchestrator import run_cells
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.scenario import ExperimentConfig, LossyNetwork

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "LossyNetwork",
    "format_table",
    "run_cells",
    "run_experiment",
]
