"""The experiment harness: one module per figure of the paper's evaluation.

Every experiment is a plain function from an :class:`ExperimentConfig` (or a
prebuilt :class:`ExperimentContext`) to a result object that knows how to
render itself as the table/series the corresponding figure plots.  The
figure drivers in ``benchmarks/`` call these functions and write their
tables to ``benchmarks/results/``; :mod:`repro.experiments.runner` runs
everything and prints a full report.
"""

from repro.experiments.config import ExperimentConfig, ExperimentContext
from repro.experiments.graph_creation import run_graph_creation
from repro.experiments.crossover import run_crossover
from repro.experiments.per_level import run_per_level
from repro.experiments.scaling import run_strong_scaling, run_weak_scaling
from repro.experiments.ablation import run_selection_ablation, run_balance_ablation

__all__ = [
    "ExperimentConfig",
    "ExperimentContext",
    "run_graph_creation",
    "run_crossover",
    "run_per_level",
    "run_strong_scaling",
    "run_weak_scaling",
    "run_selection_ablation",
    "run_balance_ablation",
]
