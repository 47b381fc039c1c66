"""Run every experiment and print the full report.

``python -m repro.experiments.runner`` regenerates all figure series with the
default (reduced) configuration; ``--paper`` switches to the paper's full-size
configuration (slow in pure Python; the world-stepped exchange engine is what
keeps it tractable at all).  ``--figures fig07_crossover,fig12_strong_scaling``
restricts the run to a subset — handy for docs examples that only need one
figure.  The same functions are called by the figure drivers in
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Sequence

from repro.experiments.ablation import run_balance_ablation, run_selection_ablation
from repro.experiments.config import ExperimentConfig, ExperimentContext
from repro.experiments.crossover import run_crossover
from repro.experiments.graph_creation import run_graph_creation
from repro.experiments.per_level import run_per_level
from repro.experiments.scaling import run_strong_scaling, run_weak_scaling
from repro.utils.errors import ValidationError

#: Every figure the runner knows, in report order.  Weak scaling and the
#: ablations are the expensive tail; ``--figures`` leaves them out.
FIGURE_KEYS = (
    "fig06_graph_creation",
    "fig07_crossover",
    "fig08_11_per_level",
    "fig12_strong_scaling",
    "fig13_weak_scaling",
    "ablation_selection",
    "ablation_balance",
)

#: Figures that need the shared (hierarchy-bearing) experiment context.
_CONTEXT_FIGURES = frozenset({
    "fig07_crossover", "fig08_11_per_level", "fig12_strong_scaling",
    "ablation_selection", "ablation_balance",
})


def run_all_experiments(config: ExperimentConfig | None = None, *,
                        figures: Sequence[str] | None = None) -> Dict[str, object]:
    """Run the selected experiments once and return result objects keyed by figure.

    ``figures`` restricts the run to a subset of :data:`FIGURE_KEYS` (defaults
    to all of them); the expensive AMG-hierarchy context is only built when a
    selected figure needs it, so e.g. ``figures=["fig06_graph_creation"]``
    runs in seconds.
    """
    config = config or ExperimentConfig.from_environment()
    selected = list(figures) if figures is not None else list(FIGURE_KEYS)
    unknown = [key for key in selected if key not in FIGURE_KEYS]
    if unknown:
        raise ValidationError(
            f"unknown figure keys {unknown}; valid keys: {', '.join(FIGURE_KEYS)}"
        )
    context = (ExperimentContext.build(config)
               if any(key in _CONTEXT_FIGURES for key in selected) else None)
    runners = {
        "fig06_graph_creation": lambda: run_graph_creation(config),
        "fig07_crossover": lambda: run_crossover(context),
        "fig08_11_per_level": lambda: run_per_level(context),
        "fig12_strong_scaling": lambda: run_strong_scaling(context),
        "fig13_weak_scaling": lambda: run_weak_scaling(config),
        "ablation_selection": lambda: run_selection_ablation(context),
        "ablation_balance": lambda: run_balance_ablation(context),
    }
    results: Dict[str, object] = {}
    for key in FIGURE_KEYS:  # preserve report order regardless of input order
        if key in selected:
            results[key] = runners[key]()
    return results


def render_report(results: Dict[str, object]) -> str:
    """Format every result object into one plain-text report."""
    sections = []
    order = [
        ("fig06_graph_creation", lambda r: r.to_table()),
        ("fig07_crossover", lambda r: r.to_table()),
        ("fig08_11_per_level", lambda r: "\n\n".join(
            [r.table_fig8(), r.table_fig9(), r.table_fig10(), r.table_fig11()])),
        ("fig12_strong_scaling", lambda r: r.to_table()),
        ("fig13_weak_scaling", lambda r: r.to_table()),
        ("ablation_selection", lambda r: r.to_table()),
        ("ablation_balance", lambda r: r.to_table()),
    ]
    for key, renderer in order:
        if key in results:
            sections.append(renderer(results[key]))
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Reproduce the paper's evaluation figures")
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's full-size configuration (slow)")
    parser.add_argument("--figures", type=str, default=None, metavar="KEYS",
                        help="comma-separated figure keys to run "
                             f"(default: all; valid: {', '.join(FIGURE_KEYS)})")
    args = parser.parse_args(argv)
    config = ExperimentConfig.paper() if args.paper else ExperimentConfig.from_environment()
    figures = args.figures.split(",") if args.figures else None
    results = run_all_experiments(config, figures=figures)
    print(render_report(results))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
