"""Shared fixtures of the figure and ablation drivers.

The drivers regenerate the tables under ``benchmarks/results/``; they time
nothing (seconds are measured by ``bench/`` alone).  Every figure needs the
same expensive ingredients — the AMG hierarchy of the reduced-scale rotated
anisotropic diffusion problem and its per-level communication profiles — so
they are built once per session here.
Set ``REPRO_PAPER_SCALE=1`` to run the benchmarks at the paper's full problem
size (524 288 rows on 2048 simulated ranks); expect several minutes of setup.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
# The test oracles (``from oracles import ...``), for the gates that check
# a driver's output the way the test suite does.
_TESTS = os.path.join(os.path.dirname(_SRC), "tests")
if _TESTS not in sys.path:
    sys.path.append(_TESTS)

from repro.experiments.config import ExperimentConfig, ExperimentContext  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """The configuration every benchmark runs with."""
    return ExperimentConfig.from_environment()


@pytest.fixture(scope="session")
def experiment_context(experiment_config) -> ExperimentContext:
    """Shared hierarchy + mapping + model context (built once per session)."""
    return ExperimentContext.build(experiment_config)


def emit(name: str, text: str) -> None:
    """Print a figure table and persist it under ``benchmarks/results/``.

    pytest captures stdout by default, so the tables are also written to disk
    where EXPERIMENTS.md points at them; run ``pytest benchmarks -s`` to see
    them inline.  The file is only rewritten when its content changes, so a
    run that reproduces the committed tables leaves the checkout untouched.
    """
    print(f"\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    try:
        with open(path, encoding="utf-8") as handle:
            if handle.read() == text + "\n":
                return
    except OSError:
        pass
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")

