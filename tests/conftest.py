"""Shared fixtures for the test-suite.

Fixtures deliberately stay small (tens of ranks, thousands of rows) so the
whole suite runs in a couple of minutes; the paper-scale configurations are
exercised only by the benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pattern.builders import halo_exchange_pattern, random_pattern
from repro.perfmodel.params import lassen_parameters
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.stencils import poisson_2d, rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping


@pytest.fixture
def small_mapping():
    """16 ranks on 4 nodes (4 ranks per node)."""
    return paper_mapping(16, ranks_per_node=4)


@pytest.fixture
def medium_mapping():
    """64 ranks on 4 nodes (16 ranks per node, the paper's per-node count)."""
    return paper_mapping(64, ranks_per_node=16)


@pytest.fixture
def small_pattern():
    """A reproducible irregular pattern on 16 ranks with duplicate values."""
    return random_pattern(16, avg_neighbors=5, avg_items_per_message=10,
                          duplicate_fraction=0.5, items_per_rank=32, seed=123)


@pytest.fixture
def halo_pattern():
    """A 4x4 process-grid halo exchange (structured, closed-form statistics)."""
    return halo_exchange_pattern((4, 4), points_per_cell=8)


@pytest.fixture
def lassen_model():
    """The locality-aware cost model used throughout the experiments."""
    return lassen_parameters(active_per_node=16)


@pytest.fixture
def small_anisotropic_matrix():
    """32x32 rotated anisotropic diffusion distributed over 16 ranks."""
    matrix = rotated_anisotropic_diffusion((32, 32))
    return ParCSRMatrix(matrix, RowPartition.even(1024, 16))


@pytest.fixture
def small_poisson_matrix():
    """24x24 Poisson problem distributed over 8 ranks."""
    matrix = poisson_2d((24, 24))
    return ParCSRMatrix(matrix, RowPartition.even(576, 8))


@pytest.fixture
def rng():
    """Deterministic random generator for tests that need noise."""
    return np.random.default_rng(2023)
