"""Communication patterns: who sends which data items to whom.

A :class:`CommPattern` is the library's common currency.  The sparse-matrix
layer derives one from each distributed matrix (which off-process vector
entries does every rank need), the collective planners transform it into phase
plans for the standard / partially optimized / fully optimized neighborhood
collectives, and every plan carries a :class:`PatternStatistics` with the
per-rank, per-locality message counts and sizes that the paper's Figures 8-10
plot.
"""

from repro.pattern.comm_pattern import CommPattern
from repro.pattern.builders import random_pattern, halo_exchange_pattern
from repro.pattern.statistics import PatternStatistics, average_neighbors

__all__ = [
    "CommPattern",
    "random_pattern",
    "halo_exchange_pattern",
    "PatternStatistics",
    "average_neighbors",
]
