"""Pattern statistics: the quantities the paper's Figures 8-10 report.

Every plan :mod:`repro.collectives.planner` builds, standard or aggregated,
carries one :class:`PatternStatistics` — per-rank message and byte counts
split into intra-region and inter-region — so the experiment code can treat
all variants uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.pattern.comm_pattern import CommPattern
from repro.utils.errors import ValidationError


@dataclass
class PatternStatistics:
    """Per-rank message counts and byte counts, split local vs inter-region.

    "Local" means source and destination share an aggregation region (the
    paper's intra-region messages); "global" means they do not.
    """

    n_ranks: int
    local_messages: np.ndarray = field(default=None)
    global_messages: np.ndarray = field(default=None)
    local_bytes: np.ndarray = field(default=None)
    global_bytes: np.ndarray = field(default=None)

    def __post_init__(self):
        for name in ("local_messages", "global_messages", "local_bytes", "global_bytes"):
            value = getattr(self, name)
            if value is None:
                value = np.zeros(self.n_ranks, dtype=np.int64)
            else:
                value = np.asarray(value, dtype=np.int64)
                if value.shape != (self.n_ranks,):
                    raise ValidationError(f"{name} must have shape ({self.n_ranks},)")
            setattr(self, name, value)

    # -- the numbers the figures plot ------------------------------------------

    @property
    def max_local_messages(self) -> int:
        """Figure 8: max number of intra-region messages sent by any process."""
        return int(self.local_messages.max(initial=0))

    @property
    def max_global_messages(self) -> int:
        """Figure 9: max number of inter-region messages sent by any process."""
        return int(self.global_messages.max(initial=0))

    @property
    def max_global_bytes(self) -> int:
        """Figure 10: max inter-region bytes sent by any process."""
        return int(self.global_bytes.max(initial=0))

    @property
    def total_local_messages(self) -> int:
        """Total intra-region message count."""
        return int(self.local_messages.sum())

    @property
    def total_global_messages(self) -> int:
        """Total inter-region message count."""
        return int(self.global_messages.sum())

    @property
    def total_global_bytes(self) -> int:
        """Total inter-region byte count."""
        return int(self.global_bytes.sum())

    def add_message(self, src: int, is_local: bool, nbytes: int) -> None:
        """Account one message sent by ``src``."""
        if src < 0 or src >= self.n_ranks:
            raise ValidationError(f"rank {src} out of range")
        if is_local:
            self.local_messages[src] += 1
            self.local_bytes[src] += int(nbytes)
        else:
            self.global_messages[src] += 1
            self.global_bytes[src] += int(nbytes)

    def add_messages(self, srcs: np.ndarray, is_local_mask: np.ndarray,
                     nbytes: np.ndarray) -> None:
        """Bulk-account one message per entry of the parallel input arrays.

        ``srcs[k]`` sent ``nbytes[k]`` bytes; ``is_local_mask[k]`` says whether
        the message stayed inside its region.  The accounting is two
        ``np.bincount`` passes per locality class — no per-message Python loop.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        is_local_mask = np.asarray(is_local_mask, dtype=bool)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if not (srcs.shape == is_local_mask.shape == nbytes.shape):
            raise ValidationError("add_messages arrays must have matching shapes")
        if srcs.size == 0:
            return
        if int(srcs.min()) < 0 or int(srcs.max()) >= self.n_ranks:
            raise ValidationError("rank out of range")
        for mask, messages, byte_totals in (
                (is_local_mask, self.local_messages, self.local_bytes),
                (~is_local_mask, self.global_messages, self.global_bytes)):
            if not mask.any():
                continue
            selected = srcs[mask]
            messages += np.bincount(selected, minlength=self.n_ranks)
            byte_totals += np.bincount(
                selected, weights=nbytes[mask], minlength=self.n_ranks
            ).astype(np.int64)


def average_neighbors(pattern: CommPattern, ranks: Iterable[int] | None = None) -> float:
    """Average out-degree over the given ranks (default: all ranks)."""
    degrees = np.diff(pattern.csr()[0])
    if ranks is None:
        return float(degrees.mean())
    ranks = np.asarray(list(ranks))
    if not ranks.size:
        return 0.0
    if ranks.dtype.kind not in "iu":
        raise ValidationError(f"ranks must be integers, got {ranks.dtype}")
    outside = ranks[(ranks < 0) | (ranks >= pattern.n_ranks)]
    if outside.size:
        raise ValidationError(
            f"rank {outside[0]} out of range [0, {pattern.n_ranks})")
    return float(degrees[ranks].mean())
