"""The planner's phase sorts name only the keys ahead of the row order.

The rows reach the phase sorts in ``(origin, dest, item)`` order and every
sort is stable, so phases ``g`` and ``r`` leave the origin out of their keys.
The source region stays a key of phase ``r``: it orders the rows a receive
leader forwards to one destination, and it differs from the origins' order
when regions are not contiguous rank blocks.  That order shows only when one
receive leader serves several source regions of one destination region,
which the golden-equivalence cases never reach: here a round-robin placement
puts two ranks in each of 16 regions.
"""

import numpy as np
import pytest

from reference_planner import reference_make_plan
from test_plan_equivalence import assert_plans_identical

from repro.collectives.aggregation import setup_aggregation
from repro.collectives.plan import Variant
from repro.collectives.planner import make_plan
from repro.pattern.builders import random_pattern
from repro.topology.mapping import MappingKind, RankMapping
from repro.topology.presets import lassen_like


def _case():
    pattern = random_pattern(32, avg_neighbors=12, duplicate_fraction=0.4,
                             seed=27)
    mapping = RankMapping(lassen_like(), 32, ranks_per_node=2,
                          kind=MappingKind.ROUND_ROBIN)
    return pattern, mapping


def test_the_case_shares_receive_leaders_across_source_regions():
    pattern, mapping = _case()
    recv = setup_aggregation(pattern, mapping).recv
    shared = [np.unique(column[column >= 0]).size < np.count_nonzero(column >= 0)
              for column in recv.T]
    assert any(shared)


@pytest.mark.parametrize("variant", [Variant.PARTIAL, Variant.FULL])
def test_shared_receive_leaders_match_the_reference(variant):
    pattern, mapping = _case()
    assert_plans_identical(make_plan(pattern, mapping, variant, use_cache=False),
                           reference_make_plan(pattern, mapping, variant))
