"""Golden equivalence: world-level plan compilation vs the per-rank reference.

:func:`~repro.collectives.exchange.compile_world_exchange` emits the
concatenated world program with one vectorized pass over the plan's columnar
payload; ``compile_world_exchange_reference`` (``reference_world_compile.py``)
is the pinned seed-equivalent path that compiles every rank separately with
:func:`compile_exchange` and re-bases the results.  Every array of the two
must be **byte-identical** (values and dtypes) across variants x patterns x
mappings x element specs, and the world-level pass must reproduce the
reference compiler's :class:`PlanError` diagnostics for malformed plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_world_compile import compile_world_exchange_reference

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import (
    ExchangeSpec,
    compile_exchange,
    compile_world_exchange,
)
from repro.collectives.plan import CollectivePlan, Phase, PlannedMessage
from repro.pattern import CommPattern, halo_exchange_pattern, random_pattern
from repro.topology import paper_mapping
from repro.utils.errors import PlanError

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)

WORLD_ARRAYS = ("rank_bases", "owned_rows", "owned_offsets", "result_rows",
                "result_offsets", "owned_items_all", "result_items_all",
                "result_sources_all")
PROGRAM_ARRAYS = ("gather", "scatter", "wire_perm", "msg_sources",
                  "msg_dests", "msg_nbytes")


def assert_worlds_identical(fast, ref):
    """Every scalar, offset, and index array must match value- and dtype-wise."""
    assert fast.variant == ref.variant
    assert fast.spec == ref.spec
    assert fast.n_ranks == ref.n_ranks
    assert fast.n_world_rows == ref.n_world_rows
    assert fast.steps == ref.steps
    for name in WORLD_ARRAYS:
        lhs, rhs = getattr(fast, name), getattr(ref, name)
        assert lhs.dtype == rhs.dtype, name
        np.testing.assert_array_equal(lhs, rhs, err_msg=name)
    assert set(fast.programs) == set(ref.programs)
    for phase, program in fast.programs.items():
        reference = ref.programs[phase]
        assert program.tag == reference.tag
        for name in PROGRAM_ARRAYS:
            lhs = getattr(program, name)
            rhs = getattr(reference, name)
            assert lhs.dtype == rhs.dtype, (phase, name)
            np.testing.assert_array_equal(lhs, rhs,
                                          err_msg=f"{phase}:{name}")
    for rank in range(ref.n_ranks):
        np.testing.assert_array_equal(fast.owned_item_ids(rank),
                                      ref.owned_item_ids(rank))
        np.testing.assert_array_equal(fast.recv_item_ids(rank),
                                      ref.recv_item_ids(rank))
        np.testing.assert_array_equal(fast.recv_item_sources(rank),
                                      ref.recv_item_sources(rank))


def patterns():
    yield "halo-4x4", halo_exchange_pattern((4, 4))
    yield "halo-5x3-periodic", halo_exchange_pattern((5, 3), periodic=True)
    yield "random-24", random_pattern(24, seed=3)
    yield "random-dup", random_pattern(12, seed=7, duplicate_fraction=0.8)
    yield "sparse", CommPattern(6, {0: {3: [0, 1]}, 3: {0: [9], 5: [9, 11]}})
    yield "self-loops", CommPattern(4, {0: {0: [0], 1: [0, 2]},
                                        2: {2: [5], 3: [5]}})


@pytest.mark.parametrize("name,pattern", list(patterns()))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_world_compile_matches_reference(name, pattern, variant):
    mapping = paper_mapping(pattern.n_ranks,
                            ranks_per_node=min(4, pattern.n_ranks))
    plan = make_plan(pattern, mapping, variant)
    assert_worlds_identical(compile_world_exchange(plan),
                            compile_world_exchange_reference(plan))


@pytest.mark.parametrize("variant", (Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL))
@pytest.mark.parametrize("dtype,item_size", [(np.float32, 1),
                                             (np.float64, 9),
                                             (np.complex128, 2)])
def test_world_compile_matches_reference_specs(variant, dtype, item_size):
    pattern = random_pattern(16, seed=11)
    mapping = paper_mapping(16, ranks_per_node=8)
    plan = make_plan(pattern, mapping, variant)
    spec = ExchangeSpec(dtype=dtype, item_size=item_size)
    assert_worlds_identical(compile_world_exchange(plan, spec),
                            compile_world_exchange_reference(plan, spec))


def test_world_compile_socket_regions_match():
    from repro.topology import RankMapping, lassen_like

    pattern = random_pattern(32, seed=5)
    mapping = RankMapping(lassen_like(nodes=2), 32, ranks_per_node=16,
                          region="socket")
    for variant in ALL_VARIANTS:
        plan = make_plan(pattern, mapping, variant)
        assert_worlds_identical(compile_world_exchange(plan),
                                compile_world_exchange_reference(plan))


def test_world_compile_leaves_compiled_lazy(count_calls):
    """The world-level pass must not materialise per-rank CompiledExchange."""
    pattern = halo_exchange_pattern((3, 3))
    mapping = paper_mapping(9, ranks_per_node=3)
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    assert count_calls(compile_world_exchange, plan, of=[compile_exchange]) == 0
    assert count_calls(compile_world_exchange_reference, plan,
                       of=[compile_exchange]) == 9


def _unsendable_plan():
    """A direct-phase message packing a key its sender never held."""
    pattern = CommPattern(3, {0: {1: [0]}, 1: {2: [7]}})
    mapping = paper_mapping(3, ranks_per_node=3)
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    bogus = PlannedMessage(Phase.DIRECT, 1, 2, slots=[(0, 99, 2)])
    phases = {Phase.DIRECT: plan.phases[Phase.DIRECT] + [bogus]}
    return CollectivePlan(variant=Variant.STANDARD, pattern=pattern,
                          mapping=mapping, phases=phases,
                          self_deliveries=plan.self_deliveries)


def test_world_compile_reports_unobtainable_send_like_reference():
    plan = _unsendable_plan()
    with pytest.raises(PlanError, match="neither owns nor received"):
        compile_world_exchange_reference(plan)
    with pytest.raises(PlanError, match="neither owns nor received"):
        compile_world_exchange(plan)


def test_world_compile_reports_undelivered_result_like_reference():
    """A plan that never delivers a required item fails in both compilers."""
    pattern = CommPattern(2, {0: {1: [0, 1]}})
    mapping = paper_mapping(2, ranks_per_node=2)
    plan = make_plan(pattern, mapping, Variant.STANDARD)
    # Drop the only direct message: item 0/1 can no longer reach rank 1.
    broken = CollectivePlan(variant=Variant.STANDARD, pattern=pattern,
                            mapping=mapping, phases={Phase.DIRECT: []},
                            self_deliveries=plan.self_deliveries)
    with pytest.raises(PlanError, match="no phase of"):
        compile_world_exchange_reference(broken)
    with pytest.raises(PlanError, match="no phase of"):
        compile_world_exchange(broken)
