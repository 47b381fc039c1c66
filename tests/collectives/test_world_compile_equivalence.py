"""Golden equivalence: world-level plan compilation vs the per-rank reference.

:func:`~repro.collectives.exchange.compile_world_exchange` emits the world
program with one vectorized pass over the plan's columnar payload, numbered
in the layout the engine executes; ``compile_world_exchange_reference``
(``reference_world_compile.py``) is the pinned seed-equivalent path that
compiles every rank separately with :func:`compile_exchange` and re-bases the
results rank-major.  Relabelled through the engine's former staging pass
(``reference_staging.py``), the reference's unbound layout — rows kept,
every step's ``(src, a, b)``, the result selector — must be **byte-identical**
to what the engine registers from the compiled world, the message columns
and item ids equal outright, and every row of the compiled world one row of
the reference's, across variants x patterns x mappings x element specs.  The
world-level pass must reproduce the reference compiler's :class:`PlanError`
diagnostics for malformed plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_staging import _stage
from reference_world_compile import compile_world_exchange_reference

from repro.collectives import Variant, make_plan
from repro.collectives.exchange import (
    ExchangeSpec,
    compile_exchange,
    compile_world_exchange,
)
from repro.collectives.plan import CollectivePlan, Phase, PlannedMessage
from repro.pattern import CommPattern, halo_exchange_pattern, random_pattern
from repro.simmpi import ExchangeEngine
from repro.topology import paper_mapping
from repro.utils.errors import PlanError

ALL_VARIANTS = (Variant.POINT_TO_POINT, Variant.STANDARD,
                Variant.PARTIAL, Variant.FULL)

#: What the row numbering does not touch, compared outright.
SHARED_FIELDS = ("variant", "spec", "n_ranks", "n_world_rows", "steps",
                 "owned_offsets", "result_offsets", "owned_items_all",
                 "result_items_all", "result_sources_all")
MESSAGE_FIELDS = ("tag", "wire_perm", "msg_sources", "msg_dests",
                  "msg_nbytes")


def _layout(state):
    """``(len(work), every step's (src, a, b), result)`` of a registered
    program, as bytes."""
    return (state.work.shape[0],
            [(None if src is None else (src.dtype.str, src.tobytes()), a, b)
             for _, src, a, b in state.steps],
            (state.result.dtype.str, state.result.tobytes()))


def _assert_same(lhs, rhs, name) -> None:
    if isinstance(lhs, np.ndarray):
        assert lhs.dtype == rhs.dtype, name
        np.testing.assert_array_equal(lhs, rhs, err_msg=name)
    else:
        assert lhs == rhs, name


def assert_worlds_identical(lhs, rhs):
    """Two compiled worlds: every scalar and array equal, value- and
    dtype-wise."""
    assert set(lhs.programs) == set(rhs.programs)
    for name, value in vars(lhs).items():
        if name != "programs":
            _assert_same(value, getattr(rhs, name), name)
    for phase, program in lhs.programs.items():
        for name, value in vars(program).items():
            _assert_same(value, getattr(rhs.programs[phase], name),
                         f"{phase}:{name}")


def assert_matches_reference(fast, ref):
    """``fast`` is the reference world ``ref``, renumbered into the engine's
    layout: equal to it wherever rows do not show, one relabelling of its
    rows where they do, and running the unbound layout the engine used to
    stage from ``ref`` at registration."""
    for name in SHARED_FIELDS:
        _assert_same(getattr(fast, name), getattr(ref, name), name)
    assert set(fast.programs) == set(ref.programs)
    # Owned rows lead, in input order; each receive position lands its
    # value's row; the relabelling so defined is one-to-one.
    relabel = np.full(ref.n_world_rows, -1)
    relabel[ref.owned_rows] = np.arange(ref.owned_rows.size)
    for phase, program in fast.programs.items():
        relabel[ref.programs[phase].scatter] = program.scatter
    assert np.array_equal(np.sort(relabel), np.arange(ref.n_world_rows))
    np.testing.assert_array_equal(relabel[ref.result_rows], fast.result_rows)
    for phase, program in fast.programs.items():
        reference = ref.programs[phase]
        for name in MESSAGE_FIELDS:
            _assert_same(getattr(program, name), getattr(reference, name),
                         f"{phase}:{name}")
        for name in ("gather", "scatter"):
            assert getattr(program, name).dtype == np.int64, (phase, name)
            np.testing.assert_array_equal(
                relabel[getattr(reference, name)], getattr(program, name),
                err_msg=f"{phase}:{name}")
    with ExchangeEngine(fast.n_ranks, runtime="engine") as engine:
        registered = engine._programs[engine.register(fast)]
        assert _layout(registered) == _layout(_stage(ref))


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
    assert_matches_reference(compile_world_exchange(plan),
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
    assert_matches_reference(compile_world_exchange(plan, spec),
                             compile_world_exchange_reference(plan, spec))


def test_world_compile_socket_regions_match():
    from repro.topology import RankMapping, lassen_like

    pattern = random_pattern(32, seed=5)
    mapping = RankMapping(lassen_like(nodes=2), 32, ranks_per_node=16,
                          region="socket")
    for variant in ALL_VARIANTS:
        plan = make_plan(pattern, mapping, variant)
        assert_matches_reference(compile_world_exchange(plan),
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
