"""Executed invariants of the paper's exchange, as properties of engine rounds.

The plan-level invariants (every required item routed once, dedup never grows
a message) live in ``test_plan_properties.py``; these run the compiled program
on the engine and check what actually arrives:

(a) every required ``(receiver, item)`` appears exactly once in the result
    view and carries a value computed from the item id alone;
(b) the three collective variants deliver identical bytes;
(c) the profiler's totals are ``plan.statistics()``, and inter-region message
    counts never rise from standard to partial to full — repeat deliveries
    the staged data path drops are still counted;
(d) the compiled blocks tile ``[0, n_world_rows)`` with one row per
    distinct delivered key — ``Σ(b − a) ≤ Σ scatter.size``, equal without
    repeats — those some later step's ``src`` reads first, in schedule
    order, then the *terminal* ones (the last receive step's always), so
    ``[0, n_unbound_rows)`` is the owned rows and the read blocks; a
    vector-bound handle keeps every block, moved up past the vector, and an
    unbound one folds the terminal blocks into its result — the step keeps
    its slot with ``a == b`` and ``len(work)`` is ``n_unbound_rows``;
(e) none of it depends on who runs the steps: a ``runtime="procs"`` pool of
    one worker, of three, or of more workers than a step has rows delivers
    the same bytes and accounts the same traffic, and its workers' shares
    tile every step's ``[a, b)``, no two differing by more than one row;
(f) every round is byte-equal to the reference executor that runs the
    compiled program as written, three fancy-index passes per phase on
    ``n_world_rows`` rows — whatever the variant, dtype, item size or
    runtime, and wherever a terminal block sits.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (Phase, Variant, WorldNeighborCollective,
                               make_plan)
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.pattern import CommPattern, random_pattern
from repro.simmpi import ExchangeEngine, TrafficProfiler
from repro.simmpi.procs import _share
from repro.topology import Locality, paper_mapping

VARIANTS = (Variant.STANDARD, Variant.PARTIAL, Variant.FULL)
DTYPES = (np.float64, np.float32, np.int64, np.complex128)


def _oracle(items: np.ndarray, item_size: int, dtype) -> np.ndarray:
    """The value of every item, from its id alone; exact in every dtype."""
    table = ((items * 7 + 3) % 1021)[:, None] + 1024 * np.arange(item_size)
    if np.dtype(dtype).kind == "c":
        table = table + 1j * (table % 5)
    table = table.astype(dtype)
    return table.reshape(-1) if item_size == 1 else table


def _required(pattern: CommPattern, rank: int) -> np.ndarray:
    """Sorted distinct items ``rank`` must receive."""
    items = [pattern.recv_items(rank, src) for src in pattern.recv_ranks(rank)]
    return np.unique(np.concatenate(items)) if items else np.empty(0, np.int64)


def _blocks(state):
    """``(a, b)`` of every receive step of a registered layout."""
    return [(a, b) for _, src, a, b in state.steps if src is not None]


def _receives(world):
    """Every receive step's program, in schedule order."""
    return [world.programs[phase] for kind, phase in world.steps
            if kind == "recv"]


def _receive_steps(world):
    """``(a, b)`` of every receive step of ``world``'s unbound layout: a
    terminal block, at or past ``n_unbound_rows``, folds to the empty range
    where the kept blocks before it end."""
    end, steps = world.owned_items_all.size, []
    for program in _receives(world):
        if program.a < world.n_unbound_rows:
            end = program.b
            steps.append((program.a, end))
        else:
            steps.append((end, end))
    return steps


def _reference_round(world, values: np.ndarray) -> np.ndarray:
    """(f) the program as compiled: ``work[scatter] = work[gather][wire_perm]``
    per receive step on every world row, then the result rows."""
    item_size = world.spec.item_size
    work = np.zeros((world.n_world_rows, item_size), dtype=values.dtype)
    work[:world.owned_items_all.size] = values.reshape(-1, item_size)
    for kind, phase in world.steps:
        program = world.programs[phase]
        if kind == "recv":
            work[program.scatter] = work[program.gather][program.wire_perm]
    result = work[world.result_rows]
    return result.reshape(-1) if item_size == 1 else result


def _assert_layout(world) -> None:
    """(d) the compiled layout, and the bound and unbound ones registered
    from it."""
    n_owned = world.owned_items_all.size
    receives = _receives(world)
    read = np.zeros(world.n_world_rows, dtype=bool)
    for program in receives:
        read[program.src] = True
    terminal = [not read[program.a:program.b].any() for program in receives]
    assert not receives or terminal[-1]
    order = [program for program, last in zip(receives, terminal) if not last] \
        + [program for program, last in zip(receives, terminal) if last]
    edges = [n_owned] + [program.b for program in order]
    assert [program.a for program in order] == edges[:-1]
    assert edges[-1] == world.n_world_rows
    assert world.n_unbound_rows == edges[terminal.count(False)]
    # One row per distinct delivered key.
    delivered = np.concatenate([program.scatter for program in receives]) \
        if receives else np.empty(0, int)
    fresh = np.setdiff1d(delivered, np.arange(n_owned)).size
    assert sum(program.b - program.a for program in receives) == fresh \
        <= delivered.size
    no_repeats = np.unique(delivered).size == delivered.size and \
        not (delivered < n_owned).any()
    assert (fresh == delivered.size) == no_repeats
    # Registered: bound (scalar items; the layout is the same at any size)
    # every block moves up past the vector, unbound the terminal ones fold.
    head = int(world.owned_items_all.max(initial=-1)) + 1
    scalar = replace(world, spec=ExchangeSpec(world.spec.dtype, 1))
    with ExchangeEngine(world.n_ranks, runtime="engine") as engine:
        bound = engine._programs[engine.register(scalar, vector_length=head)]
        unbound = engine._programs[engine.register(world)]
    assert _blocks(bound) == [(program.a + head - n_owned,
                               program.b + head - n_owned)
                              for program in receives]
    assert bound.work.shape[0] == head + world.n_world_rows - n_owned
    assert _blocks(unbound) == _receive_steps(world)
    assert unbound.work.shape[0] == world.n_unbound_rows
    assert unbound.result.size == world.result_rows.size


def _assert_shares_tile(steps, n_workers: int) -> None:
    """(e) the workers' shares of every step, in worker order."""
    for a, b in steps:
        shares = [_share(b - a, worker, n_workers) for worker in range(n_workers)]
        edges = [0] + [hi for _, hi in shares]
        assert [lo for lo, _ in shares] == edges[:-1] and edges[-1] == b - a
        sizes = [hi - lo for lo, hi in shares]
        assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1


def _run_variants(pattern: CommPattern, mapping, n_workers=None):
    """Two checked rounds per variant: ``{variant: (plan, world, profiler,
    result bytes)}`` — on ``runtime="engine"``, or on a ``procs`` pool of
    ``n_workers`` (a callable sizes it from the compiled world)."""
    outcomes = {}
    for variant in VARIANTS:
        plan = make_plan(pattern, mapping, variant)
        profiler = TrafficProfiler(mapping, ignore_self_messages=False)
        workers = n_workers(plan) if callable(n_workers) else n_workers
        where = dict(runtime="engine") if workers is None \
            else dict(runtime="procs", n_workers=workers)
        with WorldNeighborCollective(plan, profiler=profiler,
                                     **where) as collective:
            world = collective.world
            if workers is not None:
                shared = collective.engine._programs[collective.handle].shared
                assert collective.engine.n_workers == workers
                assert [(a, b) for kind, a, b in shared.steps
                        if kind == "recv"] == _receive_steps(world)
                _assert_shares_tile(_receive_steps(world), workers)
            values = _oracle(world.owned_items_all, pattern.item_size,
                             pattern.dtype)
            result = collective.exchange_flat(values)
            # (a) exactly the required items, once each, with their values.
            for rank in range(pattern.n_ranks):
                assert np.array_equal(collective.recv_item_ids(rank),
                                      _required(pattern, rank))
            assert result.dtype == pattern.dtype
            assert result.tobytes() == _oracle(
                world.result_items_all, pattern.item_size,
                pattern.dtype).tobytes()
            # (f) this round and a second one, which must not see stale rows.
            assert result.tobytes() == _reference_round(world, values).tobytes()
            again = collective.exchange_flat(values * 2)
            assert again.tobytes() == \
                _reference_round(world, values * 2).tobytes()
            assert np.array_equal(again, result * 2)
        outcomes[variant] = (plan, world, profiler, result.tobytes())
    # (b) one answer, whatever the route.
    assert len({outcome[3] for outcome in outcomes.values()}) == 1
    return outcomes


@st.composite
def exchange_case(draw):
    ranks_per_node = draw(st.sampled_from([2, 3, 4]))
    n_ranks = ranks_per_node * draw(st.integers(min_value=1, max_value=3))
    pattern = random_pattern(
        n_ranks,
        avg_neighbors=draw(st.sampled_from([1.0, 3.0, 6.0])),
        avg_items_per_message=draw(st.sampled_from([2.0, 6.0])),
        duplicate_fraction=draw(st.sampled_from([0.0, 0.3, 0.9])),
        items_per_rank=12, seed=draw(st.integers(min_value=0, max_value=10_000)),
        dtype=draw(st.sampled_from(DTYPES)),
        item_size=draw(st.sampled_from([1, 3, 8])))
    return pattern, paper_mapping(n_ranks, ranks_per_node=ranks_per_node)


def _assert_accounting(outcomes) -> None:
    """(c) on the outcomes of :func:`_run_variants`."""
    inter_region = []
    for variant in VARIANTS:
        plan, _, profiler, _ = outcomes[variant]
        # (c) two rounds ran; each is accounted message for message.
        stats = plan.statistics()
        total = profiler.total()
        assert total.message_count == 2 * (stats.total_local_messages
                                           + stats.total_global_messages)
        assert total.byte_count == 2 * (int(stats.local_bytes.sum())
                                        + stats.total_global_bytes)
        observed = profiler.by_locality().get(Locality.INTER_NODE)
        assert (observed.message_count if observed else 0) == \
            2 * stats.total_global_messages
        inter_region.append(stats.total_global_messages)
    assert inter_region[0] >= inter_region[1] >= inter_region[2]


@settings(max_examples=40, deadline=None)
@given(exchange_case())
def test_executed_rounds_keep_the_papers_invariants(case):
    pattern, mapping = case
    outcomes = _run_variants(pattern, mapping)
    _assert_accounting(outcomes)
    for variant in VARIANTS:
        _assert_layout(outcomes[variant][1])


def _more_workers_than_the_smallest_step_has_rows(plan) -> int:
    """A pool size that leaves at least one worker an empty share."""
    rows = [b - a for a, b in _receive_steps(compile_world_exchange(plan))]
    return min(rows, default=0) + 2


@settings(max_examples=12, deadline=None)
@given(exchange_case(), st.sampled_from([1, 3]))
def test_executed_invariants_hold_on_a_worker_pool(case, n_workers):
    pattern, mapping = case
    pooled = _run_variants(pattern, mapping, n_workers)
    _assert_accounting(pooled)
    serial = _run_variants(pattern, mapping)
    assert all(pooled[variant][3] == serial[variant][3] for variant in VARIANTS)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 7),
       st.integers(min_value=0, max_value=10 ** 7),
       st.integers(min_value=1, max_value=97))
def test_worker_shares_tile_any_step(a, n_rows, n_workers):
    _assert_shares_tile([(a, a + n_rows)], n_workers)


EDGE_PATTERNS = {
    "nobody owns or sends anything": {},
    "only intra-node traffic (empty global phase)": {0: {1: [5, 6]}, 1: {0: [40]}},
    "self-sends beside real ones": {0: {0: [1, 2], 3: [2]}, 2: {2: [80]}},
    "rank 3 only receives": {0: {3: [1, 2, 3]}, 1: {3: [41], 2: [41, 42]}},
}


@pytest.mark.parametrize("n_workers", [None, 2])
@pytest.mark.parametrize("item_size", [1, 3, 8])
@pytest.mark.parametrize("dtype", DTYPES)
def test_every_round_is_the_reference_executors(dtype, item_size, n_workers):
    """(f) on the whole dtype × item size × runtime grid, every variant."""
    pattern = random_pattern(8, avg_neighbors=3.0, avg_items_per_message=6.0,
                             duplicate_fraction=0.3, items_per_rank=12,
                             seed=41, dtype=dtype, item_size=item_size)
    mapping = paper_mapping(8, ranks_per_node=4)
    _assert_accounting(_run_variants(pattern, mapping, n_workers))


@pytest.mark.parametrize("item_size", [1, 3, 8])
@pytest.mark.parametrize("name", EDGE_PATTERNS)
def test_edge_programs_run_and_agree(name, item_size):
    pattern = CommPattern(4, EDGE_PATTERNS[name], item_size=item_size)
    mapping = paper_mapping(4, ranks_per_node=2)
    outcomes = _run_variants(pattern, mapping)
    for _, world, _, _ in outcomes.values():
        _assert_layout(world)
    # (e) the same programs with idle workers: their steps have 0-4 rows.
    pooled = _run_variants(pattern, mapping,
                           _more_workers_than_the_smallest_step_has_rows)
    _assert_accounting(pooled)
    assert all(pooled[variant][3] == outcomes[variant][3]
               for variant in VARIANTS)


@pytest.mark.parametrize("n_workers", [1, 3])
def test_a_terminal_block_behind_a_later_steps_runs_on_a_pool(n_workers):
    """(d)-(f) on a vector-bound aggregated program whose ``LOCAL`` block is
    terminal but scheduled before ``GLOBAL``'s, which ``FINAL_REDIST`` reads:
    rows and schedule disagree, and a pool of workers still delivers the
    reference executor's bytes, equal to the parent's."""
    pattern = random_pattern(12, avg_neighbors=4.0, duplicate_fraction=0.3,
                             seed=3)
    mapping = paper_mapping(12, ranks_per_node=4)
    world = compile_world_exchange(make_plan(pattern, mapping, Variant.PARTIAL))
    local, global_ = world.programs[Phase.LOCAL], world.programs[Phase.GLOBAL]
    schedule = [phase for kind, phase in world.steps if kind == "recv"]
    assert schedule.index(Phase.LOCAL) < schedule.index(Phase.GLOBAL)
    assert global_.b <= world.n_unbound_rows <= local.a < local.b
    _assert_layout(world)
    n = int(world.owned_items_all.max()) + 3
    buffers = []
    with ExchangeEngine(12, runtime="engine") as serial, \
            ExchangeEngine(12, runtime="procs", n_workers=n_workers) as pooled:
        for engine in (serial, pooled):
            handle = engine.register(world, vector_length=n)
            for scale in (1.0, -2.5):
                x = scale * (7.0 + np.arange(n))
                buffer = engine.run(handle, x)
                halo = buffer[engine.halo_rows(handle)]
                assert halo.tobytes() == _reference_round(
                    world, x[world.owned_items_all]).tobytes()
                buffers.append(buffer.tobytes())
            assert not engine.degraded
    assert buffers[:2] == buffers[2:]
