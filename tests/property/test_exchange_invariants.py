"""Executed invariants of the paper's exchange, as properties of engine rounds.

The plan-level invariants (every required item routed once, dedup never grows
a message) live in ``test_plan_properties.py``; these run the compiled program
on the engine and check what actually arrives:

(a) every required ``(receiver, item)`` appears exactly once in the result
    view and carries a value computed from the item id alone;
(b) the three collective variants deliver identical bytes;
(c) the profiler's totals are ``plan.statistics()``, and inter-region message
    counts never rise from standard to partial to full — the hops the
    engine's one gather composes are still counted, message for message;
(d) a registered round is one gather: every ``result_rows`` entry is the
    owned row of its item at its source; an unbound handle's work array is
    the owned rows, which its output gather reads, and a vector-bound one's
    is ``[x | halo]``, halo rows ``n + arange(R)`` filled from the vector
    rows ``owned_items_all[result_rows]``; the replay rows are the owned
    ones plus one per distinct delivered key;
(e) none of it depends on who runs the round: a ``runtime="procs"`` pool of
    one worker, of three, or of more workers than the halo has rows
    delivers the same bytes and accounts the same traffic; its schedule is
    every send phase, then one receive step — the halo rows, or an empty
    slot on an unbound handle — and its workers' shares tile that step, no
    two differing by more than one row;
(f) every round is byte-equal to the reference executor that runs the
    plan's hops as compiled, ``wire = work[gather]`` then ``work[scatter] =
    wire[wire_perm]`` per phase in schedule order on ``n_world_rows`` rows
    (``oracles.replay_round``) — whatever the variant, dtype, item size or
    runtime, bound or unbound.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import replay_round

from repro.collectives import Variant, WorldNeighborCollective, make_plan
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
    _, dests, items = pattern.edge_arrays()
    return np.unique(items[dests == rank])


def _pool_steps(world, head: int | None = None):
    """The schedule a pool runs for ``world``: ``(kind, a, b)`` per send
    phase, then the one receive step — the halo rows behind a bound
    handle's ``head`` vector entries, an empty slot after an unbound
    handle's owned rows."""
    sends = [("send", 0, 0) for kind, _ in world.steps if kind == "send"]
    if head is None:
        n_owned = world.owned_items_all.size
        return sends + [("recv", n_owned, n_owned)]
    return sends + [("recv", head, head + world.result_rows.size)]


def _assert_layout(world) -> None:
    """(d) the compiled world, and the bound and unbound rounds registered
    from it."""
    n_owned = world.owned_items_all.size
    rows = world.result_rows
    assert rows.dtype == np.int64
    assert rows.size == 0 or 0 <= rows.min() <= rows.max() < n_owned
    assert np.array_equal(world.owned_items_all[rows], world.result_items_all)
    owner = np.repeat(np.arange(world.n_ranks), np.diff(world.owned_offsets))
    assert np.array_equal(owner[rows], world.result_sources_all)
    # Replay rows: the owned ones, then one per distinct delivered key.
    delivered = [world.programs[phase].scatter for kind, phase in world.steps
                 if kind == "recv"]
    held = np.union1d(np.arange(n_owned), np.concatenate(delivered))
    assert np.array_equal(held, np.arange(world.n_world_rows))
    # Registered: bound (scalar items; the layout is the same at any size)
    # and unbound.
    head = int(world.owned_items_all.max(initial=-1)) + 1
    scalar = replace(world, spec=ExchangeSpec(world.spec.dtype, 1))
    with ExchangeEngine(world.n_ranks, runtime="engine") as engine:
        bound = engine._programs[engine.register(scalar, vector_length=head)]
        unbound = engine._programs[engine.register(world)]
        assert np.array_equal(engine.halo_rows(0),
                              head + np.arange(rows.size))
    assert bound.work.shape[0] == head + rows.size
    assert np.array_equal(bound.source, world.owned_items_all[rows])
    assert unbound.work.shape[0] == n_owned
    assert np.array_equal(unbound.source, rows)
    assert [program.phase for program in bound.sends] == \
        [phase for kind, phase in world.steps if kind == "send"]


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
        profiler = TrafficProfiler(mapping)
        workers = n_workers(plan) if callable(n_workers) else n_workers
        where = dict(runtime="engine") if workers is None \
            else dict(runtime="procs", n_workers=workers)
        with ExchangeEngine(pattern.n_ranks, profiler=profiler,
                            **where) as engine, \
                WorldNeighborCollective(plan, engine=engine) as collective:
            world = collective.world
            if workers is not None:
                shared = collective.engine._programs[collective.handle].shared
                assert collective.engine.n_workers == workers
                assert list(shared.steps) == _pool_steps(world)
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
            assert result.tobytes() == replay_round(world, values).tobytes()
            again = collective.exchange_flat(values * 2)
            assert again.tobytes() == replay_round(world, values * 2).tobytes()
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


def _assert_bound_rounds(world, n_workers) -> None:
    """(d)-(f) for ``world`` bound to a vector (scalar items), on the parent
    and on a pool of ``n_workers``: both return the vector and then the
    reference executor's halo, in the buffer rows ``halo_rows`` names."""
    size = world.spec.item_size
    scalar = replace(world, spec=ExchangeSpec(np.float64, 1))
    n = int(world.owned_items_all.max(initial=-1)) + 3
    buffers = []
    with ExchangeEngine(world.n_ranks, runtime="engine") as serial, \
            ExchangeEngine(world.n_ranks, runtime="procs",
                           n_workers=n_workers) as pooled:
        for engine in (serial, pooled):
            handle = engine.register(scalar, vector_length=n)
            if engine is pooled:
                assert list(engine._programs[handle].shared.steps) \
                    == _pool_steps(world, n)
            for scale in (1.0, -2.5):
                x = scale * (7.0 + np.arange(n))
                buffer = engine.run(handle, x)
                assert buffer[:n].tobytes() == x.tobytes()
                halo = buffer[engine.halo_rows(handle)]
                # Every component of an item carries the entry's value.
                expected = replay_round(
                    world, np.repeat(x[world.owned_items_all], size))
                assert halo.tobytes() == \
                    expected.reshape(-1, size)[:, 0].tobytes()
                buffers.append(buffer.tobytes())
            assert not engine.events
    _assert_shares_tile([(n, n + world.result_rows.size)], n_workers)
    assert buffers[:2] == buffers[2:]


@pytest.mark.parametrize("item_size", [1, 3, 8])
@pytest.mark.parametrize("name", EDGE_PATTERNS)
def test_edge_programs_run_and_agree(name, item_size):
    pattern = CommPattern(4, EDGE_PATTERNS[name], item_size=item_size)
    mapping = paper_mapping(4, ranks_per_node=2)
    outcomes = _run_variants(pattern, mapping)
    for _, world, _, _ in outcomes.values():
        _assert_layout(world)
        # (e) more workers than the halo has rows (0-4): some idle.
        _assert_bound_rounds(world, world.result_rows.size + 2)
    pooled = _run_variants(pattern, mapping, 2)
    _assert_accounting(pooled)
    assert all(pooled[variant][3] == outcomes[variant][3]
               for variant in VARIANTS)


@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_bound_round_runs_on_a_pool(variant, n_workers):
    """(d)-(f) on a vector-bound program of every variant: a pool of
    workers fills the halo with the reference executor's bytes, equal to
    the parent's."""
    pattern = random_pattern(12, avg_neighbors=4.0, duplicate_fraction=0.3,
                             seed=3)
    mapping = paper_mapping(12, ranks_per_node=4)
    world = compile_world_exchange(make_plan(pattern, mapping, variant))
    _assert_layout(world)
    _assert_bound_rounds(world, n_workers)
