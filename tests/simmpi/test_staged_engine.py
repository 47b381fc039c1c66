"""The engine's layout: compiled once, validated once at ``register``.

The compiler composes a program's hops into one source column, the owned
row of every output entry (``result_rows``), and every runtime runs a round
as one clipped ``take`` of it — so a corrupt column must be refused at
registration, with a :class:`CommunicationError`, because no later kernel
bounds-checks anything.  ``runtime="procs"`` hands the same step to its
workers on the same rows (in shared memory), so a healthy and a retried
round share one layout and nothing is ever validated again.

A handle registered with ``vector_length=n`` is bound to the caller's vector:
``run`` takes the ``(n,)`` array itself and returns the round buffer
``[x | halo]`` read-only, ``halo_rows`` locates the received values in it —
the same rows on every runtime — and neither a bad input nor a bad binding
can mis-load it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from worker_fates import set_fates

from repro.collectives import (Variant, make_plan,
                               neighbor_alltoallv_init_world)
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.pattern import random_pattern
from repro.simmpi import ExchangeEngine
from repro.simmpi import engine as engine_module
from repro.sparse import ParCSRMatrix, RowPartition, WorldSpMV
from repro.sparse.stencils import poisson_2d
from repro.topology import paper_mapping
from repro.utils.errors import CommunicationError, ValidationError

N_RANKS = 6
N_WORKERS = 2


def _world(seed: int = 13, variant: Variant = Variant.FULL):
    pattern = random_pattern(N_RANKS, avg_neighbors=3,
                             duplicate_fraction=0.3, seed=seed)
    plan = make_plan(pattern, paper_mapping(N_RANKS, ranks_per_node=3), variant)
    return compile_world_exchange(
        plan, ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))


def _values(world, scale: float = 1.0) -> np.ndarray:
    return scale * (7.0 + world.owned_items_all.astype(np.float64))


def _poked(index: np.ndarray, value: int) -> np.ndarray:
    poked = index.copy()
    poked[0] = value
    return poked


# -- corrupt programs are refused at registration ---------------------------------


def _negative_row(world):
    """An output entry reads row -1."""
    return replace(world, result_rows=_poked(world.result_rows, -1))


def _replay_row(world):
    """An output entry reads the first row past the owned ones: a replay
    row, which no work array holds."""
    return replace(world, result_rows=_poked(world.result_rows,
                                             world.owned_items_all.size))


def _row_past_the_world(world):
    """An output entry reads one row past the world's replay rows."""
    return replace(world, result_rows=_poked(world.result_rows,
                                             world.n_world_rows))


TAMPERS = [_negative_row, _replay_row, _row_past_the_world]


class TestCorruptProgramsRaiseAtRegister:
    @pytest.mark.parametrize("runtime", ["engine", "procs"])
    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_out_of_range_index(self, tamper, runtime):
        world = _world()
        with ExchangeEngine(N_RANKS, runtime=runtime,
                            n_workers=N_WORKERS if runtime == "procs" else None
                            ) as engine:
            with pytest.raises(CommunicationError,
                               match=r"corrupt world exchange: .*outside \[0, "):
                engine.register(tamper(world))
            # The engine stays serviceable, and the intact program is fine.
            handle = engine.register(world)
            assert engine.run(handle, _values(world)).size == \
                world.result_rows.size

    def test_out_of_range_error_names_the_column(self):
        n_owned = _world().owned_items_all.size
        with ExchangeEngine(N_RANKS, runtime="engine") as engine:
            with pytest.raises(CommunicationError,
                               match=rf"result_rows .*outside \[0, {n_owned}\)"):
                engine.register(_replay_row(_world()))


# -- one layout, whoever runs the steps ---------------------------------------------


def _reference_rounds(worlds, scales):
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        handles = [engine.register(world) for world in worlds]
        return [[engine.run(handle, _values(world, scale)).tobytes()
                 for scale in scales]
                for handle, world in zip(handles, worlds)]


def _pool_engine() -> ExchangeEngine:
    return ExchangeEngine(N_RANKS, runtime="procs", n_workers=N_WORKERS)


def test_healthy_procs_engine_never_stages(count_calls):
    """... nor validates in a round: once at ``register``, exactly as
    ``runtime="engine"``."""
    world = _world()
    expected, = _reference_rounds([world], (1.0, 3.0))
    with _pool_engine() as engine:
        handles = []
        assert count_calls(lambda: handles.append(engine.register(world)),
                           of=[engine_module._checked_steps]) == 1

        def rounds():
            for scale, reference in zip((1.0, 3.0), expected):
                assert engine.run(handles[0], _values(world, scale)).tobytes() \
                    == reference

        assert count_calls(rounds, of=[engine_module._checked_steps]) == 0
        assert not engine.events


# -- handles bound to the caller's vector ------------------------------------------


def _vector_length(world) -> int:
    return int(world.owned_items_all.max()) + 3     # a tail nobody owns


def _vector(world, scale: float = 1.0) -> np.ndarray:
    return scale * (7.0 + np.arange(_vector_length(world), dtype=np.float64))


def _halo(engine, handle, buffer) -> bytes:
    return buffer[engine.halo_rows(handle)].tobytes()


def _expected_halo(world, scale: float = 1.0) -> bytes:
    return (scale * (7.0 + world.result_items_all)).tobytes()


@pytest.mark.parametrize("runtime", ["engine", "procs"])
@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.FULL])
def test_bound_round_returns_the_vector_and_the_halo_in_one_buffer(runtime,
                                                                   variant):
    world = _world(variant=variant)
    n = _vector_length(world)
    with ExchangeEngine(N_RANKS, runtime=runtime,
                        n_workers=N_WORKERS if runtime == "procs" else None
                        ) as engine:
        unbound = engine.register(world)
        handle = engine.register(world, vector_length=n)
        halo_rows = engine.halo_rows(handle).copy()
        assert halo_rows.size == world.result_rows.size and halo_rows.min() >= n
        for scale in (1.0, -2.5):
            x = _vector(world, scale)
            buffer = engine.run(handle, x)
            assert buffer.shape == (n + world.result_rows.size,)
            assert buffer[:n].tobytes() == x.tobytes()
            assert _halo(engine, handle, buffer) == _expected_halo(world, scale)
            # The same values the unbound handle delivers from x[owned].
            assert _halo(engine, handle, buffer) == engine.run(
                unbound, x[world.owned_items_all]).tobytes()
        assert np.array_equal(engine.halo_rows(handle), halo_rows)
        with pytest.raises(ValidationError, match="not bound to a vector"):
            engine.halo_rows(unbound)


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.PARTIAL,
                                     Variant.FULL])
def test_a_bound_handle_has_one_layout_on_both_runtimes(variant):
    world = _world(variant=variant)
    n = _vector_length(world)
    with ExchangeEngine(N_RANKS, runtime="engine") as serial, \
            _pool_engine() as pooled:
        handles = [engine.register(world, vector_length=n)
                   for engine in (serial, pooled)]
        rows = [engine.halo_rows(handle)
                for engine, handle in zip((serial, pooled), handles)]
        assert np.array_equal(*rows) and rows[0].dtype == rows[1].dtype
        for scale in (1.0, -2.5):
            x = _vector(world, scale)
            buffers = [engine.run(handle, x)
                       for engine, handle in zip((serial, pooled), handles)]
            assert buffers[0].tobytes() == buffers[1].tobytes()
            assert buffers[0].shape == buffers[1].shape


def test_bound_buffer_is_read_only_and_valid_until_the_next_round():
    world = _world()
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        handle = engine.register(world, vector_length=_vector_length(world))
        buffer = engine.run(handle, _vector(world))
        assert not buffer.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            buffer[0] = 1.0
        kept = buffer.copy()
        again = engine.run(handle, _vector(world, 3.0))
        assert np.shares_memory(again, buffer)          # the round buffer itself
        assert not np.array_equal(buffer, kept)         # ... so it moved on


def test_a_pool_hands_out_a_private_read_only_copy_that_survives_close():
    world = _world()
    with _pool_engine() as engine:
        handle = engine.register(world, vector_length=_vector_length(world))
        shared = engine._programs[handle].shared.work.array
        buffer = engine.run(handle, _vector(world))
        assert not buffer.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            buffer[0] = 1.0
        assert not np.shares_memory(buffer, shared)     # no segment escapes
        kept = buffer.copy()
        again = engine.run(handle, _vector(world, 3.0))
        assert not np.shares_memory(again, buffer)
        assert buffer.tobytes() == kept.tobytes()       # the next round left it
        del shared
    assert engine.closed
    assert buffer.tobytes() == kept.tobytes()           # ... and so did close()
    assert again.tobytes() == (3.0 * kept).tobytes()


def test_multiply_hands_out_a_fresh_array_the_next_round_leaves_alone(rng):
    matrix = ParCSRMatrix(poisson_2d((6, 6)), RowPartition.even(36, N_RANKS))
    x = rng.standard_normal(36)
    with WorldSpMV(matrix, paper_mapping(N_RANKS, ranks_per_node=3)) as spmv:
        first = spmv.multiply(x)
        kept = first.copy()
        second = spmv.multiply(-x)
        assert first.flags.writeable and not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() == (-second).tobytes()


def test_bound_input_must_be_the_vector_itself():
    world = _world()
    n = _vector_length(world)
    shape = rf"\({n},\)"
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        handle = engine.register(world, vector_length=n)
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1)),
                    np.zeros(world.owned_items_all.size),
                    [np.zeros(2)] * N_RANKS, list(range(n))):
            with pytest.raises(ValidationError, match=shape):
                engine.run(handle, bad)
        with pytest.raises(ValidationError, match="cannot be safely cast"):
            engine.run(handle, np.zeros(n, dtype=np.complex128))
        # Value-preserving casts load; the round stays serviceable.
        buffer = engine.run(handle, np.arange(n, dtype=np.int32))
        assert buffer[:n].tobytes() == np.arange(n, dtype=np.float64).tobytes()


def test_binding_is_refused_at_register():
    world = _world()
    largest = int(world.owned_items_all.max())
    wide = replace(world, spec=ExchangeSpec(dtype=np.dtype(np.float64),
                                            item_size=2))
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        for short in (largest, 0, -1):
            with pytest.raises(ValidationError, match="every owned item id"):
                engine.register(world, vector_length=short)
        with pytest.raises(ValidationError, match="item_size == 1"):
            engine.register(wide, vector_length=largest + 1)
        # A float, bool or string length is refused by name, not read as a
        # range failure (or truncated).
        for length in (largest + 1.5, True, str(largest + 1)):
            with pytest.raises(ValidationError,
                               match="vector_length must be an int"):
                engine.register(world, vector_length=length)
        handle = engine.register(world, vector_length=largest + 1)
        assert engine.run(handle, np.zeros(largest + 1)).size > largest


def test_the_value_list_forms_raise_on_a_bound_collective():
    pattern = random_pattern(N_RANKS, avg_neighbors=3, seed=5)
    mapping = paper_mapping(N_RANKS, ranks_per_node=3)
    n = int(pattern.csr()[3].max()) + 1         # the largest item id sent
    with neighbor_alltoallv_init_world(pattern, mapping,
                                       vector_length=n) as collective:
        per_rank = [np.zeros(collective.owned_item_ids(rank).size)
                    for rank in range(N_RANKS)]
        with pytest.raises(ValidationError, match="bound to a vector"):
            collective.exchange(per_rank)
        with pytest.raises(ValidationError, match="bound to a vector"):
            collective.exchange(np.zeros(n))
        with pytest.raises(ValidationError, match="bound to a vector"):
            collective.exchange_flat(per_rank)
        assert collective.exchange_flat(np.zeros(n)).shape == \
            (n + collective.world.result_rows.size,)


@pytest.mark.parametrize("tamper", TAMPERS)
def test_corrupt_programs_raise_at_register_when_bound_too(tamper):
    world = _world()
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        with pytest.raises(CommunicationError, match="corrupt world exchange"):
            engine.register(tamper(world), vector_length=_vector_length(world))


@pytest.mark.parametrize("tamper", TAMPERS)
def test_corrupt_programs_raise_at_register_on_a_pool(tamper):
    world = _world()
    with _pool_engine() as engine:
        for binding in ({}, {"vector_length": _vector_length(world)}):
            with pytest.raises(CommunicationError,
                               match="corrupt world exchange"):
                engine.register(tamper(world), **binding)
        # Nothing was shared: the pool serves the intact program.
        assert not engine._pool.started
        handle = engine.register(world)
        assert engine.run(handle, _values(world)).tobytes() == \
            _reference_rounds([world], (1.0,))[0][0]


def test_every_program_is_staged_exactly_once(count_calls, monkeypatch,
                                              tmp_path):
    """Registration is O(1) numpy calls per step, once per program."""
    worlds = [_world(13), _world(21, Variant.PARTIAL), _world(34)]

    def lifetime(make_engine, events):
        def run():
            with make_engine() as engine:
                handles = [engine.register(worlds[0]),
                           engine.register(
                               worlds[1],
                               vector_length=_vector_length(worlds[1])),
                           engine.register(
                               worlds[2],
                               vector_length=_vector_length(worlds[2]))]
                engine.run(handles[0], _values(worlds[0]))
                for handle, world in zip(handles[1:], worlds[1:]):
                    for scale in (1.0, 2.0):
                        buffer = engine.run(handle, _vector(world, scale))
                        assert _halo(engine, handle, buffer) == \
                            _expected_halo(world, scale)
                assert [event.action for event in engine.events] == events
        return run

    def respawning_pool() -> ExchangeEngine:
        # Worker 0 dies in the second round; the pool respawns mid-round.
        set_fates(monkeypatch, tmp_path, ["ok", "kill"])
        return _pool_engine()

    # Whoever runs the steps — the parent, a healthy pool, a pool that
    # respawned mid-round — a program is validated at register and never
    # again.
    for make_engine, events in (
            (lambda: ExchangeEngine(N_RANKS, runtime="engine"), []),
            (_pool_engine, []),
            (respawning_pool, ["retry"])):
        assert count_calls(lifetime(make_engine, events),
                           of=[engine_module._checked_steps]) == len(worlds)

    # ... and makes as many calls for 8x the ranks and rows, bound or not:
    # nothing in it walks a row, a rank or a message.
    pattern = random_pattern(8 * N_RANKS, avg_neighbors=3,
                             duplicate_fraction=0.3, seed=13)
    wide = compile_world_exchange(
        make_plan(pattern, paper_mapping(8 * N_RANKS, ranks_per_node=3),
                  Variant.FULL),
        ExchangeSpec(dtype=np.dtype(np.float64), item_size=1))
    assert wide.n_world_rows > 8 * worlds[0].n_world_rows
    with ExchangeEngine(8 * N_RANKS, runtime="engine") as engine:
        counts = [[count_calls(engine.register, world, **binding)
                   for binding in ({}, {"vector_length":
                                        _vector_length(world)})]
                  for world in (worlds[0], wide)]
    assert counts[0] == counts[1]
