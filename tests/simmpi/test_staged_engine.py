"""The engine's staged layout: validated once at ``register``, one serial path.

``runtime="engine"`` renumbers a program's rows ``[owned | receive step 1 |
step 2 | …]`` at registration and runs every receive step as a clipped
``take`` into a slice — so a corrupt program must be refused *there*, with a
:class:`CommunicationError`, because no later kernel bounds-checks anything.
A degraded ``runtime="procs"`` engine runs the same staged path (staging
lazily), and a healthy one never stages at all.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import Phase, Variant, make_plan
from repro.collectives.exchange import ExchangeSpec, compile_world_exchange
from repro.pattern import random_pattern
from repro.simmpi import ExchangeEngine, FaultPlan, FaultSpec
from repro.simmpi import engine as engine_module
from repro.topology import paper_mapping
from repro.utils.errors import CommunicationError

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


def _with_program(world, phase, **arrays):
    """``world`` with one phase program's index arrays replaced."""
    program = replace(world.programs[phase], **arrays)
    return replace(world, programs={**world.programs, phase: program})


def _poked(index: np.ndarray, value: int) -> np.ndarray:
    poked = index.copy()
    poked[0] = value
    return poked


# -- corrupt programs are refused at registration ---------------------------------


def _negative_row(world):
    program = world.programs[Phase.LOCAL]
    return _with_program(world, Phase.LOCAL, gather=_poked(program.gather, -1))


def _row_past_the_end(world):
    program = world.programs[Phase.GLOBAL]
    return _with_program(world, Phase.GLOBAL,
                         scatter=_poked(program.scatter, world.n_world_rows))


def _wire_perm_past_the_wire(world):
    program = world.programs[Phase.FINAL_REDIST]
    return _with_program(
        world, Phase.FINAL_REDIST,
        wire_perm=_poked(program.wire_perm, program.gather.size))


def _reads_a_later_phase(world):
    """The first send gathers rows only the final redistribution delivers."""
    earlier = np.concatenate(
        [world.owned_rows] + [program.scatter
                              for phase, program in world.programs.items()
                              if phase is not Phase.FINAL_REDIST])
    late = np.setdiff1d(world.programs[Phase.FINAL_REDIST].scatter, earlier)
    assert late.size, "the fixture pattern must redistribute something"
    program = world.programs[Phase.LOCAL]
    return _with_program(world, Phase.LOCAL,
                         gather=np.full_like(program.gather, late[0]))


def _orphan_row(world):
    return replace(world, n_world_rows=world.n_world_rows + 1)


RANGE_TAMPERS = [_negative_row, _row_past_the_end, _wire_perm_past_the_wire]
LAYOUT_TAMPERS = [_reads_a_later_phase, _orphan_row]


class TestCorruptProgramsRaiseAtRegister:
    @pytest.mark.parametrize("runtime", ["engine", "procs"])
    @pytest.mark.parametrize("tamper", RANGE_TAMPERS)
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

    def test_out_of_range_error_names_the_phase(self):
        with ExchangeEngine(N_RANKS, runtime="engine") as engine:
            with pytest.raises(CommunicationError, match="GLOBAL.* scatter"):
                engine.register(_row_past_the_end(_world()))

    @pytest.mark.parametrize("tamper", LAYOUT_TAMPERS)
    def test_unstageable_layout(self, tamper):
        with ExchangeEngine(N_RANKS, runtime="engine") as engine:
            with pytest.raises(CommunicationError,
                               match="corrupt world exchange"):
                engine.register(tamper(_world()))

    def test_later_phase_error_names_the_phase(self):
        with ExchangeEngine(N_RANKS, runtime="engine") as engine:
            with pytest.raises(CommunicationError,
                               match="LOCAL.* no earlier step delivered"):
                engine.register(_reads_a_later_phase(_world()))


# -- the degraded procs engine runs the one staged path -----------------------------


def _reference_rounds(worlds, scales):
    with ExchangeEngine(N_RANKS, runtime="engine") as engine:
        handles = [engine.register(world) for world in worlds]
        return [[engine.run(handle, _values(world, scale)).tobytes()
                 for scale in scales]
                for handle, world in zip(handles, worlds)]


def test_fallen_back_engine_matches_a_fresh_engine_on_every_program(count_calls):
    before, after = [_world(13), _world(21, Variant.PARTIAL)], _world(34)
    scales = (1.0, -2.5, 4.0)
    expected = _reference_rounds(before + [after], scales)
    engine = ExchangeEngine(
        N_RANKS, runtime="procs", n_workers=N_WORKERS, timeout=30.0,
        retry_backoff=0.01, max_retries=0, on_failure="fallback",
        fault_plan=FaultPlan([FaultSpec("crash", round=0, phase="send",
                                        worker=0, attempt=None)]))
    with engine:
        handles = [engine.register(world) for world in before]
        first = engine.run(handles[0], _values(before[0], scales[0]))
        assert engine.degraded and first.tobytes() == expected[0][0]
        handles.append(engine.register(after))   # registered after the failure
        for handle, world, rounds in zip(handles, before + [after], expected):
            for scale, reference in zip(scales, rounds):
                assert engine.run(handle, _values(world, scale)).tobytes() \
                    == reference

        # Every program was staged exactly once (lazily for the two the pool
        # had accepted), and later rounds stage nothing.
        def more_rounds():
            for handle, world in zip(handles, before + [after]):
                engine.run(handle, _values(world))
        assert count_calls(more_rounds, of=[engine_module._stage]) == 0


def test_healthy_procs_engine_never_stages(count_calls):
    world = _world()
    expected, = _reference_rounds([world], (1.0, 3.0))

    def healthy():
        with ExchangeEngine(N_RANKS, runtime="procs",
                            n_workers=N_WORKERS) as engine:
            handle = engine.register(world)
            for scale, reference in zip((1.0, 3.0), expected):
                assert engine.run(handle, _values(world, scale)).tobytes() \
                    == reference
            assert not engine.degraded

    assert count_calls(healthy, of=[engine_module._stage]) == 0
