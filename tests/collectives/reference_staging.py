"""The engine's former registration-time staging, kept as a layout oracle.

Before the world compiler numbered rows in the layout the engine executes,
``ExchangeEngine.register`` renumbered every rank-major program itself:
:func:`_stage` put the rows in the order the schedule first writes them and
:func:`_fold_terminal` dropped the blocks no later step reads from an
unbound handle.  Run on :func:`reference_world_compile.
compile_world_exchange_reference`'s world, they give the layout the
compiler's unbound program must equal byte for byte.

It is a test oracle, not library code.
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.engine import _RegisteredProgram
from repro.utils.errors import CommunicationError


def _stage(world: "WorldExchange",
           vector_length: int | None = None) -> _RegisteredProgram:
    """Renumber ``world``'s rows so every step writes one contiguous slice.

    Sort-free and O(rows): a step's first deliveries are the scatter entries
    whose row is still unnumbered, deduplicated by writing entry positions in
    reverse (last write wins, so each row keeps its first deliverer).  With a
    ``vector_length`` the head is the caller's whole vector (an owned row sits
    at its item id), every block stays and the result is the halo rows;
    without one the terminal blocks fold into the result
    (:func:`_fold_terminal`).
    """
    n_rows, n_owned = world.n_world_rows, world.owned_rows.size
    bound = vector_length is not None
    head = vector_length if bound else n_owned
    new_of_old = np.full(n_rows, -1, dtype=np.int64)
    new_of_old[world.owned_rows] = \
        world.owned_items_all if bound else np.arange(n_owned)
    steps, a = [], head
    for kind, phase in world.steps:
        program = world.programs[phase]
        if kind == "send":
            steps.append((program, None, 0, 0))
            continue
        fresh = np.flatnonzero(new_of_old[program.scatter] < 0)
        rows = program.scatter[fresh]
        new_of_old[rows[::-1]] = fresh[::-1]  # scratch, renumbered just below
        keep = new_of_old[rows] == fresh
        fresh, rows = fresh[keep], rows[keep]
        b = a + fresh.size
        new_of_old[rows] = np.arange(a, b)
        src = new_of_old[program.gather[program.wire_perm[fresh]]]
        if src.size and not (0 <= src.min() and src.max() < a):
            raise CommunicationError(f"corrupt world exchange: {phase} sends "
                                     f"a row that no earlier step delivered")
        steps.append((program, src, a, b))
        a = b
    staged = a - head + n_owned
    if staged != n_rows or (n_rows and new_of_old.min() < 0):
        raise CommunicationError(
            "corrupt world exchange: every world row must be owned or "
            f"delivered by exactly one step ({staged} of {n_rows} rows staged)")
    result = new_of_old[world.result_rows]
    if not bound:
        steps, result, a = _fold_terminal(steps, result, a)
    work = np.zeros((a, world.spec.item_size), dtype=world.spec.dtype)
    return _RegisteredProgram(world, vector_length, work, steps, result)


def _fold_terminal(steps, result: np.ndarray, n_rows: int):
    """Drop the blocks of *terminal* receive steps — read by no later step's
    ``src`` — from an unbound layout: a result row in one reads that step's
    source row instead, so the round's output gather makes the delivery.

    Sort-free and O(rows): mark every ``src``, then test each block (only
    later steps can read it).  A terminal step keeps its schedule slot with
    an empty range; the blocks after it move down to close the gap.
    Returns ``(steps, result, rows still in work)``.
    """
    read = np.zeros(n_rows, dtype=bool)
    for _, src, _, _ in steps:
        if src is not None:
            read[src] = True
    final = np.arange(n_rows)       # the row each staged row is read from
    folded, gap = [], 0
    for program, src, a, b in steps:
        if src is None:
            folded.append((program, src, 0, 0))
        elif read[a:b].any():
            final[a:b] -= gap
            folded.append((program, final[src], a - gap, b - gap))
        else:
            final[a:b] = final[src]
            gap += b - a
            folded.append((program, src[:0], b - gap, b - gap))
    return folded, final[result], n_rows - gap
