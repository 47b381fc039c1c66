"""Phase tables stacked from per-message lists, and cut back into them.

The planner is the library's only producer of
:class:`~repro.collectives.plan.PhaseTable` columns.  A test that needs a
schedule the planner never emits — a tampered, self-addressed, empty or
unowned-key message — lists its messages and stacks them with
:func:`phase_table`; the per-rank oracle of ``reference_world_compile.py``
reads a plan message by message through :func:`plan_messages`;
:func:`stored_nbytes` measures what a table keeps alive.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, NamedTuple

import numpy as np

from repro.collectives.plan import CollectivePlan, Phase, PhaseTable
from repro.pattern.comm_pattern import CommPattern
from repro.utils.arrays import INDEX_DTYPE, counts_to_displs


class Message(NamedTuple):
    """One message: endpoints, its ``(origin, item, final_dest)`` slot rows
    and the ``(origin, item)`` payload rows it packs (``None``: the slots'
    own pairs)."""

    src: int
    dest: int
    slots: object
    payload: object = None


def _column(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=INDEX_DTYPE)


def key_ids(pattern: CommPattern, pairs: np.ndarray):
    """``(ids, key_table)``: the id ``pattern.owned_keys()`` gives every
    ``(origin, item)`` row of ``pairs``.  A pair nobody owns gets an id past
    the owned ones, ``n_owned`` first, in order of first appearance, and
    ``key_table`` — the pattern's ``(holders, items)`` key columns, shared
    when every pair is owned — is extended by it."""
    holders, owned_items, _ = pattern.owned_keys()
    key_of = {pair: key for key, pair in enumerate(
        zip(holders.tolist(), owned_items.tolist()))}
    n_owned = len(key_of)
    ids = _column([key_of.setdefault(pair, len(key_of))
                   for pair in map(tuple, pairs.tolist())])
    if len(key_of) == n_owned:
        return ids, (holders, owned_items)
    extra = np.array(list(key_of)[n_owned:], dtype=INDEX_DTYPE)
    table = (np.append(holders, extra[:, 0]),
             np.append(owned_items, extra[:, 1]))
    for column in table:
        column.flags.writeable = False
    return ids, table


def phase_table(pattern: CommPattern, phase: Phase,
                messages: Iterable) -> PhaseTable:
    """Stack ``messages`` (:class:`Message` fields, as tuples) into one
    phase table of ``pattern``.

    The payload columns share the slot columns unless some message lists
    its payload.
    """
    messages = [Message(*message) for message in messages]
    slots = [np.asarray(m.slots, dtype=INDEX_DTYPE).reshape(-1, 3)
             for m in messages]
    payloads = [rows[:, :2] if m.payload is None
                else np.asarray(m.payload, dtype=INDEX_DTYPE).reshape(-1, 2)
                for m, rows in zip(messages, slots)]
    slot_rows = np.concatenate(slots + [np.empty((0, 3), dtype=INDEX_DTYPE)])
    pairs = np.concatenate(payloads + [np.empty((0, 2), dtype=INDEX_DTYPE)])
    ids, table = key_ids(pattern, np.concatenate([slot_rows[:, :2], pairs]))
    n_slots = len(slot_rows)
    payload = None
    if any(m.payload is not None for m in messages):
        payload = (counts_to_displs([len(rows) for rows in payloads]),
                   ids[n_slots:])
    return PhaseTable(
        phase, _column([m.src for m in messages]),
        _column([m.dest for m in messages]),
        counts_to_displs([len(rows) for rows in slots]), ids[:n_slots],
        _column(slot_rows[:, 2]), table, payload)


def cut_messages(table: PhaseTable) -> List[Message]:
    """The messages of ``table``, one :class:`Message` per row, with the
    slot and payload rows as ``(n, 3)`` / ``(n, 2)`` arrays."""
    slots = np.stack([table.origins, table.items, table.final_dests], axis=1)
    payload = np.stack([table.payload_origins, table.payload_items], axis=1)
    offsets = table.offsets.tolist()
    payload_offsets = table.payload_offsets.tolist()
    return [Message(src, dest, slots[offsets[k]:offsets[k + 1]],
                    payload[payload_offsets[k]:payload_offsets[k + 1]])
            for k, (src, dest) in enumerate(zip(table.srcs.tolist(),
                                                table.dests.tolist()))]


#: What a phase table stores beyond its shared key table.
STORED_COLUMNS = tuple(name for name in PhaseTable.__slots__
                       if name not in ("phase", "key_holders", "key_items"))


def stored_nbytes(table: PhaseTable) -> int:
    """Bytes of the arrays ``table`` stores, other than its shared key
    table.  A view counts its whole base, and a buffer stored twice (a
    non-deduplicated phase's payload ids are its slot ids) counts once."""
    roots = {}
    for name in STORED_COLUMNS:
        column = getattr(table, name)
        while isinstance(column.base, np.ndarray):
            column = column.base
        roots[id(column)] = column
    return sum(column.nbytes for column in roots.values())


def plan_messages(plan: CollectivePlan) -> Dict[Phase, List[Message]]:
    """Every phase of ``plan`` cut into messages: one record per message,
    for the per-rank oracle."""
    return {phase: cut_messages(table) for phase, table in plan.phases.items()}


def tampered(plan: CollectivePlan, phase: Phase, *, extra=(),
             drop_last: bool = False) -> CollectivePlan:
    """A copy of ``plan`` whose ``phase`` lost its last message or gained
    ``extra`` ones.

    Plans are immutable, so tampering means building a new plan from an
    edited message list.
    """
    messages = cut_messages(plan.phases[phase])
    if drop_last:
        messages.pop()
    return dataclasses.replace(plan, phases={
        **plan.phases,
        phase: phase_table(plan.pattern, phase, messages + list(extra))})
