"""The seed's per-rank world compiler, kept as a golden baseline.

:func:`repro.collectives.exchange.compile_world_exchange` emits every rank's
compiled exchange as one world program in a single vectorized pass, in the
row layout the engine executes.  This module preserves the implementation it
replaced — compile every rank with
:func:`~repro.collectives.exchange.compile_exchange`, re-base the results
into one rank-major row space, and pair senders with receivers message by
message — as a :class:`ReferenceWorld`.  Relabelled through the layout
oracle of ``reference_staging.py``, the equivalence suites
(``test_world_compile_equivalence.py``, ``test_phase_table.py``) pin the
world pass byte-identical to it.

It is a test oracle, not library code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.collectives.exchange import (
    PHASE_TAGS,
    _AGGREGATED_SCHEDULE,
    _DIRECT_SCHEDULE,
    ExchangeSpec,
    compile_exchange,
)
from repro.collectives.plan import AGGREGATED_PHASES, CollectivePlan, Phase, Variant
from repro.utils.arrays import INDEX_DTYPE, concatenate_or_empty, counts_to_displs
from repro.utils.errors import PlanError


@dataclass
class ReferencePhase:
    """One phase as the seed compiled it: ``wire = work[gather]``, then
    ``work[scatter] = wire[wire_perm]``, plus the message columns."""

    phase: Phase
    tag: int
    gather: np.ndarray
    scatter: np.ndarray
    wire_perm: np.ndarray
    msg_sources: np.ndarray
    msg_dests: np.ndarray
    msg_nbytes: np.ndarray


@dataclass
class ReferenceWorld:
    """The seed's world program: rank ``r``'s rows (what
    :func:`compile_exchange` numbers for it alone) are the world block
    ``[rank_bases[r], rank_bases[r + 1])``; ``owned_rows`` / ``result_rows``
    load the inputs and select the outputs."""

    variant: Variant
    spec: ExchangeSpec
    n_ranks: int
    n_world_rows: int
    rank_bases: np.ndarray
    owned_rows: np.ndarray
    owned_offsets: np.ndarray
    result_rows: np.ndarray
    result_offsets: np.ndarray
    steps: Tuple[Tuple[str, Phase], ...]
    programs: Dict[Phase, ReferencePhase]
    owned_items_all: np.ndarray
    result_items_all: np.ndarray
    result_sources_all: np.ndarray


def compile_world_exchange_reference(plan: CollectivePlan,
                                     spec: ExchangeSpec | None = None
                                     ) -> ReferenceWorld:
    """Compile all ranks' shares of ``plan`` into one batched world program.

    Pinned per-rank reference per the repo's golden-equivalence convention:
    every rank is compiled with :func:`compile_exchange` (so the world program
    is the per-rank programs, verbatim, re-based into one row space), then each
    phase's messages are matched sender-to-receiver: the ``k``-th send from
    ``src`` to ``dest`` in ``src``'s message order pairs with the ``k``-th
    receive from ``src`` in ``dest``'s order — the same FIFO matching the
    mailbox fabric performs — and the pairing becomes the phase's static
    ``wire_perm``.  ``spec`` defaults to the pattern's dtype/item_size.

    This walks a Python loop over ranks (and scans the phase message lists
    once per rank), which is O(ranks × messages); the production
    :func:`compile_world_exchange` emits the same program, renumbered into
    the engine's layout, with one world-level pass and is what every caller
    should use.
    """
    if spec is None:
        spec = ExchangeSpec(dtype=plan.pattern.dtype,
                            item_size=plan.pattern.item_size)
    n_ranks = plan.pattern.n_ranks
    compiled = [compile_exchange(plan, rank, spec) for rank in range(n_ranks)]

    rank_bases = counts_to_displs(np.fromiter((c.n_rows for c in compiled),
                                              dtype=INDEX_DTYPE, count=n_ranks))
    owned_rows = np.concatenate([
        rank_bases[rank] + np.arange(c.n_owned, dtype=INDEX_DTYPE)
        for rank, c in enumerate(compiled)
    ]) if n_ranks else np.empty(0, dtype=INDEX_DTYPE)
    owned_offsets = counts_to_displs(np.fromiter(
        (c.n_owned for c in compiled), dtype=INDEX_DTYPE, count=n_ranks))
    result_rows = np.concatenate([
        rank_bases[rank] + c.result_rows for rank, c in enumerate(compiled)
    ]) if n_ranks else np.empty(0, dtype=INDEX_DTYPE)
    result_offsets = counts_to_displs(np.fromiter(
        (c.n_result for c in compiled), dtype=INDEX_DTYPE, count=n_ranks))

    if plan.variant in (Variant.STANDARD, Variant.POINT_TO_POINT):
        order, schedule = (Phase.DIRECT,), _DIRECT_SCHEDULE
    else:
        order, schedule = AGGREGATED_PHASES, _AGGREGATED_SCHEDULE

    programs: Dict[Phase, ReferencePhase] = {}
    for index, phase in enumerate(order):
        gather_parts: List[np.ndarray] = []
        scatter_parts: List[np.ndarray] = []
        sources: List[int] = []
        dests: List[int] = []
        counts: List[int] = []
        # Wire layout: rank by rank, message by message, in send order.  The
        # dict maps each message (by identity — every PlannedMessage appears in
        # exactly one sender's and one receiver's list) to its wire slice.
        wire_slices: Dict[int, Tuple[int, int]] = {}
        offset = 0
        for rank, world in enumerate(compiled):
            cp = world.phases[index]
            gather_parts.append(rank_bases[rank] + cp.gather)
            send_offsets = cp.send_offsets
            for i, message in enumerate(cp.send_messages):
                start = offset + int(send_offsets[i])
                stop = offset + int(send_offsets[i + 1])
                wire_slices[id(message)] = (start, stop)
                sources.append(message.src)
                dests.append(message.dest)
                counts.append(stop - start)
            offset += int(cp.gather.size)
        perm_parts: List[np.ndarray] = []
        for rank, world in enumerate(compiled):
            cp = world.phases[index]
            scatter_parts.append(rank_bases[rank] + cp.scatter)
            recv_offsets = cp.recv_offsets
            for i, message in enumerate(cp.recv_messages):
                start, stop = wire_slices[id(message)]
                expected = int(recv_offsets[i + 1] - recv_offsets[i])
                if stop - start != expected:
                    raise PlanError(
                        f"phase-{phase.value} message {message.src}->"
                        f"{message.dest} packs {stop - start} items but the "
                        f"receiver unpacks {expected}"
                    )
                perm_parts.append(np.arange(start, stop, dtype=INDEX_DTYPE))
        gather = concatenate_or_empty(gather_parts)
        scatter = concatenate_or_empty(scatter_parts)
        wire_perm = concatenate_or_empty(perm_parts)
        if wire_perm.size != scatter.size:
            raise PlanError(
                f"phase-{phase.value} wire permutation covers {wire_perm.size} "
                f"items but the world scatter expects {scatter.size}"
            )
        programs[phase] = ReferencePhase(
            phase=phase,
            tag=PHASE_TAGS[phase],
            gather=gather,
            scatter=scatter,
            wire_perm=wire_perm,
            msg_sources=np.asarray(sources, dtype=INDEX_DTYPE),
            msg_dests=np.asarray(dests, dtype=INDEX_DTYPE),
            msg_nbytes=np.asarray(counts, dtype=INDEX_DTYPE) * spec.item_bytes,
        )

    return ReferenceWorld(
        variant=plan.variant,
        spec=spec,
        n_ranks=n_ranks,
        n_world_rows=int(rank_bases[-1]),
        rank_bases=rank_bases,
        owned_rows=owned_rows,
        owned_offsets=owned_offsets,
        result_rows=result_rows,
        result_offsets=result_offsets,
        steps=schedule,
        programs=programs,
        owned_items_all=concatenate_or_empty(
            [c.owned_items for c in compiled]),
        result_items_all=concatenate_or_empty(
            [c.result_items for c in compiled]),
        result_sources_all=concatenate_or_empty(
            [c.result_sources for c in compiled]),
    )
