"""Test oracles: small reference implementations the library no longer ships.

Each one is the plain, obviously-correct form of something the library does
another way, kept only so tests can check against it:

* :func:`jacobi` — repeated out-of-place weighted-Jacobi sweeps on the
  assembled matrix, the reference the world-stepped smoother is pinned to;
* :func:`edge_maps` — a pattern's per-rank send and receive maps, read off
  its CSR columns, for tests that check one rank's edges;
* :func:`patterns_equivalent` — pattern equality up to the order of items
  within a message;
* :class:`PostalModel` — the uniform alpha-beta cost model, which prices
  plans in the modeled-time tests;
* :func:`replay_hops` / :func:`replay_round` — a world exchange run hop by
  hop on its replay columns, the reference the engine's one-gather round is
  pinned to;
* :func:`schedule_pattern` — the pattern of a row of a V-cycle's exchange
  schedule, built from the hierarchy, so a test checks the cycle's
  collectives and traffic against plans it made itself.

pytest puts ``tests/`` on ``sys.path`` when it loads ``tests/conftest.py``,
so any test imports them as ``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amg.relax import weighted_jacobi_iteration
from repro.amg.vcycle import coarse_gather_pattern
from repro.perfmodel.base import CostModel
from repro.sparse.comm_pkg import pattern_from_parcsr
from repro.topology.machine import Locality
from repro.utils.errors import ValidationError


def jacobi(A, b: np.ndarray, x: np.ndarray, *, sweeps: int = 1,
           omega: float = 2.0 / 3.0) -> np.ndarray:
    """Run ``sweeps`` weighted-Jacobi iterations."""
    if sweeps < 0:
        raise ValidationError("sweeps must be >= 0")
    result = np.array(x, dtype=np.float64, copy=True)
    for _ in range(sweeps):
        result = weighted_jacobi_iteration(A, b, result, omega=omega)
    return result


def edge_maps(pattern):
    """``(sends, recvs)``: ``sends[src]`` maps each destination of rank
    ``src`` to the item ids it sends there, ``recvs[dest]`` each source of
    rank ``dest`` to the ids it receives, both in ascending rank order.

    Read off ``pattern.csr()``: the item arrays are read-only slices of the
    stored item column, and a rank with no edges maps to ``{}``.
    """
    src_offsets, dests, item_offsets, items = pattern.csr()
    srcs = np.repeat(np.arange(pattern.n_ranks), np.diff(src_offsets))
    sends = [{} for _ in range(pattern.n_ranks)]
    recvs = [{} for _ in range(pattern.n_ranks)]
    for edge, (src, dest) in enumerate(zip(srcs.tolist(), dests.tolist())):
        sends[src][dest] = recvs[dest][src] = \
            items[item_offsets[edge]:item_offsets[edge + 1]]
    return sends, recvs


def patterns_equivalent(a, b) -> bool:
    """True when two patterns deliver the same multiset of items per (src, dest).

    Unlike ``CommPattern.__eq__`` this ignores the order of items within a
    message, which is the right notion of equivalence after a round-trip
    through serialization.
    """
    if a.n_ranks != b.n_ranks or a.item_bytes != b.item_bytes:
        return False

    def multisets(pattern):
        return [{dest: sorted(items.tolist()) for dest, items in sends.items()}
                for sends in edge_maps(pattern)[0]]
    return multisets(a) == multisets(b)


def schedule_pattern(hierarchy, level: int, operator: str):
    """The pattern that the ``(level, operator)`` row of
    ``WorldVCycle.schedule`` exchanges: the halo of level ``level``'s
    operator ``A``, restriction ``R`` or prolongation ``P``, or the
    coarsest level's ``gather``."""
    if operator == "gather":
        return coarse_gather_pattern(hierarchy.levels[level].matrix.partition)
    if operator == "A":
        return pattern_from_parcsr(hierarchy.levels[level].matrix)
    if operator == "R":
        return pattern_from_parcsr(hierarchy.restriction_matrix(level))
    if operator == "P":
        return pattern_from_parcsr(hierarchy.prolongation_matrix(level))
    raise ValueError(f"no schedule operator {operator!r}")


@dataclass(frozen=True)
class PostalModel(CostModel):
    """Uniform alpha-beta (Hockney) model: ``T(s) = alpha + s * beta``.

    A per-message latency plus a per-byte transfer cost, identical for every
    path; it ignores locality, so it predicts no benefit from aggregation.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (inverse bandwidth).
    """

    alpha: float = 1.0e-6
    beta: float = 1.0e-9

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be non-negative")

    def message_time(self, nbytes: int, locality: Locality) -> float:
        """Latency plus bandwidth term; locality is ignored by design."""
        if nbytes < 0:
            raise ValidationError("nbytes must be >= 0")
        if locality is Locality.SELF:
            return 0.0
        return self.alpha + nbytes * self.beta

    def describe(self) -> str:
        return f"PostalModel(alpha={self.alpha:.3g}s, beta={self.beta:.3g}s/B)"


def replay_hops(world, values: np.ndarray, owned_rows=None):
    """Run ``world``'s phases hop by hop on its replay columns.

    ``values`` (every owned value, in ``owned_items_all`` order) load rows
    ``owned_rows`` (default ``[0, n_owned)``) of an ``n_world_rows`` work
    array; then, in schedule order, each ``("send", p)`` step packs its wire
    ``wire = work[gather]`` and each ``("recv", p)`` step lands it,
    ``work[scatter] = wire[wire_perm]``.  Beside the values the same hops
    carry the owned row each replay row copies (``key``), and every landed
    row takes its message's receiver as ``holder``.  A send that packs a
    row no earlier step wrote, or one its sender does not hold, fails an
    assertion.  Returns ``(work, holder, key)``.
    """
    n_owned = world.owned_items_all.size
    if owned_rows is None:
        owned_rows = np.arange(n_owned)
    item_size = world.spec.item_size
    work = np.zeros((world.n_world_rows, item_size), dtype=values.dtype)
    work[owned_rows] = values.reshape(-1, item_size)
    key = np.full(world.n_world_rows, -1)
    key[owned_rows] = np.arange(n_owned)
    holder = np.full(world.n_world_rows, -1)
    holder[owned_rows] = np.repeat(np.arange(world.n_ranks),
                                   np.diff(world.owned_offsets))
    wires = {}
    for kind, phase in world.steps:
        program = world.programs[phase]
        counts = program.msg_nbytes // world.spec.item_bytes
        if kind == "send":
            gather = program.gather
            assert (key[gather] >= 0).all(), f"{phase} sends an unwritten row"
            assert np.array_equal(holder[gather],
                                  np.repeat(program.msg_sources, counts)), \
                f"{phase} sends a row its sender does not hold"
            wires[phase] = (work[gather], key[gather])
        else:
            wire, wire_keys = wires.pop(phase)
            scatter, perm = program.scatter, program.wire_perm
            work[scatter] = wire[perm]
            key[scatter] = wire_keys[perm]
            holder[scatter] = np.repeat(program.msg_dests, counts)[perm]
    return work, holder, key


def replay_round(world, values: np.ndarray) -> np.ndarray:
    """The output of one round of ``world``, read off :func:`replay_hops`:
    entry ``i`` is the value its receiver holds of the owned row
    ``world.result_rows[i]``, which the hops must have delivered to it."""
    work, holder, key = replay_hops(world, values)
    receivers = np.repeat(np.arange(world.n_ranks),
                          np.diff(world.result_offsets))
    width = world.owned_items_all.size + 1
    held = holder * width + key
    order = np.argsort(held, kind="stable")
    wanted = receivers * width + world.result_rows
    rows = order[np.minimum(np.searchsorted(held[order], wanted),
                            order.size - 1)] if order.size \
        else np.zeros(0, dtype=np.int64)
    assert np.array_equal(held[rows], wanted), \
        "a receiver never holds an output entry's value"
    result = work[rows]
    return result.reshape(-1) if world.spec.item_size == 1 else result
