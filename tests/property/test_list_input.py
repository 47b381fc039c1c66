"""Per-rank list input is the flat round, whichever path loads it.

``exchange`` takes every rank's owned values as one flat array or as one
array per rank.  A list or tuple of exact ``ndarray`` s of the exchange's
dtype, ndim and owned lengths is checked and concatenated into the work array
by C-level calls; every other accepted form — value-preserving casts, nested
Python lists, ``(n, 1)`` columns, ``ndarray`` subclasses — goes through the
checked per-rank path.  Over variant × dtype × item size × runtime:

(a) every accepted form delivers the flat round's bytes;
(b) every rejected form — a wrong length, a wrong trailing dimension,
    complex values into a real exchange, the wrong number of ranks —
    raises :class:`ValidationError` with the checked path's message, and
    the next round is still the flat one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.collectives import Variant, neighbor_alltoallv_init_world
from repro.pattern import random_pattern
from repro.topology import paper_mapping
from repro.utils.errors import ValidationError

VARIANTS = (Variant.STANDARD, Variant.PARTIAL, Variant.FULL)
DTYPES = (np.float64, np.float32, np.int64, np.complex128)
#: A dtype every oracle value survives a round trip through.
ROUND_TRIP = {np.float64: np.float32, np.float32: np.float64,
              np.int64: np.int32, np.complex128: np.complex64}


class Tagged(np.ndarray):
    """An ``ndarray`` subclass: accepted, but not as an exact ``ndarray``."""


def _oracle(items: np.ndarray, item_size: int, dtype) -> np.ndarray:
    """The value of every item from its id alone; exact in ``dtype`` and in
    its ``ROUND_TRIP`` partner."""
    table = ((items * 7 + 3) % 1021)[:, None] + 1024 * np.arange(item_size)
    if np.dtype(dtype).kind == "c":
        table = table + 1j * (table % 5)
    table = table.astype(dtype)
    return table.reshape(-1) if item_size == 1 else table


def _accepted_forms(parts, dtype, item_size):
    """``(name, per-rank input)`` of every form that must load as is."""
    forms = [
        ("exact list", parts),
        ("exact tuple", tuple(parts)),
        ("strided views", [np.repeat(part, 2, axis=0)[::2] for part in parts]),
        ("cast", [part.astype(ROUND_TRIP[dtype]) for part in parts]),
        # An empty rank's [] would be a float64 (0,) array: keep its array.
        ("python lists", [part.tolist() if part.size else part
                          for part in parts]),
        ("subclass", [part.view(Tagged) for part in parts]),
    ]
    if item_size == 1:
        forms.append(("columns", [part.reshape(-1, 1) for part in parts]))
    return forms


def _shape_message(rank: int, n_owned: int, item_size: int, shape) -> str:
    expected = (n_owned,) if item_size == 1 else (n_owned, item_size)
    return (f"rank {rank} owns {n_owned} items of size {item_size}; values "
            f"must have shape {expected}, got {shape}")


def _rejected_forms(parts, dtype, item_size, n_ranks):
    """``(name, per-rank input, exact message)`` of every form that raises."""
    n_owned = parts[0].shape[0]
    tail = () if item_size == 1 else (item_size,)
    longer = (n_owned + 1, *tail)
    wider = (n_owned, item_size + 1)
    forms = [
        ("wrong length", [np.zeros(longer, dtype), *parts[1:]],
         _shape_message(0, n_owned, item_size, longer)),
        ("wrong trailing dimension", [np.zeros(wider, dtype), *parts[1:]],
         _shape_message(0, n_owned, item_size, wider)),
        ("wrong rank count", parts[:-1],
         f"expected one value array per rank ({n_ranks}), got {n_ranks - 1}"),
    ]
    if np.dtype(dtype).kind != "c":
        forms.append((
            "complex into real", [part.astype(np.complex128) for part in parts],
            "values of dtype complex128 cannot be safely cast to the "
            f"collective's {np.dtype(dtype)}; cast explicitly if truncation "
            "is intended"))
    return forms


@st.composite
def list_case(draw):
    ranks_per_node = draw(st.sampled_from([2, 4]))
    n_ranks = ranks_per_node * draw(st.integers(min_value=1, max_value=3))
    pattern = random_pattern(
        n_ranks, avg_neighbors=draw(st.sampled_from([1.0, 3.0])),
        avg_items_per_message=4.0,
        duplicate_fraction=draw(st.sampled_from([0.0, 0.5])),
        items_per_rank=draw(st.sampled_from([1, 6])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        dtype=draw(st.sampled_from(DTYPES)),
        item_size=draw(st.sampled_from([1, 3])))
    return (pattern, paper_mapping(n_ranks, ranks_per_node=ranks_per_node),
            draw(st.sampled_from(VARIANTS)),
            draw(st.sampled_from(["engine", "procs"])))


@settings(max_examples=30, deadline=None)
@given(list_case())
def test_every_list_form_is_the_flat_round_or_the_checked_error(case):
    pattern, mapping, variant, runtime = case
    dtype, item_size = pattern.dtype.type, pattern.item_size
    with neighbor_alltoallv_init_world(pattern, mapping, variant=variant,
                                       runtime=runtime) as collective:
        world = collective.world
        flat = _oracle(world.owned_items_all, item_size, dtype)
        expected = collective.exchange_flat(flat).tobytes()
        parts = np.split(flat, world.owned_offsets[1:-1])
        assert len(parts) == pattern.n_ranks
        # (a)
        for name, values in _accepted_forms(parts, dtype, item_size):
            received = collective.exchange(values)
            assert all(part.dtype == pattern.dtype for part in received), name
            assert b"".join(part.tobytes() for part in received) == expected, \
                name
        # (b)
        for name, values, message in _rejected_forms(parts, dtype, item_size,
                                                     pattern.n_ranks):
            try:
                collective.exchange(values)
            except ValidationError as error:
                assert str(error) == message, name
            else:
                raise AssertionError(f"{name} was accepted")
            assert collective.exchange_flat(flat).tobytes() == expected, name
