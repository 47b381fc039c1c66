"""A list round's cut is the per-rank slicing of the flat round.

``WorldNeighborCollective.exchange`` cuts the round's one fresh result array
by runs, not by ranks: a run of at least ``MIN_RUN`` consecutive ranks that
receive equally many items is one reshape, every other rank one slice.  Over
result lengths with zeros, long runs, singletons, all equal and all
distinct, for ``item_size`` 1 and 3 on both runtimes, the list must be:

(a) one view per rank, equal to ``flat[a:b]`` of the flat round byte for
    byte, shape for shape and dtype for dtype;
(b) views of one fresh array that owns its memory;
(c) sharing no memory with the previous round's result.

The cut itself builds a slice only for a rank outside the long runs, and one
per long run: the periodic 64×64 halo's 4 096 ranks are one slice.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.collectives import Variant, neighbor_alltoallv_init_world
from repro.collectives import persistent
from repro.collectives.persistent import MIN_RUN, result_cuts
from repro.pattern.builders import pattern_from_edges
from repro.topology import paper_mapping


def _pattern(lengths, item_size):
    """Rank ``r`` receives ``lengths[r]`` items, all owned by rank
    ``r + 1`` (cyclically)."""
    n_ranks = len(lengths)
    edges = [((rank + 1) % n_ranks, rank, 1000 * rank + np.arange(length))
             for rank, length in enumerate(lengths) if length]
    return pattern_from_edges(n_ranks, edges, item_size=item_size)


#: Result lengths as runs ``(length, ranks)``: runs longer and shorter than
#: ``MIN_RUN``, zero lengths, and neighbouring runs of one length.
RUNS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2 * MIN_RUN + 3)),
                min_size=1, max_size=5)


def _lengths(runs):
    lengths = [length for length, ranks in runs for _ in range(ranks)]
    return lengths if len(lengths) > 1 else lengths + [0]


def _base(view: np.ndarray) -> np.ndarray:
    return view if view.base is None else view.base


@settings(max_examples=40, deadline=None)
@given(runs=RUNS, item_size=st.sampled_from([1, 3]),
       runtime=st.sampled_from(["engine", "procs"]))
@example(runs=[(0, 3 * MIN_RUN)], item_size=3, runtime="procs")
@example(runs=[(2, 3 * MIN_RUN)], item_size=1, runtime="engine")
@example(runs=[(length, 1) for length in range(MIN_RUN + 5)], item_size=1,
         runtime="engine")
@example(runs=[(1, MIN_RUN), (0, 1), (1, MIN_RUN - 1), (3, 2 * MIN_RUN)],
         item_size=3, runtime="engine")
def test_the_cut_is_the_per_rank_slicing(runs, item_size, runtime):
    lengths = _lengths(runs)
    n_ranks = len(lengths)
    with neighbor_alltoallv_init_world(
            _pattern(lengths, item_size),
            paper_mapping(n_ranks, ranks_per_node=4),
            variant=Variant.STANDARD, runtime=runtime,
            n_workers=1) as collective:
        world = collective.world
        assert np.diff(world.result_offsets).tolist() == lengths
        owned = np.arange(world.owned_items_all.size * item_size,
                          dtype=np.float64)
        if item_size > 1:
            owned = owned.reshape(-1, item_size)
        values = np.split(owned, world.owned_offsets[1:-1])
        bounds = world.result_offsets.tolist()
        flat = collective.exchange_flat(owned)
        previous = collective.exchange(values)
        received = collective.exchange(values)
        # (a)
        assert len(received) == n_ranks
        for view, a, b in zip(received, bounds[:-1], bounds[1:]):
            expected = flat[a:b]
            assert view.shape == expected.shape
            assert view.dtype == expected.dtype
            assert view.tobytes() == expected.tobytes()
        # (b)
        owner = _base(received[0])
        assert owner.flags.owndata
        assert all(_base(view) is owner for view in received)
        assert not np.may_share_memory(owner, owned)
        # (c)
        assert not np.may_share_memory(owner, _base(previous[0]))


def test_every_run_of_min_run_ranks_is_one_reshape():
    """The cut itself: long runs are ``(slice, shape)`` pieces with an
    explicit length, the ranks between them one list of slices."""
    lengths = [2] * MIN_RUN + [0] + [1, 1] + [0] * MIN_RUN + [5]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    ends = 2 * MIN_RUN
    assert result_cuts(offsets, 1) == [
        (slice(0, ends), (MIN_RUN, 2)),
        ([slice(ends, ends), slice(ends, ends + 1),
          slice(ends + 1, ends + 2)], None),
        (slice(ends + 2, ends + 2), (MIN_RUN, 0)),
        ([slice(ends + 2, ends + 7)], None)]
    assert result_cuts(offsets, 3)[2] == (slice(ends + 2, ends + 2),
                                          (MIN_RUN, 0, 3))
    periodic = np.arange(0, 4097 * 64, 64)
    assert result_cuts(periodic, 1) == [(slice(0, 4096 * 64), (4096, 64))]


def _counted_cuts(offsets, item_size):
    """``(cuts, slices)``: ``result_cuts`` and the slices it built."""
    built = []

    def counted(*bounds):
        built.append(bounds)
        return slice(*bounds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persistent, "slice", counted, raising=False)
        cuts = result_cuts(offsets, item_size)
    return cuts, len(built)


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 3),
                               st.integers(1, 3 * MIN_RUN)),
                     min_size=1, max_size=8),
       item_size=st.sampled_from([1, 3]))
@example(runs=[(1, MIN_RUN - 1), (1, 1), (0, MIN_RUN)], item_size=1)
def test_only_ranks_outside_long_runs_get_a_slice(runs, item_size):
    """Cut the way ``exchange`` cuts, the pieces are ``np.split`` of the
    flat result at the rank offsets; the slices built are one per long run
    and one per rank outside them."""
    lengths = _lengths(runs)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    cuts, slices = _counted_cuts(offsets, item_size)

    flat = np.arange(offsets[-1] * item_size, dtype=np.float64)
    if item_size > 1:
        flat = flat.reshape(-1, item_size)
    views = []
    for cut, shape in cuts:
        views.extend(flat[cut].reshape(shape) if shape is not None
                     else [flat[span] for span in cut])
    expected = np.split(flat, offsets[1:-1])
    assert len(views) == len(expected)
    for view, rank_view in zip(views, expected):
        assert view.shape == rank_view.shape
        assert view.tobytes() == rank_view.tobytes()

    run_lengths = [len(list(run)) for _, run in itertools.groupby(lengths)]
    long_runs = [size for size in run_lengths if size >= MIN_RUN]
    assert slices == len(long_runs) + len(lengths) - sum(long_runs)


def test_the_periodic_halo_is_one_slice():
    periodic = np.arange(0, 4097 * 64, 64)
    cuts, slices = _counted_cuts(periodic, 1)
    assert cuts == [(slice(0, 4096 * 64), (4096, 64))]
    assert slices == 1
