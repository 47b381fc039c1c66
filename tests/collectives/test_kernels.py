"""The gather and fused kernels.

The one backend (numpy) must execute both kernels byte-identically to plain
numpy indexing, the fused kernel must equal the unfused
gather→permute→scatter composition, and the gather must write a row slice of
its own source array — the engine's receive step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import KernelBackend, active_backend
from repro.collectives.kernels import NUMPY_BACKEND


def _phase_arrays(rng, *, n_rows=64, n_wire=200, item_size=3, dtype=np.float64):
    """A synthetic phase: work array plus gather / perm / scatter indices.

    Duplicate scatter targets are made *value-consistent* (every duplicate
    delivers the same source row), matching the world-exchange invariant the
    fused kernel relies on.
    """
    work = rng.standard_normal((n_rows, item_size)).astype(dtype)
    gather = rng.integers(0, n_rows // 2, size=n_wire).astype(np.int64)
    perm = rng.permutation(n_wire).astype(np.int64)
    # Scatter into the upper half so sources are never overwritten mid-phase,
    # with some duplicate targets: dest row depends only on the source row.
    scatter = (n_rows // 2 + (gather[perm] % (n_rows // 2))).astype(np.int64)
    return work, gather, perm, scatter


def test_active_backend_is_numpy():
    assert isinstance(active_backend(), KernelBackend)
    assert active_backend() is NUMPY_BACKEND and NUMPY_BACKEND.name == "numpy"


@pytest.mark.parametrize("backend", [NUMPY_BACKEND], ids=lambda b: b.name)
class TestKernelEquivalence:
    @pytest.mark.parametrize("dtype,item_size", [
        (np.float64, 1), (np.float32, 4), (np.complex128, 2),
    ])
    def test_gather_scatter_match_numpy_reference(self, backend, dtype,
                                                  item_size):
        rng = np.random.default_rng(5)
        work, gather, perm, scatter = _phase_arrays(rng, item_size=item_size)
        work = work.astype(dtype)

        wire = np.empty((gather.size, work.shape[1]), dtype=work.dtype)
        backend.gather(work, gather, wire)
        assert np.array_equal(wire, work[gather])

        # Delivering the packed wire is plain indexing on every runtime.
        delivered = work.copy()
        delivered[scatter] = wire[perm]
        expected = work.copy()
        expected[scatter] = work[gather][perm]
        assert np.array_equal(delivered, expected)

    def test_fused_equals_unfused_composition(self, backend):
        """``fused(work, scatter, gather[perm])`` == gather→permute→scatter."""
        rng = np.random.default_rng(11)
        work, gather, perm, scatter = _phase_arrays(rng)

        unfused = work.copy()
        wire = np.empty((gather.size, work.shape[1]), dtype=work.dtype)
        backend.gather(unfused, gather, wire)
        unfused[scatter] = wire[perm]

        fused = work.copy()
        backend.fused(fused, scatter, np.ascontiguousarray(gather[perm]))
        assert np.array_equal(fused, unfused)

    def test_fused_zero_sized_phase_is_a_no_op(self, backend):
        work = np.arange(12, dtype=np.float64).reshape(6, 2)
        before = work.copy()
        empty = np.empty(0, dtype=np.int64)
        backend.fused(work, empty, empty)
        assert np.array_equal(work, before)

    @pytest.mark.parametrize("n_new", [40, 0])
    def test_gather_into_a_row_slice_of_its_own_array(self, backend, n_new):
        """The staged engine's phase: ``gather(work[:a], src, work[a:b])``."""
        rng = np.random.default_rng(17)
        a = 24
        work = rng.standard_normal((a + n_new + 5, 3))
        src = rng.integers(0, a, size=n_new).astype(np.int64)
        expected = work.copy()
        expected[a:a + n_new] = work[src]
        backend.gather(work[:a], src, work[a:a + n_new])
        assert work.tobytes() == expected.tobytes()
