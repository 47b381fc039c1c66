"""The gather and fused kernels and their backend selection.

Every available backend must execute both kernels byte-identically to the
plain-numpy reference, the fused kernel must equal the unfused
gather→permute→scatter composition, and the ``REPRO_KERNELS`` override must
force the numpy fallback (or fail loudly when numba is requested but not
importable) — checked both in-process and through a subprocess so the
import-time default is part of the test.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.collectives import (
    HAVE_NUMBA,
    KERNELS_ENV,
    KernelBackend,
    Variant,
    WorldNeighborCollective,
    active_backend,
    available_backends,
    make_plan,
    select_backend,
)
from repro.collectives.kernels import NUMPY_BACKEND
from repro.pattern import random_pattern
from repro.topology import paper_mapping
from repro.utils.errors import ValidationError

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


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


@pytest.mark.parametrize("backend_name", available_backends())
class TestKernelEquivalence:
    @pytest.mark.parametrize("dtype,item_size", [
        (np.float64, 1), (np.float32, 4), (np.complex128, 2),
    ])
    def test_gather_scatter_match_numpy_reference(self, backend_name, dtype,
                                                  item_size):
        backend = select_backend(backend_name)
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

    def test_fused_equals_unfused_composition(self, backend_name):
        """``fused(work, scatter, gather[perm])`` == gather→permute→scatter."""
        backend = select_backend(backend_name)
        rng = np.random.default_rng(11)
        work, gather, perm, scatter = _phase_arrays(rng)

        unfused = work.copy()
        wire = np.empty((gather.size, work.shape[1]), dtype=work.dtype)
        backend.gather(unfused, gather, wire)
        unfused[scatter] = wire[perm]

        fused = work.copy()
        backend.fused(fused, scatter, np.ascontiguousarray(gather[perm]))
        assert np.array_equal(fused, unfused)

    def test_fused_zero_sized_phase_is_a_no_op(self, backend_name):
        backend = select_backend(backend_name)
        work = np.arange(12, dtype=np.float64).reshape(6, 2)
        before = work.copy()
        empty = np.empty(0, dtype=np.int64)
        backend.fused(work, empty, empty)
        assert np.array_equal(work, before)

    @pytest.mark.parametrize("n_new", [40, 0])
    def test_gather_into_a_row_slice_of_its_own_array(self, backend_name, n_new):
        """The staged engine's phase: ``gather(work[:a], src, work[a:b])``."""
        backend = select_backend(backend_name)
        rng = np.random.default_rng(17)
        a = 24
        work = rng.standard_normal((a + n_new + 5, 3))
        src = rng.integers(0, a, size=n_new).astype(np.int64)
        expected = work.copy()
        expected[a:a + n_new] = work[src]
        backend.gather(work[:a], src, work[a:a + n_new])
        assert work.tobytes() == expected.tobytes()


class TestBackendSelection:
    def test_numpy_backend_always_available(self):
        assert "numpy" in available_backends()
        assert select_backend("numpy") is NUMPY_BACKEND

    def test_active_backend_matches_environment(self):
        assert active_backend().name in available_backends()

    def test_backend_instance_passes_through(self):
        assert select_backend(NUMPY_BACKEND) is NUMPY_BACKEND

    def test_name_is_normalized(self):
        assert select_backend("  NumPy ") is NUMPY_BACKEND

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            select_backend("cuda")

    @pytest.mark.skipif(HAVE_NUMBA, reason="needs a numba-free environment")
    def test_numba_without_numba_is_a_hard_error(self):
        with pytest.raises(ValidationError, match="numba is not importable"):
            select_backend("numba")

    def test_env_override_consulted_per_call(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        assert select_backend(None).name == "numpy"
        monkeypatch.setenv(KERNELS_ENV, "fortran")
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            select_backend(None)

    def test_engine_accepts_explicit_backend(self):
        """An explicitly pinned backend produces the default results."""
        from repro.simmpi import ExchangeEngine

        n_ranks = 6
        pattern = random_pattern(n_ranks, avg_neighbors=3, seed=8)
        mapping = paper_mapping(n_ranks, ranks_per_node=3)
        plan = make_plan(pattern, mapping, Variant.FULL)
        values = None
        results = []
        for kernels in (None, "numpy", NUMPY_BACKEND):
            engine = ExchangeEngine(n_ranks, kernels=kernels)
            with WorldNeighborCollective(plan, engine=engine) as collective:
                if values is None:
                    values = [10.0 * rank
                              + collective.owned_item_ids(rank).astype(float)
                              for rank in range(n_ranks)]
                results.append(collective.exchange(values))
            engine.close()
        for rank in range(n_ranks):
            assert np.array_equal(results[0][rank], results[1][rank])
            assert np.array_equal(results[0][rank], results[2][rank])


class TestImportTimeOverride:
    """``REPRO_KERNELS`` steers the import-time default in a fresh process."""

    def _run(self, env_value, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        if env_value is None:
            env.pop(KERNELS_ENV, None)
        else:
            env[KERNELS_ENV] = env_value
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300,
                              env=env)

    def test_numpy_override_forces_fallback(self):
        """Regression: the fallback must win even where numba is installed."""
        result = self._run("numpy", (
            "from repro.collectives.kernels import active_backend\n"
            "print(active_backend().name)\n"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "numpy"

    def test_default_matches_numba_availability(self):
        result = self._run(None, (
            "from repro.collectives.kernels import HAVE_NUMBA, active_backend\n"
            "expected = 'numba' if HAVE_NUMBA else 'numpy'\n"
            "assert active_backend().name == expected, active_backend().name\n"
            "print('OK')\n"
        ))
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout

    @pytest.mark.skipif(HAVE_NUMBA, reason="needs a numba-free environment")
    def test_numba_override_without_numba_fails_at_import(self):
        result = self._run("numba", "import repro.collectives.kernels\n")
        assert result.returncode != 0
        assert "numba is not importable" in result.stderr
