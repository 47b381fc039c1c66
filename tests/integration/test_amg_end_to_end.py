"""End-to-end integration: AMG solve whose level-0 SpMV runs on the simulated
runtime through each neighborhood-collective variant.

This stitches every layer together the way the paper's evaluation does:
BoomerAMG-style hierarchy -> per-level communication patterns -> optimized
collectives -> distributed SpMV -> identical numerical results.
"""

import numpy as np
import pytest

from repro.amg.comm_analysis import hierarchy_comm_profiles
from repro.amg.hierarchy import build_hierarchy
from repro.amg.solver import BoomerAMGSolver
from repro.collectives.plan import Variant
from repro.perfmodel.params import lassen_parameters
from repro.sparse.parcsr import ParCSRMatrix
from repro.sparse.partition import RowPartition
from repro.sparse.spmv import WorldSpMV
from repro.sparse.stencils import rotated_anisotropic_diffusion
from repro.topology.presets import paper_mapping


@pytest.fixture(scope="module")
def problem():
    matrix = ParCSRMatrix(rotated_anisotropic_diffusion((24, 24)),
                          RowPartition.even(576, 12))
    hierarchy = build_hierarchy(matrix, seed=5)
    mapping = paper_mapping(12, ranks_per_node=4)
    return matrix, hierarchy, mapping


class TestEndToEnd:
    def test_every_level_spmv_runs_distributed(self, problem, rng):
        """Distributed SpMV with the fully optimized collective on every level."""
        _, hierarchy, mapping = problem
        for level in hierarchy.levels:
            if level.matrix.n_rows < hierarchy.levels[0].matrix.n_ranks:
                continue  # tiny coarsest grids leave most ranks idle; covered elsewhere
            x = rng.random(level.matrix.n_rows)
            with WorldSpMV(level.matrix, mapping, variant=Variant.FULL) as spmv:
                result = spmv.multiply(x)
            assert result.tobytes() == level.matrix.spmv(x).tobytes()

    def test_variants_agree_with_each_other(self, problem, rng):
        matrix, _, mapping = problem
        x = rng.random(matrix.n_rows)
        results = {}
        for variant in (Variant.STANDARD, Variant.PARTIAL, Variant.FULL):
            with WorldSpMV(matrix, mapping, variant=variant) as spmv:
                results[variant] = spmv.multiply(x)
        np.testing.assert_allclose(results[Variant.PARTIAL], results[Variant.STANDARD])
        np.testing.assert_allclose(results[Variant.FULL], results[Variant.STANDARD])

    def test_solver_convergence_independent_of_comm_analysis(self, problem):
        matrix, hierarchy, mapping = problem
        solver = BoomerAMGSolver(matrix, hierarchy=hierarchy)
        b = np.ones(matrix.n_rows)
        result = solver.solve(b, tol=1e-8, max_iterations=80)
        assert result.residual_norms[-1] < 1e-4 * result.residual_norms[0]
        # Communication analysis of the very same hierarchy must not perturb
        # the operators used by the solver.
        model = lassen_parameters(active_per_node=4)
        profiles = hierarchy_comm_profiles(hierarchy, mapping, model=model)
        result_after = solver.solve(b, tol=1e-8, max_iterations=80)
        assert result_after.iterations == result.iterations
        assert len(profiles) == hierarchy.n_levels

    def test_paper_narrative_holds_on_hierarchy(self, problem):
        """The qualitative claims of Section 4.1 hold for this hierarchy."""
        _, hierarchy, mapping = problem
        model = lassen_parameters(active_per_node=4)
        profiles = hierarchy_comm_profiles(hierarchy, mapping, model=model)
        std_peak = max(p.statistics[Variant.STANDARD].max_global_messages
                       for p in profiles)
        opt_peak = max(p.statistics[Variant.PARTIAL].max_global_messages
                       for p in profiles)
        assert opt_peak <= std_peak
        # Aggregation increases local traffic somewhere.
        assert any(p.statistics[Variant.PARTIAL].max_local_messages >
                   p.statistics[Variant.STANDARD].max_local_messages
                   for p in profiles)
        # Dedup helps on at least one level of the rotated anisotropic problem.
        assert any(p.statistics[Variant.FULL].max_global_bytes <
                   p.statistics[Variant.PARTIAL].max_global_bytes
                   for p in profiles)
        # The optimized collectives win in total.
        total_std = sum(p.times[Variant.STANDARD] for p in profiles)
        total_full = sum(min(p.times[Variant.FULL], p.times[Variant.STANDARD])
                         for p in profiles)
        assert total_full <= total_std
