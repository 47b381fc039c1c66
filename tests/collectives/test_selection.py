"""Unit tests for model-driven dynamic variant selection."""

import pytest

from repro.collectives.plan import Variant
from repro.collectives.selection import select_variant
from repro.pattern.builders import pattern_from_edges, random_pattern
from repro.perfmodel.params import SetupCostModel, lassen_parameters
from repro.topology.presets import paper_mapping
from repro.utils.errors import ValidationError


@pytest.fixture
def mapping():
    return paper_mapping(32, ranks_per_node=16)


@pytest.fixture
def model():
    return lassen_parameters(active_per_node=16)


class TestSelectVariant:
    def test_dense_pattern_prefers_aggregation(self, mapping, model):
        pattern = random_pattern(32, avg_neighbors=20, avg_items_per_message=8,
                                 duplicate_fraction=0.5, seed=40)
        result = select_variant(pattern, mapping, model, expected_iterations=10_000)
        assert result.variant in (Variant.PARTIAL, Variant.FULL)

    def test_sparse_pattern_prefers_standard(self, mapping, model):
        # One lonely inter-node message: aggregation cannot help.
        pattern = pattern_from_edges(32, [(0, 16, [1])])
        result = select_variant(pattern, mapping, model, expected_iterations=10_000)
        assert result.variant is Variant.STANDARD

    def test_short_lived_pattern_avoids_setup_cost(self, mapping, model):
        pattern = random_pattern(32, avg_neighbors=20, seed=41)
        long_lived = select_variant(pattern, mapping, model, expected_iterations=100_000)
        short_lived = select_variant(pattern, mapping, model, expected_iterations=1)
        def total(variant):
            return long_lived.setup[variant] + \
                long_lived.expected_iterations * long_lived.per_iteration[variant]
        assert total(long_lived.variant) <= total(Variant.STANDARD)
        # With a single iteration the setup can never pay off.
        assert short_lived.variant is Variant.STANDARD

    def test_per_iteration_and_setup_reported_for_all_candidates(self, mapping, model):
        pattern = random_pattern(32, avg_neighbors=10, seed=43)
        result = select_variant(pattern, mapping, model)
        assert set(result.per_iteration) == {Variant.STANDARD, Variant.PARTIAL,
                                             Variant.FULL}
        assert all(v >= 0 for v in result.per_iteration.values())

    def test_invalid_iterations(self, mapping, model):
        pattern = random_pattern(32, seed=45)
        with pytest.raises(ValidationError):
            select_variant(pattern, mapping, model, expected_iterations=0)

    def test_custom_setup_model(self, mapping, model):
        pattern = random_pattern(32, avg_neighbors=20, seed=46)
        expensive_setup = SetupCostModel(base=10.0, per_setup_message=1.0,
                                         per_setup_byte=1.0)
        result = select_variant(pattern, mapping, model, expected_iterations=10,
                                setup_model=expensive_setup)
        assert result.variant is Variant.STANDARD

    @pytest.mark.parametrize("base", [float("nan"), float("inf"), -1.0])
    def test_a_bad_total_is_refused_in_its_own_terms(self, mapping, model, base):
        """A setup model yielding a non-finite or negative total is refused
        in ``select_variant``'s own terms, not as a hierarchy level's."""
        pattern = random_pattern(32, avg_neighbors=10, seed=47)
        with pytest.raises(ValidationError,
                           match="select_variant's partial total") as caught:
            select_variant(pattern, mapping, model,
                           setup_model=SetupCostModel(base=base))
        assert "level" not in str(caught.value)
