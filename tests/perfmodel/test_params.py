"""Unit tests for the named parameter sets and auxiliary cost models."""

import pytest

from repro.perfmodel.params import (
    GraphCreationModel,
    SetupCostModel,
    graph_creation_model,
    lassen_parameters,
)
from repro.topology.machine import Locality
from repro.utils.errors import ValidationError


class TestNamedParameterSets:
    def test_lassen_orderings(self):
        model = lassen_parameters()
        assert model.alpha(Locality.INTRA_SOCKET) < model.alpha(Locality.INTER_NODE)
        assert model.beta(Locality.INTER_SOCKET) > model.beta(Locality.INTRA_SOCKET)

    def test_lassen_respects_active_per_node(self):
        few = lassen_parameters(active_per_node=1)
        many = lassen_parameters(active_per_node=32)
        assert few.active_per_node == 1 and many.active_per_node == 32

class TestGraphCreationModel:
    def test_paper_ratio_at_2048(self):
        spectrum = graph_creation_model("spectrum")
        mvapich = graph_creation_model("mvapich")
        ratio = spectrum.cost(2048) / mvapich.cost(2048)
        # The paper reports 8.6x; the calibrated models must land nearby.
        assert 7.0 <= ratio <= 10.5

    def test_cost_increases_with_processes(self):
        model = graph_creation_model("spectrum")
        assert model.cost(2048) > model.cost(256) > model.cost(2)

    def test_mvapich_scales_better(self):
        spectrum = graph_creation_model("spectrum")
        mvapich = graph_creation_model("mvapich")
        spectrum_growth = spectrum.cost(2048) / spectrum.cost(256)
        mvapich_growth = mvapich.cost(2048) / mvapich.cost(256)
        assert mvapich_growth < spectrum_growth

    def test_neighbors_add_cost(self):
        model = graph_creation_model("mvapich")
        assert model.cost(64, avg_neighbors=100) > model.cost(64, avg_neighbors=0)

    def test_unknown_implementation(self):
        with pytest.raises(ValidationError):
            graph_creation_model("openmpi-nonexistent")

    def test_case_insensitive(self):
        assert graph_creation_model("SPECTRUM").name == "spectrum"

    def test_invalid_arguments(self):
        model = graph_creation_model("spectrum")
        with pytest.raises(ValidationError):
            model.cost(0)
        with pytest.raises(ValidationError):
            model.cost(4, avg_neighbors=-1)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            GraphCreationModel(name="x", base=-1.0, per_process=0.0)


class TestSetupCostModel:
    def test_grows_with_messages_and_bytes(self):
        model = SetupCostModel()
        assert model.cost(10, 0) > model.cost(0, 0)
        assert model.cost(0, 10_000) > model.cost(0, 0)

    def test_base_cost_positive(self):
        assert SetupCostModel().cost(0, 0) > 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            SetupCostModel().cost(-1, 0)
