"""Unit tests for the locality-aware cost model and the postal test oracle."""

import dataclasses

import numpy as np
import pytest

from repro.perfmodel.locality import LocalityAwareModel, LocalityParameters
from repro.topology.machine import Locality
from repro.utils.errors import ValidationError
from oracles import PostalModel


class TestPostalModel:
    def test_alpha_beta_form(self):
        model = PostalModel(alpha=1e-6, beta=1e-9)
        assert model.message_time(1000, Locality.INTER_NODE) == pytest.approx(2e-6)

    def test_self_messages_free(self):
        model = PostalModel()
        assert model.message_time(100, Locality.SELF) == 0.0

    def test_ignores_locality(self):
        model = PostalModel()
        assert model.message_time(64, Locality.INTRA_SOCKET) == \
            model.message_time(64, Locality.INTER_NODE)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValidationError):
            PostalModel(alpha=-1.0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValidationError):
            PostalModel().message_time(-1, Locality.INTER_NODE)

    def test_phase_time_sums_each_process_messages(self):
        model = PostalModel(alpha=1e-6, beta=0.0)
        assert model.phase_time(np.zeros(5, dtype=np.int64),
                                np.zeros(5, dtype=np.int64),
                                np.full(5, Locality.INTER_NODE)) \
            == pytest.approx(5e-6)

    def test_phase_time_is_max_over_processes(self):
        model = PostalModel(alpha=1e-6, beta=0.0)
        sources = np.array([1, 0, 1, 1, 1, 0, 1, 1, 1])
        assert model.phase_time(sources, np.zeros(9, dtype=np.int64),
                                np.full(9, Locality.INTER_NODE)) \
            == pytest.approx(7e-6)

    def test_phase_time_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert PostalModel().phase_time(empty, empty, empty) == 0.0

    def test_describe_names_parameters(self):
        text = PostalModel(alpha=2e-6, beta=3e-9).describe()
        assert text.startswith("PostalModel(") and "2e-06" in text and "3e-09" in text


class TestLocalityAwareModel:
    def test_intra_socket_cheapest_for_small_messages(self, lassen_model):
        small = 64
        intra = lassen_model.message_time(small, Locality.INTRA_SOCKET)
        inter_socket = lassen_model.message_time(small, Locality.INTER_SOCKET)
        inter_node = lassen_model.message_time(small, Locality.INTER_NODE)
        assert intra < inter_socket < inter_node

    def test_inter_socket_worst_for_large_messages(self, lassen_model):
        large = 4 * 1024 * 1024
        inter_socket = lassen_model.message_time(large, Locality.INTER_SOCKET)
        inter_node = lassen_model.message_time(large, Locality.INTER_NODE)
        # The paper: inter-CPU large messages cost more than inter-node.
        assert inter_socket > inter_node

    def test_self_free(self, lassen_model):
        assert lassen_model.message_time(10_000, Locality.SELF) == 0.0

    def test_fewer_active_per_node_reduces_injection_penalty(self,
                                                             lassen_model):
        fewer = dataclasses.replace(lassen_model, active_per_node=1)
        many = dataclasses.replace(lassen_model, active_per_node=64)
        size = 1 << 20
        assert fewer.message_time(size, Locality.INTER_NODE) <= \
            many.message_time(size, Locality.INTER_NODE)

    def test_missing_class_rejected(self):
        with pytest.raises(ValidationError):
            LocalityAwareModel(parameters={
                Locality.INTRA_SOCKET: LocalityParameters(1e-6, 1e-9)})

    def test_alpha_beta_accessors(self, lassen_model):
        assert lassen_model.alpha(Locality.SELF) == 0.0
        assert lassen_model.beta(Locality.INTER_NODE) > 0.0
        assert lassen_model.alpha(Locality.INTER_NODE) > \
            lassen_model.alpha(Locality.INTRA_SOCKET)

    def test_message_times_equal_message_time_bit_for_bit(self,
                                                          lassen_model):
        """The closed form over columns, inter-node injection cap
        included, prices every message as :meth:`message_time` does."""
        nbytes = np.array([0, 8, 64, 1 << 20, 3 << 22] * 4)
        codes = np.repeat(np.array([int(c) for c in Locality]), 5)
        for model in (lassen_model,
                      dataclasses.replace(lassen_model, active_per_node=1),
                      dataclasses.replace(lassen_model, active_per_node=256)):
            loop = [model.message_time(size, Locality(code))
                    for size, code in zip(nbytes.tolist(), codes.tolist())]
            assert model.message_times(nbytes, codes).tolist() == loop
        with pytest.raises(ValidationError):
            lassen_model.message_times(np.array([4, -1]), np.array([1, 1]))

    def test_describe_mentions_classes(self, lassen_model):
        text = lassen_model.describe()
        assert "intra_socket" in text and "inter_node" in text
