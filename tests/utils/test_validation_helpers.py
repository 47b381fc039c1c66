"""Unit tests for repro.utils.validation and the error hierarchy."""

import numpy as np
import pytest

from repro.utils.errors import (
    CommunicationError,
    PlanError,
    ReproError,
    ValidationError,
)
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_value_preserving_cast,
)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc_type in (ValidationError, CommunicationError, PlanError):
            assert issubclass(exc_type, ReproError)

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)

    def test_communication_error_is_runtime_error(self):
        assert issubclass(CommunicationError, RuntimeError)


class TestIntChecks:
    def test_positive_int_accepts_numpy_int(self):
        assert check_positive_int("x", np.int64(5)) == 5

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive_int("x", 0)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int("x", True)

    def test_positive_int_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int("x", 3.5)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative_int("x", 0) == 0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative_int("x", -1)

    def test_non_negative_rejects_float(self):
        with pytest.raises(ValidationError, match="must be an int"):
            check_non_negative_int("x", 1.0)

    def test_non_negative_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_non_negative_int("x", False)

    def test_checks_return_plain_int(self):
        assert type(check_non_negative_int("x", np.int32(3))) is int
        assert type(check_positive_int("x", np.uint8(3))) is int

    def test_error_message_names_argument(self):
        with pytest.raises(ValidationError, match="n_ranks"):
            check_positive_int("n_ranks", -3)


class TestValuePreservingCast:
    def test_same_dtype_accepted(self):
        check_value_preserving_cast(np.dtype(np.int64), np.dtype(np.int64))

    def test_within_kind_narrowing_accepted(self):
        check_value_preserving_cast(np.dtype(np.float64), np.dtype(np.float32))
        check_value_preserving_cast(np.dtype(np.int64), np.dtype(np.int32))

    def test_safe_cross_kind_cast_accepted(self):
        check_value_preserving_cast(np.dtype(np.int32), np.dtype(np.float64))

    def test_lossy_int_to_float_rejected(self):
        with pytest.raises(ValidationError, match="cannot be safely cast"):
            check_value_preserving_cast(np.dtype(np.int64), np.dtype(np.float32))

    def test_float_to_int_rejected(self):
        with pytest.raises(ValidationError, match="cast explicitly"):
            check_value_preserving_cast(np.dtype(np.float64), np.dtype(np.int64))

    def test_complex_to_real_rejected(self):
        with pytest.raises(ValidationError):
            check_value_preserving_cast(np.dtype(np.complex128),
                                        np.dtype(np.float64))
