"""The counting fixtures of the root ``conftest.py``: what they count, and
what they refuse to count."""

from __future__ import annotations

import numpy as np
import pytest


def _loop(values):
    total = 0
    for value in values:
        total += value
    return total


def test_count_calls_counts_python_functions_and_c_methods(count_calls):
    array = np.arange(6.0)

    def run():
        _loop(array[:3])
        array.take([0, 1])
        array.take([2])

    assert count_calls(run, of=[_loop]) == 1
    assert count_calls(run, of=[np.ndarray.take]) == 2


@pytest.mark.parametrize("dispatcher", [np.may_share_memory, np.concatenate])
def test_count_calls_refuses_array_function_dispatchers(count_calls,
                                                        dispatcher):
    """A dispatcher makes no profiler event of its own, so ``of=`` refuses
    it by name rather than counting nothing or failing on a missing
    attribute."""
    array = np.arange(3.0)
    with pytest.raises(TypeError, match=rf"cannot count {dispatcher.__name__}"
                                        r": .* scoped monkeypatch"):
        count_calls(np.may_share_memory, array, array, of=[dispatcher])


def test_count_lines_sees_a_loop_that_makes_no_call(count_lines):
    """A loop whose body calls nothing runs one line per element; the same
    sum as one C call runs the same lines at any length."""
    assert count_lines(_loop, range(3)) < count_lines(_loop, range(30))
    assert count_lines(sum, range(3)) == count_lines(sum, range(30)) == 0
    assert count_lines(np.sum, np.arange(3)) \
        == count_lines(np.sum, np.arange(300))


def test_count_lines_skips_what_a_skipped_call_runs(count_lines):
    def outer(n):
        return _loop(range(n))

    assert count_lines(outer, 3, skip=[_loop]) \
        == count_lines(outer, 30, skip=[_loop]) > 0
