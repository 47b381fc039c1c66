"""Ablation benchmark: load-balancing strategy of the aggregation setup."""

from __future__ import annotations

from conftest import emit

from repro.experiments.ablation import run_balance_ablation


def test_ablation_load_balancing(experiment_context):
    """Round-robin vs byte-balanced leader assignment.

    Byte-balanced assignment may not always change the per-process maximum
    (patterns are fairly uniform on a stencil problem) but it must never make
    the worst-loaded process worse.
    """
    result = run_balance_ablation(experiment_context)
    emit("ablation_balance", result.to_table())

    by_name = dict(zip(result.strategies, result.max_global_bytes))
    assert by_name["bytes"] <= by_name["round_robin"]
    times = dict(zip(result.strategies, result.total_times))
    assert times["bytes"] <= times["round_robin"] * 1.05
