"""Bench: Fig. 12 / Section 6 — the scheduler against its baselines.

Times the full-scale ``fig12.compute`` (sizes 3, 5, 8, 12 and 20, 30
trials each, plus the runtime-scaling probe) and checks the paper's
claims on the result: the blossom matching ties the brute-force optimum
and is never worse than greedy, random or serial pairing.

The CI smoke job runs this module with ``--benchmark-json`` to emit
``BENCH_fig12.json``; the mean gain of every policy per size lands in
``extra_info``.
"""

import pytest

from conftest import emit, run_once

from repro.experiments import fig12


def test_fig12_policy_comparison(benchmark):
    result = run_once(benchmark, fig12.compute)

    for comparison in result["comparisons"]:
        times = comparison.mean_times
        if "brute_force" in times:
            assert times["blossom"] == pytest.approx(
                times["brute_force"], rel=1e-9)
        assert times["blossom"] <= times["greedy"] + 1e-12
        assert times["blossom"] <= times["random"] + 1e-12
        assert times["greedy"] <= times["serial"] + 1e-12
        for name, gain in comparison.mean_gains.items():
            benchmark.extra_info[f"n{comparison.n_clients}.{name}_gain"] = gain

    lines = ["Fig. 12 / Section 6 — scheduler vs baselines "
             "(mean gain over serial, 30 trials per size)"]
    for comparison in result["comparisons"]:
        parts = ", ".join(f"{name} {gain:.3f}x"
                          for name, gain in comparison.mean_gains.items())
        lines.append(f"  n={comparison.n_clients:>3}: {parts}")
    lines.append("  runtime: " + ", ".join(
        f"n={n}: {entry['total_s'] * 1e3:.1f} ms"
        for n, entry in result["runtime"].items()))
    emit(lines)
