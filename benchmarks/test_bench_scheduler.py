"""Bench: Section 6 — the SIC-aware scheduler as a library.

Covers the scaling half of the scheduling claim: the blossom matching
runs in polynomial time on realistic WLAN sizes — plus the fast-path
claim: the vectorised cost graph + array blossom pipeline beats the
scalar reference pipeline by >= 5x on a 64-client backlog while
returning bit-identical schedules.

The CI smoke job runs this module with ``--benchmark-json`` to emit
``BENCH_scheduler.json``; speedup and phase attributions land in each
benchmark's ``extra_info``.  The policy comparison (blossom vs brute
force, greedy, random and serial) is ``benchmarks/test_bench_fig12.py``.
"""

import time

import pytest

from conftest import at_full_scale, emit, run_once

from repro.experiments import fig12
from repro.scheduling.scheduler import SicScheduler
from repro.techniques.pairing import TechniqueSet
from repro.util.rng import make_rng
from repro.util.timing import PhaseTimer


@pytest.mark.parametrize("n_clients", [8, 16, 32, 64, 128, 256])
def test_scheduler_runtime_scaling(benchmark, n_clients):
    """Raw scheduling latency per backlog size (the O(n^3) claim).

    One round per size — this is a scaling probe, not a microbench —
    with the cost-build/matching/assembly phase split recorded in
    ``extra_info`` so BENCH_scheduler.json shows where the time goes.
    """
    rng = make_rng(2010)
    scheduler = SicScheduler(techniques=TechniqueSet.ALL)
    clients = fig12.random_clients(n_clients, rng,
                                   noise_w=scheduler.channel.noise_w)
    timer = PhaseTimer()
    schedule = benchmark.pedantic(
        lambda: scheduler.schedule(clients, timer=timer),
        rounds=1, iterations=1)
    assert sorted(schedule.client_names) == sorted(
        c.name for c in clients)
    for phase, seconds in timer.phases.items():
        benchmark.extra_info[f"{phase}_s"] = seconds


def test_scheduler_fast_path_speedup(benchmark):
    """The PR's headline number: fast pipeline vs the frozen scalar
    pipeline on a 64-client backlog, bit-identical outputs required.

    Best-of timing on both sides keeps the ratio robust to scheduler
    jitter; the >= 5x floor applies at full evaluation scale, smoke
    runs assert a relaxed floor (convention: benches relax their
    tightest assertions below full scale).  The measured ratio is
    recorded in ``extra_info`` either way.
    """
    rng = make_rng(2010)
    scheduler = SicScheduler(techniques=TechniqueSet.ALL)
    clients = fig12.random_clients(64, rng,
                                   noise_w=scheduler.channel.noise_w)

    fast = scheduler.schedule(clients)
    scalar = scheduler.schedule_scalar(clients)
    assert fast.to_dict() == scalar.to_dict()

    def best_of(fn, reps):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            fn(clients)
            best = min(best, time.perf_counter() - start)
        return best

    fast_s = best_of(scheduler.schedule, 4)
    scalar_s = best_of(scheduler.schedule_scalar, 2)
    speedup = scalar_s / fast_s

    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup
    run_once(benchmark, lambda: scheduler.schedule(clients))

    emit([f"Scheduler fast path (n=64): {fast_s * 1e3:.1f} ms "
          f"vs scalar {scalar_s * 1e3:.1f} ms -> {speedup:.2f}x"])
    floor = 5.0 if at_full_scale() else 3.0
    assert speedup >= floor
