"""Fig. 12 / Section 6 — the scheduling-to-matching reduction itself.

Fig. 12 is a schematic, not a data plot; what is checkable is the
reduction's *behaviour*: the blossom-based scheduler finds the optimal
pairing (equal to brute force for small n), beats greedy and random
pairing, handles odd client counts through the dummy node, and scales
polynomially.  This module produces those numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.scheduling.baselines import (
    brute_force_schedule,
    greedy_schedule,
    random_schedule,
    serial_schedule,
)
from repro.scheduling.scheduler import SicScheduler, UploadClient
from repro.techniques.pairing import TechniqueSet
from repro.util.rng import SeedLike, make_rng
from repro.util.timing import PhaseTimer
from repro.util.units import db_to_linear
from repro.util.validation import check_positive

DEFAULT_BANDWIDTH_HZ = 20e6


def random_clients(n: int, rng: np.random.Generator, snr_db_low: float = 3.0,
                   snr_db_high: float = 45.0,
                   noise_w: Optional[float] = None) -> List[UploadClient]:
    """Clients with log-uniform SNRs, the scheduler's natural workload."""
    if noise_w is None:
        noise_w = thermal_noise_watts(DEFAULT_BANDWIDTH_HZ)
    snrs_db = rng.uniform(snr_db_low, snr_db_high, size=n)
    return [UploadClient(f"C{i + 1}", float(db_to_linear(snr)) * noise_w)
            for i, snr in enumerate(snrs_db)]


@dataclass(frozen=True)
class SchedulerComparison:
    """Mean completion times of every scheduling policy, per n."""

    n_clients: int
    mean_times: Dict[str, float]
    mean_gains: Dict[str, float]


def compare_policies(n_clients: int, n_trials: int = 50,
                     techniques: TechniqueSet = TechniqueSet.ALL,
                     seed: SeedLike = 2010,
                     include_brute_force: Optional[bool] = None
                     ) -> SchedulerComparison:
    """Blossom vs greedy vs random vs serial (vs brute force if small).

    Each trial batches its backlog's solo airtimes once
    (:meth:`~repro.scheduling.scheduler.SicScheduler.precompute_costs`)
    and hands them to every policy.
    """
    check_positive("n_clients", n_clients)
    check_positive("n_trials", n_trials)
    if include_brute_force is None:
        include_brute_force = n_clients <= 8
    rng = make_rng(seed)
    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    scheduler = SicScheduler(channel=channel, techniques=techniques)
    # Baselines resolve as this module's globals at call time, so a
    # wrapper installed on them (a tracer, a test) sees every call.
    policies = {
        "blossom": lambda clients, pre: scheduler.schedule(
            clients, precomputed=pre),
        "greedy": lambda clients, pre: greedy_schedule(
            scheduler, clients, precomputed=pre),
        "random": lambda clients, pre: random_schedule(
            scheduler, clients, rng, precomputed=pre),
        "serial": lambda clients, pre: serial_schedule(
            scheduler, clients, precomputed=pre),
    }
    if include_brute_force:
        policies["brute_force"] = lambda clients, pre: brute_force_schedule(
            scheduler, clients, precomputed=pre)

    times: Dict[str, List[float]] = {name: [] for name in policies}
    gains: Dict[str, List[float]] = {name: [] for name in policies}
    for _ in range(n_trials):
        clients = random_clients(n_clients, rng, noise_w=channel.noise_w)
        pre = scheduler.precompute_costs(clients)
        for name, policy in policies.items():
            schedule = policy(clients, pre)
            times[name].append(schedule.total_time_s)
            gains[name].append(pre.serial_time_s / schedule.total_time_s)
    return SchedulerComparison(
        n_clients=n_clients,
        mean_times={k: float(np.mean(v)) for k, v in times.items()},
        mean_gains={k: float(np.mean(v)) for k, v in gains.items()},
    )


def runtime_scaling(sizes: Sequence[int] = (4, 8, 16, 32, 64),
                    seed: SeedLike = 2010
                    ) -> Dict[int, Dict[str, float]]:
    """Wall-clock seconds to schedule one instance of each size.

    Each entry holds the total plus the per-phase attribution from a
    :class:`~repro.util.timing.PhaseTimer` threaded through
    :meth:`~repro.scheduling.scheduler.SicScheduler.schedule` —
    ``cost_build`` (vectorised t_ij matrix), ``matching`` (blossom) and
    ``assembly`` (labelling the chosen slots), so runtime regressions
    point at the phase that caused them.
    """
    rng = make_rng(seed)
    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    scheduler = SicScheduler(channel=channel, techniques=TechniqueSet.ALL)
    out: Dict[int, Dict[str, float]] = {}
    for n in sizes:
        clients = random_clients(n, rng, noise_w=channel.noise_w)
        timer = PhaseTimer()
        start = time.perf_counter()
        scheduler.schedule(clients, timer=timer)
        total = time.perf_counter() - start
        entry = {"total_s": total}
        for phase, seconds in timer.phases.items():
            entry[f"{phase}_s"] = seconds
        out[n] = entry
    return out


def compute(sizes: Sequence[int] = (3, 5, 8, 12, 20),
            n_trials: int = 30,
            seed: SeedLike = 2010) -> Dict[str, object]:
    """The full Fig. 12 behavioural study."""
    comparisons = [compare_policies(n, n_trials=n_trials, seed=seed)
                   for n in sizes]
    return {
        "comparisons": comparisons,
        "runtime": runtime_scaling(seed=seed),
    }
