"""Per-candidate scheduling baselines: the test oracle for the fast ones.

These are the scheduling baselines as they were before
:mod:`repro.scheduling.baselines` moved onto the ``t_ij`` cost matrix,
kept verbatim: every pair is costed through the scalar
:meth:`~repro.scheduling.scheduler.SicScheduler.pair_cost`, and brute
force builds a full :class:`~repro.scheduling.scheduler.Schedule` per
candidate through ``pairing_to_schedule``.  The differential tests in
``tests/scheduling/test_baselines_differential.py`` require the fast
policies to return ``==``-equal schedules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.scheduling.scheduler import Schedule, SicScheduler, UploadClient
from repro.util.rng import SeedLike, make_rng


def serial_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient]) -> Schedule:
    """Every client transmits alone at its clean rate."""
    return scheduler.pairing_to_schedule(clients, pairs=(),
                                         solo=list(range(len(clients))))


def greedy_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient]) -> Schedule:
    """Repeatedly take the pair with the largest saving over serial.

    Stops pairing when no remaining pair saves time; leftovers go solo.
    """
    remaining = list(range(len(clients)))
    pairs: List[Tuple[int, int]] = []
    while len(remaining) >= 2:
        best: Optional[Tuple[float, int, int]] = None
        for a_pos in range(len(remaining)):
            for b_pos in range(a_pos + 1, len(remaining)):
                i, j = remaining[a_pos], remaining[b_pos]
                cost = scheduler.pair_cost(clients[i], clients[j]).airtime_s
                serial = (scheduler.solo_cost(clients[i])
                          + scheduler.solo_cost(clients[j]))
                saving = serial - cost
                if best is None or saving > best[0]:
                    best = (saving, i, j)
        assert best is not None
        saving, i, j = best
        if saving <= 0.0:
            break
        pairs.append((i, j))
        remaining.remove(i)
        remaining.remove(j)
    return scheduler.pairing_to_schedule(clients, pairs, solo=remaining)


def random_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient],
                    rng: SeedLike = None) -> Schedule:
    """Pair clients uniformly at random; odd one out goes solo."""
    generator = make_rng(rng)
    order = list(range(len(clients)))
    generator.shuffle(order)
    pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
    solo = [order[-1]] if len(order) % 2 == 1 else []
    return scheduler.pairing_to_schedule(clients, pairs, solo)


def _pairings(indices: List[int]):
    """Yield every way to split ``indices`` into pairs and singles.

    Each element pairs with a later element or stays single; intended
    for the brute-force oracle only (super-exponential growth).
    """
    if not indices:
        yield [], []
        return
    first, rest = indices[0], indices[1:]
    # first stays solo
    for pairs, solo in _pairings(rest):
        yield pairs, [first] + solo
    # first pairs with someone
    for k in range(len(rest)):
        partner = rest[k]
        remaining = rest[:k] + rest[k + 1:]
        for pairs, solo in _pairings(remaining):
            yield [(first, partner)] + pairs, solo


def brute_force_schedule(scheduler: SicScheduler,
                         clients: Sequence[UploadClient],
                         max_clients: int = 12) -> Schedule:
    """Exact optimum by exhaustive enumeration (test oracle).

    Searches every partition into pairs and singles, so it also proves
    that restricting the matching to a *perfect* one (with the dummy
    node) loses nothing.
    """
    if len(clients) > max_clients:
        raise ValueError(
            f"brute force limited to {max_clients} clients, got {len(clients)}"
        )
    best: Optional[Schedule] = None
    for pairs, solo in _pairings(list(range(len(clients)))):
        candidate = scheduler.pairing_to_schedule(clients, pairs, solo)
        if best is None or candidate.total_time_s < best.total_time_s:
            best = candidate
    assert best is not None
    return best
