"""Scheduling baselines: serial, greedy, random, brute force.

These are the comparators the evaluation uses to show what the blossom
matching buys:

* :func:`serial_schedule` — the plain 802.11 behaviour: every client
  transmits alone (the paper's ``Z_{-SIC}`` baseline);
* :func:`greedy_schedule` — repeatedly pair the two clients whose joint
  transmission saves the most time (a natural heuristic an AP vendor
  might ship);
* :func:`random_schedule` — pair clients uniformly at random (isolates
  how much of the gain comes from pairing *choice* vs pairing at all);
* :func:`brute_force_schedule` — exact optimum by exhaustive pairing
  enumeration; exponential, used as the oracle in tests (n <= 12).

Greedy and brute force read the ``t_ij`` costs from
:meth:`SicScheduler.pair_cost_matrix` and the solo times from
:class:`BacklogCosts`, so a backlog is costed in one batched call; only
the chosen pairing is assembled into a :class:`Schedule`.  Every policy
accepts ``precomputed`` (from :meth:`SicScheduler.precompute_costs`) to
share one solo-airtime batch across policies.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.scheduling.scheduler import (
    BacklogCosts,
    Schedule,
    SicScheduler,
    UploadClient,
)
from repro.util.rng import SeedLike, make_rng


def _backlog_costs(scheduler: SicScheduler,
                   clients: Sequence[UploadClient],
                   precomputed: Optional[BacklogCosts]) -> BacklogCosts:
    if precomputed is not None:
        return precomputed
    return scheduler.precompute_costs(clients)


def serial_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient],
                    precomputed: Optional[BacklogCosts] = None) -> Schedule:
    """Every client transmits alone at its clean rate."""
    return scheduler.pairing_to_schedule(clients, pairs=(),
                                         solo=list(range(len(clients))),
                                         precomputed=precomputed)


def greedy_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient],
                    precomputed: Optional[BacklogCosts] = None) -> Schedule:
    """Repeatedly take the pair with the largest saving over serial.

    Stops pairing when no remaining pair saves time; leftovers go solo.
    Ties go to the first pair ``(i, j)``, ``i < j``, in row-major order.
    """
    pre = _backlog_costs(scheduler, clients, precomputed)
    n = len(clients)
    solo = pre.solo_airtime_s
    saving = (solo[:, None] + solo[None, :]) \
        - scheduler.pair_cost_matrix(clients, pre)
    # Only i < j is a candidate; a paired client's row and column drop
    # out the same way, so argmax's first maximum over the flattened
    # matrix scans the remaining upper triangle in row-major order.
    saving[np.tril_indices(n)] = -np.inf
    pairs: List[Tuple[int, int]] = []
    for _ in range(n // 2):
        i, j = divmod(int(np.argmax(saving)), n)
        if not saving[i, j] > 0.0:
            break
        pairs.append((i, j))
        saving[[i, j], :] = -np.inf
        saving[:, [i, j]] = -np.inf
    paired = {k for pair in pairs for k in pair}
    remaining = [k for k in range(n) if k not in paired]
    return scheduler.pairing_to_schedule(clients, pairs, remaining, pre)


def random_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient],
                    rng: SeedLike = None,
                    precomputed: Optional[BacklogCosts] = None) -> Schedule:
    """Pair clients uniformly at random; odd one out goes solo."""
    generator = make_rng(rng)
    order = list(range(len(clients)))
    generator.shuffle(order)
    pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
    solo = [order[-1]] if len(order) % 2 == 1 else []
    return scheduler.pairing_to_schedule(clients, pairs, solo, precomputed)


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


@lru_cache(maxsize=None)
def _pairing_table(n: int) -> np.ndarray:
    """Every pairing of ``n`` clients as slot indices, ``(n, n_pairings)``.

    Column ``c`` is the ``c``-th pairing of :func:`_pairings`, its slots
    in that pairing's own order (pairs, then solos).  A slot indexes the
    flat cost vector of :func:`brute_force_schedule`: ``i * (n + 1) + j``
    for pair ``(i, j)``, ``i * (n + 1) + n`` for ``i`` solo, and the pad
    ``n * (n + 1)`` (cost 0.0) where a pairing has fewer than ``n``
    slots.
    """
    stride = n + 1
    pad = n * stride
    columns = []
    for pairs, solo in _pairings(list(range(n))):
        slots = [i * stride + j for i, j in pairs] \
            + [i * stride + n for i in solo]
        columns.append(slots + [pad] * (n - len(slots)))
    table = np.array(columns, dtype=np.int32).T.copy()
    table.flags.writeable = False
    return table


def brute_force_schedule(scheduler: SicScheduler,
                         clients: Sequence[UploadClient],
                         max_clients: int = 12,
                         precomputed: Optional[BacklogCosts] = None,
                         ) -> Schedule:
    """Exact optimum by exhaustive enumeration (test oracle).

    Searches every partition into pairs and singles, so it also proves
    that restricting the matching to a *perfect* one (with the dummy
    node) loses nothing.  All candidates are totalled at once: slot by
    slot, left to right, each in its own slot order, which is the same
    float accumulation as each candidate's ``Schedule.total_time_s``
    (adding the 0.0 pad is exact).  The first minimum wins.
    """
    n = len(clients)
    if n > max_clients:
        raise ValueError(
            f"brute force limited to {max_clients} clients, got {n}"
        )
    pre = _backlog_costs(scheduler, clients, precomputed)
    if n == 0:
        return scheduler.pairing_to_schedule(clients, (), (), pre)
    stride = n + 1
    costs = np.zeros(n * stride + 1)
    grid = costs[:-1].reshape(n, stride)
    grid[:, :n] = scheduler.pair_cost_matrix(clients, pre)
    grid[:, n] = pre.solo_airtime_s
    table = _pairing_table(n)
    totals = costs[table[0]]
    for slot in table[1:]:
        totals += costs[slot]
    pairs: List[Tuple[int, int]] = []
    solo: List[int] = []
    for flat in table[:, int(np.argmin(totals))].tolist():
        i, j = divmod(flat, stride)
        if i == n:
            continue  # pad
        if j == n:
            solo.append(i)
        else:
            pairs.append((i, j))
    return scheduler.pairing_to_schedule(clients, pairs, solo, pre)
