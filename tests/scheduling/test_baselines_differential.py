"""Differential tests: matrix-indexed baselines vs the per-candidate oracle.

The fast baselines in :mod:`repro.scheduling.baselines` read ``t_ij``
from :meth:`SicScheduler.pair_cost_matrix` and total every brute-force
candidate in one vectorised reduction.  The oracle in
``tests/reference/baselines_reference.py`` costs each pair through the
scalar ``pair_cost`` and builds a full ``Schedule`` per candidate.  Both
must return ``==``-equal schedules: same slots, same floats, same
tie-breaks.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.scheduling import baselines
from repro.scheduling.scheduler import SicScheduler, UploadClient
from repro.techniques.pairing import TechniqueSet
from tests.reference import baselines_reference as reference

CHANNEL = Channel(bandwidth_hz=20e6, noise_w=thermal_noise_watts(20e6))
TECHNIQUES = [TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
              TechniqueSet.MULTIRATE, TechniqueSet.ALL]
#: A handful of SNRs (dB) so that drawn backlogs repeat RSS values.
TIED_SNRS_DB = [6.0, 15.0, 15.0, 27.0, 40.0]


class MemoScheduler(SicScheduler):
    """Scalar costs memoised per client: the same floats, computed once.

    The oracle re-costs every pair of every candidate; memoising keeps
    brute force at n = 9 (2620 candidates) affordable without changing
    any value it sees.
    """

    @functools.lru_cache(maxsize=None)  # noqa: B019
    def pair_cost(self, a, b):
        return super().pair_cost(a, b)

    @functools.lru_cache(maxsize=None)  # noqa: B019
    def solo_cost(self, client):
        return super().solo_cost(client)


def make_clients(snrs_db):
    return [UploadClient(f"C{i + 1}",
                         float(10.0 ** (snr / 10.0)) * CHANNEL.noise_w)
            for i, snr in enumerate(snrs_db)]


def assert_all_policies_equal(snrs_db, techniques, sic_enabled,
                              shuffle_seed=0):
    clients = make_clients(snrs_db)
    fast = SicScheduler(channel=CHANNEL, techniques=techniques,
                        sic_enabled=sic_enabled)
    oracle = MemoScheduler(channel=CHANNEL, techniques=techniques,
                           sic_enabled=sic_enabled)
    expected = {
        "serial": reference.serial_schedule(oracle, clients),
        "greedy": reference.greedy_schedule(oracle, clients),
        "random": reference.random_schedule(oracle, clients, shuffle_seed),
        "brute_force": reference.brute_force_schedule(oracle, clients),
    }
    for precomputed in (None, fast.precompute_costs(clients)):
        actual = {
            "serial": baselines.serial_schedule(
                fast, clients, precomputed=precomputed),
            "greedy": baselines.greedy_schedule(
                fast, clients, precomputed=precomputed),
            "random": baselines.random_schedule(
                fast, clients, shuffle_seed, precomputed=precomputed),
            "brute_force": baselines.brute_force_schedule(
                fast, clients, precomputed=precomputed),
        }
        assert actual == expected


snr_lists = st.one_of(
    st.lists(st.floats(3.0, 45.0), min_size=1, max_size=9),
    st.lists(st.sampled_from(TIED_SNRS_DB), min_size=1, max_size=9),
)


@settings(max_examples=50, deadline=None)
@given(snr_lists, st.sampled_from(TECHNIQUES), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_fast_baselines_equal_reference(snrs_db, techniques, sic_enabled,
                                        shuffle_seed):
    assert_all_policies_equal(snrs_db, techniques, sic_enabled, shuffle_seed)


@pytest.mark.parametrize("sic_enabled", [True, False])
@pytest.mark.parametrize("techniques", TECHNIQUES, ids=str)
@pytest.mark.parametrize("snrs_db", [
    [20.0] * 6,                     # every pairing of a size ties
    [10.0, 30.0, 10.0, 30.0, 10.0],  # duplicate pairs, odd n
    [45.0, 3.0, 45.0, 3.0, 24.0, 24.0, 24.0, 12.0, 12.0],
], ids=["all-equal", "two-values", "n9-duplicates"])
def test_ties_break_like_reference(snrs_db, techniques, sic_enabled):
    # Greedy keeps the first maximum saving in row-major (i, j) order,
    # brute force the first minimum total in enumeration order.
    assert_all_policies_equal(snrs_db, techniques, sic_enabled)


def test_brute_force_tie_picks_first_enumerated_pairing():
    clients = make_clients([20.0] * 4)
    scheduler = SicScheduler(channel=CHANNEL, techniques=TechniqueSet.ALL)
    best = baselines.brute_force_schedule(scheduler, clients)
    # The first perfect pairing _pairings yields is (0, 1), (2, 3).
    assert [slot.clients for slot in best.slots] == [("C1", "C2"),
                                                     ("C3", "C4")]


def test_pair_cost_matrix_matches_scalar_pair_cost():
    clients = make_clients([4.0, 9.5, 17.0, 31.0, 44.0])
    scheduler = SicScheduler(channel=CHANNEL, techniques=TechniqueSet.ALL)
    matrix = scheduler.pair_cost_matrix(clients)
    assert matrix.shape == (5, 5)
    assert (matrix == matrix.T).all()
    assert (matrix.diagonal() == 0.0).all()
    for i in range(5):
        for j in range(i + 1, 5):
            assert matrix[i, j] == scheduler.pair_cost(
                clients[i], clients[j]).airtime_s


def test_empty_backlog():
    scheduler = SicScheduler(channel=CHANNEL)
    for policy in (baselines.serial_schedule, baselines.greedy_schedule,
                   baselines.brute_force_schedule):
        assert policy(scheduler, []).slots == ()
    assert scheduler.pair_cost_matrix([]).shape == (0, 0)
