"""Pair-cost tests (paper Section 5.1 / Section 6 edge weights)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.shannon import Channel
from repro.sic.airtime import z_serial_same_receiver, z_sic_same_receiver
import numpy as np

from repro.techniques.pairing import (
    PairMode,
    TechniqueSet,
    _pair_airtime_modes,
    pair_airtime,
    pair_airtime_batch,
    solo_airtime,
    solo_airtime_batch,
)

L = 12_000.0
power = st.floats(min_value=1e-13, max_value=1e-5)


class TestTechniqueSet:
    def test_flags_compose(self):
        both = TechniqueSet.POWER_CONTROL | TechniqueSet.MULTIRATE
        assert TechniqueSet.POWER_CONTROL in both
        assert both == TechniqueSet.ALL

    def test_none_contains_nothing(self):
        assert TechniqueSet.POWER_CONTROL not in TechniqueSet.NONE


class TestSoloAirtime:
    def test_matches_channel(self, channel):
        assert solo_airtime(channel, L, 1e-9) == pytest.approx(
            L / channel.rate(1e-9))

    def test_rejects_bad_rss(self, channel):
        with pytest.raises(ValueError):
            solo_airtime(channel, L, 0.0)


class TestPairAirtime:
    def test_sic_disabled_is_serial(self, channel):
        cost = pair_airtime(channel, L, 1e-9, 1e-10, sic_enabled=False)
        assert cost.mode is PairMode.SERIAL
        assert cost.airtime_s == pytest.approx(
            z_serial_same_receiver(channel, L, 1e-9, 1e-10))

    def test_good_pair_uses_sic(self, channel):
        # RSS gap near the equal-rate optimum: SIC wins outright.
        n0 = channel.noise_w
        s1 = 1e6 * n0
        s2 = 1e3 * n0
        cost = pair_airtime(channel, L, s1, s2)
        assert cost.mode is PairMode.SIC
        assert cost.airtime_s == pytest.approx(
            z_sic_same_receiver(channel, L, s1, s2))

    def test_bad_pair_falls_back_to_serial(self, channel):
        # Equal strong RSS: SIC loses; the MAC goes serial.
        n0 = channel.noise_w
        cost = pair_airtime(channel, L, 1e6 * n0, 1e6 * n0)
        assert cost.mode is PairMode.SERIAL
        assert cost.gain == 1.0

    def test_power_control_rescues_similar_pair(self, channel):
        n0 = channel.noise_w
        cost = pair_airtime(channel, L, 1e6 * n0, 1e6 * n0,
                            techniques=TechniqueSet.POWER_CONTROL)
        assert cost.mode is PairMode.SIC_POWER_CONTROL
        assert cost.gain > 1.0

    def test_multirate_picked_when_best(self, channel):
        n0 = channel.noise_w
        cost = pair_airtime(channel, L, 1e6 * n0, 0.9e6 * n0,
                            techniques=TechniqueSet.MULTIRATE)
        assert cost.mode is PairMode.SIC_MULTIRATE
        assert cost.airtime_s < z_sic_same_receiver(channel, L,
                                                    1e6 * n0, 0.9e6 * n0)

    def test_all_techniques_picks_minimum(self, channel):
        n0 = channel.noise_w
        s1, s2 = 1e6 * n0, 0.9e6 * n0
        alone = {
            t: pair_airtime(channel, L, s1, s2, techniques=t).airtime_s
            for t in (TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
                      TechniqueSet.MULTIRATE)
        }
        combined = pair_airtime(channel, L, s1, s2,
                                techniques=TechniqueSet.ALL)
        assert combined.airtime_s == pytest.approx(min(alone.values()))

    @given(power, power)
    def test_cost_never_exceeds_serial(self, a, b):
        channel = Channel()
        cost = pair_airtime(channel, L, a, b,
                            techniques=TechniqueSet.ALL)
        assert cost.airtime_s <= cost.serial_airtime_s + 1e-12
        assert cost.gain >= 1.0

    @given(power, power)
    def test_more_techniques_never_hurt(self, a, b):
        channel = Channel()
        base = pair_airtime(channel, L, a, b).airtime_s
        full = pair_airtime(channel, L, a, b,
                            techniques=TechniqueSet.ALL).airtime_s
        assert full <= base + 1e-12

    def test_symmetric(self, channel):
        a = pair_airtime(channel, L, 1e-9, 3e-10,
                         techniques=TechniqueSet.ALL)
        b = pair_airtime(channel, L, 3e-10, 1e-9,
                         techniques=TechniqueSet.ALL)
        assert a.airtime_s == pytest.approx(b.airtime_s)


#: Every technique set the scheduler can hand the batch kernels.
ALL_TECHNIQUE_SETS = [
    TechniqueSet.NONE,
    TechniqueSet.POWER_CONTROL,
    TechniqueSet.MULTIRATE,
    TechniqueSet.ALL,
]


def random_rss(rng, n):
    """Log-uniform RSS spanning the paper's 3-45 dB SNR workload."""
    return 10.0 ** rng.uniform(-13.0, -5.0, size=n)


class TestBatchEquivalence:
    """The vectorised kernels must match the scalar path bit for bit —
    the scheduler's fast cost graph is only sound if no rounding
    difference can creep in (PR-1 convention: golden equivalence)."""

    @pytest.mark.parametrize("techniques", ALL_TECHNIQUE_SETS,
                             ids=lambda t: str(t))
    @pytest.mark.parametrize("sic_enabled", [True, False])
    def test_pair_batch_bit_identical(self, channel, rng, techniques,
                                      sic_enabled):
        rss_a = random_rss(rng, 200)
        rss_b = random_rss(rng, 200)
        batch = pair_airtime_batch(channel, L, rss_a, rss_b,
                                   techniques=techniques,
                                   sic_enabled=sic_enabled)
        scalar = [pair_airtime(channel, L, a, b, techniques=techniques,
                               sic_enabled=sic_enabled).airtime_s
                  for a, b in zip(rss_a, rss_b)]
        assert batch.tolist() == scalar  # exact, not approx

    @pytest.mark.parametrize("techniques", ALL_TECHNIQUE_SETS,
                             ids=lambda t: str(t))
    @pytest.mark.parametrize("sic_enabled", [True, False])
    def test_pair_batch_modes_match_scalar(self, channel, rng, techniques,
                                           sic_enabled):
        # Schedule assembly labels slots from the batched decision, so
        # its modes must be the scalar ones, not merely its airtimes.
        # Repeated and swapped RSS values exercise the tie branches.
        rss_a = np.concatenate([random_rss(rng, 200), [1e-9, 3e-10, 1e-9]])
        rss_b = np.concatenate([random_rss(rng, 200), [1e-9, 1e-9, 3e-10]])
        airtimes, codes = _pair_airtime_modes(
            channel, L, rss_a, rss_b, techniques, sic_enabled)
        scalar = [pair_airtime(channel, L, a, b, techniques=techniques,
                               sic_enabled=sic_enabled)
                  for a, b in zip(rss_a, rss_b)]
        assert airtimes.tolist() == [c.airtime_s for c in scalar]
        assert [tuple(PairMode)[code] for code in codes.tolist()] == \
            [c.mode for c in scalar]
        if sic_enabled:
            assert len(set(codes.tolist())) >= 2  # more than one branch

    def test_solo_batch_bit_identical(self, channel, rng):
        rss = random_rss(rng, 200)
        batch = solo_airtime_batch(channel, L, rss)
        scalar = [solo_airtime(channel, L, r) for r in rss]
        assert batch.tolist() == scalar  # exact, not approx

    def test_pair_batch_handles_extreme_asymmetry(self, channel):
        rss_a = np.array([1e-5, 1e-13, 1e-9])
        rss_b = np.array([1e-13, 1e-5, 1e-9])
        batch = pair_airtime_batch(channel, L, rss_a, rss_b,
                                   techniques=TechniqueSet.ALL)
        scalar = [pair_airtime(channel, L, a, b,
                               techniques=TechniqueSet.ALL).airtime_s
                  for a, b in zip(rss_a, rss_b)]
        assert batch.tolist() == scalar

    def test_pair_batch_rejects_nonpositive_rss(self, channel):
        with pytest.raises(ValueError):
            pair_airtime_batch(channel, L, np.array([1e-9, 0.0]),
                               np.array([1e-9, 1e-9]))

    def test_solo_batch_rejects_nonpositive_rss(self, channel):
        with pytest.raises(ValueError):
            solo_airtime_batch(channel, L, np.array([1e-9, -1e-9]))

    def test_empty_batches(self, channel):
        empty = np.array([])
        assert pair_airtime_batch(channel, L, empty, empty).size == 0
        assert solo_airtime_batch(channel, L, empty).size == 0
