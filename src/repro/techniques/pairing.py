"""Client pairing: the joint-transmission cost of a pair (Section 5.1).

The SIC-aware scheduler needs, for every pair of backlogged clients
``(i, j)``, the minimum time ``t_ij`` to deliver one packet from each.
This module computes that cost under a configurable set of techniques:

* plain SIC — concurrent transmission per Eq. 6;
* + power control — the weaker client may back off to the equal-rate
  point (Section 5.2);
* + multirate packetization — the bottleneck packet switches to the
  clean rate once its partner finishes (Section 5.3).

Whatever techniques are enabled, the cost never exceeds the serial
time: a MAC would simply not transmit concurrently when SIC loses
("This computation considers the minimum of: i) time for serialized
transmissions, and ii) the minimum time for joint transmissions using
SIC" — Section 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.phy.shannon import Channel, airtime, shannon_rate
from repro.sic.airtime import z_serial_same_receiver, z_sic_same_receiver
from repro.techniques.multirate import (
    multirate_pair_airtime,
    multirate_pair_airtime_batch,
)
from repro.techniques.power_control import (
    power_controlled_pair_airtime,
    power_controlled_pair_airtime_batch,
)
from repro.util.validation import check_positive


class TechniqueSet(enum.Flag):
    """Which Section-5 techniques the MAC may combine with SIC."""

    NONE = 0
    POWER_CONTROL = enum.auto()
    MULTIRATE = enum.auto()
    ALL = POWER_CONTROL | MULTIRATE


class PairMode(enum.Enum):
    """How a pair's packets end up being delivered."""

    SERIAL = "serial"
    SIC = "sic"
    SIC_POWER_CONTROL = "sic+power-control"
    SIC_MULTIRATE = "sic+multirate"


#: Batched mode codes: positions in ``PairMode``'s declaration order.
_SERIAL, _SIC, _SIC_POWER_CONTROL, _SIC_MULTIRATE = range(4)


@dataclass(frozen=True)
class PairAirtime:
    """The scheduling cost of one client pair."""

    airtime_s: float
    mode: PairMode
    serial_airtime_s: float
    sic_airtime_s: float

    @property
    def gain(self) -> float:
        """Serial time over chosen time (>= 1 by construction)."""
        return self.serial_airtime_s / self.airtime_s


def pair_airtime(channel: Channel, packet_bits: float,
                 rss_a_w: float, rss_b_w: float,
                 techniques: TechniqueSet = TechniqueSet.NONE,
                 sic_enabled: bool = True) -> PairAirtime:
    """Minimum time to deliver one packet from each of two clients.

    With ``sic_enabled=False`` this is simply the serial Eq. 5 time —
    the no-SIC baseline the gains are measured against.
    """
    check_positive("packet_bits", packet_bits)
    check_positive("rss_a_w", rss_a_w)
    check_positive("rss_b_w", rss_b_w)

    serial = float(z_serial_same_receiver(channel, packet_bits,
                                          rss_a_w, rss_b_w))
    if not sic_enabled:
        return PairAirtime(airtime_s=serial, mode=PairMode.SERIAL,
                           serial_airtime_s=serial, sic_airtime_s=serial)

    sic = float(z_sic_same_receiver(channel, packet_bits, rss_a_w, rss_b_w))
    best, mode = sic, PairMode.SIC

    if TechniqueSet.POWER_CONTROL in techniques:
        controlled = power_controlled_pair_airtime(
            channel, packet_bits, rss_a_w, rss_b_w)
        if controlled.airtime_s < best:
            best, mode = controlled.airtime_s, PairMode.SIC_POWER_CONTROL

    if TechniqueSet.MULTIRATE in techniques:
        multirate = multirate_pair_airtime(channel, packet_bits,
                                           rss_a_w, rss_b_w)
        if multirate.airtime_s < best:
            best, mode = multirate.airtime_s, PairMode.SIC_MULTIRATE

    if serial <= best:
        return PairAirtime(airtime_s=serial, mode=PairMode.SERIAL,
                           serial_airtime_s=serial, sic_airtime_s=sic)
    return PairAirtime(airtime_s=best, mode=mode,
                       serial_airtime_s=serial, sic_airtime_s=sic)


def _pair_airtime_modes(channel: Channel, packet_bits: float,
                        rss_a_w: np.ndarray, rss_b_w: np.ndarray,
                        techniques: TechniqueSet,
                        sic_enabled: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The batched :func:`pair_airtime` decision: airtimes and modes.

    Returns ``(airtime_s, mode_code)``.  Element ``k`` of ``airtime_s``
    equals ``pair_airtime(channel, packet_bits, a[k], b[k], ...)
    .airtime_s`` bit for bit, and ``tuple(PairMode)[mode_code[k]]`` is
    its ``.mode``: the elementwise comparisons are the scalar ones in
    the same order — strict ``<`` for power control, then for
    multirate, then ``serial <= best`` — over the same IEEE values.
    """
    check_positive("packet_bits", packet_bits)
    rss_a = np.asarray(rss_a_w, dtype=float)
    rss_b = np.asarray(rss_b_w, dtype=float)
    if np.any(rss_a <= 0.0) or np.any(rss_b <= 0.0):
        raise ValueError("RSS values must be positive")

    serial = np.asarray(
        z_serial_same_receiver(channel, packet_bits, rss_a, rss_b),
        dtype=float)
    if not sic_enabled:
        return serial, np.full(serial.shape, _SERIAL, dtype=np.int8)

    best = np.asarray(
        z_sic_same_receiver(channel, packet_bits, rss_a, rss_b), dtype=float)
    mode = np.full(best.shape, _SIC, dtype=np.int8)
    if TechniqueSet.POWER_CONTROL in techniques:
        controlled = power_controlled_pair_airtime_batch(
            channel, packet_bits, rss_a, rss_b)
        better = controlled < best
        best = np.where(better, controlled, best)
        mode[better] = _SIC_POWER_CONTROL
    if TechniqueSet.MULTIRATE in techniques:
        multirate = multirate_pair_airtime_batch(
            channel, packet_bits, rss_a, rss_b)
        better = multirate < best
        best = np.where(better, multirate, best)
        mode[better] = _SIC_MULTIRATE
    serial_wins = serial <= best
    return (np.where(serial_wins, serial, best),
            np.where(serial_wins, _SERIAL, mode))


def pair_airtime_batch(channel: Channel, packet_bits: float,
                       rss_a_w: np.ndarray, rss_b_w: np.ndarray,
                       techniques: TechniqueSet = TechniqueSet.NONE,
                       sic_enabled: bool = True) -> np.ndarray:
    """Vectorised :func:`pair_airtime` (airtimes only).

    Element ``k`` equals
    ``pair_airtime(channel, packet_bits, a[k], b[k], ...).airtime_s``
    bit for bit: every branch of the scalar decision (serial floor,
    plain SIC, power control, multirate) is the same elementwise
    comparison over the same IEEE operations, so no rounding difference
    can creep in.  The scheduler's cost graph only needs the ``t_ij``
    values; schedule assembly takes the modes of the chosen pairs from
    the same decision.
    """
    return _pair_airtime_modes(channel, packet_bits, rss_a_w, rss_b_w,
                               techniques, sic_enabled)[0]


def solo_airtime(channel: Channel, packet_bits: float, rss_w: float) -> float:
    """Time for one client to deliver one packet alone (clean rate).

    Used for the dummy-node edges of the scheduling graph (a client that
    transmits by itself) and for per-client serial baselines.
    """
    check_positive("packet_bits", packet_bits)
    check_positive("rss_w", rss_w)
    rate = shannon_rate(channel.bandwidth_hz, rss_w, 0.0, channel.noise_w)
    return float(airtime(packet_bits, rate))


def solo_airtime_batch(channel: Channel, packet_bits: float,
                       rss_w: np.ndarray) -> np.ndarray:
    """Vectorised :func:`solo_airtime`: clean-rate airtimes per client.

    Element ``k`` equals ``solo_airtime(channel, packet_bits, rss[k])``
    bit for bit (same elementwise operations).
    """
    check_positive("packet_bits", packet_bits)
    rss = np.asarray(rss_w, dtype=float)
    if np.any(rss <= 0.0):
        raise ValueError("RSS values must be positive")
    rate = shannon_rate(channel.bandwidth_hz, rss, 0.0, channel.noise_w)
    return np.asarray(airtime(packet_bits, rate), dtype=float)
