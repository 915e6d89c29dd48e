"""Analytical link model: antenna gain, path transfer, received powers, SINR.

All powers are linear watts and all gains are dimensionless ratios.  The
transmit side and the receive side use the same conical-beam gain, and a
robot relayed through a reflecting surface receives the product channel
(BS -> surface) * E * (surface -> robot).

The link tables and schedules index every link of a robot on one axis of
L = B + I links, the base stations first: BS b is link b, surface i is link
B + i, and -1 is an outage.  ``sinr`` evaluates one robot's link;
``sinr_batch`` evaluates every robot of one slot, or of all slots, from a
schedule's link array.  Both add up the interferers in robot order, so they
agree to the last bit.  ``kind_index_of`` names a link's BS or surface for
text only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN = 1.380649e-23  # J/K
SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Table II of the paper: the physical layer of every scenario.
P_BS = 1e-3                    # BS transmit power, W
FREQ = 28e9                    # carrier frequency, Hz
THETA = math.radians(10.0)     # beamwidth, rad
N_ELEMENTS = 200               # reflecting elements per surface
TEMPERATURE = 290.0            # K
BANDWIDTH = 20e6               # Hz

# Near-field guard: path model diverges at d -> 0, clamp below this range.
MIN_DISTANCE = 0.1

# Link kinds that ``kind_index_of`` names.
OUTAGE, BS, RIS = 0, 1, 2

__all__ = [
    "LinkPowerTables",
    "kind_index_of",
    "antenna_gain",
    "path_gain",
    "noise_power",
    "direct_power",
    "ris_power",
    "max_concurrent",
    "interference_sum",
    "sinr",
    "sinr_batch",
]


def antenna_gain(theta: float) -> float:
    """Directivity gain of a conical beam of width ``theta``: 2 / (1 - cos(theta/2))."""
    if not 0.0 < theta < math.pi:
        raise ValueError("beamwidth must be in (0, pi)")
    return 2.0 / (1.0 - math.cos(theta / 2.0))


def path_gain(f: float, d):
    """Free-space amplitude transfer c / (4 pi f d), elementwise over ``d``.

    Ranges below MIN_DISTANCE, 0 included (a robot on a mast), are clamped
    to it; an infinite range transfers nothing.
    """
    if f <= 0:
        raise ValueError("frequency must be positive")
    if np.any(np.less(d, 0)):
        raise ValueError("distance must be non-negative")
    return SPEED_OF_LIGHT / (4.0 * math.pi * f * np.maximum(d, MIN_DISTANCE))


def noise_power(temperature: float, bandwidth: float) -> float:
    """Thermal noise power k*T*V in watts."""
    if temperature <= 0 or bandwidth <= 0:
        raise ValueError("temperature and bandwidth must be positive")
    return BOLTZMANN * temperature * bandwidth


def direct_power(d):
    """Received power (before antenna gains) of a direct BS link at range ``d``, elementwise."""
    h = path_gain(FREQ, d)
    return P_BS * h * h


def ris_power(d1, d2):
    """Received power (before antenna gains) of a relayed link, elementwise.

    ``d1`` is BS-to-surface range, ``d2`` surface-to-robot range; the E
    elements add coherently, so the amplitude scales with E.
    """
    h = path_gain(FREQ, d1) * N_ELEMENTS * path_gain(FREQ, d2)
    return P_BS * h * h


def max_concurrent(n_elements: int) -> int:
    """Largest U >= 1 whose nulling threshold 2U(U-1) stays below the element count."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    u = 1
    while 2 * (u + 1) * u < n_elements:
        u += 1
    return u


# Antenna gain of the BS and of the robot, and the thermal noise, both from Table II.
GAIN = antenna_gain(THETA)
NOISE = noise_power(TEMPERATURE, BANDWIDTH)


@dataclass
class LinkPowerTables:
    """Precomputed per-slot link powers and pairwise interference terms.

    ``power[n, r, l]`` is the gainless received power of robot r's link l in
    slot n, 0 where the link does not cover the robot.
    ``interference[n, r, rp, l]`` is the interference landing on robot r
    when robot rp transmits on link l, already including both antenna
    gains, and 0 unless r sits in that beam with clear sight.  Links
    0 .. n_bs-1 are the base stations, the rest the surfaces.
    """

    power: np.ndarray         # (N, R, L)
    interference: np.ndarray  # (N, R victim, R transmitter, L)
    n_bs: int

    @property
    def n_ris(self) -> int:
        return self.power.shape[2] - self.n_bs

    @property
    def n_robots(self) -> int:
        return self.power.shape[1]


def kind_index_of(link, n_bs: int) -> tuple:
    """(kind, index) of a link: (BS, link) below ``n_bs``, (RIS, link - n_bs)
    from there on, and (OUTAGE, -1) for the outage -1."""
    link = np.asarray(link)
    ris = link >= n_bs
    return np.where(ris, RIS, np.where(link == -1, OUTAGE, BS)), link - n_bs * ris


def interference_sum(tables: LinkPowerTables, alloc, r: int, n: int, own_link: int | None = None) -> float:
    """Total interference power received by robot r in slot n under ``alloc``.

    Sums the beam of every other allocated robot; transmissions on
    ``own_link``, when it is a surface (at or above B), are skipped because
    nulling removes same-surface interference.
    """
    total = 0.0
    for rp in range(tables.n_robots):
        link = int(alloc.link[rp, n])
        if rp != r and link != -1 and not (link == own_link and link >= tables.n_bs):
            total += float(tables.interference[n, r, rp, link])
    return total


def sinr(tables: LinkPowerTables, alloc, r: int, n: int) -> float:
    """Signal-to-interference-plus-noise ratio of robot r's link in slot n."""
    link = int(alloc.link[r, n])
    if link == -1:
        raise ValueError(f"robot {r} is unallocated in slot {n}; SINR undefined")
    signal = float(tables.power[n, r, link])
    return signal * GAIN * GAIN / (NOISE + interference_sum(tables, alloc, r, n, own_link=link))


def sinr_batch(tables: LinkPowerTables, link: np.ndarray, n: int | None = None) -> np.ndarray:
    """SINR of every robot's link, NaN where a robot is unallocated (-1).

    With ``n`` given, ``link`` is slot n's (R,) column of a schedule and the
    result is (R,); without it ``link`` is the whole (R, N) schedule and the
    result is (R, N).  Every other link must lie in [0, L).  Interference
    is accumulated over the transmitting robots in robot order
    (``np.cumsum``, not the pairwise ``ndarray.sum``), so each value equals
    ``sinr`` bit for bit.
    """
    link = np.asarray(link)
    if n is not None:
        return _slot_sinr(tables, link[None], np.array([n]))[0]
    return _slot_sinr(tables, link.T, np.arange(link.shape[1])).T


def _slot_sinr(tables: LinkPowerTables, link: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``sinr_batch`` on a slot-major (S, R) link array of the given slots."""
    served = link != -1
    if (served & ((link < 0) | (link >= tables.power.shape[2]))).any():
        raise ValueError("a served link names a BS or surface that does not exist")
    link = np.where(served, link, 0)
    n_r = link.shape[1]
    robots = np.arange(n_r)
    at = slots[:, None]
    signal = np.zeros(link.shape)
    level = np.zeros(link.shape + (n_r,))  # level[s, rp, r]: power r hears from rp's beam
    if served.any():
        signal = np.where(served, tables.power[at, robots, link], 0.0)
        # the slice between the index arrays puts the victim axis last
        level = np.where(served[:, :, None], tables.interference[at, :, robots, link], 0.0)
    # nulling: a surface's own beams never interfere with each other
    ris = served & (link >= tables.n_bs)
    level[ris[:, :, None] & (link[:, :, None] == link[:, None, :])] = 0.0
    level[:, robots, robots] = 0.0
    # transmitters added one at a time in robot order, as interference_sum does
    interference = np.cumsum(level, axis=1)[:, -1] if n_r else np.zeros(link.shape)
    value = signal * GAIN * GAIN / (NOISE + interference)
    return np.where(served, value, np.nan)
