"""Analytical link model: antenna gain, path transfer, received powers, SINR.

All powers are linear watts and all gains are dimensionless ratios.  The
transmit side and the receive side use the same conical-beam gain, and a
robot relayed through a reflecting surface receives the product channel
(BS -> surface) * E * (surface -> robot).

The link tables index every link of a robot on one axis of L = B + I links,
the base stations first: BS b is link b and surface i is link B + i.
``sinr`` evaluates one robot's link; ``sinr_batch`` evaluates every robot of
one slot, or of all slots, from a schedule's ``kind``/``index`` arrays.  Both
add up the interferers in robot order, so they agree to the last bit.
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

# Link kinds of a schedule's ``kind`` array.
OUTAGE, BS, RIS = 0, 1, 2

__all__ = [
    "LinkPowerTables",
    "link_of",
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


def path_gain(f: float, d: float) -> float:
    """Free-space amplitude transfer c / (4 pi f d), clamped to d >= MIN_DISTANCE."""
    if f <= 0:
        raise ValueError("frequency must be positive")
    if d <= 0:
        raise ValueError("distance must be positive")
    return SPEED_OF_LIGHT / (4.0 * math.pi * f * max(d, MIN_DISTANCE))


def noise_power(temperature: float, bandwidth: float) -> float:
    """Thermal noise power k*T*V in watts."""
    if temperature <= 0 or bandwidth <= 0:
        raise ValueError("temperature and bandwidth must be positive")
    return BOLTZMANN * temperature * bandwidth


def direct_power(d: float) -> float:
    """Received power (before antenna gains) of a direct BS link at range ``d``."""
    h = path_gain(FREQ, d)
    return P_BS * h * h


def ris_power(d1: float, d2: float) -> float:
    """Received power (before antenna gains) of a relayed link.

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


def link_of(kind, index, n_bs: int):
    """Link of BS ``index`` (kind BS) or of surface ``index`` (kind RIS)."""
    return index + n_bs * (kind == RIS)


def kind_index_of(link, n_bs: int) -> tuple:
    """(kind, index) of a link: BS ``link`` below ``n_bs``, surface ``link - n_bs`` from there on."""
    ris = link >= n_bs
    return np.where(ris, RIS, BS), link - n_bs * ris


def interference_sum(tables: LinkPowerTables, alloc, r: int, n: int, own_ris: int | None = None) -> float:
    """Total interference power received by robot r in slot n under ``alloc``.

    Sums the beam of every other allocated robot; transmissions through
    ``own_ris`` are skipped because nulling removes same-surface interference.
    """
    total = 0.0
    for rp in range(tables.n_robots):
        kind, idx = alloc.assignment(rp, n)
        if rp != r and kind is not None and not (kind == "ris" and idx == own_ris):
            total += float(tables.interference[n, r, rp, link_of(alloc.kind[rp, n], idx, tables.n_bs)])
    return total


def sinr(tables: LinkPowerTables, alloc, r: int, n: int) -> float:
    """Signal-to-interference-plus-noise ratio of robot r's link in slot n."""
    kind, idx = alloc.assignment(r, n)
    if kind is None:
        raise ValueError(f"robot {r} is unallocated in slot {n}; SINR undefined")
    signal = float(tables.power[n, r, link_of(alloc.kind[r, n], idx, tables.n_bs)])
    interference = interference_sum(tables, alloc, r, n, own_ris=idx if kind == "ris" else None)
    return signal * GAIN * GAIN / (NOISE + interference)


def sinr_batch(tables: LinkPowerTables, kind: np.ndarray, index: np.ndarray, n: int | None = None) -> np.ndarray:
    """SINR of every robot's link, NaN where a robot is unallocated.

    With ``n`` given, ``kind`` and ``index`` are slot n's (R,) column of a
    schedule and the result is (R,); without it they are the whole (R, N)
    schedule and the result is (R, N).  Every served link must name an
    existing BS or surface.  Interference is accumulated over the
    transmitting robots in robot order (``np.cumsum``, not the pairwise
    ``ndarray.sum``), so each value equals ``sinr`` bit for bit.
    """
    kind, index = np.asarray(kind), np.asarray(index)
    if n is not None:
        return _slot_sinr(tables, kind[None], index[None], np.array([n]))[0]
    return _slot_sinr(tables, kind.T, index.T, np.arange(kind.shape[1])).T


def _slot_sinr(tables: LinkPowerTables, kind: np.ndarray, index: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``sinr_batch`` on slot-major (S, R) link arrays of the given slots."""
    bs, ris = kind == BS, kind == RIS
    served = bs | ris
    if (served & ((index < 0) | (index >= np.where(bs, tables.n_bs, tables.n_ris)))).any():
        raise ValueError("a served link names a BS or surface that does not exist")
    link = np.where(served, link_of(kind, index, tables.n_bs), 0)
    n_r = kind.shape[1]
    robots = np.arange(n_r)
    at = slots[:, None]
    signal = np.zeros(kind.shape)
    level = np.zeros(kind.shape + (n_r,))  # level[s, rp, r]: power r hears from rp's beam
    if served.any():
        signal = np.where(served, tables.power[at, robots, link], 0.0)
        # the slice between the index arrays puts the victim axis last
        level = np.where(served[:, :, None], tables.interference[at, :, robots, link], 0.0)
    # nulling: a surface's own beams never interfere with each other
    level[ris[:, :, None] & ris[:, None, :] & (index[:, :, None] == index[:, None, :])] = 0.0
    level[:, robots, robots] = 0.0
    # transmitters added one at a time in robot order, as interference_sum does
    interference = np.cumsum(level, axis=1)[:, -1] if n_r else np.zeros(kind.shape)
    value = signal * GAIN * GAIN / (NOISE + interference)
    return np.where(served, value, np.nan)
