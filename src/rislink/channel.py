"""Analytical link model: antenna gain, path transfer, received powers, SINR.

All powers are linear watts and all gains are dimensionless ratios.  The
transmit side and the receive side use the same conical-beam gain, and a
robot relayed through a reflecting surface receives the product channel
(BS -> surface) * E * (surface -> robot).

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


@dataclass
class LinkPowerTables:
    """Precomputed per-slot link powers and pairwise interference terms.

    Shapes: ``p_direct[n, b, r]`` and ``p_ris[n, i, r]`` carry the gainless
    received powers of servable links (0 where uncovered); ``xi_bs[n, b, rp, r]``
    is the interference landing on robot r when BS b transmits to robot rp,
    already including both antenna gains, and 0 unless r sits in that beam
    with clear sight; ``xi_ris[n, i, rp, r]`` likewise for relayed beams.
    """

    p_direct: np.ndarray
    p_ris: np.ndarray
    xi_bs: np.ndarray
    xi_ris: np.ndarray
    gain_bs: float
    gain_robot: float
    noise: float

    @property
    def n_slots(self) -> int:
        return self.p_direct.shape[0]

    @property
    def n_bs(self) -> int:
        return self.p_direct.shape[1]

    @property
    def n_ris(self) -> int:
        return self.p_ris.shape[1]

    @property
    def n_robots(self) -> int:
        return self.p_direct.shape[2]


def interference_sum(tables: LinkPowerTables, alloc, r: int, n: int, own_ris: int | None = None) -> float:
    """Total interference power received by robot r in slot n under ``alloc``.

    Sums the beam of every other allocated robot; transmissions through
    ``own_ris`` are skipped because nulling removes same-surface interference.
    """
    total = 0.0
    for rp in range(tables.n_robots):
        if rp == r:
            continue
        kind, idx = alloc.assignment(rp, n)
        if kind == "bs":
            total += float(tables.xi_bs[n, idx, rp, r])
        elif kind == "ris" and idx != own_ris:
            total += float(tables.xi_ris[n, idx, rp, r])
    return total


def sinr(tables: LinkPowerTables, alloc, r: int, n: int) -> float:
    """Signal-to-interference-plus-noise ratio of robot r's link in slot n."""
    kind, idx = alloc.assignment(r, n)
    if kind == "bs":
        signal = float(tables.p_direct[n, idx, r])
        interference = interference_sum(tables, alloc, r, n)
    elif kind == "ris":
        signal = float(tables.p_ris[n, idx, r])
        interference = interference_sum(tables, alloc, r, n, own_ris=idx)
    else:
        raise ValueError(f"robot {r} is unallocated in slot {n}; SINR undefined")
    return signal * tables.gain_bs * tables.gain_robot / (tables.noise + interference)


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
    limit = np.where(bs, tables.n_bs, tables.n_ris)
    if ((bs | ris) & ((index < 0) | (index >= limit))).any():
        raise ValueError("a served link names a BS or surface that does not exist")
    n_r = kind.shape[1]
    robots = np.arange(n_r)
    at = slots[:, None]
    signal = np.zeros(kind.shape)
    level = np.zeros(kind.shape + (n_r,))  # level[s, rp, r]: power r hears from rp's beam
    for power, cross, on in ((tables.p_direct, tables.xi_bs, bs), (tables.p_ris, tables.xi_ris, ris)):
        if on.any():
            src = np.where(on, index, 0)
            signal = np.where(on, power[at, src, robots], signal)
            level = np.where(on[:, :, None], cross[at, src, robots], level)
    # nulling: a surface's own beams never interfere with each other
    level[ris[:, :, None] & ris[:, None, :] & (index[:, :, None] == index[:, None, :])] = 0.0
    level[:, robots, robots] = 0.0
    # transmitters added one at a time in robot order, as interference_sum does
    interference = np.cumsum(level, axis=1)[:, -1] if n_r else np.zeros(kind.shape)
    value = signal * tables.gain_bs * tables.gain_robot / (tables.noise + interference)
    return np.where(bs | ris, value, np.nan)
