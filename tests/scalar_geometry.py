"""Scalar geometry references, one pair of points at a time.

The program computes occlusion, fields of view, beam cones and arrival-angle
conflicts on whole (slot, robot, link) arrays.  These routines restate each
test with plain floats and ``math``, so the batched arrays can be checked
against their definitions pair by pair.
"""

from __future__ import annotations

import math

from rislink.geometry import Point2D, RisMount


def sees(mount: RisMount, p: Point2D) -> bool:
    """Field-of-view test only; occlusion is checked separately."""
    dx, dy = p.x - mount.position.x, p.y - mount.position.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return False
    cos_a = (dx * mount.normal[0] + dy * mount.normal[1]) / d
    cos_a = max(-1.0, min(1.0, cos_a))
    return math.acos(cos_a) <= mount.fov_half_angle + 1e-12


def los_blocked(p: Point2D, q: Point2D, obstacles) -> bool:
    """True iff segment pq intersects any obstacle, boundary contact included.

    Slab clipping against the closed rectangle; grazing a corner or running
    along an edge counts as blocked (conservative, deterministic).  Endpoints
    are ordered canonically first so the test is exactly symmetric.
    """
    if p.x == q.x and p.y == q.y:
        raise ValueError("los_blocked requires two distinct points")
    if (q.x, q.y) < (p.x, p.y):
        p, q = q, p
    dx = q.x - p.x
    dy = q.y - p.y
    for ob in obstacles:
        t0, t1 = 0.0, 1.0
        ok = True
        for delta, lo, hi, start in ((dx, ob.xmin, ob.xmax, p.x), (dy, ob.ymin, ob.ymax, p.y)):
            if delta == 0.0:
                if start < lo or start > hi:
                    ok = False
                    break
            else:
                ta = (lo - start) / delta
                tb = (hi - start) / delta
                if ta > tb:
                    ta, tb = tb, ta
                t0 = max(t0, ta)
                t1 = min(t1, tb)
                if t0 > t1:
                    ok = False
                    break
        if ok:
            return True
    return False


def footprint_diameter(theta: float, d: float) -> float:
    """Cross-section diameter of a conical beam of width ``theta`` at range ``d``."""
    if not 0.0 < theta < math.pi:
        raise ValueError("beamwidth must be in (0, pi)")
    if d < 0.0:
        raise ValueError("distance must be non-negative")
    return 2.0 * math.tan(theta / 2.0) * d


def angle_between(ux: float, uy: float, vx: float, vy: float) -> float:
    """Unsigned angle between two nonzero vectors, in [0, pi]."""
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle undefined for zero vector")
    c = (ux * vx + uy * vy) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


def in_beam_cone(origin: Point2D, target: Point2D, probe: Point2D, theta: float, obstacles) -> bool:
    """Does ``probe`` receive the beam transmitted from ``origin`` toward ``target``?

    True iff probe lies within theta/2 of the beam axis, on the target side of
    the origin, with unobstructed sight from the origin.
    """
    if origin.x == target.x and origin.y == target.y:
        raise ValueError("beam axis undefined: origin == target")
    ax, ay = target.x - origin.x, target.y - origin.y
    px, py = probe.x - origin.x, probe.y - origin.y
    na = math.hypot(ax, ay)
    np_ = math.hypot(px, py)
    if np_ == 0.0:
        return False
    # normalized components avoid underflow on near-degenerate geometry
    ax, ay = ax / na, ay / na
    px, py = px / np_, py / np_
    if px * ax + py * ay <= 0.0:
        return False
    if angle_between(ax, ay, px, py) > theta / 2.0 + 1e-12:
        return False
    return not los_blocked(origin, probe, obstacles)
