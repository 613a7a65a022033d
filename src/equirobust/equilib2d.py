"""Equilibrium points of a convex polygon with respect to an interior reference point.

A stable point is the perpendicular foot of the reference on an edge when the
foot lies in the edge's relative interior; an unstable point is a vertex whose
two incident edge directions both make a strictly acute angle with the
direction back to the reference.  Feet or angles within tolerance of the
transition are reported with ``degenerate=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateConfiguration, ReferenceOutside
from .geom2d import ConvexPolygon2, Point2
from .reports import json_dumps_g17
from .util import RayTable, ray_intervals


@dataclass(frozen=True)
class EquilibriumPoint2:
    kind: str  # "stable" | "unstable"
    location: Point2
    carrier: int  # edge index for stable, vertex index for unstable
    degenerate: bool
    param: float  # position along the boundary: carrier + edge fraction


@dataclass(frozen=True)
class EquilibriumSet2:
    reference: Point2
    points: tuple[EquilibriumPoint2, ...]

    @property
    def S(self) -> int:
        return sum(1 for p in self.points if p.kind == "stable")

    @property
    def U(self) -> int:
        return sum(1 for p in self.points if p.kind == "unstable")

    @property
    def any_degenerate(self) -> bool:
        return any(p.degenerate for p in self.points)

    def as_dict(self) -> dict:
        return {
            "S": self.S,
            "U": self.U,
            "points": [
                {
                    "kind": p.kind,
                    "x": p.location[0],
                    "y": p.location[1],
                    "carrier": p.carrier,
                    "degenerate": p.degenerate,
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        return json_dumps_g17(self.as_dict(), indent=None)


def stable_points(P: ConvexPolygon2, p: Sequence[float]) -> list[EquilibriumPoint2]:
    """Perpendicular feet of ``p`` on edges, in boundary order.

    Raises ``ReferenceOutside`` unless ``p`` is finite and strictly inside
    beyond tolerance.
    """
    eps = P.eps
    px, py = float(p[0]), float(p[1])
    if not (math.isfinite(px) and math.isfinite(py)) or P.interior_margin(p) <= eps:
        raise ReferenceOutside("reference point must be strictly interior to the polygon")
    out: list[EquilibriumPoint2] = []
    pts = P.vertices
    n = len(pts)
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        s = ((px - ax) * ex + (py - ay) * ey) / length  # arc position of the foot
        if s < -eps or s > length + eps:
            continue
        degenerate = s <= eps or s >= length - eps
        t = min(max(s / length, 0.0), 1.0)
        foot = (ax + t * ex, ay + t * ey)
        out.append(EquilibriumPoint2("stable", foot, i, degenerate, i + t))
    return out


def unstable_points(P: ConvexPolygon2, p: Sequence[float]) -> list[EquilibriumPoint2]:
    """Vertices that are local maxima of the boundary distance to ``p``.

    ``p`` is not checked here; :func:`equilibria` checks it in :func:`stable_points`.
    """
    px, py = float(p[0]), float(p[1])
    eps = P.eps
    out: list[EquilibriumPoint2] = []
    pts = P.vertices
    n = len(pts)
    for i in range(n):
        vx, vy = pts[i]
        ux, uy = pts[(i - 1) % n]
        wx, wy = pts[(i + 1) % n]
        # Projections of p - v on the unit edge directions away from v.
        d1 = ((px - vx) * (ux - vx) + (py - vy) * (uy - vy)) / math.hypot(ux - vx, uy - vy)
        d2 = ((px - vx) * (wx - vx) + (py - vy) * (wy - vy)) / math.hypot(wx - vx, wy - vy)
        if d1 > eps and d2 > eps:
            out.append(EquilibriumPoint2("unstable", (vx, vy), i, False, float(i)))
        elif d1 >= -eps and d2 >= -eps and (abs(d1) <= eps or abs(d2) <= eps):
            out.append(EquilibriumPoint2("unstable", (vx, vy), i, True, float(i)))
    return out


def equilibria(P: ConvexPolygon2, p: Sequence[float]) -> EquilibriumSet2:
    """All equilibrium points in boundary order, with the alternation check."""
    merged = sorted(stable_points(P, p) + unstable_points(P, p), key=lambda e: e.param)
    eq = EquilibriumSet2((float(p[0]), float(p[1])), tuple(merged))
    if not eq.any_degenerate:
        if eq.S != eq.U:
            raise DegenerateConfiguration(f"stable/unstable counts differ: S={eq.S} U={eq.U}")
        n = len(merged)
        for i in range(n):
            if merged[i].kind == merged[(i + 1) % n].kind:
                raise DegenerateConfiguration("stable and unstable points do not alternate")
    return eq


def stable_count(P: ConvexPolygon2, q: Sequence[float]) -> int:
    """Number of local minima of the boundary distance to an arbitrary point ``q``.

    Relaxed variant used by sampling oracles: ``q`` may be anywhere in the
    plane.  Every edge whose perpendicular foot falls strictly inside the edge
    carries one minimum; for exterior ``q`` a vertex is a minimum when the
    distance increases along both incident edges.
    """
    qx, qy = float(q[0]), float(q[1])
    pts = P.vertices
    n = len(pts)
    count = 0
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        t = ((qx - ax) * ex + (qy - ay) * ey) / (ex * ex + ey * ey)
        if 0.0 < t < 1.0:
            count += 1
        # Vertex minimum at a: distance grows toward b and toward the previous vertex.
        ux, uy = pts[(i - 1) % n]
        d_next = (qx - ax) * ex + (qy - ay) * ey
        d_prev = (qx - ax) * (ux - ax) + (qy - ay) * (uy - ay)
        if d_next < 0.0 and d_prev < 0.0:
            count += 1
    return count


def _count_frames(P: ConvexPolygon2) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per vertex a: the anchor, the edge ``e`` to the next vertex, the edge
    ``w`` to the previous one, and ``e·e`` as ``stable_count`` forms it."""
    a = np.asarray(P.vertices, dtype=float)
    e = np.roll(a, -1, axis=0) - a
    return a, e, np.roll(a, 1, axis=0) - a, e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]


def stable_count_batch(P: ConvexPolygon2, qs: np.ndarray) -> np.ndarray:
    """Vectorized ``stable_count`` over an (m, 2) array of query points.

    Every product and sum is elementwise, in the order ``stable_count``
    forms it, so each point's count is ``stable_count``'s, bit for bit,
    whatever batch holds it.  The sampled robustness walk reads this count
    from ``stable_count_rays``' table and calls this only for the points the
    table leaves undecided, so this is the walk's fallback and the table's
    test oracle.
    """
    qs = np.asarray(qs, dtype=float)
    a, e, w, ee = _count_frames(P)
    counts = np.zeros(len(qs), dtype=int)
    for i in range(len(a)):
        x, y = qs[:, 0] - a[i, 0], qs[:, 1] - a[i, 1]
        d_next = x * e[i, 0] + y * e[i, 1]
        t = d_next / ee[i]
        counts += (t > 0.0) & (t < 1.0)
        counts += (d_next < 0.0) & (x * w[i, 0] + y * w[i, 1] < 0.0)
    return counts


def stable_count_rays(P: ConvexPolygon2, origin: np.ndarray, directions: np.ndarray) -> RayTable:
    """``stable_count_batch``'s table along the rays ``origin + s·u`` (see
    :func:`util.ray_intervals`), built from the same tests.

    Per vertex there are two faces of two slots each: the edge to the next
    vertex counts for ``0 < t < 1`` (``-(rel·e) < 0`` and ``rel·e / (e·e) <
    1``), the vertex for ``rel·e < 0`` and ``rel·w < 0``, with ``rel = p -
    a``.
    """
    a, e, w, ee = _count_frames(P)
    rel = origin - a
    x_e = np.einsum("ij,ij->i", rel, e)
    x_w = np.einsum("ij,ij->i", rel, w)
    zero = np.zeros(len(a))
    vectors = np.stack([-e, e, e, w], axis=1).reshape(-1, 2)
    offsets = np.column_stack([-x_e, x_e - ee, x_e, x_w]).ravel()
    thresholds = np.column_stack([zero, ee, zero, zero]).ravel()
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(origin))))
    starts = np.arange(0, len(vectors) + 1, 2)
    return ray_intervals(directions, vectors, offsets, thresholds, scale, starts)
