"""Convex polygon kernel: construction, measures, clipping, disk overlap, strips.

Vertices are plain ``(x, y)`` float tuples in counterclockwise order; the
polygon class canonicalizes orientation and start vertex and stores its
diameter.  The public constructor validates outside input; a clip piece is
validated only by the ring cleanup, whose ring becomes the polygon directly.
``None`` plays the role of the empty polygon wherever clipping can eat the
whole body.  The line searches and sweeps of ``robust2d`` clip many cuts at
once with a batched copy of these rules; the scalar clip here is its
fallback for cuts it cannot certify and its test oracle.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from . import tol
from .errors import DegenerateInput, NonConvexInput
from .util import fmt_g17, is_count

Point2 = tuple[float, float]

_AREA_FLOOR = 1e-12  # of squared diameter


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


def _turn(a: Point2, b: Point2, c: Point2) -> float:
    """Cross product of the edges ``a -> b`` and ``b -> c``; positive for a left turn."""
    return _cross(b[0] - a[0], b[1] - a[1], c[0] - b[0], c[1] - b[1])


def _max_pairwise_sq(pts: Sequence[Point2]) -> float:
    best = 0.0
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            d = dx * dx + dy * dy
            if d > best:
                best = d
    return best


def _shoelace(pts: Sequence[Point2]) -> float:
    total = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


class Ray2:
    """Half line: origin plus nonnegative multiples of a unit direction."""

    __slots__ = ("origin", "direction")

    def __init__(self, origin: Point2, direction: Point2):
        ox, oy = float(origin[0]), float(origin[1])
        dx, dy = float(direction[0]), float(direction[1])
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("ray direction must be nonzero")
        self.origin = (ox, oy)
        self.direction = (dx / norm, dy / norm)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ray2(origin={self.origin}, direction={self.direction})"


def dist_point_to_ray(p: Point2, ray: Ray2) -> float:
    """Distance from ``p`` to a half line (origin distance past the butt end)."""
    dx, dy = ray.direction
    vx = p[0] - ray.origin[0]
    vy = p[1] - ray.origin[1]
    t = vx * dx + vy * dy
    if t <= 0.0:
        return math.hypot(vx, vy)
    return abs(_cross(dx, dy, vx, vy))


class ConvexPolygon2:
    """Immutable strictly convex polygon.

    Construction validates the input: the cycle must be strictly convex (no
    reflex corner, no three consecutive vertices collinear within tolerance)
    and have area above ``1e-12`` of the squared diameter.  Clockwise input is
    silently reversed; the vertex list is rotated so the lowest (then
    leftmost) vertex comes first, making equality checks representation
    independent.
    """

    __slots__ = ("vertices", "diameter", "__dict__")

    def __init__(self, vertices: Iterable[Sequence[float]]):
        pts = [(float(p[0]), float(p[1])) for p in vertices]
        if len(pts) < 3:
            raise DegenerateInput("a polygon needs at least three vertices")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DegenerateInput("vertices must be finite")
        diam_sq = _max_pairwise_sq(pts)
        if diam_sq == 0.0:
            raise DegenerateInput("all vertices coincide")
        cross_tol = tol.EPS_GEOM * diam_sq

        n = len(pts)
        crosses = [_turn(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) for i in range(n)]
        has_pos = any(c > cross_tol for c in crosses)
        has_neg = any(c < -cross_tol for c in crosses)
        if has_pos and has_neg:
            raise NonConvexInput("vertex cycle has a reflex corner or self-intersects")
        if not has_pos and not has_neg:
            raise DegenerateInput("all vertices are collinear within tolerance")
        if has_neg:
            pts.reverse()
        if any(abs(c) <= cross_tol for c in crosses):
            raise DegenerateInput("three consecutive vertices are collinear within tolerance")
        area = _shoelace(pts)
        if area <= _AREA_FLOOR * diam_sq:
            raise DegenerateInput("polygon area is below the degeneracy threshold")
        self._store(pts, diam_sq)

    @classmethod
    def _from_ring(cls, ring: list[Point2], diam_sq: float) -> ConvexPolygon2:
        """Unchecked constructor: ``ring`` is valid and counterclockwise, ``diam_sq`` its squared diameter."""
        self = cls.__new__(cls)
        self._store(ring, diam_sq)
        return self

    def _store(self, pts: list[Point2], diam_sq: float) -> None:
        # Rotate so the lowest (then leftmost) vertex comes first.
        start = min(range(len(pts)), key=lambda i: (pts[i][1], pts[i][0]))
        self.vertices: tuple[Point2, ...] = tuple(pts[start:] + pts[:start])
        self.diameter = math.sqrt(diam_sq)

    # -- cached measures ---------------------------------------------------

    @cached_property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @cached_property
    def perimeter(self) -> float:
        return sum(math.hypot(bx - ax, by - ay) for (ax, ay), (bx, by) in self.edges())

    @cached_property
    def centroid(self) -> Point2:
        """Area centroid of the lamina."""
        pts = self.vertices
        cx = cy = 0.0
        n = len(pts)
        for i in range(n):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % n]
            w = x0 * y1 - x1 * y0
            cx += (x0 + x1) * w
            cy += (y0 + y1) * w
        a = self.area
        return (cx / (6.0 * a), cy / (6.0 * a))

    @property
    def eps(self) -> float:
        """Length tolerance scaled to this polygon."""
        return tol.EPS_GEOM * self.diameter

    # -- basic queries -----------------------------------------------------

    def edges(self) -> Iterator[tuple[Point2, Point2]]:
        pts = self.vertices
        n = len(pts)
        for i in range(n):
            yield pts[i], pts[(i + 1) % n]

    def interior_margin(self, p: Sequence[float]) -> float:
        """Smallest signed distance from ``p`` to the edge lines (positive inside)."""
        best = math.inf
        for (ax, ay), (bx, by) in self.edges():
            ex, ey = bx - ax, by - ay
            d = _cross(ex, ey, p[0] - ax, p[1] - ay) / math.hypot(ex, ey)
            if d < best:
                best = d
        return best

    def support_interval(self, nx: float, ny: float) -> tuple[float, float]:
        """Range of the projections of the vertices onto direction ``(nx, ny)``."""
        projs = [nx * x + ny * y for x, y in self.vertices]
        return min(projs), max(projs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConvexPolygon2) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConvexPolygon2({self.n} vertices, area={self.area:.6g})"


def polygon_new(points: Iterable[Sequence[float]]) -> ConvexPolygon2:
    """Validate a vertex cycle and build a canonical convex polygon."""
    return ConvexPolygon2(points)


def centroid(P: ConvexPolygon2) -> Point2:
    return P.centroid


def regular_ngon(S: int, circumradius: Optional[float] = None, center: Point2 = (0.0, 0.0)) -> ConvexPolygon2:
    """Regular ``S``-gon with vertices at angles ``2*pi*k/S`` around ``center``.

    With ``circumradius=None`` the polygon is scaled to unit perimeter.
    """
    if not (is_count(S) and S >= 3):
        raise ValueError("a regular polygon needs an integer S >= 3")
    if circumradius is None:
        r = 1.0 / (2.0 * S * math.sin(math.pi / S))
    else:
        r = float(circumradius)
        if not r > 0.0:
            raise ValueError("circumradius must be positive")
    cx, cy = float(center[0]), float(center[1])
    pts = [(cx + r * math.cos(2.0 * math.pi * k / S), cy + r * math.sin(2.0 * math.pi * k / S)) for k in range(S)]
    return ConvexPolygon2(pts)


# -- clipping ---------------------------------------------------------------


def _clean_ring(pts: Sequence[Point2]) -> Optional[ConvexPolygon2]:
    """Build a polygon from a clip result, dropping duplicate/collinear vertices.

    The only check a clip piece gets: every kept turn exceeds ``2 EPS diam_sq``
    and the area exceeds the floor times ``diam_sq``, where ``diam_sq`` bounds
    the ring's own, so the ring would pass the constructor unchanged.
    """
    if len(pts) < 3:
        return None
    diam_sq = _max_pairwise_sq(pts)
    if diam_sq == 0.0:
        return None
    merge_sq = (tol.EPS_GEOM * math.sqrt(diam_sq)) ** 2
    ring: list[Point2] = []
    for p in pts:
        if ring:
            dx = p[0] - ring[-1][0]
            dy = p[1] - ring[-1][1]
            if dx * dx + dy * dy <= merge_sq:
                continue
        ring.append(p)
    while len(ring) >= 2:
        dx = ring[0][0] - ring[-1][0]
        dy = ring[0][1] - ring[-1][1]
        if dx * dx + dy * dy <= merge_sq:
            ring.pop()
        else:
            break
    # Drop middles of collinear (or reflex-within-tolerance) triples until stable.
    cross_tol = 2.0 * tol.EPS_GEOM * diam_sq
    changed = True
    while changed and len(ring) >= 3:
        changed = False
        n = len(ring)
        for i in range(n):
            if _turn(ring[(i - 1) % n], ring[i], ring[(i + 1) % n]) <= cross_tol:
                ring.pop(i)
                changed = True
                break
    if len(ring) < 3:
        return None
    area = _shoelace(ring)
    if not math.isfinite(area):  # a non-finite or overflowing cut puts NaN into the ring
        raise DegenerateInput("vertices must be finite")
    if area <= _AREA_FLOOR * diam_sq:
        return None
    return ConvexPolygon2._from_ring(ring, diam_sq if len(ring) == len(pts) else _max_pairwise_sq(ring))


def _clip_ring(pts: Sequence[Point2], nx: float, ny: float, d: float, eps: float) -> Optional[list[Point2]]:
    """Sutherland-Hodgman step keeping ``n . z <= d``; ``None`` means all kept."""
    sides = [nx * x + ny * y - d for x, y in pts]
    if all(s <= eps for s in sides):
        return None  # cut does not bite
    out: list[Point2] = []
    n = len(pts)
    for i in range(n):
        j = (i + 1) % n
        si, sj = sides[i], sides[j]
        if si <= eps:
            out.append(pts[i])
        if (si > eps and sj < -eps) or (si < -eps and sj > eps):
            t = si / (si - sj)
            out.append((pts[i][0] + t * (pts[j][0] - pts[i][0]), pts[i][1] + t * (pts[j][1] - pts[i][1])))
    return out


def clip_halfplane_nd(P: ConvexPolygon2, nx: float, ny: float, d: float) -> Optional[ConvexPolygon2]:
    """Intersect ``P`` with the half plane ``n . z <= d`` given in normal form."""
    ring = _clip_ring(P.vertices, float(nx), float(ny), float(d), P.eps)
    if ring is None:
        return P
    return _clean_ring(ring)


# -- disk overlap -----------------------------------------------------------


def _disk_intersection_area(pts: Sequence[Point2], cx: float, cy: float, r: float) -> float:
    """Exact area of polygon ∩ disk via per-edge segment/arc accumulation.

    Each boundary edge contributes the Green's-theorem term of its inside-disk
    portion plus circular-sector terms for the outside portions; summed over
    the closed cycle this is the intersection area for any simple polygon and
    any disk center.
    """
    total = 0.0
    r_sq = r * r
    n = len(pts)
    for i in range(n):
        ax = pts[i][0] - cx
        ay = pts[i][1] - cy
        bx = pts[(i + 1) % n][0] - cx
        by = pts[(i + 1) % n][1] - cy
        ex, ey = bx - ax, by - ay
        a_coef = ex * ex + ey * ey
        if a_coef == 0.0:
            continue
        b_coef = 2.0 * (ax * ex + ay * ey)
        c_coef = ax * ax + ay * ay - r_sq
        disc = b_coef * b_coef - 4.0 * a_coef * c_coef
        u = v = None
        if disc > 0.0:
            root = math.sqrt(disc)
            t0 = (-b_coef - root) / (2.0 * a_coef)
            t1 = (-b_coef + root) / (2.0 * a_coef)
            u = max(t0, 0.0)
            v = min(t1, 1.0)
            if u >= v:
                u = v = None

        def arc(px: float, py: float, qx: float, qy: float) -> float:
            ang = math.atan2(px * qy - py * qx, px * qx + py * qy)
            return 0.5 * r_sq * ang

        if u is None:
            total += arc(ax, ay, bx, by)
        else:
            pux, puy = ax + u * ex, ay + u * ey
            pvx, pvy = ax + v * ex, ay + v * ey
            if u > 0.0:
                total += arc(ax, ay, pux, puy)
            total += 0.5 * (pux * pvy - puy * pvx)
            if v < 1.0:
                total += arc(pvx, pvy, bx, by)
    return total


def area_outside_disk(P: ConvexPolygon2, center: Sequence[float], r: float) -> float:
    """Exact area of the part of ``P`` at distance greater than ``r`` from ``center``."""
    if not r >= 0.0:
        raise ValueError("radius must be nonnegative")
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError("center must be finite")
    if r == 0.0:
        return P.area
    inside = _disk_intersection_area(P.vertices, cx, cy, r)
    return max(P.area - inside, 0.0)


# -- strip cover ------------------------------------------------------------


def strip_cover_admits(P: ConvexPolygon2, q: Sequence[float], rho: float) -> bool:
    """Whether the disk of radius ``rho`` about ``q`` admits a strip cover by the sides of ``P``.

    For each side ``[a, b]`` there must exist a pair of parallel lines through
    ``a`` and ``b`` whose closed slab contains the disk.  Such a slab with
    common unit normal ``n`` works iff ``n.(q-a) >= rho`` and
    ``n.(b-q) >= rho``; the best normal maximizes the smaller of the two dot
    products, which is attained along one of the two vectors or where they
    agree.  Comparisons are closed at a small absolute tolerance.
    """
    if not rho >= 0.0:
        raise ValueError("rho must be nonnegative")
    qx, qy = float(q[0]), float(q[1])
    if not (math.isfinite(qx) and math.isfinite(qy)):
        raise ValueError("q must be finite")
    slack = tol.EPS_COVER * max(1.0, P.diameter)
    for (ax, ay), (bx, by) in P.edges():
        v1x, v1y = qx - ax, qy - ay
        v2x, v2y = bx - qx, by - qy
        best = -math.inf
        for cx_, cy_ in ((v1x, v1y), (v2x, v2y), (v1y - v2y, v2x - v1x), (v2y - v1y, v1x - v2x)):
            norm = math.hypot(cx_, cy_)
            if norm == 0.0:
                # One of the vectors vanishes: the best value is 0 along any
                # normal perpendicular to the other.
                best = max(best, 0.0)
                continue
            nx, ny = cx_ / norm, cy_ / norm
            best = max(best, min(nx * v1x + ny * v1y, nx * v2x + ny * v2y))
        if best < rho - slack:
            return False
    return True


# -- JSON -------------------------------------------------------------------


def polygon_to_json(P: ConvexPolygon2) -> str:
    """Serialize to ``{"vertices": [[x, y], ...]}`` with 17 significant digits."""
    rows = ", ".join(f"[{fmt_g17(x)}, {fmt_g17(y)}]" for x, y in P.vertices)
    return f'{{"vertices": [{rows}]}}'


def polygon_from_json(text: str) -> ConvexPolygon2:
    """Parse the polygon JSON object, enforcing convexity."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DegenerateInput(f"polygon JSON is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise DegenerateInput('polygon JSON must be an object with a "vertices" array')
    verts = obj["vertices"]
    if not isinstance(verts, list) or any(not (isinstance(v, list) and len(v) == 2 and all(map(_json_number, v))) for v in verts):
        raise DegenerateInput("polygon JSON vertices must be [x, y] pairs of numbers")
    return ConvexPolygon2(verts)


def _json_number(c) -> bool:
    """Whether ``c`` is a JSON number that ``float`` takes: an int or a float,
    not a bool (nor a string, null, an object or an array), and not an integer
    beyond the float range."""
    return isinstance(c, (int, float)) and not isinstance(c, bool) and not abs(c) > sys.float_info.max
