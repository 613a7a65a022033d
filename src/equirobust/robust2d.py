"""Robustness measures for convex polygons.

Internal robustness: normalized distance from the reference point to the
nearest caustic line (perpendicular to an edge through one of its endpoints),
i.e. how far the reference can move before the stable count changes.

External robustness: normalized area of the smallest truncation, keeping the
reference fixed, that removes a stable point: partition the polygon into
sectors between consecutive stable feet and measure the part of each sector
farther from the reference than both bounding feet.

Full robustness: smallest relative area a single straight cut must remove so
that the remainder, weighed at its own centroid, has fewer stable points.
Monte Carlo truncation sweeps use the motion-invariant line measure
(uniform angle, uniform offset across the support interval).

A side of a cut is a signed normal: the piece on side ``side`` of the line
``n·z = d`` is the half plane ``m·z <= e`` with ``m = side·n`` and
``e = side·d``, so the kept part grows with ``e`` on both sides.  Every cut
in this module, the sector clips of ``rho_ex_exact`` included, is written so.

The sweep and the line search evaluate their cuts with one batched
evaluator, ``_CutEvaluator``, which gives the scalar clip-and-classify
path's results bit for bit and hands it the few cuts it cannot certify.
Its results stay arrays (stable count -1 for an unusable piece), and a sweep
is returned as the columns of a ``TruncationSweep``, with ``piece_S = -1``
for a degenerate piece.  The line search lays out its cut families and
bisects through the helpers the 3D plane search uses, ``util.signed_families``
and ``util.cached_cuts``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import tol
from .equilib2d import equilibria, stable_count_batch, stable_count_rays
from .errors import DegenerateConfiguration, ReferenceOutside, TooFewStable
from .geom2d import (
    _AREA_FLOOR,
    ConvexPolygon2,
    Ray2,
    area_outside_disk,
    clip_halfplane_nd,
    dist_point_to_ray,
)
from .reports import RobustnessReport
from .util import BLOCK_CELLS, SPECULATE_CELLS, cached_cuts, family_cut, fmt_g17, is_count, seed_generator, signed_families

log = logging.getLogger(__name__)


# -- closed forms -----------------------------------------------------------


def rho_regular_closed(S: int, kind: str) -> float:
    """Closed-form robustness of the regular ``S``-gon about its center.

    ``internal``: 1/(2S) at unit perimeter.  ``external``:
    ``(tan(pi/S) - pi/S) / (S tan(pi/S))``.
    """
    if S < 3:
        raise ValueError("S must be at least 3")
    if kind == "internal":
        return 1.0 / (2.0 * S)
    if kind == "external":
        t = math.tan(math.pi / S)
        return (t - math.pi / S) / (S * t)
    raise ValueError(f"unknown kind {kind!r}")


def dowker_area(n: int) -> float:
    """Area of the regular ``n``-gon circumscribed about the unit circle."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return n * math.tan(math.pi / n)


def dowker_convexity_check(n: int, k: int) -> bool:
    """Strict convexity of the circumscribed-area sequence: a(n-k)+a(n+k) > 2a(n)."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if not (0 < k < n - 2):
        raise ValueError("k must satisfy 0 < k < n-2")
    return dowker_area(n - k) + dowker_area(n + k) > 2.0 * dowker_area(n)


# -- internal robustness ----------------------------------------------------


def rho_in_exact(P: ConvexPolygon2, p: Sequence[float], rays_only: bool = False) -> RobustnessReport:
    """Exact internal robustness: nearest caustic line over perimeter.

    Candidates are, for every vertex, the lines through it perpendicular to
    each incident edge.  With ``rays_only=True`` only the half lines pointing
    into the polygon (the inward edge normals) are considered.
    """
    eq = equilibria(P, p)
    if eq.any_degenerate:
        raise DegenerateConfiguration("reference point gives a degenerate configuration")
    px, py = float(p[0]), float(p[1])
    pts = P.vertices
    n = len(pts)
    best = math.inf
    best_witness: Optional[dict] = None
    for i in range(n):
        vx, vy = pts[i]
        # Incident edges: edge i starts at vertex i, edge i-1 ends at it.
        for j in (i, (i - 1) % n):
            ax, ay = pts[j]
            bx, by = pts[(j + 1) % n]
            ex, ey = bx - ax, by - ay
            length = math.hypot(ex, ey)
            dx, dy = ex / length, ey / length
            if rays_only:
                inward = (-dy, dx)  # left normal of a counterclockwise edge
                dist = dist_point_to_ray((px, py), Ray2((vx, vy), inward))
            else:
                # Distance to the line through v along the edge normal equals the
                # component of p - v along the edge direction.
                dist = abs((px - vx) * dx + (py - vy) * dy)
            if dist < best:
                best = dist
                best_witness = {
                    "type": "caustic_ray" if rays_only else "caustic_line",
                    "vertex": i,
                    "edge": j,
                    "distance": dist,
                }
    return RobustnessReport(
        kind="internal",
        value=best / P.perimeter,
        method="exact",
        witness=best_witness,
        details={"S": eq.S, "perimeter": P.perimeter, "rays_only": rays_only},
    )


def rho_in_sampled(P: ConvexPolygon2, p: Sequence[float], directions: int = 720, tol_step: float = 1e-6) -> RobustnessReport:
    """Sampled internal robustness, independent of the caustic construction.

    Walks evenly spaced directions from ``p`` and bisects the first step at
    which the stable count (relaxed variant, valid for exterior points)
    changes; the smallest such distance over all directions, normalized by the
    perimeter, estimates the internal robustness from above.  The walk reads
    the counts from ``stable_count_rays``' table and asks
    ``stable_count_batch`` only where the table cannot certify them.
    ``directions`` must be positive and ``tol_step`` positive and finite.
    """
    from .util import first_exit_distances

    _require_positive_count("directions", directions)
    if not (math.isfinite(tol_step) and tol_step > 0.0):
        raise ValueError("tol_step must be a positive finite number")
    eq = equilibria(P, p)
    if eq.any_degenerate:
        raise DegenerateConfiguration("reference point gives a degenerate configuration")
    origin = np.array([float(p[0]), float(p[1])])
    angles = np.arange(directions) * (2.0 * math.pi / directions)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    verts = np.asarray(P.vertices)
    far = float(np.hypot(verts[:, 0] - origin[0], verts[:, 1] - origin[1]).max())
    s_max = 2.0 * (far + P.diameter)
    exits = first_exit_distances(
        lambda qs: stable_count_batch(P, qs), origin, dirs, eq.S, s_max, tol_step, stable_count_rays(P, origin, dirs)
    )
    k = int(np.argmin(exits))
    return RobustnessReport(
        kind="internal",
        value=float(exits[k]) / P.perimeter,
        method="sampled",
        witness={"type": "direction", "angle": float(angles[k]), "distance": float(exits[k])},
        details={"S": eq.S, "directions": int(directions), "tol": tol_step},
    )


# -- external robustness ----------------------------------------------------


def rho_ex_exact(P: ConvexPolygon2, p: Sequence[float]) -> RobustnessReport:
    """Exact external robustness about a fixed interior reference point.

    With stable feet ``s_1..s_S`` in boundary order, the plane is split at
    ``p`` into angular sectors between consecutive feet.  In each sector the
    area farther from ``p`` than both bounding feet is what a truncation must
    remove to kill the stable points there; the minimum over sectors, divided
    by the polygon area, is the result.
    """
    eq = equilibria(P, p)
    if eq.any_degenerate:
        raise DegenerateConfiguration("reference point gives a degenerate configuration")
    feet = [e for e in eq.points if e.kind == "stable"]
    S = len(feet)
    if S < 3:
        raise TooFewStable(f"external robustness needs S >= 3, got S={S}")
    px, py = float(p[0]), float(p[1])
    total = P.area
    cross_tol = tol.EPS_GEOM * P.diameter * P.diameter
    best = math.inf
    best_idx = -1
    sector_areas = []

    def halfplane(Q, u, side):  # Q left (+1) or right (-1) of the ray from p along u
        return None if Q is None else clip_halfplane_nd(Q, side * u[1], -side * u[0], side * (u[1] * px - u[0] * py))

    def measure(Q, r):  # area, and area outside the disk of radius r about p
        return (0.0, 0.0) if Q is None else (Q.area, area_outside_disk(Q, (px, py), r))

    for i in range(S):
        ax, ay = feet[i].location
        bx, by = feet[(i + 1) % S].location
        u1 = (ax - px, ay - py)
        u2 = (bx - px, by - py)
        r = max(math.hypot(*u1), math.hypot(*u2))
        cr = u1[0] * u2[1] - u1[1] * u2[0]
        dot = u1[0] * u2[0] + u1[1] * u2[1]
        # The sector lies left of the ray toward foot i and right of the ray
        # toward foot i+1.
        h1 = halfplane(P, u1, +1)
        area_i, x_i = measure(halfplane(h1, u2, -1), r)
        if not (cr > cross_tol or (abs(cr) <= cross_tol and dot > 0.0)):
            # Reflex sector (angle >= pi): the wedge is the union of the two
            # half planes; use inclusion-exclusion over convex clips.
            log.debug("reflex sector %d at reference %r", i, (px, py))
            (a1, x1), (a2, x2) = measure(h1, r), measure(halfplane(P, u2, -1), r)
            area_i, x_i = a1 + a2 - area_i, x1 + x2 - x_i
        sector_areas.append(area_i)
        if x_i < best:
            best = x_i
            best_idx = i
    return RobustnessReport(
        kind="external",
        value=best / total,
        method="exact",
        witness={
            "type": "sector",
            "index": best_idx,
            "foot_a": list(feet[best_idx].location),
            "foot_b": list(feet[(best_idx + 1) % S].location),
            "area": best,
        },
        details={"S": S, "area": total, "sector_areas": sector_areas},
    )


# -- full robustness: straight-cut search -----------------------------------


def _piece_stable(P: ConvexPolygon2, piece: Optional[ConvexPolygon2]) -> Optional[int]:
    """Stable count of a piece at its own centroid; ``None`` when unusable.

    Unusable covers a missing or unchanged piece, a sliver whose centroid lies
    within tolerance of its boundary, and a degenerate classification.
    """
    if piece is None or piece is P:
        return None
    try:
        eq = equilibria(piece, piece.centroid)
    except (DegenerateConfiguration, ReferenceOutside):
        return None
    if eq.any_degenerate:
        return None
    return eq.S


#: Largest polygon the batched evaluator takes: its run-diameter table stays under 1 MB.
_CUT_MAX_VERTICES = 350
#: Coordinate range it takes, so that no square underflows and no product overflows.
_CUT_SCALE_RANGE = (1e-100, 1e100)
#: Decisions that divide by an edge length are certified this far, in piece
#: diameters, from their threshold: a length from ``np.sqrt`` may differ from
#: ``math.hypot`` in the last bits.
_LENGTH_SLACK = 1e-13


class _CutEvaluator:
    """Kept area fraction and piece stable count for batches of cuts of one polygon.

    A call takes m cuts ``n·z <= d`` and returns, row for row and bit for bit,
    what :func:`clip_halfplane_nd` followed by :func:`_piece_stable` gives, as
    two arrays: the kept fraction of the area (1.0 when the cut misses, 0.0
    when the piece collapses) and the stable count at the piece's centroid
    (-1 where ``_piece_stable`` gives ``None``).  Rows are evaluated in padded
    arrays of ``n + 3`` ring slots, in chunks of ``BLOCK_CELLS // (n + 3)``
    rows.  The chunk only bounds memory: every row's result is the same
    whatever the chunk, and callers batch cuts as they choose (the line
    search's rounds are sized by ``SPECULATE_CELLS``, not by the chunk).
    The kept vertices of a convex polygon form one cyclic run, so a piece's
    ring is that run plus at most two crossing points, laid out from the
    polygon's canonical start; area and centroid are then sequential sums in
    the order the polygon itself sums them, and the foot and vertex tests of
    :func:`equilibria` become masked reductions.  A row takes the scalar path
    instead when its ring is one the cleanup would change, when a decision
    made with a rounded length or area lies too close to its threshold to
    certify, or when it is not finite; so do all rows of a polygon with more
    than ``_CUT_MAX_VERTICES`` vertices or outside ``_CUT_SCALE_RANGE``.
    """

    def __init__(self, P: ConvexPolygon2):
        self.P = P
        self.total = P.area
        xy = np.asarray(P.vertices)
        # Vertex i sits in column i + 1, between copies of its cyclic neighbours.
        self.X = np.concatenate([xy[-1:, 0], xy[:, 0], xy[:1, 0]])
        self.Y = np.concatenate([xy[-1:, 1], xy[:, 1], xy[:1, 1]])
        reach = float(np.abs(xy).max())
        self.batched = P.n <= _CUT_MAX_VERTICES and _CUT_SCALE_RANGE[0] <= P.diameter and reach <= _CUT_SCALE_RANGE[1]
        if self.batched:
            self.run_diam_sq = self._run_table(xy[:, 0], xy[:, 1])
            # Two sequential sums of the same L <= n + 1 shoelace terms, each
            # at most 2 reach^2, differ by less than 2 (L - 1) u sum|terms|.
            self.area_slack = 4.0 * (P.n + 1) ** 2 * 2.0**-53 * reach * reach

    @staticmethod
    def _run_table(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Entry ``[a, l]``: the largest squared distance among the ``l``
        cyclically consecutive vertices from ``a``.  A squared difference is
        symmetric in floating point, so each entry equals ``_max_pairwise_sq``."""
        n = len(X)
        dx = X[None, :] - X[:, None]
        dy = Y[None, :] - Y[:, None]
        dist = dx * dx + dy * dy
        a = np.arange(n)
        # reach[j, s]: the largest squared distance from j to the s vertices before it.
        reach = np.maximum.accumulate(dist[a[:, None], (a[:, None] - a) % n], axis=1)
        table = np.zeros((n, n + 1))
        # The run of l = s + 1 vertices from a adds vertex a + s to the one of length s.
        table[:, 1:] = np.maximum.accumulate(reach[(a[:, None] + a) % n, a], axis=1)
        return table

    def __call__(self, nx, ny, d) -> tuple[np.ndarray, np.ndarray]:
        nx, ny, d = (np.asarray(v, dtype=float).reshape(-1) for v in (nx, ny, d))
        m = len(d)
        kept = np.ones(m)
        count = np.full(m, -1)
        scalar = np.ones(m, dtype=bool)
        if self.batched:
            rows = max(1, BLOCK_CELLS // (self.P.n + 3))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for lo in range(0, m, rows):
                    part = slice(lo, lo + rows)
                    scalar[part] = self._certified(nx[part], ny[part], d[part], kept[part], count[part])
        for i in np.flatnonzero(scalar).tolist():
            piece = clip_halfplane_nd(self.P, nx[i], ny[i], d[i])
            kept[i] = 0.0 if piece is None else 1.0 if piece is self.P else piece.area / self.total
            s = _piece_stable(self.P, piece)
            count[i] = -1 if s is None else s
        return kept, count

    def _certified(self, nx, ny, d, kept, count) -> np.ndarray:
        """Fill ``kept`` and ``count`` (-1 for ``None``) of the rows the batched
        pass certifies; return the mask of rows left to the scalar path."""
        X, Y = self.X, self.Y
        n = len(X) - 2
        eps = self.P.eps
        sw = nx[:, None] * X + ny[:, None] * Y - d[:, None]
        keep_w = sw <= eps
        keep = keep_w[:, 1:-1]
        run_start = keep & ~keep_w[:, :-2]
        k = keep.sum(1)
        scalar = ~(np.isfinite(nx) & np.isfinite(ny) & np.isfinite(d)) | (run_start.sum(1) > 1)
        kept[k < n] = 0.0  # collapsed, unless a piece is built below
        # The run's end vertices, strictly inside, each meet a crossing point.
        a = np.argmax(run_start, 1)
        r = np.arange(len(d))
        z = (a + k - 1) % n
        has_in = sw[r, a + 1] < -eps
        has_out = sw[r, z + 1] < -eps
        size = k + has_in + has_out
        li = np.flatnonzero((k < n) & ~scalar & (size >= 3))
        if not len(li):
            return scalar
        sw, keep, a, z, k, has_in, has_out, size = sw[li], keep[li], a[li], z[li], k[li], has_in[li], has_out[li], size[li]
        q = len(li)
        r = np.arange(q)
        last = size - 1

        def crossing(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Where the cut meets edge i -> i + 1, as the clip computes it."""
            si = sw[r, i + 1]
            t = si / (si - sw[r, i + 2])
            return X[i + 1] + t * (X[i + 2] - X[i + 1]), Y[i + 1] + t * (Y[i + 2] - Y[i + 1])

        inx, iny = crossing((a - 1) % n)
        outx, outy = crossing(z)

        # The ring, cyclically: crossing in, kept vertices a..z, crossing out.
        # It starts at its lowest, then leftmost point, as the polygon does.
        # Two points tie only when they coincide, and then the cleanup merges
        # them, so such a row goes to the scalar path whatever start is chosen.
        inf = np.inf
        low_y = np.minimum(
            np.where(keep, Y[1:-1], inf).min(1), np.minimum(np.where(has_in, iny, inf), np.where(has_out, outy, inf))
        )
        at_low = keep & (Y[1:-1] == low_y[:, None])
        in_low = has_in & (iny == low_y)
        out_low = has_out & (outy == low_y)
        low_x = np.minimum(
            np.where(at_low, X[1:-1], inf).min(1), np.minimum(np.where(in_low, inx, inf), np.where(out_low, outx, inf))
        )
        vertex_start = has_in + (np.argmax(at_low & (X[1:-1] == low_x[:, None]), 1) - a) % n
        start = np.where(in_low & (inx == low_x), 0, np.where(out_low & (outx == low_x), last, vertex_start))

        # Ring point j sits in slot j + 1; slot 0 repeats the last point and
        # slot size + 1 the first.
        width = n + 3
        e = (np.arange(width)[None, :] - 1 + start[:, None]) % size[:, None]
        is_in = e < has_in[:, None]
        is_out = e >= (has_in + k)[:, None]
        vi = (a[:, None] + e - has_in[:, None]) % n + 1
        RX = np.where(is_in, inx[:, None], np.where(is_out, outx[:, None], X[vi]))
        RY = np.where(is_in, iny[:, None], np.where(is_out, outy[:, None], Y[vi]))
        VX, VY = RX[:, 1:-1], RY[:, 1:-1]
        valid = np.arange(width - 2) < size[:, None]

        # Squared diameter: the kept run from the table, then every pair with
        # a crossing point.
        diam_sq = self.run_diam_sq[a, k]
        for has, cx, cy in ((has_in, inx, iny), (has_out, outx, outy)):
            dx = VX - cx[:, None]
            dy = VY - cy[:, None]
            diam_sq = np.maximum(diam_sq, np.where(valid & has[:, None], dx * dx + dy * dy, 0.0).max(1))

        # Edge j + 1 runs from ring point j to the next, edge j into point j.
        # The cleanup changes nothing when no neighbours are within the merge
        # distance and every turn exceeds its tolerance.
        EXW = np.diff(RX, axis=1)
        EYW = np.diff(RY, axis=1)
        EX, EY, PX, PY = EXW[:, 1:], EYW[:, 1:], EXW[:, :-1], EYW[:, :-1]
        LSQ = EXW * EXW + EYW * EYW
        root = tol.EPS_GEOM * np.sqrt(diam_sq)
        merge_hi = root * root * (1.0 + 1e-12)  # above the scalar's (...)**2 by more than its rounding
        cross_tol = 2.0 * tol.EPS_GEOM * diam_sq
        clean = (~valid | ((LSQ[:, 1:] > merge_hi[:, None]) & (PX * EY - PY * EX > cross_tol[:, None]))).all(1)

        # Area and centroid from the canonical start.  The cleanup's floor test
        # sums the same terms from the clip's first point instead; a row whose
        # area lies within the bound on that difference is not certified.
        w = VX * RY[:, 2:] - RX[:, 2:] * VY
        terms = np.stack((w, (VX + RX[:, 2:]) * w, (VY + RY[:, 2:]) * w), 2)
        terms[:, 0] += 0.0  # the scalar sums start from +0.0
        sums = np.cumsum(terms, 1)[r, last]
        area = 0.5 * sums[:, 0]
        floor = _AREA_FLOOR * diam_sq
        big = area > floor + self.area_slack
        small = area <= floor - self.area_slack
        six_a = 6.0 * area
        px = sums[:, 1] / six_a
        py = sums[:, 2] / six_a

        # Classification at the centroid: the interior margin, each foot's
        # position along its edge (also the next-edge projection of the
        # unstable-vertex test) and the projection on the previous edge.
        diam = np.sqrt(diam_sq)
        eps_p = tol.EPS_GEOM * diam
        slack = _LENGTH_SLACK * diam
        ep = eps_p[:, None]
        sl = slack[:, None]
        LENW = np.sqrt(LSQ)
        LEN = LENW[:, 1:]
        ax = px[:, None] - VX
        ay = py[:, None] - VY
        margin = np.where(valid, (EX * ay - EY * ax) / LEN, inf).min(1)
        foot = (ax * EX + ay * EY) / LEN
        back = (ax * -PX + ay * -PY) / LENW[:, :-1]
        af, ab, ad = np.abs(foot), np.abs(back), np.abs(foot - LEN)
        near = valid & ((np.abs(af - ep) <= sl) | (np.abs(ab - ep) <= sl) | (np.abs(ad - ep) <= sl))
        outside = margin < eps_p - slack
        sure = outside | ((margin > eps_p + slack) & ~near.any(1))
        stable = valid & (foot > ep) & (foot < LEN - ep)
        unstable = valid & (back > ep) & (foot > ep)
        # A clean ring's edges exceed 2 eps (a shorter one fails the turn
        # test), so a foot within eps of one end lies inside its edge's band.
        flagged = valid & ((af <= ep) | (ad <= ep) | (~unstable & (back >= -ep) & (foot >= -ep) & ((ab <= ep) | (af <= ep))))
        S = stable.sum(1)
        # Stable and unstable points alternate around the boundary exactly when
        # the walk +1 per unstable vertex, -1 per stable foot (vertex j before
        # the foot on edge j) stays on two neighbouring levels, 0 among them.
        walk = np.cumsum(unstable.astype(np.int8) - stable, 1)
        alternate = np.maximum((walk + stable).max(1), 0) - np.minimum(walk.min(1), 0) <= 1
        usable = ~outside & ~flagged.any(1) & (S == unstable.sum(1)) & alternate

        kept[li] = np.where(big, area / self.total, 0.0)
        count[li] = np.where(big & usable, S, -1)
        scalar[li] = ~clean | ~(big | small) | (big & ~sure)
        return scalar


def _removed_area_slack(P: ConvexPolygon2) -> float:
    """How far the relative area a cut of ``P`` removes, as the search computes
    it, can rise while ``e`` grows along one family of cuts.

    Along a family every kept/crossing decision moves one way as ``e`` grows
    (the clip's ``n·z - d`` falls with ``d``), so the polygon spanned by the
    kept vertices and the exact crossing points only grows, and the area it
    removes only falls.  A computed value lies within ``err`` of that area
    (over the polygon's), so it rises by at most ``2 err``.  ``err`` sums, with
    R the largest coordinate magnitude and D the diameter: the shoelace sum of
    at most ``n + 1`` terms, under ``_CutEvaluator.area_slack``; the crossing
    points' rounding, under ``128 ulp R D``; and the scalar cleanup, which
    drops at most ``n + 2`` points, each a turn of at most ``2 EPS D^2`` or a
    merge along a chain of merge distances, under ``5 (n + 2) EPS D^2``.
    """
    reach = float(np.abs(np.asarray(P.vertices)).max())
    D = P.diameter
    shoelace = 4.0 * (P.n + 1) ** 2 * 2.0**-53 * reach * reach
    crossing = 128.0 * 2.0**-52 * reach * D
    cleanup = 5.0 * (P.n + 2) * tol.EPS_GEOM * D * D
    return 2.0 * ((shoelace + crossing + cleanup) / P.area + 2.0**-52)


def _support_intervals(P: ConvexPolygon2, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P.support_interval`` of each row of ``normals``, bit for bit.

    The projections are the same products and sums, and ``argmin``/``argmax``
    keep the first of equal values as ``min``/``max`` do, so a zero keeps its
    sign.
    """
    verts = np.asarray(P.vertices)
    projs = normals[:, :1] * verts[:, 0] + normals[:, 1:] * verts[:, 1]
    rows = np.arange(len(normals))
    return projs[rows, projs.argmin(axis=1)], projs[rows, projs.argmax(axis=1)]


def full_robustness_line_bound(
    P: ConvexPolygon2,
    grid_theta: int = 180,
    grid_offset: int = 48,
    refine_tol: Optional[float] = 1e-6,
) -> RobustnessReport:
    """Upper bound for the full robustness from a straight-cut grid search.

    Scans cutting lines over a ``grid_theta`` x ``grid_offset`` grid (angle
    uniform over [0, pi), offsets across the support interval), keeps pieces
    whose stable count at their own centroid drops below the original count,
    and refines the best offset per direction and side by bisection down to
    ``refine_tol`` (in offset units; ``None`` skips refinement), or until the
    midpoint equals an end of its bracket.  Returns the minimal relative area
    removed, which bounds the full robustness from above, or
    ``status="no_reduction_found"``.

    Each direction gives two families of cuts ``m·z <= e``, laid out by
    ``util.signed_families``.  The last reducing grid cut along ``e`` is the
    cheapest, and its bracket runs one grid step toward the support end, so
    the grid is read from each family's support end down in rounds.  A round is
    one evaluator call of ``SPECULATE_CELLS // (n + 3)`` cuts (at least one),
    over the families with cuts unread and no reducing cut yet: the first that
    many of their unread cuts taken depth by depth (each family's highest
    unread offset, then its next, and so on), families in order within a
    depth, so that the families share the round as evenly as their unread cuts
    allow and the lowest-numbered take the extras; a family leaves once a
    round finds its first reducing cut.  Every round but the last is full, and
    a polygon with no reducing cut reads its whole grid.  The brackets are then
    bisected in lockstep, each step's cuts through ``util.cached_cuts`` (a cut
    spans ``n + 3`` ring slots), whose speculation takes the next step's
    midpoint on either side of each bracket where that bracket's own stop test
    passes.  The witness is the cheapest bracket, the first in family order
    among equals; it reports the unsigned offset and the side
    (``util.family_cut``).

    A bracket also stops once the last usable cut seen at its non-reducing
    end removes more than the least ``rel_red`` over all brackets plus
    ``2δ``, and so the cells of a call count only the live brackets.  The
    area removed falls as ``e`` grows, and ``δ`` from ``_removed_area_slack``
    bounds how far its computed value can rise instead, so such a bracket
    ends above the witness's: the report is that of bisecting every bracket.
    A polygon with S <= 2 has no reducing cut (a convex piece keeps two
    stable points at its own centroid) and returns before its grid.
    """
    if not (is_count(grid_theta) and is_count(grid_offset)):
        raise ValueError("grid counts must be integers")
    grid_theta, grid_offset = int(grid_theta), int(grid_offset)
    if grid_theta < 1 or grid_offset < 1:
        raise ValueError("grid needs at least 1 direction and 1 offset")
    if refine_tol is not None and not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError("refine_tol must be None or a positive finite number")
    eq0 = equilibria(P, P.centroid)
    if eq0.any_degenerate:
        raise DegenerateConfiguration("polygon is degenerate at its centroid")
    S0 = eq0.S
    details = {"S": S0, "grid_theta": grid_theta, "grid_offset": grid_offset, "refine_tol": refine_tol, "upper_bound": True}
    if S0 <= 2:
        # A convex polygon keeps two stable points at its own centroid.
        return RobustnessReport(kind="full_line_bound", value=None, method="search", status="no_reduction_found", details=details)
    evaluator = _CutEvaluator(P)
    thetas = [j * math.pi / grid_theta for j in range(grid_theta)]
    normals = np.array([(math.cos(theta), math.sin(theta)) for theta in thetas])
    lo, hi = _support_intervals(P, normals)
    M, E, ends = signed_families(normals, lo, hi, grid_offset)
    # Each direction's grid step, the +n family's.
    steps = (E[::2, 1] - E[::2, 0] if grid_offset > 1 else hi - lo).repeat(2)

    def evaluate(f, e):  # the cuts of families f at e
        return evaluator(M[f, 0], M[f, 1], e)

    # Grid rounds.  Per family: the index into ``E.flat`` of its last
    # reducing cut (-1 while none is found) and the relative area that cut
    # removes.  ``todo`` holds the families still reading, ``r`` how many
    # cuts each has read from its support end down.
    rows = max(1, SPECULATE_CELLS // (P.n + 3))
    flat = E.ravel()
    hit = np.full(len(E), -1)
    rel_hit = np.zeros(len(E))
    todo = np.arange(len(E))
    r = np.zeros(len(E), dtype=np.intp)
    while len(todo):
        # The first ``rows`` unread cuts in depth-major order (depth ``d``
        # below each family's last read cut), then in family order.
        d, j = np.nonzero(np.arange(grid_offset)[:, None] < grid_offset - r)
        d, j = d[:rows], j[:rows]
        by_family = np.argsort(j, kind="stable")
        d, j = d[by_family], j[by_family]
        take = np.bincount(j, minlength=len(todo))
        f = todo[j]
        cell = (f + 1) * grid_offset - 1 - r[j] - d
        kept, counts = evaluate(f, flat[cell])
        red = np.flatnonzero((counts >= 0) & (counts < S0))
        if len(red):
            # Each family's cuts run down from its support end, so its first
            # reducing one in this round is its last along e.
            red = red[np.diff(f[red], prepend=-1) != 0]
            hit[f[red]] = cell[red]
            rel_hit[f[red]] = 1.0 - kept[red]
        r += take
        keep = (r < grid_offset) & (hit[todo] < 0)
        todo, r = todo[keep], r[keep]

    # One bracket per family with a reducing grid cut, in family order, from
    # its last reducing grid cut along e, the cheapest.
    fam = np.flatnonzero(hit >= 0)
    e_red = flat[hit[fam]]
    rel_red = rel_hit[fam]
    e_ok = np.minimum(e_red + steps[fam], ends[fam])
    # What the last usable cut seen at or above ``e_ok`` removes (0 before
    # one is seen).  A bracket whose ``rel_ok`` exceeds the least ``rel_red``,
    # by more than the computed area can rise, ends above it.
    rel_ok = np.zeros(len(fam))
    delta = _removed_area_slack(P)
    live = np.full(len(fam), refine_tol is not None)
    cache: dict = {}
    while live.any():
        mid = 0.5 * (e_red + e_ok)
        above = rel_ok > rel_red.min() + 2.0 * delta
        live &= (np.abs(e_ok - e_red) > refine_tol) & (mid != e_red) & (mid != e_ok) & ~above
        idx = np.flatnonzero(live)
        if not len(idx):
            break
        f, m = fam[idx].tolist(), mid[idx]

        def ahead():  # the next step's midpoints in (e_red, mid) and (mid, e_ok), where its stop test passes
            lo, hi = np.stack([e_red[idx], m]), np.stack([m, e_ok[idx]])
            cand = 0.5 * (lo + hi)
            keep = (np.abs(hi - lo) > refine_tol) & (cand != lo) & (cand != hi)
            return list(zip(np.array([f, f])[keep].tolist(), cand[keep].tolist()))

        kept, counts = cached_cuts(evaluate, cache, list(zip(f, m.tolist())), ahead, P.n + 3)
        red = (counts >= 0) & (counts < S0)
        e_red[idx[red]], rel_red[idx[red]] = m[red], 1.0 - kept[red]
        e_ok[idx[~red]] = m[~red]
        ok = ~red & (counts >= 0)
        rel_ok[idx[ok]] = 1.0 - kept[ok]

    if not len(fam):
        return RobustnessReport(kind="full_line_bound", value=None, method="search", status="no_reduction_found", details=details)
    k = int(np.argmin(rel_red))
    j, side, offset = family_cut(int(fam[k]), float(e_red[k]))
    rel = float(rel_red[k])
    witness = {"type": "line", "theta": thetas[j], "offset": offset, "side": side, "relative_area_removed": rel}
    return RobustnessReport(kind="full_line_bound", value=rel, method="search", witness=witness, details=details)


# -- truncation sweep -------------------------------------------------------


@dataclass(frozen=True)
class TruncationSweep:
    """A truncation sweep as columns, one row per recorded piece.

    Line i gives rows 2i (side +1, keeping ``n·z <= d``) and 2i + 1 (side -1).
    ``piece_S`` is the piece's stable count at its own centroid, -1 for a
    degenerate piece; delta S is ``piece_S - S0`` on the other rows.
    """

    S0: int
    theta: np.ndarray
    offset: np.ndarray
    side: np.ndarray
    relative_area: np.ndarray
    piece_S: np.ndarray

    def __len__(self) -> int:
        return len(self.piece_S)

    @property
    def degenerate(self) -> np.ndarray:
        return self.piece_S < 0


class SweepSummary:
    """A sweep's outcomes per relative-area bin, counted on first read.

    ``bins`` equal bins split [0, 1] (``bin_edges``); a row falls in bin
    ``floor(relative_area * bins)``, the last bin taking 1.0.  ``counts`` maps
    each category, an int delta S in the order the rows first show it and then
    ``"degenerate"`` when any row is degenerate, to its per-bin counts;
    ``totals`` counts every row per bin.  They are built once, when first read,
    so a caller that writes only the sweep's rows never counts.
    """

    def __init__(self, sweep: TruncationSweep, bins: int):
        _require_positive_count("bins", bins)
        self.sweep = sweep
        self.bins = int(bins)

    @cached_property
    def bin_edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.bins + 1)

    @cached_property
    def _counted(self) -> tuple[dict, np.ndarray]:
        return _count_outcomes(self.sweep, self.bins)

    @property
    def counts(self) -> dict:
        return self._counted[0]

    @property
    def totals(self) -> np.ndarray:
        return self._counted[1]

    def fractions(self, category) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(self.totals > 0, self.counts.get(category, np.zeros_like(self.totals)) / np.maximum(self.totals, 1), 0.0)
        return frac


def _count_outcomes(sweep: TruncationSweep, bins: int) -> tuple[dict, np.ndarray]:
    """``SweepSummary``'s counts and totals, from one ``np.bincount``.

    Each row gets its category's rank (delta S values by first appearance,
    ``"degenerate"`` last) and is counted at ``rank * bins + bin``.
    """
    b = np.minimum((sweep.relative_area * bins).astype(int), bins - 1)
    bad = sweep.degenerate
    keys, first, inverse = np.unique(sweep.piece_S[~bad] - sweep.S0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    r = np.full(len(b), len(keys))
    r[~bad] = np.argsort(order)[inverse]
    table = np.bincount(r * bins + b, minlength=(len(keys) + 1) * bins).reshape(-1, bins)
    counts: dict = dict(zip(keys[order].tolist(), table))
    if bad.any():
        counts["degenerate"] = table[-1]
    return counts, table.sum(axis=0)


def _draw_sweep_lines(P: ConvexPolygon2, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw (theta, offset) pairs from the motion-invariant line measure.

    All randomness comes from a counter-based generator keyed by the seed and
    is drawn up front in index order, so sample evaluation can be distributed
    and reduced in fixed order with identical results.
    """
    u = seed_generator(seed).random((samples, 2))
    thetas = u[:, 0] * math.pi
    verts = np.asarray(P.vertices)
    normals = np.column_stack([np.cos(thetas), np.sin(thetas)])
    projs = verts @ normals.T  # (n, samples)
    lo = projs.min(axis=0)
    hi = projs.max(axis=0)
    offsets = lo + u[:, 1] * (hi - lo)
    return thetas, offsets


def _require_positive_count(name: str, value) -> None:
    if not is_count(value):
        raise ValueError(f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be positive")


def truncation_sweep(P: ConvexPolygon2, samples: int, seed: int, bins: int = 20) -> tuple[TruncationSweep, SweepSummary]:
    """Monte Carlo truncation sweep recording both pieces of each random line.

    Lines are sampled from the kinematic measure restricted to lines meeting
    ``P``.  Every sample records the piece's relative area and the change of
    the stable count measured at the piece's own centroid; pieces that
    collapse below tolerance or classify degenerately land in a separate
    ``degenerate`` category.  Returns the sweep's rows and their summary in
    ``bins`` bins; ``bins`` is checked at once, but the summary counts the
    rows only when first read (``SweepSummary``).
    """
    _require_positive_count("samples", samples)
    _require_positive_count("bins", bins)
    thetas, offsets = _draw_sweep_lines(P, samples, seed)  # checks the seed
    eq0 = equilibria(P, P.centroid)
    # math.cos and math.sin, as the scalar path: numpy's may differ in the last bit.
    nx = np.fromiter(map(math.cos, thetas.tolist()), float, len(thetas))
    ny = np.fromiter(map(math.sin, thetas.tolist()), float, len(thetas))
    kept, counts = _CutEvaluator(P)(
        np.column_stack([nx, -nx]), np.column_stack([ny, -ny]), np.column_stack([offsets, -offsets])
    )
    sweep = TruncationSweep(eq0.S, thetas.repeat(2), offsets.repeat(2), np.tile([1, -1], samples), kept, counts)
    return sweep, SweepSummary(sweep, bins)


def summarize_sweep(sweep: TruncationSweep, bins: int = 20) -> SweepSummary:
    """Bin sweep samples by relative area and count per-bin outcome categories.

    ``bins`` is checked at once; the counts are made when the summary is first
    read (``SweepSummary``).
    """
    return SweepSummary(sweep, bins)


# -- CSV / SVG emission -----------------------------------------------------

SWEEP_CSV_HEADER = "theta,offset,side,relative_area,piece_S,delta_S,degenerate"
SUMMARY_CSV_HEADER = "bin_lo,bin_hi,frac_dS_-2,frac_dS_-1,frac_dS_0,frac_dS_+1,frac_degenerate"
_SUMMARY_CATEGORIES = (-2, -1, 0, 1, "degenerate")


def sweep_csv(sweep: TruncationSweep) -> str:
    """Sample CSV, one line per recorded piece, floats at 17 significant digits."""
    S0, piece_S = sweep.S0, sweep.piece_S.tolist()
    # The piece_S, delta_S and degenerate fields, once per distinct count.
    fields = {s: ",,1" if s < 0 else f"{s},{s - S0},0" for s in set(piece_S)}
    # The theta and offset fields, once per run of rows with the same bits
    # (a line's two rows); -0.0 and +0.0 differ here, as in the text.
    bits = np.stack([sweep.theta, sweep.offset]).astype(float).view(np.int64)
    new = np.ones(len(piece_S), dtype=bool)
    new[1:] = (bits[:, 1:] != bits[:, :-1]).any(0)
    prefix = [f"{fmt_g17(t)},{fmt_g17(o)}" for t, o in zip(sweep.theta[new].tolist(), sweep.offset[new].tolist())]
    columns = (
        map(prefix.__getitem__, (np.cumsum(new) - 1).tolist()),
        map(str, sweep.side.tolist()),
        map(fmt_g17, sweep.relative_area.tolist()),
        map(fields.__getitem__, piece_S),
    )
    return "\n".join([SWEEP_CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def _require_summary_schema(summary: SweepSummary) -> None:
    """Refuse the first delta-S, in ``summary.counts`` order, outside -2..+1."""
    for cat in summary.counts:
        if cat not in _SUMMARY_CATEGORIES:
            raise ValueError(f"delta_S={cat} does not fit the summary schema")


def summary_csv(summary: SweepSummary) -> str:
    """Binned summary CSV with fixed delta-S columns -2..+1 plus degenerate."""
    _require_summary_schema(summary)
    edges = summary.bin_edges
    columns = [edges[:-1], edges[1:], *map(summary.fractions, _SUMMARY_CATEGORIES)]
    rows = zip(*(map(fmt_g17, c.tolist()) for c in columns))
    return "\n".join([SUMMARY_CSV_HEADER, *map(",".join, rows)]) + "\n"


_SVG_COLORS = {
    -2: "#7b3294",
    -1: "#c2a5cf",
    0: "#a6dba0",
    1: "#008837",
    "degenerate": "#bbbbbb",
}


def summary_svg(summary: SweepSummary, title: str = "Truncation sweep") -> str:
    """800x600 stacked-area chart of per-bin outcome fractions vs relative area."""
    _require_summary_schema(summary)
    width, height = 800, 600
    ml, mr, mt, mb = 70, 160, 50, 60
    plot_w = width - ml - mr
    plot_h = height - mt - mb
    edges = summary.bin_edges
    bins = len(edges) - 1
    centers = 0.5 * (edges[:-1] + edges[1:])
    stacked = np.zeros(bins)
    parts, legend = [], []

    def x_px(x: float) -> float:
        return ml + x * plot_w

    def y_px(y: float) -> float:
        return mt + (1.0 - y) * plot_h

    for i, cat in enumerate(c for c in _SUMMARY_CATEGORIES if c in summary.counts):
        lower, upper = stacked, stacked + summary.fractions(cat)
        pts = [(x_px(c), y_px(u)) for c, u in zip(centers, upper)]
        pts += [(x_px(c), y_px(l)) for c, l in reversed(list(zip(centers, lower)))]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        label = f"dS={cat:+d}" if isinstance(cat, int) else "degenerate"
        parts.append(f'<polygon points="{path}" fill="{_SVG_COLORS[cat]}" stroke="none"><title>{label}</title></polygon>')
        y = mt + 20 + i * 22
        legend.append(f'<rect x="{width - mr + 20}" y="{y}" width="14" height="14" fill="{_SVG_COLORS[cat]}"/>')
        legend.append(f'<text x="{width - mr + 40}" y="{y + 12}" font-size="13">{label}</text>')
        stacked = upper

    axis = [
        f'<line x1="{ml}" y1="{y_px(0)}" x2="{width - mr}" y2="{y_px(0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{y_px(0)}" x2="{ml}" y2="{mt}" stroke="black"/>',
        f'<text x="{ml + plot_w / 2}" y="{height - 15}" font-size="14" text-anchor="middle">relative area of piece</text>',
        f'<text x="20" y="{mt + plot_h / 2}" font-size="14" transform="rotate(-90 20 {mt + plot_h / 2})" text-anchor="middle">fraction of samples</text>',
        f'<text x="{width / 2}" y="28" font-size="16" text-anchor="middle">{title}</text>',
    ]
    for frac_label in (0.0, 0.25, 0.5, 0.75, 1.0):
        axis.append(
            f'<text x="{x_px(frac_label):.1f}" y="{y_px(0) + 18:.1f}" font-size="12" text-anchor="middle">{frac_label:g}</text>'
        )
        axis.append(
            f'<text x="{ml - 8}" y="{y_px(frac_label) + 4:.1f}" font-size="12" text-anchor="end">{frac_label:g}</text>'
        )

    body = "\n".join(parts + axis + legend)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
