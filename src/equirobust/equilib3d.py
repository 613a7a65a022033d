"""Equilibrium classification and robustness for convex polyhedra.

A reference point p inside a polyhedron induces equilibria of three kinds:
stable points (orthogonal foot of p on a face plane landing inside the face),
saddle points (foot on an edge line landing inside the edge, with the offset
direction inside the edge's normal wedge) and unstable points (vertices whose
normal cone contains the direction away from p).  Nondegenerate counts always
satisfy S - H + U = 2.

Internal robustness measures how far the reference can move before the
stable count changes; the transition carriers are planar strips ("walls")
erected perpendicular to each face along each of its edges.  The minimum wall
distance divided by the square root of the surface area is the exact value; a
direction-sampled first-exit search provides an independent check.

``plane_truncation_search`` estimates partial robustness: the smallest
relative volume a single plane cut must remove so that the kept piece, judged
at its own centroid, has fewer stable points (or fewer unstable points, or
either) than the original.  Its cuts are ``m·z <= e`` with a signed normal
``m = side·n``, and one dict per signed normal keeps each cut's evaluation,
so no cut is clipped twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    DegeneratePresent,
    FixtureError,
    ReferenceOutside,
)
from .geom3d import (
    BoundingBox,
    ConvexPolyhedron3,
    centroid3,
    clip_halfspace3,
    platonic,
    surface_area,
    volume,
)
from .reports import RobustnessReport, json_dumps_g17
from .util import fibonacci_sphere, first_exit_distances, rotation_from_seed

Point3 = tuple[float, float, float]
Carrier = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class EquilibriumPoint3:
    kind: str  # "stable" | "saddle" | "unstable"
    location: Point3
    carrier: Carrier  # face index, edge (i, j), or vertex index
    degenerate: bool = False


@dataclass(frozen=True)
class EquilibriumSet3:
    reference: Point3
    points: tuple[EquilibriumPoint3, ...]

    @property
    def S(self) -> int:
        return sum(1 for p in self.points if p.kind == "stable")

    @property
    def H(self) -> int:
        return sum(1 for p in self.points if p.kind == "saddle")

    @property
    def U(self) -> int:
        return sum(1 for p in self.points if p.kind == "unstable")

    @property
    def any_degenerate(self) -> bool:
        return any(p.degenerate for p in self.points)

    def as_dict(self) -> dict:
        return {
            "S": self.S,
            "H": self.H,
            "U": self.U,
            "points": [
                {
                    "kind": p.kind,
                    "location": list(p.location),
                    "carrier": list(p.carrier) if isinstance(p.carrier, tuple) else p.carrier,
                    "degenerate": p.degenerate,
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        return json_dumps_g17(self.as_dict())


def _require_interior(P: ConvexPolyhedron3, p: Sequence[float]) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if P.interior_margin(q) <= P.eps:
        raise ReferenceOutside("reference point must be strictly interior")
    return q


def _face_feet(P: ConvexPolyhedron3, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plane feet of q on every face and, per face, the largest signed distance
    of the foot to the face's edge lines (negative = strictly inside)."""
    feet = q + (P.plane_offsets - P.plane_normals @ q)[:, None] * P.plane_normals
    a, nu, _, _ = P.edge_frames
    _, _, slot_face, starts = P.slot_arrays
    sd = np.einsum("ij,ij->i", feet[slot_face] - a, nu)
    return feet, np.maximum.reduceat(sd, starts[:-1])


def _stable_candidates(P: ConvexPolyhedron3, q: np.ndarray) -> list:
    """Per face with foot inside (or within eps of) the face: (face, foot, degenerate)."""
    eps = P.eps
    feet, worst = _face_feet(P, q)
    out = []
    for k in np.nonzero(worst <= eps)[0]:
        out.append((int(k), feet[k], bool(worst[k] >= -eps)))
    return out


def _unstable_candidates(P: ConvexPolyhedron3, q: np.ndarray) -> list:
    """Per vertex that is a local height maximum seen from q: (vertex, degenerate)."""
    eps = P.eps
    rel, base, starts = P.vertex_fan
    worst = np.minimum.reduceat(rel @ q - base, starts[:-1])
    out = []
    for i in np.nonzero(worst >= -eps)[0]:
        out.append((int(i), bool(worst[i] <= eps)))
    return out


def classify3(P: ConvexPolyhedron3, p: Sequence[float]) -> EquilibriumSet3:
    """Full face/edge/vertex equilibrium classification of ``P`` seen from ``p``.

    Boundary cases within the geometric tolerance are kept but flagged
    degenerate rather than silently resolved either way.
    """
    q = _require_interior(P, p)
    eps = P.eps
    v = P.coords
    points: list[EquilibriumPoint3] = []

    for k, foot, flag in _stable_candidates(P, q):
        points.append(EquilibriumPoint3("stable", tuple(foot), k, flag))

    for (i, j), (f1, f2) in zip(P.edges, P.edge_faces):
        a, b = v[i], v[j]
        L = float(np.linalg.norm(b - a))
        u = (b - a) / L
        t = float((q - a) @ u)
        if t < -eps or t > L + eps:
            continue
        near_t = t <= eps or t >= L - eps
        foot = a + t * u
        w = foot - q
        wn = float(np.linalg.norm(w))
        if wn <= eps:  # reference on the edge line; cannot happen for interior p
            continue
        n1, n2 = P.plane_normals[f1], P.plane_normals[f2]
        if float(np.cross(n1, n2) @ u) < 0.0:
            n1, n2 = n2, n1
        sin1 = float(np.cross(n1, w) @ u) / wn
        sin2 = float(np.cross(w, n2) @ u) / wn
        tau = eps / wn
        if sin1 < -tau or sin2 < -tau:
            continue
        near_w = sin1 <= tau or sin2 <= tau
        if near_t or near_w:
            points.append(EquilibriumPoint3("saddle", tuple(foot), (i, j), True))
        else:
            points.append(EquilibriumPoint3("saddle", tuple(foot), (i, j), False))

    for i, flag in _unstable_candidates(P, q):
        points.append(EquilibriumPoint3("unstable", tuple(v[i]), i, flag))

    return EquilibriumSet3(reference=(float(q[0]), float(q[1]), float(q[2])), points=tuple(points))


def stable_count3(P: ConvexPolyhedron3, qs: np.ndarray) -> np.ndarray:
    """Number of faces whose plane-foot lies strictly inside the face, per query point.

    Defined for arbitrary points (also outside ``P``); this is the count whose
    first change the sampled robustness walk detects.

    The feet are never formed.  Each slot's in-face edge normal ``nu = u x n``
    is orthogonal to its face normal ``n``, and the foot differs from ``q``
    only by a multiple of ``n``, so ``(foot - a) . nu = (q - a) . nu``: the
    foot is inside an edge line exactly when ``q`` is.  One matrix product per
    block of queries then tests every slot, and a face counts when all its
    slots do.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    a, nu, _, _ = P.edge_frames
    starts = P.slot_arrays[3]
    c = np.einsum("ij,ij->i", a, nu)
    counts = np.empty(len(qs), dtype=int)
    # About 1.6 MB of float temporaries per block.
    block = max(1, int(2e5) // len(c))
    for i in range(0, len(qs), block):
        inside = nu @ qs[i : i + block].T < c[:, None]
        counts[i : i + block] = np.logical_and.reduceat(inside, starts[:-1], axis=0).sum(axis=0)
    return counts


def poincare_hopf_check(eq: EquilibriumSet3) -> bool:
    """True iff S - H + U equals 2; refuses to certify degenerate classifications."""
    if eq.any_degenerate:
        raise DegeneratePresent("classification has degenerate flags")
    return eq.S - eq.H + eq.U == 2


# -- bounding-box lemma predicates ----------------------------------------


def bounding_box_predicates(P: ConvexPolyhedron3, box: BoundingBox) -> dict:
    """Check the two box-shape implications for ``P``'s centroid classification.

    With sorted box extents a <= b <= c: elongation (6b <= c) forces at least
    two unstable points, flatness (3a < b) at least two stable points.  Keys
    map to "checked-true", "checked-false", or "nonapplicable" when the
    hypothesis fails.
    """
    a, b, c = box.extents
    need = (6.0 * b <= c, 3.0 * a < b)
    result = {"elongation_implies_two_unstable": "nonapplicable",
              "flatness_implies_two_stable": "nonapplicable"}
    if not (need[0] or need[1]):
        return result
    eq = classify3(P, centroid3(P))
    if need[0]:
        result["elongation_implies_two_unstable"] = "checked-true" if eq.U >= 2 else "checked-false"
    if need[1]:
        result["flatness_implies_two_stable"] = "checked-true" if eq.S >= 2 else "checked-false"
    return result


def centroid_quarter_width_check(P: ConvexPolyhedron3, box: BoundingBox) -> bool:
    """Centroid keeps at least a quarter of each box width from both box faces."""
    g = np.asarray(centroid3(P))
    rel = box.frame.T @ (g - np.asarray(box.center))
    for i, h in enumerate(box.half_extents):
        if h - abs(rel[i]) < h / 2.0 - 1e-9:
            return False
    return True


# -- internal robustness ---------------------------------------------------


def _wall_distances(P: ConvexPolyhedron3, q: np.ndarray, rays_only: bool) -> np.ndarray:
    """Distance from q to every face/edge strip (one entry per slot): the strip
    runs through the edge perpendicular to its face, restricted to the inner
    half when ``rays_only``."""
    a, nu, u, lengths = P.edge_frames
    _, _, slot_face, _ = P.slot_arrays
    w = q - a
    perp = np.einsum("ij,ij->i", w, nu)
    along = np.einsum("ij,ij->i", w, u)
    over = np.maximum(0.0, np.maximum(-along, along - lengths))
    d2 = perp * perp + over * over
    if rays_only:
        t = np.maximum(0.0, q @ P.plane_normals.T - P.plane_offsets)[slot_face]
        d2 = d2 + t * t
    return np.sqrt(d2)


def rho_in_exact_3d(
    P: ConvexPolyhedron3, p: Sequence[float], rays_only: bool = False
) -> RobustnessReport:
    """Internal robustness: nearest stable-count wall over sqrt(surface area).

    The stable count changes exactly when the moving reference crosses a wall
    (some face's foot crossing one of that face's edges), so the minimum wall
    distance is the exact radius of the count-preserving region.
    """
    q = _require_interior(P, p)
    eq = classify3(P, q)
    if eq.any_degenerate:
        raise DegenerateConfiguration("equilibria are degenerate at the reference point")
    dists = _wall_distances(P, q, rays_only)
    slot = int(np.argmin(dists))
    best = float(dists[slot])
    tails, heads, slot_face, _ = P.slot_arrays
    witness = {
        "type": "wall",
        "face": int(slot_face[slot]),
        "edge": [int(tails[slot]), int(heads[slot])],
        "distance": best,
    }
    surf = surface_area(P)
    return RobustnessReport(
        kind="internal",
        value=best / math.sqrt(surf),
        method="exact",
        witness=witness,
        details={"S": eq.S, "H": eq.H, "U": eq.U, "surface_area": surf, "rays_only": rays_only},
    )


def rho_in_sampled_3d(
    P: ConvexPolyhedron3,
    p: Sequence[float],
    directions: int = 512,
    tol_step: float = 1e-6,
) -> RobustnessReport:
    """Sampled internal robustness: per-direction first stable-count change.

    Walks a Fibonacci-sphere direction set outward from ``p`` and bisects the
    first point where the face-foot count differs from the count at ``p``.
    """
    if directions < 128:
        raise ValueError("directions must be at least 128")
    q = _require_interior(P, p)
    dirs = fibonacci_sphere(directions)
    target = int(stable_count3(P, q[None, :])[0])
    far = float(np.max(np.linalg.norm(P.coords - q, axis=1)))
    s_max = 2.0 * (far + P.scale)
    tol_abs = tol_step * P.scale
    dists = first_exit_distances(lambda pts: stable_count3(P, pts), q, dirs, target, s_max, tol_abs)
    idx = int(np.argmin(dists))
    surf = surface_area(P)
    return RobustnessReport(
        kind="internal",
        value=float(dists[idx]) / math.sqrt(surf),
        method="sampled",
        witness={"type": "direction", "direction": [float(c) for c in dirs[idx]], "distance": float(dists[idx])},
        details={"S": target, "directions": directions, "tol_step": tol_step, "surface_area": surf},
    )


# -- analytic smooth-body class --------------------------------------------


@dataclass(frozen=True)
class EquilibriumClass:
    """Class label {S, U} of a body; H follows from the Euler count."""

    S: int
    U: int

    def __post_init__(self) -> None:
        if self.S < 1 or self.U < 1:
            raise ValueError("equilibrium class needs S >= 1 and U >= 1")

    @property
    def H(self) -> int:
        return self.S + self.U - 2

    def as_dict(self) -> dict:
        return {"S": self.S, "H": self.H, "U": self.U}


def ellipsoid_class(a: float, b: float, c: float) -> EquilibriumClass:
    """Center-reference classification of a solid ellipsoid with semi-axes a, b, c.

    Distinct semi-axes give two stable points (short-axis endpoints), two
    saddles (middle) and two unstable points (long axis): class {2, 2}.
    """
    axes = sorted((float(a), float(b), float(c)))
    if axes[0] <= 0.0:
        raise ValueError("semi-axes must be positive")
    span = axes[2]
    if axes[1] - axes[0] <= 1e-12 * span or axes[2] - axes[1] <= 1e-12 * span:
        raise DegenerateInput("repeated semi-axes: equilibria form curves, not isolated points")
    return EquilibriumClass(S=2, U=2)


# -- vertex-truncation fixture ---------------------------------------------

_FIXTURE_FRACTIONS = (0.14, 0.02, 0.14)


def example_truncated_tetra_fixture() -> tuple:
    """Unit-surface regular tetrahedron and an oblique vertex truncation of it.

    The cut passes through points a small way along the three edges at one
    vertex (mean depth 10% of the vertex-to-opposite-face height), slanted so
    no new equilibrium appears near the cut.  Verifies: the cut keeps clear of
    every face incircle, the (S, H, U) counts at the original center are
    unchanged, the surface area shrinks, and the normalized internal
    robustness strictly increases.  Returns (P, P', (report, report')).
    """
    P = platonic("tetra")
    o = np.zeros(3)
    v = P.coords
    tails, heads, slot_face, starts = P.slot_arrays
    nbrs = np.sort(heads[tails == 0])
    cut_pts = np.array(
        [v[0] + f * (v[j] - v[0]) for f, j in zip(_FIXTURE_FRACTIONS, nbrs)]
    )
    nc = np.cross(cut_pts[1] - cut_pts[0], cut_pts[2] - cut_pts[0])
    nc /= np.linalg.norm(nc)
    dc = float(nc @ cut_pts[0])
    if float(nc @ o) > dc:
        nc, dc = -nc, -dc

    # The cut chord on each touched face must stay outside the face incircle.
    a_all, nu_all, _, _ = P.edge_frames
    for k in np.unique(slot_face[tails == 0]):
        run = slice(starts[k], starts[k + 1])
        n = P.plane_normals[k]
        center = v[tails[run]].mean(axis=0)
        a_pts, nus = a_all[run], nu_all[run]
        inradius = float(-((center - a_pts) * nus).sum(axis=1).max())
        sin_dihedral = float(np.linalg.norm(np.cross(n, nc)))
        if sin_dihedral <= 1e-12:
            raise FixtureError("cut plane parallel to a face")
        line_dist = abs(float(nc @ center) - dc) / sin_dihedral
        if line_dist <= inradius:
            raise FixtureError("cut chord reaches a face incircle")

    P2 = clip_halfspace3(P, nc, dc)
    if P2 is None or P2 is P:
        raise FixtureError("vertex truncation did not produce a smaller body")

    eq = classify3(P, o)
    eq2 = classify3(P2, o)
    if eq.any_degenerate or eq2.any_degenerate:
        raise FixtureError("fixture classification is degenerate")
    if (eq.S, eq.H, eq.U) != (4, 6, 4):
        raise FixtureError("tetrahedron classification is off")
    if (eq2.S, eq2.H, eq2.U) != (eq.S, eq.H, eq.U):
        raise FixtureError("truncation changed the equilibrium counts")

    surf2 = surface_area(P2)
    if not surf2 < 1.0:
        raise FixtureError("truncation did not shrink the surface area")

    rep = rho_in_exact_3d(P, o)
    rep2 = rho_in_exact_3d(P2, o)
    if not rep2.value > rep.value:
        raise FixtureError("internal robustness did not increase")
    return P, P2, (rep, rep2)


# -- plane-truncation search ------------------------------------------------


def _search_counts(piece: ConvexPolyhedron3) -> Optional[tuple[int, int]]:
    """(S, U) of a piece at its own centroid; None when degenerate or invalid."""
    try:
        g = np.asarray(centroid3(piece))
        if piece.interior_margin(g) <= piece.eps:
            return None
    except DegenerateInput:  # no volume, or a face of zero area
        return None
    stables = _stable_candidates(piece, g)
    if any(flag for _, _, flag in stables):
        return None
    unstables = _unstable_candidates(piece, g)
    if any(flag for _, flag in unstables):
        return None
    return len(stables), len(unstables)


def plane_truncation_search(
    P: ConvexPolyhedron3,
    target: str = "reduce_any",
    grid: tuple[int, int] = (32, 16),
    refine_tol: float = 1e-4,
    seed: int = 0,
) -> RobustnessReport:
    """Upper bound on partial robustness via a seeded grid of cutting planes.

    Normals come from a Fibonacci sphere rotated by ``seed``; offsets span
    each normal's support interval.  Both pieces of every cut are judged at
    their own centroids.  The cheapest transition per (normal, piece side) is
    sharpened by bisection between the best reducing offset and its
    non-reducing neighbor, until the volumes the two ends remove differ by at
    most ``refine_tol`` (a relative volume; positive and finite), for at most
    60 steps, or until the bracket cannot beat the best cut so far.
    Degenerate pieces never count as reductions, so the result is an honest
    upper bound for all three targets, and the ``reduce_any`` value is exactly
    min(reduce_S, reduce_U).

    A cut is ``m·z <= e`` with the signed normal ``m = side·n`` and
    ``e = side·d``; the ``-n`` family's grid is ``-offsets[::-1]`` and its
    support end ``-lo``.  The kept piece grows with ``e``, so the last
    reducing grid cut is the cheapest and its bracket runs toward the support
    end.  Each signed normal keeps a dict from ``e`` to the cut's evaluation,
    which the grid fills and the bracket ends and both bisections read.  The
    witness reports ``n``, the unsigned ``offset = side·e`` and the side.
    """
    kinds = {"reduce_S": ("partial_s", "S"), "reduce_U": ("partial_u", "U"), "reduce_any": ("partial_any", "SU")}
    if target not in kinds:
        raise ValueError(f"target must be one of {sorted(kinds)}")
    kind, preds = kinds[target]
    n_normals, n_offsets = grid
    if n_normals < 1 or n_offsets < 2:
        raise ValueError("grid needs at least 1 normal and 2 offsets")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError("refine_tol must be a positive finite number")
    eq0 = classify3(P, centroid3(P))
    if eq0.any_degenerate:
        raise DegenerateConfiguration("base classification is degenerate")
    S0, U0 = eq0.S, eq0.U
    vol0 = volume(P)
    normals = fibonacci_sphere(n_normals) @ rotation_from_seed(seed).T

    def evaluate(m: np.ndarray, e: float, seen: dict):
        """(relative volume removed, reduces_S, reduces_U) of the cut m·z <= e,
        or None; ``seen`` holds the cuts of normal m already evaluated."""
        if e not in seen:
            piece = clip_halfspace3(P, m, e)
            counts = None if piece is None or piece is P else _search_counts(piece)
            seen[e] = None if counts is None else (1.0 - volume(piece) / vol0, counts[0] < S0, counts[1] < U0)
        return seen[e]

    best: dict[str, Optional[dict]] = {"S": None, "U": None}

    for n in normals:
        lo, hi = P.support_interval(n)
        offs = np.linspace(lo, hi, n_offsets + 2)[1:-1]
        for side, grid, end in ((+1, offs.tolist(), hi), (-1, (-offs[::-1]).tolist(), -lo)):
            m = side * n
            seen = {}
            for e in grid:
                evaluate(m, e, seen)
            for pred_idx, pred in ((1, "S"), (2, "U")):
                reducing = [e for e in grid if seen[e] is not None and seen[e][pred_idx]]
                if not reducing:
                    continue
                # The kept part grows with e, so the last reducing grid cut is
                # the cheapest.  Bracket it against the next usable grid cut,
                # or the support end (nothing removed).
                e_a = reducing[-1]
                rel_a = seen[e_a][0]
                e_b = next((e for e in grid if e > e_a and seen[e] is not None), end)
                res_b = evaluate(m, e_b, seen)
                rel_b = res_b[0] if res_b is not None else 0.0
                for _ in range(60):
                    if abs(rel_a - rel_b) <= refine_tol:
                        break
                    cur = best[pred]
                    if cur is not None and rel_b >= cur["relative_volume_removed"]:
                        break  # this bracket cannot beat the incumbent
                    mid = 0.5 * (e_a + e_b)
                    res = evaluate(m, mid, seen)
                    if res is not None and res[pred_idx]:
                        e_a, rel_a = mid, res[0]
                    else:
                        e_b = mid
                        if res is not None:
                            rel_b = res[0]
                if best[pred] is None or rel_a < best[pred]["relative_volume_removed"]:
                    best[pred] = {
                        "type": "plane",
                        "normal": [float(c) for c in n],
                        # A bracket (-x, x) bisects to e = +0.0, where side·e is -0.0:
                        # the unsigned offset of that cut is +0.0.
                        "offset": side * e_a + 0.0,
                        "side": side,
                        "relative_volume_removed": float(rel_a),
                    }

    vS, vU = (None if best[p] is None else best[p]["relative_volume_removed"] for p in "SU")
    witness = min((best[p] for p in preds if best[p] is not None), key=lambda w: w["relative_volume_removed"], default=None)
    value = None if witness is None else witness["relative_volume_removed"]
    return RobustnessReport(
        kind=kind,
        value=value,
        method="search",
        witness=witness,
        status="ok" if value is not None else "no_reduction_found",
        details={
            "S0": S0,
            "U0": U0,
            "grid": [n_normals, n_offsets],
            "seed": seed,
            "refine_tol": refine_tol,
            "partial_s": vS,
            "partial_u": vU,
            "upper_bound": True,
        },
    )
