"""Equilibrium classification and robustness for convex polyhedra.

A reference point p inside a polyhedron induces equilibria of three kinds:
stable points (orthogonal foot of p on a face plane landing inside the face),
saddle points (foot on an edge line landing inside the edge, with the offset
direction inside the edge's normal wedge) and unstable points (vertices whose
normal cone contains the direction away from p).  Nondegenerate counts always
satisfy S - H + U = 2.  The saddle test works in the frames of the edge's two
slots: the offset to the foot is in the wedge when it has a nonnegative dot
product with both slots' in-face edge normals, which ``edge_frames`` caches,
so no per-edge cross product or normal ordering is needed.

Internal robustness measures how far the reference can move before the
stable count changes; the transition carriers are planar strips ("walls")
erected perpendicular to each face along each of its edges.  The minimum wall
distance divided by the square root of the surface area is the exact value; a
direction-sampled first-exit search provides an independent check.

``plane_truncation_search`` estimates partial robustness: the smallest
relative volume a single plane cut must remove so that the kept piece, judged
at its own centroid, has fewer stable points (or fewer unstable points, or
either) than the original.  Its cuts are ``m·z <= e`` with a signed normal
``m = side·n``, in the families of ``util.signed_families``.  ``_CutEvaluator3``
evaluates a batch of cuts at once, bit for bit as the clip, ``volume`` and the
piece's counts would; the search makes one batch of every grid cut, then
bisects the brackets that can still win in lockstep through
``util.cached_cuts``: no cut twice, up to two steps per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import tol
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
    _VOL_REL_FLOOR,
    _close_pairs,
    _cross3,
    _fan_terms,
    _merge_distance,
    _rim_order,
    _rowdot,
    centroid3,
    clip_halfspace3,
    platonic,
    surface_area,
    volume,
)
from .reports import RobustnessReport, json_dumps_g17
from .util import BLOCK_CELLS, RayTable, cached_cuts, family_cut, fibonacci_sphere, first_exit_distances, is_count
from .util import ray_intervals, rotation_from_seed, signed_families

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


def _require_interior(P: ConvexPolyhedron3, p: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``p`` as an array, and its distances to the face planes (positive
    inside); raises ``ReferenceOutside`` unless it is finite and strictly
    interior."""
    q = np.asarray(p, dtype=float)
    if not np.isfinite(q).all():
        raise ReferenceOutside("reference point must be strictly interior")
    gaps = P.plane_offsets - P.plane_normals @ q
    if float(np.min(gaps)) <= P.eps:  # the interior margin
        raise ReferenceOutside("reference point must be strictly interior")
    return q, gaps


def _face_feet(P: ConvexPolyhedron3, q: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plane feet of q on every face, given q's distances ``gaps`` to the face
    planes (positive inside), and, per face, the largest signed distance of
    the foot to the face's edge lines (negative = strictly inside)."""
    feet = q + gaps[:, None] * P.plane_normals
    a, nu, _, _ = P.edge_frames
    _, _, slot_face, starts = P.slot_arrays
    sd = np.einsum("ij,ij->i", feet[slot_face] - a, nu)
    return feet, np.maximum.reduceat(sd, starts[:-1])


def _vertex_worst(P: ConvexPolyhedron3, q: np.ndarray) -> np.ndarray:
    """Per vertex, the smallest drop in height seen from q along its edges
    (positive = strict local maximum, i.e. an unstable point)."""
    a, _, u, _ = P.edge_frames
    worst = np.full(len(P.coords), np.inf)
    np.minimum.at(worst, P.tails, u @ q - np.einsum("ij,ij->i", u, a))
    return worst


def classify3(P: ConvexPolyhedron3, p: Sequence[float]) -> EquilibriumSet3:
    """Full face/edge/vertex equilibrium classification of ``P`` seen from ``p``.

    Boundary cases within the geometric tolerance are kept but flagged
    degenerate rather than silently resolved either way.

    An edge's saddle test reads the in-face edge normals ``nu`` of its two
    slots from ``edge_frames``: with ``w`` the offset from ``p`` to its foot on
    the edge line, ``w`` lies in the edge's normal wedge exactly when
    ``h = min(nu1·w, nu2·w) >= 0``.  The edge is a saddle when
    ``h >= -eps``, flagged when ``h <= eps`` or the foot is within eps of an
    end.
    """
    q, gaps = _require_interior(P, p)
    eps = P.eps
    v = P.coords
    points: list[EquilibriumPoint3] = []

    feet, worst = _face_feet(P, q, gaps)
    for k in np.nonzero(worst <= eps)[0]:
        points.append(EquilibriumPoint3("stable", tuple(feet[k]), int(k), bool(worst[k] >= -eps)))

    # All edges at once; ``_rowdot`` rounds each row as a per-edge ``@`` would.
    nu = P.edge_frames[1][P.edge_slots]
    ends = P.edge_pairing[0]
    a = v[ends[:, 0]]
    d = v[ends[:, 1]] - a
    L = np.sqrt(_rowdot(d, d))
    u = d / L[:, None]
    t = _rowdot(q - a, u)
    feet = a + t[:, None] * u
    w = feet - q
    h = np.minimum(_rowdot(nu[:, 0], w), _rowdot(nu[:, 1], w))
    flags = (h <= eps) | (t <= eps) | (t >= L - eps)
    for k in np.flatnonzero(~((t < -eps) | (t > L + eps) | (h < -eps))).tolist():
        points.append(EquilibriumPoint3("saddle", tuple(feet[k]), P.edges[k], bool(flags[k])))

    vworst = _vertex_worst(P, q)
    for i in np.nonzero(vworst >= -eps)[0]:
        points.append(EquilibriumPoint3("unstable", tuple(v[i]), int(i), bool(vworst[i] <= eps)))

    return EquilibriumSet3(reference=(float(q[0]), float(q[1]), float(q[2])), points=tuple(points))


def _slot_lines(P: ConvexPolyhedron3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nu, c, starts): a point's foot on a face is strictly inside the face
    when ``nu @ q < c`` holds for all its slots, ``starts[f]:starts[f + 1]``."""
    a, nu, _, _ = P.edge_frames
    return nu, np.einsum("ij,ij->i", a, nu), P.slot_arrays[3]


def stable_count3(P: ConvexPolyhedron3, qs: np.ndarray) -> np.ndarray:
    """Number of faces whose plane-foot lies strictly inside the face, per query point.

    Defined for arbitrary points (also outside ``P``); this is the count whose
    first change the sampled robustness walk detects.  The walk reads it from
    ``stable_count3_rays``' table and calls this only for the points the
    table leaves undecided, so this is the walk's fallback and the table's
    test oracle.

    The feet are never formed.  Each slot's in-face edge normal ``nu = u x n``
    is orthogonal to its face normal ``n``, and the foot differs from ``q``
    only by a multiple of ``n``, so ``(foot - a) . nu = (q - a) . nu``: the
    foot is inside an edge line exactly when ``q`` is.  One stacked product
    per block of queries then tests every slot, and a face counts when all
    its slots do.  Each query's row of that product is its own ``nu @ q``,
    so a count does not depend on the batch that holds the query.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    nu, c, starts = _slot_lines(P)
    counts = np.empty(len(qs), dtype=int)
    block = max(1, BLOCK_CELLS // len(c))
    for i in range(0, len(qs), block):
        inside = np.matmul(nu[None], qs[i : i + block, :, None])[..., 0] < c
        counts[i : i + block] = np.logical_and.reduceat(inside, starts[:-1], axis=1).sum(axis=1)
    return counts


def stable_count3_rays(P: ConvexPolyhedron3, origin: np.ndarray, directions: np.ndarray) -> RayTable:
    """``stable_count3``'s table along the rays ``origin + s·u`` (see
    :func:`util.ray_intervals`), built from the same slot tests ``nu·p < c``.
    """
    nu, c, starts = _slot_lines(P)
    scale = float(np.max(np.abs(origin)))
    return ray_intervals(directions, nu, nu @ origin - c, c, scale, starts)


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
    q = np.asarray(p, dtype=float)
    eq = classify3(P, q)  # raises ReferenceOutside unless q is strictly interior
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
    The walk reads the counts from ``stable_count3_rays``' table and asks
    ``stable_count3`` only where the table cannot certify them.
    ``tol_step`` (relative to the body's scale) must be positive and finite.
    """
    if not is_count(directions):
        raise ValueError("directions must be an integer")
    if directions < 128:
        raise ValueError("directions must be at least 128")
    if not (math.isfinite(tol_step) and tol_step > 0.0):
        raise ValueError("tol_step must be a positive finite number")
    q = _require_interior(P, p)[0]
    dirs = fibonacci_sphere(directions)
    target = int(stable_count3(P, q[None, :])[0])
    far = float(np.max(np.linalg.norm(P.coords - q, axis=1)))
    s_max = 2.0 * (far + P.scale)
    tol_abs = tol_step * P.scale
    dists = first_exit_distances(
        lambda pts: stable_count3(P, pts), q, dirs, target, s_max, tol_abs, stable_count3_rays(P, q, dirs)
    )
    idx = int(np.argmin(dists))
    surf = surface_area(P)
    return RobustnessReport(
        kind="internal",
        value=float(dists[idx]) / math.sqrt(surf),
        method="sampled",
        witness={"type": "direction", "direction": [float(c) for c in dirs[idx]], "distance": float(dists[idx])},
        details={"S": target, "directions": int(directions), "tol_step": tol_step, "surface_area": surf},
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
    if any(x <= 0.0 for x in axes):
        raise ValueError("semi-axes must be positive")
    if not all(map(math.isfinite, axes)):
        raise ValueError("semi-axes must be finite")
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
        gaps = piece.plane_offsets - piece.plane_normals @ g
    except DegenerateInput:  # no volume, or a face of zero area
        return None
    eps = piece.eps
    if float(np.min(gaps)) <= eps:  # the interior margin
        return None
    face = _face_feet(piece, g, gaps)[1]
    vertex = _vertex_worst(piece, g)
    if (np.abs(face) <= eps).any() or (np.abs(vertex) <= eps).any():
        return None
    return int((face < -eps).sum()), int((vertex > eps).sum())


#: Twice the unit roundoff; the rounding bounds below count in it.
_ULP = 2.0**-52


class _CutEvaluator3:
    """Relative volume removed and the piece's (S, U) for batches of cuts of one body.

    The evaluator is built on the body and its families of cuts: row ``f`` of
    ``M`` is family f's signed normal.  A call ``evaluate(fam, e)`` takes k
    cuts ``M[fam[i]]·z <= e[i]`` and returns, cut for cut and bit for bit,
    what :func:`clip_halfspace3`, :func:`volume` and :func:`_search_counts`
    give, as three arrays: the relative volume removed (0.0 when the cut
    misses, 1.0 when nothing is left) and the piece's S and U at its own
    centroid (-1 where there is no piece or ``_search_counts`` gives ``None``).

    Each family's normal is normalized and projected (``s = v @ n``) once, at
    build time, with the clip's own expressions, so every kept/crossing
    decision and crossing point is the clip's.  The cuts then run in chunks of
    at most ``BLOCK_CELLS`` (cut, slot) cells.  When no vertex lies
    within the merge distance of the plane and no two rim points are that
    close, the clip merges nothing: a piece's faces are the parent's faces in
    order, each the parent's own face if the cut keeps it whole, else the run
    of kept tails and crossing points the clip emits, then the rim in the
    order of the clip's own kernel, ``_rim_order``.  Its volume is the same fan
    summed by the same reduction (a row of cuts with equal triangle counts).
    The counts are read at an approximate centroid and kept only when every
    decision clears its threshold by a rounding bound; a face of tiny area
    widens that bound.  A cut with a vertex near the plane, a close pair, a
    topology other than the plain cut or an uncertain count decision goes
    through the scalar path, which stays the fallback and the test oracle.
    """

    def __init__(self, P: ConvexPolyhedron3, M):
        self.P = P
        self.M = np.ascontiguousarray(M, dtype=float).reshape(-1, 3)
        self.vol0 = volume(P)
        v = P.coords
        self.reach = float(np.sqrt((v * v).sum(1)).max())
        # The clip's merge distance, raised far above the rounding of a signed
        # distance or a crossing point.
        self.close = _merge_distance(P) + 2.0**-40 * (self.reach + P.scale)
        # Kept vertices never merge when no two parent vertices are close.
        self.batched = math.isfinite(self.reach) and not len(_close_pairs(v, self.close))
        if not self.batched:
            return
        # Each family's norm, unit normal and projections as the clip computes
        # them: each row of ``_rowdot`` and of the stacked product is its own
        # ``np.linalg.norm(m)`` and ``v @ n`` (a column of V @ N.T may not be).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.norm = np.sqrt(_rowdot(self.M, self.M))
            self.n = self.M / self.norm[:, None]
            self.base = np.matmul(v[None], self.n[:, :, None])[..., 0]
        self.usable = np.isfinite(self.norm) & (self.norm > 0.0)
        # A face the cut leaves whole is the parent's face: its fan terms, its
        # plane and its slots' frames are the parent's.
        t = P.fan_triangles
        _, self.w, moment = _fan_terms(v[t[:, 0]], v[t[:, 1]], v[t[:, 2]])
        tails, _, _, starts = P.slot_arrays
        tris = np.diff(starts) - 2
        self.tri_start = np.cumsum(tris) - tris
        self.face_moment = np.add.reduceat(moment, self.tri_start, axis=0)
        a, self.nu, self.u, _ = P.edge_frames
        self.nu_a = np.einsum("ij,ij->i", self.nu, a)
        self.u_a = np.einsum("ij,ij->i", self.u, a)
        self.by_tail = np.argsort(tails, kind="stable")
        self.tail_start = np.searchsorted(tails[self.by_tail], np.arange(len(v)))

    def __call__(self, fam, e) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fam = np.asarray(fam, dtype=np.intp).reshape(-1)
        e = np.asarray(e, dtype=float).reshape(-1)
        k = len(e)
        rel = np.zeros(k)
        S = np.full(k, -1)
        U = np.full(k, -1)
        scalar = np.ones(k, dtype=bool)
        if self.batched and k:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                d = e / self.norm[fam]
                good = np.flatnonzero(self.usable[fam] & np.isfinite(d))
                rows = max(1, BLOCK_CELLS // len(self.P.tails))
                for lo in range(0, len(good), rows):
                    i = good[lo : lo + rows]
                    rel[i], S[i], U[i], scalar[i] = self._chunk(self.n[fam[i]], self.base[fam[i]] - d[i, None])
        for i in np.flatnonzero(scalar).tolist():
            piece = clip_halfspace3(self.P, self.M[fam[i]], e[i])
            if piece is None:
                rel[i] = 1.0
            elif piece is not self.P:
                counts = _search_counts(piece)
                rel[i] = 1.0 - volume(piece) / self.vol0
                if counts is not None:
                    S[i], U[i] = counts
        return rel, S, U

    def _chunk(self, n: np.ndarray, s: np.ndarray):
        """(rel, S, U, scalar) of cuts with unit normals ``n`` and signed vertex
        distances ``s``; ``scalar`` marks the cuts left to the scalar path."""
        P = self.P
        eps = P.eps
        v = P.coords
        nv = len(v)
        tails, _, slot_face, starts = P.slot_arrays
        pairs, slot_edge = P.edge_pairing
        size = starts[1:] - starts[:-1]
        nf = len(size)
        keys = nv + len(pairs)  # a piece point is a vertex, or nv + its edge
        rel = np.zeros(len(s))
        S = np.full(len(s), -1)
        U = np.full(len(s), -1)
        miss = (s <= eps).all(1)
        empty = ~miss & (s >= -eps).all(1)
        rel[empty] = 1.0
        # A vertex this close to the plane may sit on the rim or merge with a
        # crossing point.
        scalar = ~(miss | empty) & ((np.abs(s) <= self.close).any(1) | ~np.isfinite(s).all(1))
        live = np.flatnonzero(~(miss | empty | scalar))
        if not len(live):
            return rel, S, U, scalar
        n, s = n[live], s[live]
        q = len(live)
        r = np.arange(q)

        # Crossing points, per cut in the clip's edge order and arithmetic.
        below = s < 0.0
        lo, hi = pairs[:, 0], pairs[:, 1]
        cut = below[:, lo] != below[:, hi]
        xc, xe = np.nonzero(cut)
        a, b = lo[xe], hi[xe]
        sa = s[xc, a]
        t = sa / (sa - s[xc, b])
        X = v[a] + t[:, None] * (v[b] - v[a])
        k = np.bincount(xc, minlength=q)
        xfirst = np.cumsum(k) - k
        kpos = np.arange(len(xc)) - xfirst[xc]
        xid = np.zeros((q, len(pairs)), dtype=np.intp)
        xid[xc, xe] = np.arange(len(xc))

        # A face keeps all its vertices (intact), none, or some (crossed).  A
        # crossed face emits, per slot, the tail if kept, then the crossing
        # point if the slot's edge is cut.
        kept_tail = below[:, tails]
        nkept = np.add.reduceat(kept_tail.astype(np.intp), starts[:-1], axis=1)
        intact = nkept == size
        crossed = (nkept > 0) & ~intact
        ec, es, ex = np.nonzero(np.stack([kept_tail & crossed[:, slot_face], cut[:, slot_edge]], axis=2))
        ex = ex.astype(bool)
        fk = slot_face[es]
        head = np.ones(len(es), dtype=bool)
        head[1:] = (ec[1:] != ec[:-1]) | (fk[1:] != fk[:-1])
        fstart = np.flatnonzero(head)
        fsize = np.diff(np.append(fstart, len(es)))
        nxt = np.arange(1, len(es) + 1)
        nxt[fstart + fsize - 1] = fstart
        pid = xid[ec, slot_edge[es]]
        pts = np.where(ex[:, None], X[pid], v[tails[es]])

        # The rim in the clip's order, by the clip's own kernel.
        K = int(k.max())
        valid = np.arange(K) < k[:, None]
        rim = np.zeros((q, K, 3))
        rim[xc, kpos] = X
        order, spans = _rim_order(rim, k, n)
        ok = (k >= 3) & spans
        # No two rim points within the merge distance.
        d2 = sum((rim[:, :, None, c] - rim[:, None, :, c]) ** 2 for c in range(3))
        ok &= ((d2 > self.close**2) | ~(valid[:, :, None] & valid[:, None, :]) | np.eye(K, dtype=bool)).all((1, 2))
        # The plain cut's topology: every crossed face keeps 3 or more points,
        # each of its rim edges meets the cap's reverse edge, and Euler holds.
        pos = np.empty((q, K), dtype=np.intp)
        pos[r[:, None], order] = np.arange(K)
        xpos = pos[xc, kpos]
        edge = np.flatnonzero(ex & ex[nxt])
        ja, jb = pid[edge], pid[nxt[edge]]
        paired = xpos[ja] == (xpos[jb] + 1) % np.maximum(k[xc[ja]], 1)
        faces = intact.sum(1) + crossed.sum(1) + 1
        slots = (intact * size).sum(1) + np.bincount(ec, minlength=q) + k
        ok &= (
            (np.bincount(ec[fstart[fsize < 3]], minlength=q) == 0)
            & (np.bincount(ec[edge], minlength=q) == k)
            & (np.bincount(ec[edge[~paired]], minlength=q) == 0)
            & (2 * (below.sum(1) + k) - slots + 2 * faces == 4)
            & (faces >= 4)
        )

        # New slots: the crossed faces' emitted points, then each cap in order.
        cq, cj = np.nonzero(valid)
        cap = xfirst[cq] + order[cq, cj]
        A = np.concatenate([pts, X[cap]])
        B = np.concatenate([pts[nxt], X[xfirst[cq] + order[cq, (cj + 1) % k[cq]]]])
        key = np.concatenate([np.where(ex, nv + slot_edge[es], tails[es]), nv + xe[cap]])
        slot_cut = np.concatenate([ec, cq])
        sg = np.concatenate([np.cumsum(head) - 1, len(fstart) + cq])
        gstart = np.concatenate([fstart, len(es) + xfirst])
        gcut = np.concatenate([ec[fstart], r])
        gsize = np.diff(np.append(gstart, len(A)))

        # Volume: per cut, the fan of every kept face from its first point, in
        # face order, then the cap's, each term as mass_properties computes it
        # (an intact face's are the parent's); summed by one reduction per row
        # of cuts with equal triangle counts.
        loc = np.arange(len(A)) - gstart[sg]
        tri = np.flatnonzero((loc >= 1) & (loc <= gsize[sg] - 2))
        _, w_new, moment_new = _fan_terms(A[gstart[sg[tri]]], A[tri], A[tri + 1])
        gtri = np.maximum(gsize - 2, 0)
        first_new = len(self.w) + np.cumsum(gtri) - gtri
        count = np.zeros((q, nf + 1), dtype=np.intp)
        src = np.zeros((q, nf + 1), dtype=np.intp)
        count[:, :nf] = np.where(intact, size - 2, 0)
        src[:, :nf] = self.tri_start
        fc, ff = np.nonzero(crossed)
        count[fc, ff] = gtri[: len(fstart)]
        src[fc, ff] = first_new[: len(fstart)]
        count[:, nf] = gtri[len(fstart) :]
        src[:, nf] = first_new[len(fstart) :]
        count, src = count.ravel(), src.ravel()
        term = np.repeat(src - (np.cumsum(count) - count), count) + np.arange(count.sum())
        w = np.concatenate([self.w, w_new])[term]
        T = count.reshape(q, -1).sum(1)
        toff = np.cumsum(T) - T
        vol = np.zeros(q)
        for tris in np.unique(T[ok]).tolist():
            rows = np.flatnonzero(ok & (T == tris))
            vol[rows] = w[toff[rows, None] + np.arange(tris)].sum(axis=1)
        good = ok & (vol > _VOL_REL_FLOOR * P.scale**3)

        # The counts at an approximate centroid G.  Faces and their edge
        # frames are the clip's; the foot of G on a face lies inside an edge
        # line exactly when G does, as the edge normal is in the face plane.
        moment = np.stack([np.bincount(slot_cut[tri], moment_new[:, c], q) for c in range(3)], 1)
        G = (intact @ self.face_moment + moment) / vol[:, None]
        Gt = G.T
        face = np.where(intact, np.maximum.reduceat(self.nu @ Gt - self.nu_a[:, None], starts[:-1]).T, np.inf)
        margin = np.where(intact, (P.plane_offsets[:, None] - P.plane_normals @ Gt).T, np.inf).min(1)
        vert = np.full((q, keys), np.inf)
        whole = np.where(intact[:, slot_face].T, self.u @ Gt - self.u_a[:, None], np.inf)
        vert[:, :nv] = np.minimum.reduceat(whole[self.by_tail], self.tail_start).T
        nsum = np.add.reduceat(_cross3(A, B), gstart, axis=0)
        nrm = np.linalg.norm(nsum, axis=1)
        N = nsum / nrm[:, None]
        np.minimum.at(margin, gcut, np.einsum("ij,ij->i", N, A[gstart] - G[gcut]))
        E = B - A
        u = E / np.sqrt(np.einsum("ij,ij->i", E, E))[:, None]
        off = G[slot_cut] - A
        face_new = np.maximum.reduceat(np.einsum("ij,ij->i", off, _cross3(u, N[sg])), gstart)
        np.minimum.at(vert.ravel(), slot_cut * keys + key, np.einsum("ij,ij->i", u, off))

        # Rounding bounds: the centroid, through the fan's signed volumes
        # (their magnitudes sum to at most about D^2 R, and D^2 R^2 for the
        # moments), then each new face normal, then everything else.
        low = np.minimum(np.where(below[..., None], v, np.inf).min(1), np.minimum.reduceat(X, xfirst))
        high = np.maximum(np.where(below[..., None], v, -np.inf).max(1), np.maximum.reduceat(X, xfirst))
        D = np.sqrt(np.einsum("ij,ij->i", high - low, high - low))
        R = self.reach
        eps_p = tol.EPS_GEOM * D
        dN = np.zeros(q)
        np.maximum.at(dN, gcut, (gsize + 2.0) ** 2 * _ULP * R * R / nrm)
        slack = 8.0 * (T + 10) * _ULP * D * D * R * R / vol + 4.0 * dN * D + 64.0 * _ULP * (R + D) + 4.0 * _ULP * eps_p
        lo_t, hi_t = eps_p - slack, eps_p + slack
        af, an, av = np.abs(face), np.abs(face_new), np.abs(vert)
        none = (
            (margin <= lo_t)
            | (af <= lo_t[:, None]).any(1)
            | (np.bincount(gcut, an <= lo_t[gcut], q) > 0)
            | (av <= lo_t[:, None]).any(1)
        )
        sure = (
            (margin > hi_t)
            & (af > hi_t[:, None]).all(1)
            & (np.bincount(gcut, ~(an > hi_t[gcut]), q) == 0)
            & ((av > hi_t[:, None]) | np.isinf(vert)).all(1)
        )
        counted = good & sure & ~none
        stable = (face < -eps_p[:, None]).sum(1) + np.bincount(gcut, face_new < -eps_p[gcut], q).astype(int)
        unstable = (np.isfinite(vert) & (vert > eps_p[:, None])).sum(1)
        rel[live] = np.where(good, 1.0 - vol / self.vol0, 1.0)
        S[live] = np.where(counted, stable, -1)
        U[live] = np.where(counted, unstable, -1)
        scalar[live] = ~ok | (good & ~(none | sure))
        return rel, S, U, scalar


def _removed_volume_slack(P: ConvexPolyhedron3) -> float:
    """How far the relative volume a cut of ``P`` removes, as the search
    computes it, can rise while ``e`` grows along one family of cuts.

    Along a family every kept/crossing decision moves one way as ``e`` grows
    (the clip's ``v @ n - d`` falls with ``d``), so the piece spanned by the
    kept vertices and the exact crossing points only grows, and the volume it
    removes only falls.  A computed value lies within ``err`` of that volume
    (over ``vol0``), so it rises by at most ``2 err``.  ``err`` sums, with D
    the bounding-box diagonal, R the farthest vertex from the origin, A the
    surface area (no piece has more) and T <= 2 * slots the fan triangles of
    a piece: the origin fan's terms and sum, under ``8 (T + 10) ulp R (D^2 +
    A)``, which also covers the crossing points' rounding; a rim vertex kept
    up to ``eps`` off the plane, ``2 eps A``; and the clip's merges, which move
    a point by at most a chain of merge distances through every point, ``2
    slots merge A``.
    """
    vol0, _, area = P.mass_properties
    slots = len(P.tails)
    R = float(np.sqrt((P.coords * P.coords).sum(1)).max())
    D = P.scale
    rounding = 8.0 * (2 * slots + 10) * _ULP * R * (D * D + area)
    geometry = 2.0 * (P.eps + slots * _merge_distance(P)) * area
    return 2.0 * ((rounding + geometry) / vol0 + _ULP)


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
    most ``refine_tol`` (a relative volume; positive and finite), or for at
    most 60 steps.  Degenerate pieces never count as reductions, so the
    result is an honest upper bound for all three targets, and the
    ``reduce_any`` value is exactly min(reduce_S, reduce_U).

    A cut is ``m·z <= e`` with the signed normal ``m = side·n`` and
    ``e = side·d``, in the families of ``util.signed_families``.  The kept
    piece grows with ``e``, so the last reducing grid cut is the cheapest and
    its bracket runs toward the support end, which removes nothing and is
    never evaluated.  All grid cuts are one evaluator batch; then the live
    brackets bisect in lockstep through ``util.cached_cuts``, whose cache
    holds the grid and every midpoint (a cut spans the body's ``len(tails)``
    face slots) and whose speculation takes both of the next step's
    midpoints, ``0.5 * (e_a + mid)`` and ``0.5 * (mid + e_b)``, so the next
    step finds its midpoint cached whichever end moved; the 60-step cap
    counts steps.  Each predicate's witness is its cheapest bracket, the
    first in (normal, side) order among equals; it reports ``n``, the
    unsigned offset and the side (``util.family_cut``).

    A bracket also stops once its non-reducing end removes more than its
    predicate's incumbent (the least ``rel_a`` over its brackets) plus
    ``2δ``, and so the cells of a call count only the live brackets.  The
    volume removed falls as ``e`` grows, and ``δ`` from
    ``_removed_volume_slack`` bounds how far its computed value can rise
    instead, so every value such a bracket could still reach, and the one it
    keeps, lies above whatever the incumbent's bracket ends with: the
    witnesses and partial values are those of bisecting every bracket.  A
    body whose S0 and U0 are both 1 has no reducing cut (a piece keeps a
    stable face and an unstable vertex) and returns before its grid.
    """
    kinds = {"reduce_S": ("partial_s", "S"), "reduce_U": ("partial_u", "U"), "reduce_any": ("partial_any", "SU")}
    if target not in kinds:
        raise ValueError(f"target must be one of {sorted(kinds)}")
    kind, preds = kinds[target]
    n_normals, n_offsets = grid
    if not (is_count(n_normals) and is_count(n_offsets)):
        raise ValueError("grid counts must be integers")
    n_normals, n_offsets = int(n_normals), int(n_offsets)
    if n_normals < 1 or n_offsets < 2:
        raise ValueError("grid needs at least 1 normal and 2 offsets")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError("refine_tol must be a positive finite number")
    rotation = rotation_from_seed(seed)  # checks the seed
    eq0 = classify3(P, centroid3(P))
    if eq0.any_degenerate:
        raise DegenerateConfiguration("base classification is degenerate")
    S0, U0 = eq0.S, eq0.U
    details = {
        "S0": S0,
        "U0": U0,
        "grid": [n_normals, n_offsets],
        "seed": int(seed),
        "refine_tol": refine_tol,
        "partial_s": None,
        "partial_u": None,
        "upper_bound": True,
    }
    if S0 <= 1 and U0 <= 1:
        # A piece at its own centroid keeps a stable face and an unstable vertex.
        return RobustnessReport(kind=kind, value=None, method="search", status="no_reduction_found", details=details)
    normals = fibonacci_sphere(n_normals) @ rotation.T

    # Each row of the product is the clip's own ``coords @ n``.
    proj = np.matmul(P.coords[None], normals[:, :, None])[..., 0]
    M, E, ends = signed_families(normals, proj.min(1), proj.max(1), n_offsets)
    evaluate = _CutEvaluator3(P, M)
    grid_fam = np.arange(len(M)).repeat(n_offsets)
    rel, S, U = evaluate(grid_fam, E.ravel())
    # (family, e) -> (relative volume removed, S, U), S < 0 for an unusable
    # piece.  A bisection midpoint can repeat a grid cut or a cut of an earlier step.
    cache = dict(zip(zip(grid_fam.tolist(), E.ravel().tolist()), zip(rel.tolist(), S.tolist(), U.tolist())))
    rel, S, U = (a.reshape(E.shape) for a in (rel, S, U))
    usable = S >= 0
    reducing = usable[:, None] & np.stack([S < S0, U < U0], 1)

    # One bracket per family and predicate (0 = S, 1 = U) with a reducing grid
    # cut, in that order, from its last reducing grid cut to the next usable one.
    fam, pred = np.nonzero(reducing.any(2))
    i = n_offsets - 1 - np.argmax(reducing[fam, pred, ::-1], 1)
    e_a, rel_a = E[fam, i], rel[fam, i]
    above = usable[fam] & (E[fam] > e_a[:, None])
    j = np.argmax(above, 1)
    e_b = np.where(above.any(1), E[fam, j], ends[fam])
    rel_b = np.where(above.any(1), rel[fam, j], 0.0)

    # A bracket whose non-reducing end removes more than its predicate's
    # incumbent, by more than the computed volume can rise, ends above it.
    delta = _removed_volume_slack(P)
    for step in range(60):
        incumbent = np.full(2, np.inf)
        np.minimum.at(incumbent, pred, rel_a)
        above = rel_b > incumbent[pred] + 2.0 * delta
        live = np.flatnonzero((np.abs(rel_a - rel_b) > refine_tol) & ~above)
        if not len(live):
            break
        a, b = e_a[live], e_b[live]
        mid = 0.5 * (a + b)
        f = fam[live].tolist()

        def ahead():  # the next step's midpoint, whichever end this one moves; the 60th step has none
            return [] if step == 59 else [*zip(f, (0.5 * (a + mid)).tolist()), *zip(f, (0.5 * (mid + b)).tolist())]

        r, s, u = cached_cuts(evaluate, cache, list(zip(f, mid.tolist())), ahead, len(P.tails))
        ok = s >= 0
        red = ok & np.where(pred[live] == 0, s < S0, u < U0)
        e_a[live[red]], rel_a[live[red]] = mid[red], r[red]
        e_b[live[~red]] = mid[~red]
        rel_b[live[ok & ~red]] = r[ok & ~red]

    best: dict[str, Optional[dict]] = {"S": None, "U": None}
    for p in np.unique(pred).tolist():
        mine = np.flatnonzero(pred == p)
        k = mine[np.argmin(rel_a[mine])]
        j, side, offset = family_cut(int(fam[k]), float(e_a[k]))
        best["SU"[p]] = {
            "type": "plane",
            "normal": [float(c) for c in normals[j]],
            "offset": offset,
            "side": side,
            "relative_volume_removed": float(rel_a[k]),
        }

    for p, key in (("S", "partial_s"), ("U", "partial_u")):
        details[key] = None if best[p] is None else best[p]["relative_volume_removed"]
    witness = min((best[p] for p in preds if best[p] is not None), key=lambda w: w["relative_volume_removed"], default=None)
    value = None if witness is None else witness["relative_volume_removed"]
    return RobustnessReport(
        kind=kind,
        value=value,
        method="search",
        witness=witness,
        status="ok" if value is not None else "no_reduction_found",
        details=details,
    )
