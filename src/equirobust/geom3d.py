"""3D convex polyhedron kernel.

Polyhedra are stored as a vertex array plus face cycles (counterclockwise
viewed from outside).  Construction validates planarity, convexity, manifold
edge structure and the Euler relation; ``hull3`` builds polyhedra from point
clouds and merges coplanar triangulation facets so face/edge/vertex counts
are combinatorial rather than artifacts of the triangulation.

Mass properties use the divergence theorem over face fans.  ``clip_halfspace3``
intersects with a closed half space, inserting the planar cut face in one
piece; points closer than the merge tolerance, whether the cut made them or
the parent already had them, come from one sort-and-sweep and are merged.
Generators produce the shapes used elsewhere: regular (platonic) solids,
prisms, capped cylinders and ellipsoid meshes.

A polyhedron is stored once, as arrays: ``coords`` (V, 3), and the face
cycles concatenated into ``tails`` (one vertex per (face, edge) incidence, or
"slot") with ``starts`` (F + 1 run offsets); ``vertices`` and ``faces`` are
derived tuple views.  Clipping builds each piece's arrays directly, and all
topology comes from the slot arrays as flat numpy passes: the undirected edges
and each slot's edge from one ``edge_pairing``, vertex neighbors from the
heads of each vertex's slots, and fan triangles from each face's inner slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import tol
from .errors import DegenerateInput, NonConvexInput
from .util import BLOCK_CELLS, fibonacci_sphere, fmt_g17, is_count

Point3 = tuple[float, float, float]

_VOL_REL_FLOOR = 1e-12


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) arrays, bit for bit, without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (k, m) arrays, each bit for bit ``a[i] @ b[i]``
    (numpy's vector-vector kernel, which ``np.linalg.norm`` of a vector also
    uses; ``np.einsum`` rounds differently)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _fan_terms(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per fan triangle (a, b, c): the cross product (b - a) x (c - a), the
    signed volume of the tetrahedron on the triangle and the origin, and that
    volume's first moment."""
    cr = _cross3(b - a, c - a)
    w = np.einsum("ij,ij->i", cr, a) / 6.0
    return cr, w, w[:, None] * (a + b + c) / 4.0


class ConvexPolyhedron3:
    """Immutable convex polyhedron (vertex coordinates + oriented face cycles).

    Use :func:`polyhedron_new` or :func:`hull3` to construct one; the class
    itself only converts its input to read-only arrays (``coords``, ``tails``,
    ``starts``) so that clip results can be assembled without re-running the
    full validation.
    """

    __slots__ = ("coords", "tails", "starts", "__dict__")

    def __init__(self, vertices: Sequence[Point3], faces: Sequence[Sequence[int]]):
        coords = np.array(vertices, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("every vertex needs exactly three coordinates")
        cycles = [[int(i) for i in f] for f in faces]
        tails = np.asarray([i for f in cycles for i in f], dtype=np.intp)
        starts = np.cumsum([0] + [len(f) for f in cycles], dtype=np.intp)
        self._init(coords, tails, starts)

    def _init(self, coords: np.ndarray, tails: np.ndarray, starts: np.ndarray) -> None:
        for a in (coords, tails, starts):
            a.setflags(write=False)
        self.coords, self.tails, self.starts = coords, tails, starts

    @classmethod
    def _from_arrays(cls, coords: np.ndarray, tails: np.ndarray, starts: np.ndarray) -> "ConvexPolyhedron3":
        """Polyhedron owning the given (V, 3) float and intp face-cycle arrays, unchecked."""
        P = cls.__new__(cls)
        P._init(coords, tails, starts)
        return P

    # -- bookkeeping -------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Point3, ...]:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        t, s = self.tails.tolist(), self.starts.tolist()
        return tuple(tuple(t[a:b]) for a, b in zip(s[:-1], s[1:]))

    @cached_property
    def scale(self) -> float:
        """Diagonal of the axis-aligned bounding box; the length scale for tolerances."""
        v = self.coords
        return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))

    @property
    def eps(self) -> float:
        return tol.EPS_GEOM * self.scale

    @cached_property
    def slot_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, slot_face, face_starts) with one slot per face edge."""
        tails, starts = self.tails, self.starts
        slot_face = np.arange(len(starts) - 1, dtype=np.intp).repeat(starts[1:] - starts[:-1])
        nxt = np.arange(1, len(tails) + 1, dtype=np.intp)
        last = nxt == starts[1:][slot_face]
        nxt[last] = starts[slot_face[last]]
        return tails, tails[nxt], slot_face, starts

    @cached_property
    def plane_normals(self) -> np.ndarray:
        """(F, 3) outward unit normals (Newell's method per face)."""
        tails, heads, _, starts = self.slot_arrays
        v = self.coords
        contrib = _cross3(v[tails], v[heads])
        sums = np.add.reduceat(contrib, starts[:-1], axis=0)
        norms = np.linalg.norm(sums, axis=1)
        if np.any(norms <= 0.0):
            raise DegenerateInput(f"face {int(np.argmin(norms))} has zero area")
        return sums / norms[:, None]

    @cached_property
    def plane_offsets(self) -> np.ndarray:
        """(F,) plane offsets d with n·x = d on face planes."""
        return np.einsum("ij,ij->i", self.plane_normals, self.coords[self.tails[self.starts[:-1]]])

    @cached_property
    def edge_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per slot: (anchor point, in-face outward edge normal, edge direction, length)."""
        tails, heads, slot_face, _ = self.slot_arrays
        v = self.coords
        a = v[tails]
        e = v[heads] - a
        lengths = np.linalg.norm(e, axis=1)
        u = e / lengths[:, None]
        nu = _cross3(u, self.plane_normals[slot_face])
        return a, nu, u, lengths

    @cached_property
    def edge_pairing(self) -> tuple[np.ndarray, np.ndarray]:
        """(pairs, slot_edge): the sorted (E, 2) array of undirected (low, high)
        vertex pairs, and per slot the row of its edge in ``pairs``."""
        tails, heads, _, _ = self.slot_arrays
        nv = len(self.coords)
        codes, slot_edge = np.unique(
            np.minimum(tails, heads) * nv + np.maximum(tails, heads), return_inverse=True
        )
        return np.column_stack([codes // nv, codes % nv]), slot_edge

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as sorted index pairs, each shared by two faces."""
        return tuple(map(tuple, self.edge_pairing[0].tolist()))

    @cached_property
    def edge_slots(self) -> np.ndarray:
        """(E, 2) the two slots of each edge of ``edges``, in slot order."""
        return np.argsort(self.edge_pairing[1], kind="stable").reshape(-1, 2)

    @cached_property
    def edge_faces(self) -> np.ndarray:
        """(E, 2) faces on each edge of ``edges``, in slot order."""
        return self.slot_arrays[2][self.edge_slots]

    @cached_property
    def fan_triangles(self) -> np.ndarray:
        """(T, 3) fan triangles (face[0], face[i], face[i + 1]) from each face's inner slots."""
        tails, heads, slot_face, starts = self.slot_arrays
        inner = np.ones(len(tails), dtype=bool)
        inner[starts[:-1]] = False
        inner[starts[1:] - 1] = False
        return np.column_stack([tails[starts[slot_face[inner]]], tails[inner], heads[inner]])

    @cached_property
    def mass_properties(self) -> tuple[float, Point3, float]:
        """(volume, solid centroid, surface area) via an origin tetrahedron fan."""
        v = self.coords
        t = self.fan_triangles
        cr, w, moment = _fan_terms(v[t[:, 0]], v[t[:, 1]], v[t[:, 2]])
        vol = float(w.sum())
        surf = float(np.linalg.norm(cr, axis=1).sum() / 2.0)
        if vol <= 0.0:
            return vol, (math.nan, math.nan, math.nan), surf
        cen = moment.sum(axis=0) / vol
        return vol, (float(cen[0]), float(cen[1]), float(cen[2])), surf

    def structural_ok(self) -> bool:
        """Cheap manifold check: simple face cycles, directed edges pair up, Euler holds."""
        tails, heads, slot_face, starts = self.slot_arrays
        n = len(self.coords)
        face_vertex = np.sort(slot_face * n + tails)
        code = np.sort(tails * n + heads)
        return bool(
            (starts[1:] - starts[:-1] >= 3).all()
            and (face_vertex[1:] != face_vertex[:-1]).all()
            and (code[1:] != code[:-1]).all()
            and (code == np.sort(heads * n + tails)).all()
            and n - len(code) // 2 + len(starts) - 1 == 2
        )

    def interior_margin(self, p: Sequence[float]) -> float:
        """Smallest signed distance from ``p`` to the face planes (positive inside)."""
        q = np.asarray(p, dtype=float)
        return float(np.min(self.plane_offsets - self.plane_normals @ q))

    def support_interval(self, n: Sequence[float]) -> tuple[float, float]:
        proj = self.coords @ np.asarray(n, dtype=float)
        return float(proj.min()), float(proj.max())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ConvexPolyhedron3({len(self.coords)} vertices, "
            f"{len(self.edges)} edges, {len(self.starts) - 1} faces)"
        )


# -- construction ----------------------------------------------------------


def polyhedron_new(vertices: Iterable[Sequence[float]], faces: Iterable[Sequence[int]]) -> ConvexPolyhedron3:
    """Validated convex polyhedron from vertex coordinates and face cycles.

    Faces whose normals point inward are reversed.  Raises ``DegenerateInput``
    for structural defects (non-planar or repeated faces, unused vertices,
    broken edge pairing, near-zero volume) and ``NonConvexInput`` when some
    vertex lies strictly outside a face plane.
    """
    verts = [(float(x), float(y), float(z)) for x, y, z in vertices]
    if len(verts) < 4:
        raise DegenerateInput("a polyhedron needs at least 4 vertices")
    if not all(math.isfinite(c) for v in verts for c in v):
        raise DegenerateInput("vertex coordinates must be finite")
    face_list = [tuple(int(i) for i in f) for f in faces]
    if len(face_list) < 4:
        raise DegenerateInput("a polyhedron needs at least 4 faces")
    used: set = set()
    for f in face_list:
        if len(f) < 3:
            raise DegenerateInput("every face needs at least 3 vertices")
        if len(set(f)) != len(f):
            raise DegenerateInput("face cycle repeats a vertex")
        for i in f:
            if not 0 <= i < len(verts):
                raise DegenerateInput(f"face index {i} out of range")
        used.update(f)
    if used != set(range(len(verts))):
        raise DegenerateInput("unused vertices in input")

    v = np.asarray(verts)
    scale = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    if scale <= 0.0:
        raise DegenerateInput("polyhedron has zero extent")
    eps = tol.EPS_GEOM * scale
    inner = v.mean(axis=0)

    # Every face's Newell normal, plane and checks at once; the normal is
    # summed as ``plane_normals`` sums it, slot by slot in cycle order.
    given = ConvexPolyhedron3._from_arrays(
        v, np.array([i for f in face_list for i in f], dtype=np.intp), np.cumsum([0] + list(map(len, face_list)), dtype=np.intp)
    )
    tails, heads, slot_face, starts = given.slot_arrays
    sums = np.add.reduceat(_cross3(v[tails], v[heads]), starts[:-1], axis=0)
    norm = np.sqrt(_rowdot(sums, sums))
    degenerate = norm <= eps * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        n = sums / norm[:, None]
    d = _rowdot(n, v[tails[starts[:-1]]])
    off_plane = np.abs(_rowdot(v[tails], n[slot_face]) - d[slot_face]) > eps
    not_planar = np.logical_or.reduceat(off_plane, starts[:-1])
    side = _rowdot(n, np.tile(inner, (len(n), 1))) - d
    through = np.abs(side) <= eps
    # Each face faces away from the interior point.
    flip = side > 0.0
    n[flip], d[flip] = -n[flip], -d[flip]
    block = max(1, BLOCK_CELLS // len(v))
    reach = np.concatenate([(v @ n[i : i + block].T - d[i : i + block]).max(axis=0) for i in range(0, len(n), block)])
    checks = np.stack([degenerate, not_planar, through, reach > eps], axis=1)
    if checks.any():
        k, check = (int(i) for i in np.argwhere(checks)[0])
        if check == 3:
            raise NonConvexInput(f"a vertex lies outside the plane of face {k}")
        raise DegenerateInput(f"face {k} " + ("is degenerate (near-zero area)", "is not planar", "passes through the interior point")[check])
    at = np.arange(len(tails))
    tails = tails[np.where(flip[slot_face], starts[slot_face] + starts[slot_face + 1] - 1 - at, at)]

    P = ConvexPolyhedron3._from_arrays(v, tails, starts)
    if not P.structural_ok():
        raise DegenerateInput("face cycles do not tile a closed surface (edge pairing or Euler failure)")
    if volume(P) <= _VOL_REL_FLOOR * scale**3:
        raise DegenerateInput("polyhedron volume is below tolerance")
    return P


def hull3(points: Iterable[Sequence[float]]) -> ConvexPolyhedron3:
    """Convex hull with coplanar triangle facets merged into single faces.

    Facets are merged when their normals agree within 1e-7 radians and their
    plane offsets within tolerance; merged boundaries are re-chained into one
    cycle per face.
    """
    from scipy.spatial import ConvexHull

    pts = np.asarray([[float(c) for c in p] for p in points], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise DegenerateInput("hull needs at least 4 points of three coordinates")
    try:
        hull = ConvexHull(pts)
    except Exception as exc:  # qhull reports degeneracy via generic errors
        raise DegenerateInput(f"hull construction failed: {exc}") from None

    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    eps = tol.EPS_GEOM * scale
    normals = hull.equations[:, :3]
    offsets = -hull.equations[:, 3]

    # Orient every simplex counterclockwise around its outward normal.
    tri = hull.simplices
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    flip = _rowdot(_cross3(b - a, c - a), np.ascontiguousarray(normals)) < 0.0
    simplices = list(map(tuple, np.where(flip[:, None], tri[:, [0, 2, 1]], tri).tolist()))

    # Merge near-parallel adjacent facets.
    pairs = []
    for k, nbrs in enumerate(hull.neighbors):
        for j in nbrs:
            if j < 0 or j <= k:
                continue
            cosang = float(np.clip(normals[k] @ normals[j], -1.0, 1.0))
            if math.acos(cosang) < 1e-7 and abs(offsets[k] - offsets[j]) <= max(eps, 1e-12):
                pairs.append((k, int(j)))
    root = _cluster_roots(len(simplices), pairs)

    groups: dict = {}
    for k in range(len(simplices)):
        groups.setdefault(int(root[k]), []).append(k)

    faces = []
    for members in groups.values():
        directed: set = set()
        for k in members:
            tri = simplices[k]
            for i in range(3):
                directed.add((tri[i], tri[(i + 1) % 3]))
        boundary = {a: b for a, b in directed if (b, a) not in directed}
        if not boundary:
            raise DegenerateInput("coplanar merge produced a face without a boundary")
        start = next(iter(boundary))
        cycle = [start]
        cur = boundary[start]
        while cur != start:
            cycle.append(cur)
            cur = boundary[cur]
            if len(cycle) > len(boundary):
                raise DegenerateInput("coplanar merge produced a non-simple face boundary")
        faces.append(cycle)

    used = sorted({i for f in faces for i in f})
    remap = {old: new for new, old in enumerate(used)}
    return polyhedron_new(pts[used], [[remap[i] for i in f] for f in faces])


# -- mass properties -------------------------------------------------------


def volume(P: ConvexPolyhedron3) -> float:
    """Enclosed volume via signed origin-fan tetrahedra."""
    return P.mass_properties[0]


def centroid3(P: ConvexPolyhedron3) -> Point3:
    """Uniform solid centroid via signed tetrahedron decomposition."""
    vol, cen, _ = P.mass_properties
    if vol <= 0.0:
        raise DegenerateInput("polyhedron volume is not positive")
    return cen


def surface_area(P: ConvexPolyhedron3) -> float:
    return P.mass_properties[2]


# -- bounding boxes --------------------------------------------------------


@dataclass(frozen=True)
class BoundingBox:
    """Circumscribed brick: orthonormal ``frame`` columns are the box axes.

    ``half_extents`` are sorted ascending and the frame columns are permuted
    to match, so ``half_extents[0]`` belongs to ``frame[:, 0]``.
    """

    frame: np.ndarray
    center: Point3
    half_extents: tuple[float, float, float]

    @property
    def extents(self) -> tuple[float, float, float]:
        a, b, c = self.half_extents
        return (2.0 * a, 2.0 * b, 2.0 * c)

    def contains(self, p: Sequence[float], slack: float = 0.0) -> bool:
        q = self.frame.T @ (np.asarray(p, dtype=float) - np.asarray(self.center))
        return bool(np.all(np.abs(q) <= np.asarray(self.half_extents) + slack))


def bounding_box(P: ConvexPolyhedron3, frame: np.ndarray) -> BoundingBox:
    """Tight bounding brick of ``P`` along the axes given by ``frame`` columns."""
    F = np.asarray(frame, dtype=float)
    if F.shape != (3, 3) or not np.allclose(F.T @ F, np.eye(3), atol=1e-9):
        raise ValueError("frame must be an orthonormal 3x3 matrix")
    proj = P.coords @ F
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    half = (hi - lo) / 2.0
    center = F @ ((hi + lo) / 2.0)
    order = np.argsort(half, kind="stable")
    F = F[:, order]
    half = half[order]
    return BoundingBox(
        frame=F,
        center=(float(center[0]), float(center[1]), float(center[2])),
        half_extents=(float(half[0]), float(half[1]), float(half[2])),
    )


def aabb(P: ConvexPolyhedron3) -> BoundingBox:
    return bounding_box(P, np.eye(3))


# -- half-space clipping ---------------------------------------------------


def _merge_distance(P: ConvexPolyhedron3) -> float:
    """The distance within which the clip merges two points of a piece."""
    return max(P.eps, 1e-13 * P.scale)


#: The sweep direction of ``_close_pairs``, a unit vector off every axis and
#: diagonal, so that few vertices of a regular body share a projection.
_SWEEP = np.array([0.6, 0.64, 0.48])


def _close_pairs(v: np.ndarray, r: float) -> np.ndarray:
    """The pairs (i, j), as rows, of rows of ``v`` (finite) with ``(d * d).sum()
    <= r * r``: the test scipy's KD-tree ``query_pairs`` makes, and so its
    pair set.  A sort-and-sweep along ``_SWEEP`` measures only the pairs whose
    projections differ by at most ``r``, widened past their rounding.
    """
    x = v @ _SWEEP
    order = np.argsort(x)
    x, w = x[order], v[order]
    slack = r * (1.0 + 2.0**-30) + 2.0**-40 * float(np.abs(v).max(initial=0.0))
    found = [np.empty((0, 2), dtype=np.intp)]
    for k in range(1, len(x)):
        near = np.flatnonzero(x[k:] - x[:-k] <= slack)
        if not len(near):
            break
        d = w[near + k] - w[near]
        near = near[(d * d).sum(1) <= r * r]
        found.append(np.stack([order[near], order[near + k]], 1))
    return np.concatenate(found)


def clip_halfspace3(
    P: ConvexPolyhedron3, normal: Sequence[float], offset: float
) -> Optional[ConvexPolyhedron3]:
    """Intersect ``P`` with the closed half space ``normal · x <= offset``.

    Returns ``P`` itself when the plane misses it, ``None`` when nothing (or
    only a sliver below tolerance) remains.  The cut cross-section is inserted
    as a single planar face.  Every pair of the points the piece uses within
    the merge tolerance (``_close_pairs``) joins one cluster, and each cluster
    becomes its lowest-numbered point.
    """
    n = np.asarray(normal, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm <= 0.0:
        raise ValueError("plane normal must be nonzero")
    n = n / norm
    d = float(offset) / norm
    v = P.coords
    eps = P.eps
    s = v @ n - d
    if np.all(s <= eps):
        return P
    if np.all(s >= -eps):
        return None

    tails, heads, _, starts = P.slot_arrays
    pairs, slot_edge = P.edge_pairing
    nv = len(v)
    below = s <= eps  # kept, including on-plane vertices
    st, sh = s[tails], s[heads]
    crossing = ((st > eps) & (sh < -eps)) | ((st < -eps) & (sh > eps))

    # One crossing point per undirected edge, shared by both incident faces.
    cross_edges = np.unique(slot_edge[crossing])
    lo, hi = pairs[cross_edges].T
    t = s[lo] / (s[lo] - s[hi])
    new_pts = v[lo] + t[:, None] * (v[hi] - v[lo])

    # Emit, per slot and in cycle order: the tail vertex if kept, then the
    # crossing point if the edge is cut.
    emit_tail = below[tails]
    counts = emit_tail.astype(np.intp) + crossing.astype(np.intp)
    pos = np.cumsum(counts) - counts
    out = np.empty(int(counts.sum()), dtype=np.intp)
    out[pos[emit_tail]] = tails[emit_tail]
    out[(pos + emit_tail)[crossing]] = nv + np.searchsorted(cross_edges, slot_edge[crossing])

    face_counts = np.add.reduceat(counts, starts[:-1])
    kept = face_counts >= 3
    runs = [out[kept.repeat(face_counts)]]
    sizes = [face_counts[kept]]

    all_pts = np.vstack([v, new_pts]) if len(new_pts) else v

    # The cut cross-section ring: kept on-plane vertices plus crossing points.
    rim = np.concatenate([np.nonzero(below & (np.abs(s) <= eps))[0], nv + np.arange(len(new_pts))])
    if len(rim) >= 3:
        order, spans = _rim_order(all_pts[rim][None], np.array([len(rim)]), n[None])
        if spans[0]:
            runs.append(rim[order[0]])
            sizes.append([len(rim)])
    flat = np.concatenate(runs)
    sizes = np.concatenate(sizes)

    # Merge points that collapse together (cuts passing close to vertices).
    used = np.bincount(flat).nonzero()[0]
    close = _close_pairs(all_pts[used], _merge_distance(P))
    if len(close):
        flat, sizes = _merge_points(flat, sizes, used[close[:, 0]], used[close[:, 1]], len(all_pts))
    if len(sizes) < 4:
        return None

    # Renumber the surviving points in ascending order of their old index.
    on = np.bincount(flat, minlength=len(all_pts)) > 0
    piece = ConvexPolyhedron3._from_arrays(
        all_pts[on], (np.cumsum(on) - 1)[flat], np.cumsum(np.concatenate([[0], sizes]))
    )
    if not piece.structural_ok():
        return None
    if volume(piece) <= _VOL_REL_FLOOR * P.scale**3:
        return None
    return piece


def _rim_order(rim: np.ndarray, k: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orders of q cut rims with unit normals ``n`` (q, 3): rim i is the first
    ``k[i]`` points of ``rim[i]`` (q, K, 3), the rest padding, which sorts
    last.  Each runs counterclockwise around its ``n`` (the cut face's outward
    normal, as the kept side is n·x <= d) by angle from its point farthest
    from their mean.  Also returns, per rim, whether its points span a
    direction.  A rim's order is the same alone or in a batch.
    """
    q, K = rim.shape[:2]
    valid = np.arange(K) < k[:, None]
    spread = np.where(valid[..., None], rim - (rim.sum(1) / k[:, None])[:, None], 0.0)
    ref = spread[np.arange(q), np.argmax(np.linalg.norm(spread, axis=2), 1)]
    ref = ref - _rowdot(ref, n)[:, None] * n
    rn = np.sqrt(_rowdot(ref, ref))
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = ref / rn[:, None]
        ang = np.arctan2(
            np.matmul(spread, _cross3(n, ref)[:, :, None])[..., 0], np.matmul(spread, ref[:, :, None])[..., 0]
        )
    return np.argsort(np.where(valid, ang, np.inf), axis=1, kind="stable"), rn > 0.0


def _cluster_roots(n: int, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Per index of ``range(n)``, the lowest index of its cluster, where each
    pair ``(a, b)`` puts a and b in one cluster."""
    root = np.arange(n)
    for a, b in pairs:
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        root[max(a, b)] = min(a, b)
    while (root[root] != root).any():
        root = root[root]
    return root


def _merge_points(
    flat: np.ndarray, sizes: np.ndarray, lo: np.ndarray, hi: np.ndarray, npts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Face cycles (``flat`` runs of ``sizes``) with each close pair (lo[k], hi[k])
    merged into the lowest index of its cluster; a cycle drops repeats of its
    first point, then consecutive repeats, and vanishes below 3 points."""
    r = _cluster_roots(npts, zip(lo.tolist(), hi.tolist()))[flat]
    face = np.repeat(np.arange(len(sizes)), sizes)
    first = np.cumsum(sizes) - sizes
    keep = r != r[first][face]
    keep[first] = True
    r, face = r[keep], face[keep]
    keep = (np.diff(r, prepend=-1) != 0) | (np.diff(face, prepend=-1) != 0)
    r, face = r[keep], face[keep]
    sizes = np.bincount(face, minlength=len(sizes))
    good = sizes >= 3
    return r[good[face]], sizes[good]


# -- generators ------------------------------------------------------------

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_PLATONIC_POINTS = {
    "tetra": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
    "cube": [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "octa": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "dodeca": (
        [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        + [(0, y / _PHI, z * _PHI) for y in (-1, 1) for z in (-1, 1)]
        + [(x / _PHI, y * _PHI, 0) for x in (-1, 1) for y in (-1, 1)]
        + [(x * _PHI, 0, z / _PHI) for x in (-1, 1) for z in (-1, 1)]
    ),
    "icosa": (
        [(0, y, z * _PHI) for y in (-1, 1) for z in (-1, 1)]
        + [(x, y * _PHI, 0) for x in (-1, 1) for y in (-1, 1)]
        + [(x * _PHI, 0, z) for x in (-1, 1) for z in (-1, 1)]
    ),
}

#: Each solid's outward face cycles, in the order and from the start that
#: ``hull3`` of its points gives them, so that no builtin needs scipy.
_PLATONIC_FACES = {
    "tetra": [(0, 1, 2), (2, 3, 0), (3, 2, 1), (3, 1, 0)],
    "cube": [(4, 0, 2, 6), (0, 4, 5, 1), (5, 4, 6, 7), (0, 1, 3, 2), (6, 2, 3, 7), (1, 5, 7, 3)],
    "octa": [(5, 3, 1), (0, 3, 5), (1, 3, 4), (0, 4, 3), (2, 0, 5), (1, 2, 5), (2, 4, 0), (4, 2, 1)],
    "dodeca": [
        (6, 18, 4, 8, 10), (0, 16, 2, 10, 8), (12, 1, 17, 16, 0), (2, 16, 17, 3, 13),
        (1, 12, 14, 5, 9), (8, 4, 14, 12, 0), (14, 4, 18, 19, 5), (17, 1, 9, 11, 3),
        (19, 7, 11, 9, 5), (2, 13, 15, 6, 10), (6, 15, 7, 19, 18), (11, 7, 15, 13, 3),
    ],
    "icosa": [
        (0, 4, 8), (5, 2, 8), (2, 10, 0), (8, 2, 0), (6, 1, 4), (10, 6, 0), (4, 0, 6),
        (9, 5, 8), (4, 9, 8), (4, 1, 9), (9, 1, 3), (5, 9, 3), (5, 3, 7), (5, 7, 2),
        (7, 10, 2), (10, 11, 6), (3, 1, 11), (11, 1, 6), (11, 7, 3), (10, 7, 11),
    ],
}


def platonic(name: str, edge: Optional[float] = None) -> ConvexPolyhedron3:
    """Regular polyhedron centered at the origin.

    With ``edge=None`` the solid is scaled to unit surface area; otherwise to
    the requested edge length.
    """
    if name not in _PLATONIC_POINTS:
        raise ValueError(f"unknown solid {name!r}; choose from {sorted(_PLATONIC_POINTS)}")
    base = polyhedron_new(_PLATONIC_POINTS[name], _PLATONIC_FACES[name])
    if edge is None:
        factor = 1.0 / math.sqrt(surface_area(base))
    else:
        if edge <= 0.0:
            raise ValueError("edge length must be positive")
        if not math.isfinite(edge):
            raise ValueError("edge length must be finite")
        a, b = base.edges[0]
        e0 = math.dist(base.vertices[a], base.vertices[b])
        factor = float(edge) / e0
    return ConvexPolyhedron3._from_arrays(base.coords * factor, base.tails, base.starts)


def generator_prism(ngon: int, height: float) -> ConvexPolyhedron3:
    """Right prism over a regular ``ngon`` (circumradius 1) along the z axis."""
    if not (is_count(ngon) and ngon >= 3):
        raise ValueError("prism base needs an integer count of at least 3 vertices")
    if not height > 0.0:
        raise ValueError("height must be positive")
    h = height / 2.0
    bottom = [(math.cos(2 * math.pi * k / ngon), math.sin(2 * math.pi * k / ngon), -h) for k in range(ngon)]
    top = [(x, y, h) for x, y, _ in bottom]
    faces = [list(range(ngon - 1, -1, -1)), list(range(ngon, 2 * ngon))]
    for k in range(ngon):
        nk = (k + 1) % ngon
        faces.append([k, nk, ngon + nk, ngon + k])
    return polyhedron_new(bottom + top, faces)


def generator_truncated_cylinder(r: float, d: float, facets: int = 32) -> ConvexPolyhedron3:
    """Capped cylinder: radius ``r``, straight length ``d``, spheroidal end caps.

    Each cap is an inscribed half spheroid with semi-axes (r, r, 2r), so the
    axis-aligned bounding box is exactly 2r x 2r x (d + 4r) whenever the
    angular division count hits the four axis directions — hence ``facets``
    must be a multiple of 4 (and at least 32 for a rounded enough cap).
    """
    if not (r > 0.0 and d > 0.0):
        raise ValueError("radius and length must be positive")
    if not (is_count(facets) and facets >= 32):
        raise ValueError("facets must be an integer of at least 32")
    if facets % 4 != 0:
        raise ValueError("facets must be a multiple of 4")
    m = facets
    angles = [2 * math.pi * k / m for k in range(m)]
    cos_a = [math.cos(a) for a in angles]
    sin_a = [math.sin(a) for a in angles]

    rings: list[tuple[float, float]] = []  # (radius, z) from bottom apex to top apex
    cap_profile = [(r * math.cos(phi), 2 * r * math.sin(phi)) for phi in (math.pi / 6, math.pi / 3)]
    z0 = d / 2.0
    rings.append((cap_profile[1][0], -(z0 + cap_profile[1][1])))
    rings.append((cap_profile[0][0], -(z0 + cap_profile[0][1])))
    rings.append((r, -z0))
    rings.append((r, z0))
    rings.append((cap_profile[0][0], z0 + cap_profile[0][1]))
    rings.append((cap_profile[1][0], z0 + cap_profile[1][1]))

    verts: list[Point3] = [(0.0, 0.0, -(z0 + 2 * r))]
    for rad, z in rings:
        verts.extend((rad * cos_a[k], rad * sin_a[k], z) for k in range(m))
    verts.append((0.0, 0.0, z0 + 2 * r))
    bottom_apex = 0
    top_apex = len(verts) - 1

    def ring(i: int, k: int) -> int:
        return 1 + i * m + (k % m)

    faces: list[list[int]] = []
    for k in range(m):
        faces.append([bottom_apex, ring(0, k + 1), ring(0, k)])
    for i in range(len(rings) - 1):
        for k in range(m):
            faces.append([ring(i, k), ring(i, k + 1), ring(i + 1, k + 1), ring(i + 1, k)])
    for k in range(m):
        faces.append([top_apex, ring(5, k), ring(5, k + 1)])
    return polyhedron_new(verts, faces)


def generator_ellipsoid_mesh(a: float, b: float, c: float, facets: int = 512) -> ConvexPolyhedron3:
    """Inscribed polyhedral approximation of the ellipsoid with semi-axes a, b, c.

    Built as the hull of a Fibonacci point set mapped onto the ellipsoid; for
    mass properties and bounding boxes only — the facet structure does not
    reflect the smooth body's equilibria.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError("semi-axes must be positive")
    if facets < 32:
        raise ValueError("facets must be at least 32")
    pts = fibonacci_sphere(max(facets // 2 + 2, 8))
    pts = pts * np.array([a, b, c])
    return hull3(pts)


# -- OFF serialization -----------------------------------------------------


def off_dumps(P: ConvexPolyhedron3) -> str:
    """OFF text with 17-significant-digit decimal coordinates."""
    lines = ["OFF", f"{len(P.vertices)} {len(P.faces)} {len(P.edges)}"]
    for x, y, z in P.vertices:
        lines.append(f"{fmt_g17(x)} {fmt_g17(y)} {fmt_g17(z)}")
    for face in P.faces:
        lines.append(" ".join([str(len(face))] + [str(i) for i in face]))
    return "\n".join(lines) + "\n"


def off_loads(text: str) -> ConvexPolyhedron3:
    """Parse OFF text and re-validate the polyhedron."""
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens or tokens[0] != "OFF":
        raise DegenerateInput("not an OFF file (missing header)")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4  # header + vertex/face/edge counts
        verts = []
        for _ in range(nv):
            verts.append((float(tokens[pos]), float(tokens[pos + 1]), float(tokens[pos + 2])))
            pos += 3
        faces = []
        for _ in range(nf):
            k = int(tokens[pos])
            faces.append([int(t) for t in tokens[pos + 1 : pos + 1 + k]])
            pos += 1 + k
    except (IndexError, ValueError) as exc:
        raise DegenerateInput(f"malformed OFF data: {exc}") from None
    return polyhedron_new(verts, faces)


def write_off(P: ConvexPolyhedron3, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(off_dumps(P))


def read_off(path: str) -> ConvexPolyhedron3:
    with open(path, "r", encoding="ascii") as fh:
        return off_loads(fh.read())
