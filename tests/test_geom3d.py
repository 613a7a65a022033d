import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from equirobust.equilib3d import _vertex_worst
from equirobust.errors import DegenerateInput, NonConvexInput
from equirobust.geom3d import (
    _PLATONIC_POINTS,
    ConvexPolyhedron3,
    _close_pairs,
    _cross3,
    _rowdot,
    aabb,
    bounding_box,
    centroid3,
    clip_halfspace3,
    generator_ellipsoid_mesh,
    generator_prism,
    generator_truncated_cylinder,
    hull3,
    off_dumps,
    off_loads,
    platonic,
    polyhedron_new,
    read_off,
    surface_area,
    volume,
    write_off,
)

from conftest import random_hull3


def unit_box():
    return hull3([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


class TestConstruction:
    def test_cube_counts_and_measures(self):
        c = platonic("cube", edge=1.0)
        assert (len(c.vertices), len(c.edges), len(c.faces)) == (8, 12, 6)
        assert volume(c) == pytest.approx(1.0, abs=1e-14)
        assert surface_area(c) == pytest.approx(6.0, abs=1e-13)
        assert centroid3(c) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_tetra_closed_forms(self):
        t = platonic("tetra", edge=1.0)
        assert volume(t) == pytest.approx(1.0 / (6.0 * math.sqrt(2.0)), abs=1e-15)
        assert surface_area(t) == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_orientation_fixed_automatically(self):
        # One face given clockwise: polyhedron_new flips it.
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
        P = polyhedron_new(verts, faces)
        assert volume(P) == pytest.approx(1.0 / 6.0, abs=1e-15)
        flipped = polyhedron_new(verts, [list(reversed(f)) for f in faces])
        assert volume(flipped) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_too_few_vertices(self):
        with pytest.raises(DegenerateInput):
            polyhedron_new([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [[0, 1, 2]])

    def test_nonplanar_face_rejected(self):
        verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0.3), (0, 1, 0), (0.5, 0.5, 1)]
        faces = [[0, 3, 2, 1], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        with pytest.raises(DegenerateInput):
            polyhedron_new(verts, faces)

    def test_nonconvex_rejected(self):
        # Push one octahedron apex past the equator plane: faces stay planar
        # triangles but the opposite apex lies outside the dented face planes.
        octa = platonic("octa", edge=1.0)
        verts = list(octa.vertices)
        idx = int(np.argmax([v[2] for v in verts]))
        x, y, z = verts[idx]
        verts[idx] = (x, y, -0.35 * z)
        with pytest.raises(NonConvexInput):
            polyhedron_new(verts, octa.faces)

    def test_first_failing_face_raises_its_first_failing_check(self):
        # A cube with vertex 7 pulled out to (1.3, 1.3, 1.3): the top
        # triangle (4, 5, 6) is planar but 7 lies outside its plane, and the
        # x = 1 quad through 7 is no longer planar.  The faces are checked
        # in order, each through area, planarity, the interior point and
        # convexity, so an earlier face's later check wins.
        verts = [(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)]
        verts[7] = (1.3, 1.3, 1.3)
        triangle, quad, bottom, left = [4, 5, 6], [1, 3, 7, 5], [0, 1, 3, 2], [0, 2, 6, 4]
        with pytest.raises(NonConvexInput, match=r"^a vertex lies outside the plane of face 0$"):
            polyhedron_new(verts, [triangle, bottom, quad, left])
        with pytest.raises(DegenerateInput, match=r"^face 1 is not planar$"):
            polyhedron_new(verts, [bottom, quad, triangle, left])
        with pytest.raises(DegenerateInput, match=r"^face 2 is degenerate \(near-zero area\)$"):
            polyhedron_new(verts, [bottom, left, [0, 1, 2, 3], triangle, quad])  # a bowtie

    def test_unused_vertex_rejected(self):
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (9, 9, 9)]
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
        with pytest.raises(DegenerateInput):
            polyhedron_new(verts, faces)

    def test_broken_edge_pairing_rejected(self):
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [1, 2, 3]]
        with pytest.raises(DegenerateInput):
            polyhedron_new(verts, faces)

    def test_repeated_vertex_in_face_rejected(self):
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        faces = [[0, 2, 1, 2], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
        with pytest.raises(DegenerateInput):
            polyhedron_new(verts, faces)

    def test_open_surface_rejected(self):
        # A cube without its top face: every directed edge of the missing
        # face's rim lacks its reverse.
        c = platonic("cube")
        top = max(range(6), key=lambda k: c.plane_normals[k][2])
        faces = [f for k, f in enumerate(c.faces) if k != top]
        with pytest.raises(DegenerateInput, match="closed surface"):
            polyhedron_new(c.vertices, faces)

    def test_vertex_needs_three_coordinates(self):
        # A flat list of 12 numbers would reshape to (4, 3); it must not.
        faces = [[0, 1, 2], [0, 3, 1], [1, 3, 2], [0, 2, 3]]
        for verts in ([(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)], [(0, 0, 0, 0)] * 3, [0.0] * 12):
            with pytest.raises((TypeError, ValueError)):
                ConvexPolyhedron3(verts, faces)

    def test_structural_ok_rejects_short_and_pinched_cycles(self):
        # Each defect keeps every directed edge paired and Euler intact, so
        # only the cycle checks can reject it.
        c = platonic("cube")
        a, b = next((i, j) for i in range(8) for j in range(8) if i < j and (i, j) not in c.edges)
        assert not ConvexPolyhedron3(c.vertices, c.faces + ((a, b),)).structural_ok()
        # Two octahedron triangles meeting in one vertex a, joined into the
        # pinched cycle (a, ., ., a, ., .); an unused vertex restores Euler.
        o = platonic("octa")
        f, g = next((f, g) for f in o.faces for g in o.faces if len(set(f) & set(g)) == 1)
        (a,) = set(f) & set(g)
        cycle = f[f.index(a) :] + f[: f.index(a)] + g[g.index(a) :] + g[: g.index(a)]
        faces = [h for h in o.faces if h not in (f, g)] + [cycle]
        assert not ConvexPolyhedron3(o.vertices + ((5.0, 5.0, 5.0),), faces).structural_ok()


class TestHull:
    def test_interior_point_discarded(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [(0.5, 0.5, 0.5)]
        h = hull3(pts)
        assert (len(h.vertices), len(h.edges), len(h.faces)) == (8, 12, 6)
        assert volume(h) == pytest.approx(1.0, abs=1e-14)

    def test_coplanar_facets_merged(self):
        # Cube faces must come out as 6 quads, not 12 triangles.
        h = unit_box()
        assert sorted(len(f) for f in h.faces) == [4] * 6
        # Rebuilding from its own vertices reproduces the face lattice.
        again = hull3(h.vertices)
        assert {frozenset(f) for f in again.faces} == {frozenset(f) for f in h.faces}

    def test_random_hulls_euler(self, rng):
        for _ in range(25):
            h = random_hull3(rng, 50)
            v, e, f = len(h.vertices), len(h.edges), len(h.faces)
            assert v - e + f == 2
            assert h.structural_ok()
            g = np.asarray(centroid3(h))
            assert h.interior_margin(g) > 0

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(DegenerateInput):
            hull3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])  # all coplanar

    @pytest.mark.parametrize("dims", [2, 4])
    def test_points_need_three_coordinates(self, dims):
        pts = np.random.default_rng(dims).normal(size=(8, dims))
        with pytest.raises(DegenerateInput, match="^hull needs at least 4 points of three coordinates$"):
            hull3(pts)


class TestClip:
    def test_corner_cut_combinatorics(self):
        box = unit_box()
        piece = clip_halfspace3(box, (1, 1, 1), 2.5)
        assert (len(piece.vertices), len(piece.edges), len(piece.faces)) == (10, 15, 7)
        assert 1.0 - volume(piece) == pytest.approx(0.5**3 / 6.0, abs=1e-12)

    def test_small_corner_cut(self):
        box = unit_box()
        piece = clip_halfspace3(box, (1, 1, 1), 2.9)
        assert (len(piece.vertices), len(piece.edges), len(piece.faces)) == (10, 15, 7)
        assert 1.0 - volume(piece) == pytest.approx(0.1**3 / 6.0, rel=1e-9)

    def test_tangent_plane_returns_same_object(self):
        box = unit_box()
        assert clip_halfspace3(box, (1, 1, 1), 3.0) is box
        assert clip_halfspace3(box, (1, 1, 1), 3.1) is box

    def test_everything_removed(self):
        box = unit_box()
        assert clip_halfspace3(box, (0, 0, 1), -0.5) is None
        assert clip_halfspace3(box, (0, 0, 1), 0.0) is None  # only the bottom facet survives

    def test_half_cube_is_brick(self):
        box = unit_box()
        piece = clip_halfspace3(box, (0, 0, 1), 0.5)
        assert (len(piece.vertices), len(piece.faces)) == (8, 6)
        assert volume(piece) == pytest.approx(0.5, abs=1e-14)
        lo = piece.coords.min(axis=0)
        hi = piece.coords.max(axis=0)
        assert np.allclose(lo, [0, 0, 0]) and np.allclose(hi, [1, 1, 0.5])

    def test_unnormalized_plane_equivalent(self):
        box = unit_box()
        a = clip_halfspace3(box, (0, 0, 2), 1.0)
        b = clip_halfspace3(box, (0, 0, 1), 0.5)
        assert volume(a) == pytest.approx(volume(b), abs=1e-14)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            clip_halfspace3(unit_box(), (0, 0, 0), 0.5)

    def test_volume_additivity_random(self, rng):
        for _ in range(20):
            h = random_hull3(rng, 30)
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            lo, hi = h.support_interval(n)
            d = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
            below = clip_halfspace3(h, n, d)
            above = clip_halfspace3(h, -n, -d)
            assert below is not None and above is not None
            assert below.structural_ok() and above.structural_ok()
            total = volume(below) + volume(above)
            assert total == pytest.approx(volume(h), rel=1e-10)

    def test_cut_through_vertex(self):
        # Plane through two opposite cube vertices and two edge midpoints.
        box = unit_box()
        piece = clip_halfspace3(box, (1, 1, 0), 1.0)
        assert piece is not None
        assert piece.structural_ok()
        assert volume(piece) == pytest.approx(0.5, abs=1e-12)

    def test_close_pair_far_from_the_cut_is_merged(self):
        # A vertex 0.5 eps from the corner (0, 0, 0) on the x edge of the unit
        # cube.  The cut is far from that corner, yet the piece merges the
        # pair and equals the same cut of the plain cube.
        cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        faces = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
        plain = polyhedron_new(cube, faces)
        extra = (0.5 * plain.eps, 0.0, 0.0)
        faces_x = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 8, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4, 8), (1, 5, 7, 3)]
        body = polyhedron_new(cube + [extra], faces_x)
        assert len(body.vertices) == 9
        piece = clip_halfspace3(body, (1, 1, 1), 2.5)
        assert off_dumps(piece) == off_dumps(clip_halfspace3(plain, (1, 1, 1), 2.5))

    def test_large_clip_allocates_little(self):
        P = generator_ellipsoid_mesh(1, 2, 3, facets=3000)
        assert len(P.vertices) == 1502
        tracemalloc.start()
        try:
            piece = clip_halfspace3(P, (0, 0, 1), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert piece is not None
        assert peak < 5e6


def _topology_oracle(P):
    """Edges, faces per edge, sorted vertex neighbors and fan triangles, built
    from the face cycles with dicts and sets."""
    edge_faces = {}
    for k, face in enumerate(P.faces):
        for i, a in enumerate(face):
            b = face[(i + 1) % len(face)]
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(k)
    nbrs = [set() for _ in P.vertices]
    for a, b in edge_faces:
        nbrs[a].add(b)
        nbrs[b].add(a)
    edges = sorted(edge_faces)
    tris = [[f[0], f[i], f[i + 1]] for f in P.faces for i in range(1, len(f) - 1)]
    return edges, [edge_faces[e] for e in edges], [sorted(s) for s in nbrs], tris


def _digest_cuts():
    """The digest's bodies, and the cuts (P, m, e) of ``m·z <= e`` whose pieces it pins."""
    rng = np.random.default_rng(7)
    bodies = [platonic(name) for name in ("tetra", "cube", "octa", "dodeca", "icosa")]
    bodies += [generator_prism(k, 1.5) for k in (3, 5, 8)]
    bodies.append(generator_truncated_cylinder(1.0, 3.0))
    bodies += [random_hull3(rng, n) for n in (8, 20, 60)]
    cuts = []
    for P in bodies[:5] + bodies[-4:]:
        for _ in range(3):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            lo, hi = P.support_interval(n)
            # A generic cut, then cuts 1-4 eps either side of a vertex, where
            # crossing points land within the clip's merge tolerance.
            offsets = [float(rng.uniform(lo, hi))]
            vertex = float(P.coords[int(rng.integers(len(P.vertices)))] @ n)
            offsets += [vertex + m * P.eps for m in (-4, -3, -2, -1, 1, 2, 3, 4)]
            cuts += [(P, side * n, side * d) for d in offsets for side in (1, -1)]
    return bodies, cuts


def _topology_bodies():
    bodies, cuts = _digest_cuts()
    pieces = [(P, clip_halfspace3(P, m, e)) for P, m, e in cuts]
    return bodies + [piece for P, piece in pieces if piece is not None and piece is not P]


# sha256 over off_dumps of every body and piece of _topology_bodies(): pins
# the clip's output byte for byte, merge-path pieces included.
TOPOLOGY_BODIES_OFF_SHA256 = "7b72de6ae588d8e9744e373c833aa5192ef90136d88e681039fe5bc67cb0d216"


def test_cross3_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(13)
    for shape in ((3,), (40, 3)):
        for _ in range(200):
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
            b = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                assert np.array_equal(_cross3(a, b), np.cross(a, b), equal_nan=True)
    # Rows against one vector broadcast as np.cross broadcasts them.
    a, b = rng.standard_normal((5, 3)), rng.standard_normal(3)
    assert np.array_equal(_cross3(a, b), np.cross(a, b))


def test_rowdot_is_the_vector_dot_bit_for_bit():
    # classify3's saddle pass rests on this: each row is numpy's vector dot,
    # as 1-D ``@`` and ``np.linalg.norm`` compute it, for contiguous rows and
    # for rows strided as classify3 reads its edges' two slot frames.
    rng = np.random.default_rng(17)
    for _ in range(50):
        scale = 10.0 ** rng.uniform(-150, 150, (500, 1))
        a = rng.standard_normal((500, 3)) * scale
        pairs = rng.standard_normal((500, 2, 3)) * scale[:, None]
        for x, y in ((a, pairs[:, 1]), (pairs[:, 0], a), (pairs[:, 0], pairs[:, 1])):
            assert np.array_equal(_rowdot(x, y), [u @ v for u, v in zip(x, y)])
        assert np.array_equal(np.sqrt(_rowdot(a, a)), [np.linalg.norm(u) for u in a])


def test_batched_matrix_vector_is_the_clip_product_bit_for_bit():
    # _rim_order reads its rim angles as ``np.matmul(spread, c[:, :, None])``,
    # the evaluator's rows padded with zeros to the longest rim; each rim's
    # prefix must be the product the clip makes of that rim alone.
    rng = np.random.default_rng(19)
    for _ in range(50):
        q, K = int(rng.integers(1, 40)), int(rng.integers(3, 30))
        k = rng.integers(3, K + 1, q)
        scale = 10.0 ** rng.uniform(-150, 150, (q, 1, 1))
        spread = rng.standard_normal((q, K, 3)) * scale
        spread[np.arange(K) >= k[:, None]] = 0.0
        c = rng.standard_normal((q, 3))
        got = np.matmul(spread, c[:, :, None])[..., 0]
        for i in range(q):
            alone = np.matmul(spread[None, i, : k[i]], c[i, :, None])[0, :, 0]
            assert np.array_equal(got[i, : k[i]], alone)
            assert np.array_equal(alone, spread[i, : k[i]] @ c[i])


def _planted_points(rng, scale):
    """Points at ``scale`` and a radius r, with pairs planted r apart along an
    axis and r (1 ± 1e-15) apart along random unit vectors."""
    n = int(rng.integers(3, 40))
    if rng.random() < 0.5:
        # A dyadic grid, where many squared distances are r * r exactly.
        step = 2.0 ** np.round(np.log2(scale)) / 8
        v = rng.integers(-16, 17, (n, 3)) * step
        r = step * int(rng.integers(1, 9))
    else:
        v = rng.standard_normal((n, 3)) * scale
        r = scale * 10.0 ** rng.uniform(-2, 0)
    base = v[rng.integers(0, n, 6)]
    u = rng.standard_normal((4, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    axis = np.eye(3)[rng.integers(0, 3)] * r
    planted = [base[0] + axis, base[1] - axis]
    planted += [b + f * r * w for b, f, w in zip(base[2:], (1 - 1e-15, 1.0, 1 + 1e-15, 1 - 1e-15), u)]
    return np.vstack([v, planted]), r


def test_close_pairs_are_the_kd_tree_pairs():
    # The clip merges the pairs _close_pairs finds; cKDTree.query_pairs, which
    # the clip used before, is the oracle, ties at exactly r included.
    from scipy.spatial import cKDTree

    def pair_set(pairs):
        found = [tuple(sorted(p)) for p in pairs.tolist()]
        assert len(set(found)) == len(found)
        return set(found)

    rng = np.random.default_rng(23)
    ties = 0
    for e in range(-6, 7):
        for _ in range(150):
            v, r = _planted_points(rng, 10.0**e)
            got = _close_pairs(v, r)
            assert pair_set(got) == cKDTree(v).query_pairs(r)
            d = v[got[:, 0]] - v[got[:, 1]]
            ties += int(((d * d).sum(1) == r * r).sum())
    assert ties > 1000
    for n in (0, 1, 2):
        v = np.random.default_rng(n).standard_normal((n, 3))
        assert pair_set(_close_pairs(v, 5.0)) == cKDTree(v).query_pairs(5.0)
        assert _close_pairs(v, 5.0).shape == (n * (n - 1) // 2, 2)


class TestTopology:
    def test_clip_pieces_match_recorded_digest(self):
        h = hashlib.sha256()
        for P in _topology_bodies():
            h.update(off_dumps(P).encode())
        assert h.hexdigest() == TOPOLOGY_BODIES_OFF_SHA256

    def test_tuple_views_round_trip(self):
        for P in _topology_bodies():
            Q = ConvexPolyhedron3(P.vertices, P.faces)
            assert Q.coords.dtype == P.coords.dtype and np.array_equal(Q.coords, P.coords)
            for got, want in zip(Q.slot_arrays, P.slot_arrays):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_slot_derived_topology_matches_oracle(self):
        rng = np.random.default_rng(11)
        zero_area = 0
        for P in _topology_bodies():
            edges, faces, nbrs, tris = _topology_oracle(P)
            assert P.edges == tuple(map(tuple, edges))
            assert P.edge_faces.tolist() == faces
            assert P.fan_triangles.tolist() == tris
            pairs, slot_edge = P.edge_pairing
            tails, heads, _, _ = P.slot_arrays
            assert np.array_equal(pairs[slot_edge], np.sort(np.column_stack([tails, heads]), axis=1))
            # _vertex_worst against the same arithmetic over the oracle's
            # sorted neighbors, at the centroid and two random points.  A
            # piece with a zero-area face has no edge frames; the probes
            # reject it before they reach _vertex_worst.
            try:
                P.edge_frames
            except DegenerateInput:
                zero_area += 1
                continue
            owner = np.repeat(np.arange(len(P.vertices)), [len(s) for s in nbrs])
            flat = np.asarray([j for s in nbrs for j in s], dtype=np.intp)
            rel = P.coords[flat] - P.coords[owner]
            rel /= np.linalg.norm(rel, axis=1)[:, None]
            base = np.einsum("ij,ij->i", rel, P.coords[owner])
            starts = np.concatenate([[0], np.cumsum([len(s) for s in nbrs])])
            lo, hi = P.coords.min(0), P.coords.max(0)
            for q in [np.array(centroid3(P)), *rng.uniform(lo, hi, (2, 3))]:
                want = np.minimum.reduceat(rel @ q - base, starts[:-1])
                assert _vertex_worst(P, q).tobytes() == want.tobytes()
        assert zero_area == 6  # of 436 bodies and pieces


class TestBoundingBox:
    def test_aabb_extents_sorted(self):
        brick = hull3([(x, y, z) for x in (0, 1) for y in (0, 2) for z in (0, 7)])
        bb = aabb(brick)
        assert bb.extents == pytest.approx((1.0, 2.0, 7.0), abs=1e-14)
        assert bb.center == pytest.approx((0.5, 1.0, 3.5), abs=1e-14)
        assert bb.contains((0.5, 1.0, 3.5))
        assert not bb.contains((0.5, 1.0, 7.2))

    def test_frame_columns_follow_sorting(self):
        brick = hull3([(x, y, z) for x in (0, 7) for y in (0, 1) for z in (0, 2)])
        bb = aabb(brick)
        # Shortest extent is along y, so the first frame column is the y axis.
        assert abs(bb.frame[:, 0] @ np.array([0, 1, 0])) == pytest.approx(1.0)
        assert abs(bb.frame[:, 2] @ np.array([1, 0, 0])) == pytest.approx(1.0)

    def test_rotated_frame_never_tighter_than_volume(self, rng):
        h = random_hull3(rng, 30)
        vol = volume(h)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            bb = bounding_box(h, q)
            a, b, c = bb.extents
            assert a * b * c >= vol - 1e-12

    def test_bad_frame_rejected(self):
        with pytest.raises(ValueError):
            bounding_box(unit_box(), np.array([[1, 0, 0], [0, 2, 0], [0, 0, 1.0]]))


class TestPlatonic:
    COUNTS = {
        "tetra": (4, 6, 4),
        "cube": (8, 12, 6),
        "octa": (6, 12, 8),
        "dodeca": (20, 30, 12),
        "icosa": (12, 30, 20),
    }

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_counts_surface_center(self, name):
        P = platonic(name)
        assert (len(P.vertices), len(P.edges), len(P.faces)) == self.COUNTS[name]
        assert surface_area(P) == pytest.approx(1.0, abs=1e-12)
        assert max(abs(c) for c in centroid3(P)) < 1e-12

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_stored_faces_are_the_hull_construction(self, name):
        # The builtins store their face cycles instead of running hull3 (and
        # scipy); each solid, at either scaling, is hull3's bit for bit.
        base = hull3(_PLATONIC_POINTS[name])
        e0 = math.dist(base.vertices[base.edges[0][0]], base.vertices[base.edges[0][1]])
        for edge, factor in ((None, 1.0 / math.sqrt(surface_area(base))), (0.7, 0.7 / e0)):
            P = platonic(name, edge)
            assert P.coords.tobytes() == (base.coords * factor).tobytes()
            assert np.array_equal(P.tails, base.tails) and np.array_equal(P.starts, base.starts)

    def test_unit_surface_cube_edge(self):
        c = platonic("cube")
        a, b = c.edges[0]
        edge = math.dist(c.vertices[a], c.vertices[b])
        assert edge == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-15)

    def test_requested_edge_length(self):
        d = platonic("dodeca", edge=2.0)
        lengths = [math.dist(d.vertices[a], d.vertices[b]) for a, b in d.edges]
        assert min(lengths) == pytest.approx(2.0, abs=1e-12)
        assert max(lengths) == pytest.approx(2.0, abs=1e-12)

    def test_edge_length_must_be_positive_and_finite(self):
        for edge in [0.0, -1.0, math.nan, math.inf]:
            with pytest.raises(ValueError, match="^edge length must be (positive|finite)$"):
                platonic("cube", edge=edge)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            platonic("teapot")


class TestGenerators:
    def test_prism_counts(self):
        P = generator_prism(6, 10.0)
        assert (len(P.vertices), len(P.edges), len(P.faces)) == (12, 18, 8)
        assert volume(P) == pytest.approx(10.0 * 6 * math.sin(math.pi / 3) * math.cos(math.pi / 3), rel=1e-12)

    def test_prism_validation(self):
        with pytest.raises(ValueError):
            generator_prism(2, 1.0)
        with pytest.raises(ValueError):
            generator_prism(5, 0.0)
        for ngon in (5.0, True, np.float64(5)):
            with pytest.raises(ValueError, match="^prism base needs an integer count of at least 3 vertices$"):
                generator_prism(ngon, 1.0)
        assert generator_prism(np.int64(5), 1.0).faces == generator_prism(5, 1.0).faces

    def test_cylinder_counts_and_box(self):
        cyl = generator_truncated_cylinder(1.0, 20.0, 32)
        assert (len(cyl.vertices), len(cyl.edges), len(cyl.faces)) == (194, 416, 224)
        bb = aabb(cyl)
        # Caps are inscribed half spheroids of height 2r: box is exact.
        assert bb.extents == pytest.approx((2.0, 2.0, 24.0), abs=1e-12)
        assert centroid3(cyl) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_cylinder_facet_validation(self):
        with pytest.raises(ValueError):
            generator_truncated_cylinder(1.0, 10.0, 16)
        with pytest.raises(ValueError):
            generator_truncated_cylinder(1.0, 10.0, 34)
        with pytest.raises(ValueError):
            generator_truncated_cylinder(0.0, 10.0, 32)
        for facets in (32.0, True, "32"):
            with pytest.raises(ValueError, match="^facets must be an integer of at least 32$"):
                generator_truncated_cylinder(1, 3, facets=facets)

    def test_ellipsoid_mesh_volume(self):
        E = generator_ellipsoid_mesh(1.0, 4.0, 16.0, facets=2000)
        assert len(E.faces) == 2000
        exact = 4.0 / 3.0 * math.pi * 1.0 * 4.0 * 16.0
        assert volume(E) == pytest.approx(exact, rel=1e-2)
        bb = aabb(E)
        assert bb.extents[2] <= 32.0 + 1e-9  # inscribed


class TestOff:
    def test_round_trip_bit_faithful(self, rng):
        h = random_hull3(rng, 25)
        text = off_dumps(h)
        back = off_loads(text)
        assert back.vertices == h.vertices
        assert {frozenset(f) for f in back.faces} == {frozenset(f) for f in h.faces}
        assert off_dumps(back) == text

    def test_file_round_trip(self, tmp_path):
        c = platonic("cube")
        path = str(tmp_path / "cube.off")
        write_off(c, path)
        back = read_off(path)
        assert back.vertices == c.vertices

    def test_comments_ignored(self):
        t = platonic("tetra", edge=1.0)
        text = "# made by hand\n" + off_dumps(t).replace("OFF\n", "OFF\n# counts follow\n")
        assert off_loads(text).vertices == t.vertices

    def test_malformed_rejected(self):
        with pytest.raises(DegenerateInput):
            off_loads("not an off file")
        with pytest.raises(DegenerateInput):
            off_loads("OFF\n4 4 6\n0 0 0\n")  # truncated
        # Valid syntax but degenerate geometry is also rejected.
        with pytest.raises(DegenerateInput):
            off_loads("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
