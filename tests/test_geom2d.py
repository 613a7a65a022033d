import math

import numpy as np
import pytest

from equirobust import geom2d
from equirobust.errors import DegenerateInput, NonConvexInput
from equirobust.geom2d import (
    ConvexPolygon2,
    Ray2,
    area_outside_disk,
    clip_halfplane_nd,
    dist_point_to_ray,
    polygon_from_json,
    polygon_new,
    polygon_to_json,
    regular_ngon,
    strip_cover_admits,
)

from conftest import random_convex_polygon, unit_square


class TestConstruction:
    def test_canonical_start_and_ccw(self):
        # Clockwise input is reversed; start vertex is lowest-then-leftmost.
        p = polygon_new([(0, 1), (1, 1), (1, 0), (0, 0)])
        assert p.vertices[0] == (0.0, 0.0)
        assert p.area > 0

    def test_same_cycle_same_canonical_form(self):
        a = polygon_new([(1, 1), (0, 1), (0, 0), (1, 0)])
        b = polygon_new([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert a == b

    def test_collinear_triple_rejected(self):
        with pytest.raises(DegenerateInput):
            polygon_new([(0, 0), (1, 0), (2, 0)])

    def test_midpoint_on_edge_rejected(self):
        with pytest.raises(DegenerateInput):
            polygon_new([(0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)])

    def test_shuffled_cycle_rejected(self):
        with pytest.raises(NonConvexInput):
            polygon_new([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_reflex_rejected(self):
        with pytest.raises(NonConvexInput):
            polygon_new([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])

    def test_too_few_vertices(self):
        with pytest.raises(DegenerateInput):
            polygon_new([(0, 0), (1, 0)])


class TestMeasures:
    def test_unit_square(self):
        p = unit_square()
        assert p.area == pytest.approx(1.0, abs=1e-15)
        assert p.perimeter == pytest.approx(4.0, abs=1e-15)
        assert p.centroid == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_hexagon_area(self):
        # Regular hexagon with unit circumradius.
        p = regular_ngon(6, circumradius=1.0)
        assert p.area == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_triangle_centroid_is_vertex_mean(self):
        p = polygon_new([(0, 0), (4, 0), (0, 3)])
        assert p.centroid == pytest.approx((4 / 3, 1.0), abs=1e-14)

    def test_centroid_invariant_under_translation(self, rng):
        for _ in range(20):
            poly = random_convex_polygon(rng, int(rng.integers(4, 10)))
            dx, dy = rng.normal(size=2)
            moved = polygon_new([(x + dx, y + dy) for x, y in poly.vertices])
            cx, cy = poly.centroid
            assert moved.centroid == pytest.approx((cx + dx, cy + dy), abs=1e-12)


class TestRegularNgon:
    def test_unit_perimeter_default(self):
        for s in range(3, 65):
            p = regular_ngon(s)
            assert p.perimeter == pytest.approx(1.0, abs=1e-12)

    def test_square_apothem(self):
        p = regular_ngon(4)
        # Distance from the center to each edge is 1/8 for unit perimeter.
        assert p.interior_margin((0.0, 0.0)) == pytest.approx(0.125, abs=1e-15)

    def test_hexagon_apothem(self):
        p = regular_ngon(6)
        expected = (1.0 / 12.0) / math.tan(math.pi / 6.0)
        assert p.interior_margin((0.0, 0.0)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1443376, abs=1e-7)

    def test_circumradius_scaling(self):
        p = regular_ngon(5, circumradius=2.0)
        for x, y in p.vertices:
            assert math.hypot(x, y) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("S", [5.0, True, "5", None, 2])
    def test_count_must_be_an_integer_of_at_least_3(self, S):
        with pytest.raises(ValueError, match="^a regular polygon needs an integer S >= 3$"):
            regular_ngon(S)


class TestClip:
    def test_square_diagonal_cut(self):
        p = unit_square()
        # Keep the side of x + y <= 0.5.
        out = clip_halfplane_nd(p, 1.0, 1.0, 0.5)
        assert out is not None
        assert out.area == pytest.approx(0.125, abs=1e-15)
        assert out.n == 3

    def test_cut_missing_polygon_returns_same_object(self):
        p = unit_square()
        # Keep y >= -1, which holds the whole square.
        assert clip_halfplane_nd(p, 0.0, -1.0, 1.0) is p

    def test_cut_swallowing_polygon_returns_none(self):
        p = unit_square()
        assert clip_halfplane_nd(p, 1.0, 0.0, -1.0) is None

    def test_keep_side_orientation(self):
        # The kept side is the one the normal points away from.
        p = unit_square()
        left = clip_halfplane_nd(p, 1.0, 0.0, 0.5)
        right = clip_halfplane_nd(p, -1.0, 0.0, -0.5)
        assert left.centroid[0] < 0.5 < right.centroid[0]

    def test_area_additivity(self, rng):
        for _ in range(50):
            poly = random_convex_polygon(rng, int(rng.integers(4, 12)))
            theta = rng.uniform(0, math.pi)
            nx, ny = math.cos(theta), math.sin(theta)
            lo, hi = poly.support_interval(nx, ny)
            d = rng.uniform(lo, hi)
            a = clip_halfplane_nd(poly, nx, ny, d)
            b = clip_halfplane_nd(poly, -nx, -ny, -d)
            total = (a.area if a is not None else 0.0) + (b.area if b is not None else 0.0)
            assert total == pytest.approx(poly.area, rel=1e-9)

    def test_centroid_additivity(self, rng):
        for _ in range(30):
            poly = random_convex_polygon(rng, int(rng.integers(4, 12)))
            theta = rng.uniform(0, math.pi)
            nx, ny = math.cos(theta), math.sin(theta)
            lo, hi = poly.support_interval(nx, ny)
            d = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
            a = clip_halfplane_nd(poly, nx, ny, d)
            b = clip_halfplane_nd(poly, -nx, -ny, -d)
            if a is None or b is None or a is poly or b is poly:
                continue
            cx = (a.area * a.centroid[0] + b.area * b.centroid[0]) / poly.area
            cy = (a.area * a.centroid[1] + b.area * b.centroid[1]) / poly.area
            assert (cx, cy) == pytest.approx(poly.centroid, abs=1e-9 * poly.diameter)

    def test_cut_through_vertices_is_clean(self):
        p = unit_square()
        out = clip_halfplane_nd(p, 1.0, 1.0, 1.0)  # diagonal through (1,0) and (0,1)
        assert out is not None
        assert out.n == 3
        assert out.area == pytest.approx(0.5, abs=1e-12)

    def test_pieces_match_public_constructor(self, rng):
        # Clip pieces skip the public constructor's checks; rebuilding each
        # one through it must give the same vertices and the same diameter,
        # also for cuts a few eps from a vertex, where the cleanup drops points.
        polys = [regular_ngon(S) for S in (3, 4, 5, 6, 7, 8, 12, 16, 32, 64)]
        polys += [random_convex_polygon(rng, int(rng.integers(3, 16))) for _ in range(10)]
        pieces = dropped = 0
        for P in polys:
            for theta in (0.3, math.pi / P.n):
                nx, ny = math.cos(theta), math.sin(theta)
                lo, hi = P.support_interval(nx, ny)
                offsets = list(np.linspace(lo, hi, 9)[1:-1])
                near = (0, 0.5, -0.5, 1, -1, 2, -2, 4, -4)
                offsets += [x * nx + y * ny + f * P.eps for x, y in P.vertices for f in near]
                for d in offsets:
                    for side in (1, -1):
                        piece = clip_halfplane_nd(P, side * nx, side * ny, side * d)
                        if piece is None or piece is P:
                            continue
                        pieces += 1
                        ring = geom2d._clip_ring(P.vertices, side * nx, side * ny, side * float(d), P.eps)
                        dropped += piece.n < len(ring)
                        rebuilt = ConvexPolygon2(piece.vertices)
                        assert rebuilt.vertices == piece.vertices
                        assert rebuilt.diameter == piece.diameter
                        assert all(type(c) is float for v in piece.vertices for c in v)
        assert pieces > 3000
        assert dropped > 0, f"no piece of {pieces} took the dropped-point branch"


class TestAreaOutsideDisk:
    def test_square_incircle(self):
        p = unit_square()
        assert area_outside_disk(p, (0.5, 0.5), 0.5) == pytest.approx(1.0 - math.pi / 4.0, abs=1e-12)

    def test_zero_radius(self):
        p = unit_square()
        assert area_outside_disk(p, (0.5, 0.5), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_covering_disk(self):
        p = unit_square()
        assert area_outside_disk(p, (0.5, 0.5), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_radius(self, rng):
        for _ in range(20):
            poly = random_convex_polygon(rng, int(rng.integers(3, 10)))
            cx, cy = poly.centroid
            cx += rng.normal() * poly.diameter * 0.5  # centers inside and outside
            cy += rng.normal() * poly.diameter * 0.5
            radii = np.sort(rng.uniform(0, 1.5 * poly.diameter, size=8))
            vals = [area_outside_disk(poly, (cx, cy), r) for r in radii]
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_against_monte_carlo(self, rng):
        for _ in range(8):
            poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
            cx, cy = poly.centroid
            cx += rng.normal() * 0.3 * poly.diameter
            cy += rng.normal() * 0.3 * poly.diameter
            r = rng.uniform(0.1, 0.8) * poly.diameter
            exact = area_outside_disk(poly, (cx, cy), r)
            # Rejection sampling over the bounding box.
            verts = np.asarray(poly.vertices)
            lo = verts.min(axis=0)
            hi = verts.max(axis=0)
            m = 200_000
            pts = rng.uniform(lo, hi, size=(m, 2))
            inside_poly = np.ones(m, dtype=bool)
            n = len(verts)
            for i in range(n):
                a = verts[i]
                e = verts[(i + 1) % n] - a
                inside_poly &= (e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])) >= 0
            outside_disk = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) > r
            frac = np.mean(inside_poly & outside_disk)
            box_area = (hi - lo).prod()
            assert exact == pytest.approx(frac * box_area, abs=4.0 * box_area / math.sqrt(m))


class TestStripCover:
    def test_square_center_exact_fit(self):
        p = regular_ngon(4)  # unit perimeter, sides of length 1/4
        assert strip_cover_admits(p, (0.0, 0.0), 0.125)

    def test_square_center_too_big(self):
        p = regular_ngon(4)
        assert not strip_cover_admits(p, (0.0, 0.0), 0.13)

    def test_zero_radius_always_true(self, rng):
        for _ in range(20):
            poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
            q = rng.normal(size=2) * poly.diameter
            assert strip_cover_admits(poly, q, 0.0)

    def test_monotone_in_radius(self, rng):
        for _ in range(30):
            poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
            cx, cy = poly.centroid
            radii = np.sort(rng.uniform(0, poly.diameter, size=6))
            admitted = [strip_cover_admits(poly, (cx, cy), r) for r in radii]
            # Once it fails it must keep failing for larger radii.
            seen_false = False
            for ok in admitted:
                if not ok:
                    seen_false = True
                assert not (seen_false and ok)


class TestDistances:
    def test_point_to_ray_behind_origin(self):
        ray = Ray2((0.0, 0.0), (1.0, 0.0))
        assert dist_point_to_ray((-3.0, 4.0), ray) == pytest.approx(5.0)
        assert dist_point_to_ray((3.0, 4.0), ray) == pytest.approx(4.0)


class TestJson:
    def test_round_trip(self, rng):
        poly = random_convex_polygon(rng, 7)
        text = polygon_to_json(poly)
        back = polygon_from_json(text)
        assert back.vertices == poly.vertices

    def test_reader_enforces_convexity(self):
        with pytest.raises(NonConvexInput):
            polygon_from_json('{"vertices": [[0,0],[1,1],[1,0],[0,1]]}')

    def test_reader_rejects_malformed(self):
        with pytest.raises(DegenerateInput):
            polygon_from_json('{"points": []}')
