import json
import math

import numpy as np
import pytest

from equirobust.equilib2d import (
    equilibria,
    stable_count,
    stable_count_batch,
    stable_points,
    unstable_points,
)
from equirobust.errors import ReferenceOutside
from equirobust.geom2d import polygon_new, regular_ngon

from conftest import (
    boundary_minima_maxima,
    random_convex_polygon,
    random_interior_point,
    rectangle,
    unit_square,
)


class TestStablePoints:
    def test_square_near_corner(self):
        p = unit_square()
        feet = stable_points(p, (0.9, 0.9))
        locs = sorted(f.location for f in feet)
        assert len(feet) == 4
        expected = sorted([(0.9, 0.0), (1.0, 0.9), (0.9, 1.0), (0.0, 0.9)])
        for got, want in zip(locs, expected):
            assert got == pytest.approx(want, abs=1e-12)
        assert not any(f.degenerate for f in feet)

    def test_right_triangle_foot_on_hypotenuse(self):
        p = polygon_new([(0, 0), (4, 0), (0, 3)])
        feet = stable_points(p, p.centroid)
        assert len(feet) == 3
        hyp = [f for f in feet if f.location[0] > 0.5 and f.location[1] > 0.5]
        assert len(hyp) == 1
        assert hyp[0].location == pytest.approx((136 / 75, 41 / 25), abs=1e-12)

    def test_thin_triangle_loses_a_foot(self):
        # The foot on the short slanted edge falls outside that edge.
        p = polygon_new([(0, 0), (1, 0), (0.9, 0.1)])
        feet = stable_points(p, p.centroid)
        assert len(feet) == 2

    def test_reference_on_boundary_rejected(self):
        p = unit_square()
        with pytest.raises(ReferenceOutside):
            stable_points(p, (0.0, 0.5))

    def test_reference_outside_rejected(self):
        p = unit_square()
        with pytest.raises(ReferenceOutside):
            stable_points(p, (2.0, 0.5))
        for q in [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)]:
            with pytest.raises(ReferenceOutside):
                stable_points(p, q)


class TestUnstablePoints:
    def test_square_all_corners(self):
        p = unit_square()
        vs = unstable_points(p, (0.6, 0.5))
        assert len(vs) == 4
        assert all(not v.degenerate for v in vs)

    def test_thin_triangle_two_vertices(self):
        p = polygon_new([(0, 0), (1, 0), (0.9, 0.1)])
        vs = unstable_points(p, p.centroid)
        assert len(vs) == 2


class TestEquilibria:
    def test_square_counts_and_alternation(self):
        p = unit_square()
        eq = equilibria(p, (0.37, 0.52))
        assert eq.S == 4 and eq.U == 4
        kinds = [pt.kind for pt in eq.points]
        for i in range(len(kinds)):
            assert kinds[i] != kinds[(i + 1) % len(kinds)]

    def test_rectangle_counts(self, rng):
        p = rectangle(3.0, 1.0)
        for _ in range(10):
            q = (rng.uniform(0.1, 2.9), rng.uniform(0.1, 0.9))
            eq = equilibria(p, q)
            assert (eq.S, eq.U) == (4, 4)

    def test_thin_triangle_counts(self):
        p = polygon_new([(0, 0), (1, 0), (0.9, 0.1)])
        eq = equilibria(p, p.centroid)
        assert (eq.S, eq.U) == (2, 2)

    def test_S_equals_U_randomized(self, rng):
        for _ in range(300):
            poly = random_convex_polygon(rng, int(rng.integers(3, 13)))
            for _ in range(3):
                q = random_interior_point(rng, poly)
                eq = equilibria(poly, q)
                if eq.any_degenerate:
                    continue
                assert eq.S == eq.U
                assert 2 <= eq.S <= poly.n

    def test_matches_boundary_scan_oracle(self, rng):
        # Independent oracle: dense boundary sampling of the distance function.
        for _ in range(200):
            poly = random_convex_polygon(rng, int(rng.integers(3, 13)))
            q = random_interior_point(rng, poly, margin=1e-3)
            eq = equilibria(poly, q)
            if eq.any_degenerate:
                continue
            minima, maxima = boundary_minima_maxima(poly, q, samples=100_000)
            assert eq.S == minima
            assert eq.U == maxima

    def test_rigid_motion_equivariance(self, rng):
        for _ in range(30):
            poly = random_convex_polygon(rng, int(rng.integers(4, 10)))
            q = random_interior_point(rng, poly)
            eq = equilibria(poly, q)
            ang = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(ang), math.sin(ang)
            tx, ty = rng.normal(size=2)
            move = lambda p: (c * p[0] - s * p[1] + tx, s * p[0] + c * p[1] + ty)
            moved = polygon_new([move(v) for v in poly.vertices])
            eq2 = equilibria(moved, move(q))
            assert (eq2.S, eq2.U) == (eq.S, eq.U)
            locs = sorted(move(pt.location) for pt in eq.points)
            locs2 = sorted(pt.location for pt in eq2.points)
            for a, b in zip(locs, locs2):
                assert a == pytest.approx(b, abs=1e-9 * poly.diameter)

    def test_regular_ngon_from_center(self):
        for s in (3, 4, 5, 6, 9, 12):
            p = regular_ngon(s)
            eq = equilibria(p, (0.0, 0.0))
            assert (eq.S, eq.U) == (s, s)


class TestRelaxedCount:
    def test_matches_equilibria_for_interior_points(self, rng):
        for _ in range(100):
            poly = random_convex_polygon(rng, int(rng.integers(3, 11)))
            q = random_interior_point(rng, poly)
            eq = equilibria(poly, q)
            if eq.any_degenerate:
                continue
            assert stable_count(poly, q) == eq.S

    def test_exterior_point_square(self):
        p = unit_square()
        # Just below the bottom edge: feet on bottom and top edges only.
        assert stable_count(p, (0.5, -0.01)) == 2
        # Far corner direction: single vertex minimum.
        assert stable_count(p, (2.0, 2.0)) == 1

    def test_batch_agrees_with_scalar(self, rng):
        poly = random_convex_polygon(rng, 8)
        qs = rng.normal(size=(200, 2)) * poly.diameter + np.asarray(poly.centroid)
        batch = stable_count_batch(poly, qs)
        for q, c in zip(qs, batch):
            assert stable_count(poly, q) == c

    def test_points_on_edge_normals_count_alone_as_in_a_batch(self):
        # On the line through vertex j normal to edge j, a_j + r·(-e_y, e_x),
        # the foot test t > 0 and the vertex test d_next < 0 are decided by
        # the last bits of rel·e; a point's count must not depend on its
        # batch, and must be the scalar count.
        rng = np.random.default_rng(31)
        P = regular_ngon(64)
        a = np.asarray(P.vertices)
        e = np.roll(a, -1, axis=0) - a
        j = rng.integers(0, len(a), 1000)
        qs = a[j] + rng.uniform(-2.0, 2.0, 1000)[:, None] * np.column_stack([-e[j, 1], e[j, 0]])
        batch = stable_count_batch(P, qs)
        assert np.array_equal(batch, [stable_count_batch(P, qs[k : k + 1])[0] for k in range(len(qs))])
        assert np.array_equal(batch, [stable_count(P, q) for q in qs])

    def test_exterior_matches_scan_oracle(self, rng):
        for _ in range(50):
            poly = random_convex_polygon(rng, int(rng.integers(3, 10)))
            cx, cy = poly.centroid
            q = (cx + rng.normal() * poly.diameter, cy + rng.normal() * poly.diameter)
            minima, _ = boundary_minima_maxima(poly, q, samples=50_000)
            assert stable_count(poly, q) == minima


class TestReportJson:
    def test_shape_and_round_trip(self):
        p = unit_square()
        eq = equilibria(p, (0.4, 0.45))
        obj = json.loads(eq.to_json())
        assert obj["S"] == 4 and obj["U"] == 4
        assert len(obj["points"]) == 8
        for entry in obj["points"]:
            assert set(entry) == {"kind", "x", "y", "carrier", "degenerate"}
        assert obj == eq.as_dict()
