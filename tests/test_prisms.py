"""Right prisms tie the 3D stack to the 2D stack.

The right prism over a convex polygon Q, of height h and centred on z = 0,
has Q's equilibria twice over plus its two caps: at the prism's centroid a
stable side face for each stable foot of Q, a saddle on the top and the
bottom edge of each such face and on the vertical edge of each unstable
vertex, and an unstable vertex at both ends of that edge.  A vertical cut of
the prism is the prism over Q's cut, and the prism's nearest stable-count
wall is Q's nearest caustic line, half the height or Q's nearest edge line.
Each identity compares the two stacks' own kernels on the same input.
"""

import math

import numpy as np
import pytest

from equirobust.equilib2d import equilibria
from equirobust.equilib3d import _CutEvaluator3, classify3, rho_in_exact_3d
from equirobust.geom2d import regular_ngon
from equirobust.geom3d import centroid3, polyhedron_new, surface_area
from equirobust.robust2d import _CutEvaluator, rho_in_exact
from equirobust.util import signed_families

from conftest import random_convex_polygon


def prism(Q, h):
    """The right prism over ``Q`` of height ``h``, centred on z = 0."""
    xy = np.asarray(Q.vertices)
    n = len(xy)
    coords = np.vstack([np.column_stack([xy, np.full(n, -h / 2)]), np.column_stack([xy, np.full(n, h / 2)])])
    faces = [list(range(n - 1, -1, -1)), list(range(n, 2 * n))]
    faces += [[k, (k + 1) % n, n + (k + 1) % n, n + k] for k in range(n)]
    return polyhedron_new(coords, faces)


def _cases(seed, count):
    """(Q, h): regular n-gons and ``count`` random convex polygons, each with a
    height from 0.3 to 4 of its diameter."""
    rng = np.random.default_rng(seed)
    bases = [regular_ngon(S) for S in (3, 4, 5, 6, 7, 8, 12, 16)]
    bases += [random_convex_polygon(rng, int(rng.integers(3, 13))) for _ in range(count)]
    return [(Q, float(rng.uniform(0.3, 4.0)) * Q.diameter) for Q in bases]


class TestCentroidClass:
    def test_prism_class_is_twice_the_polygon_class_plus_caps(self):
        checked = 0
        for Q, h in _cases(3, 112):
            eq2 = equilibria(Q, Q.centroid)
            assert not eq2.any_degenerate
            P = prism(Q, h)
            eq3 = classify3(P, centroid3(P))
            assert not eq3.any_degenerate
            S2, U2 = eq2.S, eq2.U
            assert (eq3.S, eq3.H, eq3.U) == (S2 + 2, U2 + 2 * S2, 2 * U2), (Q.vertices, h)
            checked += 1
        assert checked == 120


class TestVerticalCuts:
    def test_evaluators_agree_on_vertical_cuts(self):
        # Both evaluators take the same families and (fam, e): M3 is M2 with
        # a zero z component.  Each family cuts its grid, where the removed
        # fractions agree to rounding, and twice within a few eps of a vertex,
        # where each clip snaps to its own tolerance: there they agree within
        # the two evaluators' slacks, and either may not certify.
        rng = np.random.default_rng(11)
        both = cuts = 0
        for i, (Q, h) in enumerate(_cases(5, 32)):
            theta = (np.arange(8) + 0.37 * (i % 3 + 1)) * (math.pi / 8)
            normals = np.column_stack([np.cos(theta), np.sin(theta)])
            proj = np.asarray(Q.vertices) @ normals.T
            M2, E, _ = signed_families(normals, proj.min(0), proj.max(0), 10)
            M3 = np.column_stack([M2, np.zeros(len(M2))])
            near = np.arange(len(M2)).repeat(2)
            at = (M2[near] * np.asarray(Q.vertices)[rng.integers(0, Q.n, len(near))]).sum(1)
            fam = np.concatenate([np.arange(len(M2)).repeat(E.shape[1]), near])
            e = np.concatenate([E.ravel(), at + rng.integers(-4, 5, len(near)) * Q.eps])
            evaluate2, evaluate3 = _CutEvaluator(Q, M2), _CutEvaluator3(prism(Q, h), M3)
            kept, S2 = evaluate2(fam, e)
            rel, S3, U3 = evaluate3(fam, e)
            ok = (S2 >= 0) & (S3 >= 0)
            assert (S3[ok] == S2[ok] + 2).all() and (U3[ok] == 2 * S2[ok]).all(), (Q.vertices, h)
            bound = np.where(np.arange(len(e)) < E.size, 1e-12, evaluate2.delta + evaluate3.delta)
            diff = np.abs(rel - (1.0 - kept))
            assert (diff <= bound)[ok].all(), (Q.vertices, h, float(diff[ok].max()))
            both += int(ok.sum())
            cuts += len(e)
        assert cuts == 40 * 192
        assert both > 0.8 * cuts


class TestInternalRobustness:
    def test_nearest_wall_is_caustic_half_height_or_edge_line(self):
        # The top and bottom caps' walls are the side-face planes, so Q's
        # distance to its edge lines counts as well as its caustic lines.
        checked = skipped = margin_wins = 0
        for Q, h in _cases(5, 292):
            c = Q.centroid
            d2 = rho_in_exact(Q, c).value * Q.perimeter
            m2 = Q.interior_margin(c)
            if min(abs(h / 2 - d2), abs(h / 2 - m2)) <= 1e-9 * h:
                skipped += 1
                continue
            P = prism(Q, h)
            raw = rho_in_exact_3d(P, centroid3(P)).value * math.sqrt(surface_area(P))
            want = min(d2, h / 2, m2)
            assert raw == pytest.approx(want, rel=1e-9), (Q.vertices, h)
            checked += 1
            margin_wins += m2 < min(d2, h / 2)
        assert checked + skipped == 300 and skipped <= 3
        # The edge lines are the nearest wall on some prisms.
        assert margin_wins > 0
