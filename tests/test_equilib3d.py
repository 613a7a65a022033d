import math

import numpy as np
import pytest

from equirobust.errors import (
    DegenerateInput,
    DegeneratePresent,
    ReferenceOutside,
)
from equirobust.geom3d import (
    aabb,
    centroid3,
    clip_halfspace3,
    generator_prism,
    generator_truncated_cylinder,
    hull3,
    platonic,
    surface_area,
    volume,
)
from equirobust.equilib3d import (
    EquilibriumClass,
    EquilibriumPoint3,
    EquilibriumSet3,
    bounding_box_predicates,
    centroid_quarter_width_check,
    classify3,
    ellipsoid_class,
    example_truncated_tetra_fixture,
    plane_truncation_search,
    poincare_hopf_check,
    rho_in_exact_3d,
    rho_in_sampled_3d,
    stable_count3,
)
from equirobust.equilib3d import _search_counts
from equirobust.util import BLOCK_CELLS

from conftest import random_hull3, random_interior_point3

RHO_CUBE = 1.0 / (2.0 * math.sqrt(6.0))
RHO_TETRA = 1.0 / (2.0 * 3.0**0.75)
# Face apothem of the unit-surface dodecahedron: 1 / sqrt(60 tan 36°).
RHO_DODECA = 0.15145857081895217


def brick(a, b, c):
    return hull3([(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)])


class TestClassify:
    def test_cube_center(self):
        eq = classify3(platonic("cube"), (0, 0, 0))
        assert (eq.S, eq.H, eq.U) == (6, 12, 8)
        assert not eq.any_degenerate
        assert poincare_hopf_check(eq)

    def test_tetra_center(self):
        eq = classify3(platonic("tetra"), (0, 0, 0))
        assert (eq.S, eq.H, eq.U) == (4, 6, 4)

    @pytest.mark.parametrize("name", ["tetra", "cube", "octa", "dodeca", "icosa"])
    def test_center_counts_match_face_lattice(self, name):
        # From the center every face, edge and vertex carries one equilibrium.
        P = platonic(name)
        eq = classify3(P, (0, 0, 0))
        assert eq.S == len(P.faces)
        assert eq.H == len(P.edges)
        assert eq.U == len(P.vertices)

    def test_brick_feet_at_face_centers(self):
        B = brick(1.0, 2.0, 7.0)
        eq = classify3(B, centroid3(B))
        assert (eq.S, eq.H, eq.U) == (6, 12, 8)
        feet = sorted(p.location for p in eq.points if p.kind == "stable")
        assert feet[0] == pytest.approx((0.0, 1.0, 3.5), abs=1e-12)
        assert feet[-1] == pytest.approx((1.0, 1.0, 3.5), abs=1e-12)

    def test_cube_saddle_carriers_are_the_edges(self):
        c = platonic("cube")
        eq = classify3(c, (0, 0, 0))
        saddle_edges = {tuple(sorted(p.carrier)) for p in eq.points if p.kind == "saddle"}
        assert saddle_edges == set(c.edges)
        for p in eq.points:
            if p.kind == "saddle":
                i, j = p.carrier
                mid = (np.asarray(c.vertices[i]) + np.asarray(c.vertices[j])) / 2.0
                assert p.location == pytest.approx(tuple(mid), abs=1e-12)

    def test_off_center_reference(self):
        c = platonic("cube")
        h = 1.0 / (2.0 * math.sqrt(6.0))  # half edge
        eq = classify3(c, (0.7 * h, -0.5 * h, 0.3 * h))
        assert not eq.any_degenerate
        assert eq.S - eq.H + eq.U == 2

    def test_reference_outside_rejected(self):
        c = platonic("cube")
        with pytest.raises(ReferenceOutside):
            classify3(c, (1.0, 1.0, 1.0))
        with pytest.raises(ReferenceOutside):
            classify3(c, (0.0, 0.0, 0.5))  # on/beyond the top face plane
        with pytest.raises(ReferenceOutside, match="^reference point must be strictly interior$"):
            rho_in_exact_3d(c, (1.0, 1.0, 1.0))
        for q in [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)]:
            with pytest.raises(ReferenceOutside):
                classify3(c, q)
            with pytest.raises(ReferenceOutside):
                rho_in_sampled_3d(c, q, directions=128)

    def test_degenerate_flagged_not_resolved(self):
        # Put the reference exactly on a wall: inward from an edge midpoint,
        # perpendicular to the face.  The face foot then lands on the edge.
        # Obtuse dihedrals keep such points interior (unlike on a box).
        d = platonic("dodeca")
        k = 0
        n = d.plane_normals[k]
        face = d.faces[k]
        mid = (d.coords[face[0]] + d.coords[face[1]]) / 2.0
        q = mid - 0.05 * n
        assert d.interior_margin(q) > 10 * d.eps
        eq = classify3(d, q)
        assert eq.any_degenerate
        with pytest.raises(DegeneratePresent):
            poincare_hopf_check(eq)
        from equirobust.errors import DegenerateConfiguration

        with pytest.raises(DegenerateConfiguration):
            rho_in_exact_3d(d, q)

    def test_euler_relation_randomized(self, rng):
        for _ in range(30):
            P = random_hull3(rng, 30)
            for _ in range(3):
                p = random_interior_point3(rng, P)
                eq = classify3(P, p)
                if eq.any_degenerate:
                    continue
                assert eq.S - eq.H + eq.U == 2
                assert eq.S >= 1 and eq.U >= 1

    def test_hand_built_set_passes_check(self):
        pts = (
            EquilibriumPoint3("stable", (0, 0, -1), 0),
            EquilibriumPoint3("stable", (0, 0, 1), 1),
            EquilibriumPoint3("saddle", (1, 0, 0), (0, 1)),
            EquilibriumPoint3("saddle", (-1, 0, 0), (2, 3)),
            EquilibriumPoint3("unstable", (0, 1, 0), 2),
            EquilibriumPoint3("unstable", (0, -1, 0), 3),
        )
        eq = EquilibriumSet3(reference=(0, 0, 0), points=pts)
        assert (eq.S, eq.H, eq.U) == (2, 2, 2)
        assert poincare_hopf_check(eq)
        d = eq.as_dict()
        assert d["points"][2]["carrier"] == [0, 1]

    def test_serialization_round_trip_text(self):
        eq = classify3(platonic("tetra"), (0, 0, 0))
        text = eq.to_json()
        assert '"S": 4' in text and '"H": 6' in text and '"U": 4' in text

    def test_equivariance_under_rotation(self, rng):
        P = random_hull3(rng, 25)
        p = random_interior_point3(rng, P)
        eq = classify3(P, p)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.standard_normal(3)
        P2 = hull3(P.coords @ q.T + shift)
        eq2 = classify3(P2, q @ np.asarray(p) + shift)
        assert (eq2.S, eq2.H, eq2.U) == (eq.S, eq.H, eq.U)


def _classify3_reference(P, p):
    """``classify3`` with the saddle test it had before reading the slots'
    in-face edge normals: the two face normals ordered around the edge by a
    cross product, then one cross product per wedge side."""
    eq = classify3(P, p)
    q = np.asarray(p, dtype=float)
    eps = P.eps
    v = P.coords
    saddles = []
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
        if wn <= eps:
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
        saddles.append(EquilibriumPoint3("saddle", tuple(foot), (i, j), near_t or near_w))
    stable = [e for e in eq.points if e.kind == "stable"]
    unstable = [e for e in eq.points if e.kind == "unstable"]
    return EquilibriumSet3(eq.reference, tuple(stable + saddles + unstable))


def _saddle_bodies():
    rng = np.random.default_rng(31)
    bodies = [platonic(name) for name in ("tetra", "cube", "octa", "dodeca", "icosa")]
    bodies += [generator_prism(k, 1.0) for k in (3, 6)]
    bodies.append(generator_truncated_cylinder(1, 3))
    bodies += [random_hull3(rng, n) for n in (10, 25, 60)]
    return bodies


class TestSaddleReference:
    # Offsets, in eps, of the reference from one side of an edge's normal
    # wedge.  At exactly +-1 eps the two tests round differently on either
    # side of the tolerance, so those offsets are left out.
    OFFSETS = (0.0, 0.5, -0.5, 1.5, -1.5, 3.0, -3.0)

    def test_matches_cross_product_reference(self):
        rng = np.random.default_rng(37)
        near = flagged = 0
        for P in _saddle_bodies():
            points = [centroid3(P)] + [random_interior_point3(rng, P) for _ in range(4)]
            nu = P.edge_frames[1]
            slot_face = P.slot_arrays[2]
            for e in rng.choice(len(P.edges), size=min(4, len(P.edges)), replace=False):
                i, j = P.edges[e]
                mid = (P.coords[i] + P.coords[j]) / 2.0
                for s in P.edge_slots[e]:
                    # Inward from the edge along the face normal is the wedge
                    # side w·nu = 0; the offset moves across it along nu.
                    n = P.plane_normals[slot_face[s]]
                    for k in self.OFFSETS:
                        q = mid - 0.1 * P.scale * n - k * P.eps * nu[s]
                        if P.interior_margin(q) > P.eps:
                            points.append(q)
                            near += 1
            for q in points:
                eq = classify3(P, q)
                assert eq.to_json() == _classify3_reference(P, q).to_json()
                flagged += any(e.degenerate for e in eq.points if e.kind == "saddle")
        assert near >= 300
        assert flagged >= 100


class TestStableCount:
    def test_center_counts_all_faces(self):
        c = platonic("cube")
        assert stable_count3(c, np.zeros((1, 3)))[0] == 6

    def test_far_axis_point_sees_two_feet(self):
        # Above the cube both the top and bottom plane feet stay inside their
        # faces; the side feet leave theirs.
        c = platonic("cube")
        assert stable_count3(c, np.array([[0.0, 0.0, 10.0]]))[0] == 2

    def test_batch_shapes(self, rng):
        P = random_hull3(rng, 20)
        qs = rng.standard_normal((257, 3))
        counts = stable_count3(P, qs)
        assert counts.shape == (257,)
        assert counts.min() >= 0

    def test_matches_foot_based_count(self):
        rng = np.random.default_rng(11)
        bodies = [platonic(name) for name in ("tetra", "cube", "octa", "dodeca", "icosa")]
        bodies += [generator_prism(k, 1.5) for k in (3, 5, 8)]
        bodies.append(generator_truncated_cylinder(1.0, 3.0))
        bodies += [random_hull3(rng, n) for n in (8, 20, 60)]
        for P in bodies:
            a, nu, u, lengths = P.edge_frames
            slot_face = P.slot_arrays[2]
            lo, hi = P.coords.min(axis=0), P.coords.max(axis=0)
            free = rng.uniform(2 * lo - hi, 2 * hi - lo, size=(400, 3))
            # Points on every slot's wall (its edge line swept along the face
            # normal), pushed 1e-9 of the scale to either side of it.
            t = rng.uniform(0.1, 0.9, len(a)) * lengths
            h = rng.uniform(-0.5, 0.5, len(a)) * P.scale
            on_wall = a + t[:, None] * u + h[:, None] * P.plane_normals[slot_face]
            step = 1e-9 * P.scale * nu
            qs = np.concatenate([free, on_wall - step, on_wall + step])
            assert np.array_equal(stable_count3(P, qs), _foot_based_count(P, qs))

    def test_blocks_match_single_point_calls(self):
        P = generator_truncated_cylinder(1.0, 3.0)
        block = BLOCK_CELLS // len(P.slot_arrays[0])
        qs = np.random.default_rng(5).uniform(-2.5, 2.5, size=(3 * block + 7, 3))
        single = [stable_count3(P, q[None, :])[0] for q in qs]
        assert np.array_equal(stable_count3(P, qs), single)

    @pytest.mark.parametrize("body", ["cylcut", "icosa", "hull12"])
    def test_points_on_slot_walls_count_alone_as_in_a_batch(self, body):
        # On a slot's wall, a + t·u + s·n, its test nu·q < c is decided by the
        # last bits of nu·q; a point's count must not depend on its batch.
        rng = np.random.default_rng(29)
        P = {
            "cylcut": lambda: generator_truncated_cylinder(1.0, 3.0),
            "icosa": lambda: platonic("icosa"),
            "hull12": lambda: random_hull3(rng, 12),
        }[body]()
        a, _, u, lengths = P.edge_frames
        n = P.plane_normals[P.slot_arrays[2]]
        j = rng.integers(0, len(a), 3000)
        t = rng.uniform(-0.5, 1.5, 3000) * lengths[j]
        h = rng.uniform(-1.0, 1.0, 3000) * P.scale
        qs = a[j] + t[:, None] * u[j] + h[:, None] * n[j]
        batch = stable_count3(P, qs)
        assert np.array_equal(batch, [stable_count3(P, qs[k : k + 1])[0] for k in range(len(qs))])


def _foot_based_count(P, qs):
    """Reference count: form every face's plane foot of each query, then take
    the foot's largest signed distance to the face's edge lines."""
    a, nu, _, _ = P.edge_frames
    _, _, slot_face, starts = P.slot_arrays
    n = P.plane_normals
    heights = qs @ n.T - P.plane_offsets
    feet = qs[:, None, :] - heights[:, :, None] * n[None, :, :]
    sd = np.einsum("qsj,sj->qs", feet[:, slot_face, :] - a, nu)
    return (np.maximum.reduceat(sd, starts[:-1], axis=1) < 0.0).sum(axis=1)


class TestInternalRobustness:
    def test_cube_value(self):
        r = rho_in_exact_3d(platonic("cube"), (0, 0, 0))
        assert r.value == pytest.approx(RHO_CUBE, abs=1e-12)
        assert r.witness["type"] == "wall"
        assert r.witness["distance"] == pytest.approx(RHO_CUBE, abs=1e-12)

    def test_tetra_value(self):
        r = rho_in_exact_3d(platonic("tetra"), (0, 0, 0))
        assert r.value == pytest.approx(RHO_TETRA, abs=1e-12)

    def test_dodeca_value_frozen(self):
        r = rho_in_exact_3d(platonic("dodeca"), (0, 0, 0))
        assert r.value == pytest.approx(RHO_DODECA, abs=1e-14)

    @pytest.mark.parametrize("name", ["octa", "icosa"])
    def test_center_wall_is_face_apothem(self, name):
        # For a regular solid the nearest wall sits at the face apothem.
        P = platonic(name)
        k = r = None
        r = rho_in_exact_3d(P, (0, 0, 0))
        k = r.witness["face"]
        center = P.coords[list(P.faces[k])].mean(axis=0)
        a, b = r.witness["edge"]
        edge_mid = (P.coords[a] + P.coords[b]) / 2.0
        apothem = float(np.linalg.norm(edge_mid - center))
        assert r.value == pytest.approx(apothem, abs=1e-12)

    def test_rays_equal_lines_for_interior_reference(self, rng):
        P = random_hull3(rng, 25)
        for _ in range(5):
            p = random_interior_point3(rng, P)
            a = rho_in_exact_3d(P, p, rays_only=False)
            b = rho_in_exact_3d(P, p, rays_only=True)
            assert a.value == b.value
            assert b.details["rays_only"] is True

    def test_scale_invariance(self):
        c = platonic("cube")
        big = hull3(c.coords * 37.0)
        assert rho_in_exact_3d(big, (0, 0, 0)).value == pytest.approx(RHO_CUBE, rel=1e-12)

    def test_perturbed_cube_collapses(self, rng):
        # Mesh noise introduces walls through the face interiors, so the
        # normalized robustness drops well below the exact cube value.
        c = platonic("cube")
        noisy = hull3(c.coords * (1.0 + 0.01 * rng.standard_normal(c.coords.shape)))
        noisy = hull3(noisy.coords / math.sqrt(surface_area(noisy)))
        r = rho_in_exact_3d(noisy, centroid3(noisy))
        assert r.value < 0.6 * RHO_CUBE

    @pytest.mark.parametrize("name,expect", [("cube", RHO_CUBE), ("dodeca", RHO_DODECA), ("tetra", RHO_TETRA)])
    def test_sampled_matches_exact_platonic(self, name, expect):
        P = platonic(name)
        r = rho_in_sampled_3d(P, (0, 0, 0), directions=512)
        assert abs(r.value - expect) <= 5e-3 * expect
        assert r.method == "sampled"

    def test_sampled_matches_exact_random(self, rng):
        for _ in range(3):
            P = random_hull3(rng, 20)
            p = random_interior_point3(rng, P, margin=0.05)
            ex = rho_in_exact_3d(P, p).value
            sa = rho_in_sampled_3d(P, p, directions=512).value
            # Sampling can only overshoot the directional minimum.
            assert sa >= ex - 1e-6
            assert sa <= ex * 1.05

    def test_sampled_direction_validation(self):
        with pytest.raises(ValueError):
            rho_in_sampled_3d(platonic("cube"), (0, 0, 0), directions=64)

    @pytest.mark.parametrize("directions", [128.5, True, np.float64(128)])
    def test_sampled_directions_must_be_an_integer(self, directions):
        with pytest.raises(ValueError, match="^directions must be an integer$"):
            rho_in_sampled_3d(platonic("cube"), (0, 0, 0), directions=directions)

    def test_sampled_numpy_integer_directions_are_stored_as_int(self):
        rep = rho_in_sampled_3d(platonic("cube"), (0, 0, 0), directions=np.int64(128))
        assert type(rep.details["directions"]) is int
        assert rep.to_json() == rho_in_sampled_3d(platonic("cube"), (0, 0, 0), directions=128).to_json()

    @pytest.mark.parametrize("tol_step", [0.0, -1e-6, math.nan, math.inf, -math.inf])
    def test_sampled_tol_step_validation(self, tol_step):
        with pytest.raises(ValueError, match="^tol_step must be a positive finite number$"):
            rho_in_sampled_3d(platonic("cube"), (0, 0, 0), tol_step=tol_step)


class TestBoxPredicates:
    def test_elongated_brick(self):
        B = brick(1.0, 1.0, 7.0)
        out = bounding_box_predicates(B, aabb(B))
        assert out["elongation_implies_two_unstable"] == "checked-true"
        assert out["flatness_implies_two_stable"] == "nonapplicable"

    def test_flat_brick(self):
        B = brick(0.2, 1.0, 1.2)
        out = bounding_box_predicates(B, aabb(B))
        assert out["flatness_implies_two_stable"] == "checked-true"
        assert out["elongation_implies_two_unstable"] == "nonapplicable"

    def test_cube_triggers_neither(self):
        c = platonic("cube")
        out = bounding_box_predicates(c, aabb(c))
        assert set(out.values()) == {"nonapplicable"}

    def test_capped_cylinder_elongation(self):
        cyl = generator_truncated_cylinder(1.0, 20.0, 32)
        out = bounding_box_predicates(cyl, aabb(cyl))
        assert out["elongation_implies_two_unstable"] == "checked-true"

    def test_quarter_width_cube(self):
        c = platonic("cube")
        assert centroid_quarter_width_check(c, aabb(c))

    def test_quarter_width_extremal_corner_tetra(self):
        # Centroid at (1/4, 1/4, 1/4): exactly a quarter width from three box
        # faces — the non-strict bound holds with equality.
        T = hull3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert centroid_quarter_width_check(T, aabb(T))

    def test_quarter_width_randomized(self, rng):
        for _ in range(40):
            P = random_hull3(rng, 15)
            assert centroid_quarter_width_check(P, aabb(P))
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            from equirobust.geom3d import bounding_box

            assert centroid_quarter_width_check(P, bounding_box(P, q))


class TestEllipsoidClass:
    def test_generic_axes(self):
        k = ellipsoid_class(1.0, 2.0, 4.0)
        assert (k.S, k.H, k.U) == (2, 2, 2)
        assert k.as_dict() == {"S": 2, "H": 2, "U": 2}

    def test_lambda_family(self):
        for lam in (1.0, 2.0, 4.0):
            k = ellipsoid_class(1.0, 2.0 * lam, 4.0 * lam * lam)
            assert (k.S, k.U) == (2, 2)
            assert k.S - k.H + k.U == 2

    def test_repeated_axes_rejected(self):
        with pytest.raises(DegenerateInput):
            ellipsoid_class(1.0, 1.0, 2.0)

    def test_invalid_axes(self):
        with pytest.raises(ValueError):
            ellipsoid_class(0.0, 1.0, 2.0)
        for axes in [(math.nan, 1.0, 2.0), (math.inf, 1.0, 2.0), (1.0, 2.0, math.nan)]:
            with pytest.raises(ValueError, match="^semi-axes must be finite$"):
                ellipsoid_class(*axes)

    def test_class_validation(self):
        with pytest.raises(ValueError):
            EquilibriumClass(0, 3)


class TestTruncationFixture:
    def test_fixture_passes_and_values(self):
        P, P2, (rep, rep2) = example_truncated_tetra_fixture()
        assert (len(P.vertices), len(P2.vertices)) == (4, 6)
        assert rep.value == pytest.approx(RHO_TETRA, abs=1e-12)
        assert rep2.value > rep.value
        assert rep2.value == pytest.approx(0.21954530575148704, abs=1e-12)
        assert surface_area(P2) < 1.0

    def test_fixture_counts_preserved(self):
        P, P2, _ = example_truncated_tetra_fixture()
        for body in (P, P2):
            eq = classify3(body, (0, 0, 0))
            assert (eq.S, eq.H, eq.U) == (4, 6, 4)
            assert not eq.any_degenerate

    def test_fixture_deterministic(self):
        _, _, (a1, b1) = example_truncated_tetra_fixture()
        _, _, (a2, b2) = example_truncated_tetra_fixture()
        assert a1.value == a2.value
        assert b1.to_json() == b2.to_json()


class TestTruncationSearch:
    @pytest.mark.parametrize("seed", [1.5, True, np.float64(1)])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            plane_truncation_search(platonic("cube"), "reduce_any", (4, 4), 1e-4, seed)

    @pytest.mark.parametrize("seed", [-1, 2**128, np.int64(-1)])
    def test_seed_outside_the_key_range_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*128\)$"):
            plane_truncation_search(platonic("cube"), "reduce_any", (4, 4), 1e-4, seed)

    def test_largest_uint64_seed_is_a_key(self):
        rep = plane_truncation_search(platonic("cube"), "reduce_any", (4, 4), 1e-4, np.uint64(2**64 - 1))
        assert rep.to_json() == plane_truncation_search(platonic("cube"), "reduce_any", (4, 4), 1e-4, 2**64 - 1).to_json()

    def test_numpy_integer_seed_is_stored_as_int(self):
        rep = plane_truncation_search(platonic("cube"), "reduce_any", (4, 4), 1e-4, np.int64(1))
        assert type(rep.details["seed"]) is int
        assert rep.to_json() == plane_truncation_search(platonic("cube"), "reduce_any", (4, 4), 1e-4, 1).to_json()

    def test_cube_reduce_s_frozen(self):
        r = plane_truncation_search(platonic("cube"), "reduce_S", grid=(32, 16), seed=5)
        assert r.value == pytest.approx(0.18099660269384454, abs=1e-12)
        assert r.status == "ok"
        assert r.details["upper_bound"] is True
        assert r.details["S0"] == 6 and r.details["U0"] == 8

    def test_cube_reduce_u_frozen(self):
        r = plane_truncation_search(platonic("cube"), "reduce_U", grid=(32, 16), seed=5)
        assert r.value == pytest.approx(0.028629000713986108, abs=1e-12)

    def test_reduce_any_is_min_of_both(self):
        c = platonic("cube")
        rs = plane_truncation_search(c, "reduce_S", grid=(32, 16), seed=5)
        ru = plane_truncation_search(c, "reduce_U", grid=(32, 16), seed=5)
        ra = plane_truncation_search(c, "reduce_any", grid=(32, 16), seed=5)
        assert ra.value == min(rs.value, ru.value)
        assert ra.details["partial_s"] == rs.value
        assert ra.details["partial_u"] == ru.value

    def test_witness_replays(self):
        c = platonic("cube")
        r = plane_truncation_search(c, "reduce_S", grid=(32, 16), seed=5)
        w = r.witness
        piece = clip_halfspace3(c, w["side"] * np.asarray(w["normal"]), w["side"] * w["offset"])
        assert piece is not None and piece is not c
        removed = 1.0 - volume(piece) / volume(c)
        assert removed == pytest.approx(r.value, rel=1e-9)
        eq = classify3(piece, centroid3(piece))
        assert eq.S < 6
        assert not eq.any_degenerate

    def test_seed_determinism(self):
        c = platonic("cube")
        a = plane_truncation_search(c, "reduce_any", grid=(16, 8), seed=11)
        b = plane_truncation_search(c, "reduce_any", grid=(16, 8), seed=11)
        assert a.to_json() == b.to_json()

    def test_validation(self):
        c = platonic("cube")
        targets = r"^target must be one of \['reduce_S', 'reduce_U', 'reduce_any'\]$"
        with pytest.raises(ValueError, match=targets):
            plane_truncation_search(c, "reduce_everything")
        with pytest.raises(ValueError, match="^grid needs at least 1 normal and 2 offsets$"):
            plane_truncation_search(c, grid=(0, 8))
        with pytest.raises(ValueError, match="^grid needs at least 1 normal and 2 offsets$"):
            plane_truncation_search(c, grid=(8, 1))
        for grid in ((2.0, 3), (True, 2), (4, 3.0), (4, False), (np.float64(4), 3)):
            with pytest.raises(ValueError, match="^grid counts must be integers$"):
                plane_truncation_search(c, grid=grid)
        got = plane_truncation_search(c, grid=(np.int64(4), np.int32(3)), seed=2)
        assert got.to_json() == plane_truncation_search(c, grid=(4, 3), seed=2).to_json()
        for tol in (0.0, -1e-4, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^refine_tol must be a positive finite number$"):
                plane_truncation_search(c, refine_tol=tol)

    def test_capped_cylinder_reduce_u_not_found(self):
        # Any planar cut leaves rim vertices that are themselves distance
        # maxima, so U never drops below 2 at this grid: honest no-result.
        cyl = generator_truncated_cylinder(1.0, 20.0, 32)
        r = plane_truncation_search(cyl, "reduce_U", grid=(12, 6), refine_tol=1e-3, seed=5)
        assert r.value is None
        assert r.status == "no_reduction_found"

    def test_capped_cylinder_reduce_any_frozen(self):
        cyl = generator_truncated_cylinder(1.0, 20.0, 32)
        r = plane_truncation_search(cyl, "reduce_any", grid=(24, 10), refine_tol=1e-3, seed=5)
        assert r.value == pytest.approx(0.18006431719880844, abs=1e-10)
        assert r.details["partial_u"] is None

    def test_piece_with_zero_area_face_is_not_counted(self):
        # A cut 2 eps inside a vertex leaves a face of zero area; the piece
        # must be skipped, not let DegenerateInput escape the search.
        P = platonic("tetra")
        n = np.random.default_rng(0).normal(size=3)
        n /= np.linalg.norm(n)
        d = float(P.coords[0] @ n) - 2 * P.eps
        piece = clip_halfspace3(P, -n, -d)
        assert piece is not None and piece is not P
        with pytest.raises(DegenerateInput, match="zero area"):
            piece.plane_normals
        assert _search_counts(piece) is None
