import math
import tracemalloc
import warnings

import numpy as np

from conftest import random_convex_polygon
from equirobust import util
from equirobust.equilib2d import stable_count_batch, stable_count_rays
from equirobust.equilib3d import _slot_lines, rho_in_sampled_3d, stable_count3, stable_count3_rays
from equirobust.geom2d import polygon_new, regular_ngon
from equirobust.geom3d import centroid3, generator_prism, generator_truncated_cylinder, platonic
from equirobust.util import RayTable, fibonacci_sphere, first_exit_distances


def _first_exit_stepwise(count_batch, origin, directions, target_count, s_max, tol):
    """Reference: ``first_exit_distances`` with a verification sweep that asks
    for one grid step at a time.  Also returns how many verification rounds
    found an earlier crossing."""
    directions = np.asarray(directions, dtype=float)
    m = directions.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, s_max)
    found = np.zeros(m, dtype=bool)

    def counts_at(steps, rows):
        pts = origin[None, :] + steps[:, None] * directions[rows]
        return count_batch(pts)

    def scan(rows, upper, n_steps):
        grid = np.linspace(0.0, 1.0, n_steps + 1)[1:]
        prev = np.zeros(len(rows))
        for g in grid:
            steps = g * upper
            bad = counts_at(steps, rows) != target_count
            newly = bad & ~found[rows]
            if newly.any():
                sel = rows[newly]
                lo[sel] = prev[newly] * upper[newly]
                hi[sel] = steps[newly]
                found[sel] = True
            prev = steps / upper
            if found[rows].all():
                break

    all_rows = np.arange(m)
    scan(all_rows, np.full(m, s_max), util._EXIT_COARSE_STEPS)

    def bisect(rows):
        for _ in range(200):
            active = rows[(hi[rows] - lo[rows]) > tol]
            if len(active) == 0:
                break
            mid = 0.5 * (lo[active] + hi[active])
            bad = counts_at(mid, active) != target_count
            hi[active[bad]] = mid[bad]
            lo[active[~bad]] = mid[~bad]

    bisect(all_rows[found])

    rounds = 0
    for _ in range(3):
        best = float(hi.min()) if found.any() else s_max
        if best <= tol:
            break
        grid = np.linspace(0.0, best, util._EXIT_VERIFY_STEPS + 1)[1:-1]
        earlier = np.zeros(m, dtype=bool)
        prev = np.zeros(m)
        for s in grid:
            steps = np.full(m, s)
            rows = all_rows[~earlier & (hi > s)]
            if len(rows) == 0:
                continue
            bad = counts_at(steps[rows], rows) != target_count
            sel = rows[bad]
            if len(sel):
                lo[sel] = prev[sel]
                hi[sel] = s
                found[sel] = True
                earlier[sel] = True
            prev[rows] = s
        if not earlier.any():
            break
        rounds += 1
        bisect(all_rows[earlier])

    return np.where(found, hi, s_max), rounds


def _recording(count_batch):
    sizes = []

    def wrapped(pts):
        sizes.append(len(pts))
        return count_batch(pts)

    return wrapped, sizes


def _plain_walk(count_batch, origin, directions, target_count, s_max, tol):
    """``first_exit_distances`` with a table that leaves every count
    undecided (one face per row), so every count comes from ``count_batch``."""
    m = len(directions)
    table = RayTable(np.repeat([[-np.inf], [-np.inf], [-np.inf], [np.inf]], m, axis=1), np.arange(m + 1))
    return first_exit_distances(count_batch, origin, directions, target_count, s_max, tol, table)


def _unit_directions(m):
    angles = np.arange(m) * (2.0 * np.pi / m)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _shells(origin):
    """Count 2, plus one where a point lies in one of two thin shells or
    beyond a far radius; the radii depend on the direction, and one sector
    never changes."""

    def count(pts):
        rel = pts - origin
        r = np.hypot(rel[:, 0], rel[:, 1])
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        r1 = 3.0 + 0.7 * np.sin(3.0 * theta)
        r2 = 1.2 + 0.3 * np.cos(5.0 * theta)
        bad = ((r >= r1) & (r < r1 + 0.02)) | ((r >= r2) & (r < r2 + 0.002)) | (r >= 7.0 + np.sin(theta))
        return np.where(bad & (np.abs(theta) > 0.4), 3, 2)

    return count


class TestFirstExitDistances:
    def test_thin_shells_match_stepwise_sweep(self):
        origin = np.array([0.3, -0.2])
        dirs = _unit_directions(97)
        count = _shells(origin)
        want, rounds = _first_exit_stepwise(count, origin, dirs, 2, 10.0, 1e-6)
        batch, sizes = _recording(count)
        got = _plain_walk(batch, origin, dirs, 2, 10.0, 1e-6)
        assert rounds >= 2  # the shells the coarse scan skips need a second round
        assert (want == 10.0).any() and (want < 1.6).any()
        assert np.array_equal(got, want)
        assert max(sizes) <= util._EXIT_BATCH_POINTS

    def test_change_exactly_at_grid_steps(self):
        # s_max = 8: coarse steps are k/16 and, with the first bracket at 4,
        # verification steps k/128, all exact.  On the x axis the count
        # changes from 321/128 (a verification step the coarse scan skips)
        # and from 4; on the y axis on (0, 1/64), first seen at step 0; on
        # the diagonals never.
        def count(pts):
            x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
            on_x = (y == 0.0) & (((x >= 321 / 128) & (x < 321 / 128 + 1 / 256)) | (x >= 4.0))
            on_y = (x == 0.0) & (((y > 0.0) & (y < 1 / 64)) | (y >= 4.0))
            return np.where(on_x | on_y, 1, 0)

        origin = np.zeros(2)
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
        want, _ = _first_exit_stepwise(count, origin, dirs, 0, 8.0, 1e-6)
        got = _plain_walk(count, origin, dirs, 0, 8.0, 1e-6)
        assert want[0] == want[2] == 321 / 128
        assert want[1] == want[3] == 2.0**-20  # step 0's bracket (0, 1/128), bisected
        assert want[4] == 8.0
        assert np.array_equal(got, want)

    def test_more_rows_than_one_batch(self):
        origin = np.array([0.3, -0.2])
        dirs = _unit_directions(util._EXIT_BATCH_POINTS + 903)
        count = _shells(origin)
        want, _ = _first_exit_stepwise(count, origin, dirs, 2, 10.0, 1e-6)
        got = _plain_walk(count, origin, dirs, 2, 10.0, 1e-6)
        assert np.array_equal(got, want)


def _interval_rays(rng, m, faces):
    """Rays along ``(1, r)`` from the origin, so a point ``(s, s·r)`` gives
    back its step and row exactly, and a count of random open intervals of
    ``s`` per row, some ending on coarse grid steps (k/16 for ``s_max`` 8),
    some holding ``s = 0`` and none at all on a fifth of the rows.  Returns
    the count and a table that certifies it outside random undecided
    margins, which are zero on some intervals."""
    lo = np.where(rng.random((m, faces)) < 0.3, rng.integers(0, 128, (m, faces)) / 16, rng.uniform(-0.2, 8.0, (m, faces)))
    hi = lo + np.where(rng.random((m, faces)) < 0.3, rng.integers(1, 32, (m, faces)) / 16, rng.uniform(0.0, 1.0, (m, faces)))
    lo[rng.random(m) < 0.2] = np.inf

    def count(pts):
        s = pts[:, 0]
        rows = np.rint(pts[:, 1] / s).astype(int)
        return np.count_nonzero((lo[rows] < s[:, None]) & (s[:, None] < hi[rows]), axis=1)

    pad = np.where(rng.random((4, m, faces)) < 0.5, 0.0, rng.uniform(0.0, 0.05, (4, m, faces)))
    lo_in, hi_in = lo + pad[1], hi - pad[2]
    empty = lo_in >= hi_in
    lo_in[empty] = hi_in[empty] = lo[empty] - pad[0][empty]
    table = RayTable.from_dense(np.stack([lo - pad[0], lo_in, hi_in, hi + pad[3]]))
    dirs = np.column_stack([np.ones(m), np.arange(m, dtype=float)])
    return count, table, dirs


def _near_bounds(table, s_max, k=12):
    """Queries at every finite bound of ``table`` and ±1..k ULP from it, in (0, s_max]."""
    rows = np.repeat(np.arange(len(table.ptr) - 1), np.diff(table.ptr))
    rows, bound = np.tile(rows, 4), table.bounds.ravel()
    keep = np.isfinite(bound) & (bound > 0.0) & (bound <= s_max)
    rows, bound = rows[keep], bound[keep]
    ulp = np.spacing(bound)
    shifts = np.arange(-k, k + 1)
    steps = (bound[:, None] + shifts * ulp[:, None]).ravel()
    rows = np.repeat(rows, len(shifts))
    ok = (steps > 0.0) & (steps <= s_max)
    return steps[ok], rows[ok]


def _table_agrees(count, table, origin, dirs, steps, rows):
    """Number of queries the table decides, after checking that every one
    of them equals the scalar count of the point the walk would form."""
    counts, undecided = util._ray_counts(table, steps, rows)
    scalar = count(origin[None, :] + steps[:, None] * dirs[rows])
    assert np.array_equal(counts[~undecided], scalar[~undecided])
    return int(np.count_nonzero(~undecided))


class TestRayTables:
    def test_table_walk_matches_stepwise_on_random_intervals(self):
        rng = np.random.default_rng(11)
        for m, faces in [(40, 6), (300, 3), (7, 20)]:
            count, table, dirs = _interval_rays(rng, m, faces)
            origin = np.zeros(2)
            want, _ = _first_exit_stepwise(count, origin, dirs, 0, 8.0, 1e-6)
            batch, sizes = _recording(count)
            got = first_exit_distances(batch, origin, dirs, 0, 8.0, 1e-6, table)
            plain = _plain_walk(count, origin, dirs, 0, 8.0, 1e-6)
            assert np.array_equal(got, want)
            assert np.array_equal(plain, want)
            assert (want < 8.0).any() and (want == 8.0).any()
            assert 0 < sum(sizes)  # undecided steps went to the fallback
            assert max(sizes) <= util._EXIT_BATCH_POINTS

    def test_3d_table_matches_scalar_near_breakpoints(self):
        rng = np.random.default_rng(3)
        bodies = [platonic("tetra"), platonic("cube"), platonic("icosa"), generator_prism(7, 2.0)]
        decided = 0
        for P in bodies:
            for q in (centroid3(P), np.asarray(centroid3(P)) + 0.05 * rng.standard_normal(3) * P.scale):
                q = np.asarray(q, dtype=float)
                dirs = fibonacci_sphere(128)
                table = stable_count3_rays(P, q, dirs)
                steps, rows = _near_bounds(table, 3.0 * P.scale)
                decided += _table_agrees(lambda pts: stable_count3(P, pts), table, q, dirs, steps, rows)
        assert decided > 100_000

    def test_2d_table_matches_scalar_near_breakpoints(self):
        rng = np.random.default_rng(5)
        polys = [regular_ngon(3), regular_ngon(8), polygon_new([(0, 0), (3, 0), (3, 1), (0, 1)])]
        polys += [random_convex_polygon(rng, int(rng.integers(4, 10))) for _ in range(3)]
        angles = np.arange(360) * (2.0 * math.pi / 360)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        decided = 0
        for P in polys:
            q = np.asarray(P.centroid, dtype=float)
            table = stable_count_rays(P, q, dirs)
            steps, rows = _near_bounds(table, 3.0 * P.diameter)
            decided += _table_agrees(lambda pts: stable_count_batch(P, pts), table, q, dirs, steps, rows)
        assert decided > 100_000

    def test_zero_slopes_are_decided_without_warnings(self):
        cube, square = platonic("cube"), polygon_new([(0, 0), (1, 0), (1, 1), (0, 1)])
        cases = [
            (cube, stable_count3, stable_count3_rays, np.array([0.0312, -0.0219, 0.0107]), np.vstack([np.eye(3), -np.eye(3)])),
            (square, stable_count_batch, stable_count_rays, np.array([0.5312, 0.4781]), np.vstack([np.eye(2), -np.eye(2)])),
        ]
        assert (np.eye(3) @ _slot_lines(cube)[0].T == 0.0).any()
        steps = np.linspace(0.0, 2.0, 4001)[1:]
        for P, count, rays, q, dirs in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = rays(P, q, dirs)
                rows = np.repeat(np.arange(len(dirs)), len(steps))
                decided = _table_agrees(lambda pts: count(P, pts), table, q, dirs, np.tile(steps, len(dirs)), rows)
                target = int(count(P, q[None, :])[0])
                batch, sizes = _recording(lambda pts: count(P, pts))
                got = first_exit_distances(batch, q, dirs, target, 2.0, 1e-9, table)
            assert decided == len(rows)
            assert sizes == []  # a fully decided walk never falls back
            assert np.array_equal(got, _plain_walk(lambda pts: count(P, pts), q, dirs, target, 2.0, 1e-9))

    def test_3d_oracle_allocates_little(self):
        P = generator_truncated_cylinder(1, 3)
        g = centroid3(P)
        rho_in_sampled_3d(P, g, directions=128)  # fills the body's cached frames
        tracemalloc.start()
        try:
            rho_in_sampled_3d(P, g, directions=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
