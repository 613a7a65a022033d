import math
import tracemalloc
import warnings

import numpy as np

from conftest import random_convex_polygon
from equirobust import equilib3d, geom3d, robust2d, util
from equirobust.equilib2d import stable_count_batch, stable_count_rays
from equirobust.equilib3d import _slot_lines, plane_truncation_search, rho_in_sampled_3d, stable_count3, stable_count3_rays
from equirobust.geom2d import polygon_new, regular_ngon
from equirobust.geom3d import centroid3, generator_prism, generator_truncated_cylinder, off_dumps, platonic, polyhedron_new
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


def _ray_counts(table, steps, rows):
    """Dense reference: the table's count at each query ``(steps[i],
    rows[i])``, and whether the table leaves it undecided, from every face
    of the query's row."""
    sizes = np.diff(table.ptr)
    counts = np.empty(len(steps), dtype=int)
    undecided = np.empty(len(steps), dtype=bool)
    block = max(1, util.BLOCK_CELLS // max(1, int(sizes.max(initial=0))))
    for i in range(0, len(steps), block):
        n = sizes[rows[i : i + block]]
        query = np.repeat(np.arange(len(n)), n)
        cell = np.arange(len(query)) + np.repeat(table.ptr[rows[i : i + block]] - (np.cumsum(n) - n), n)
        lo_out, lo_in, hi_in, hi_out = table.bounds[:, cell]
        s = steps[i : i + block][query]
        inside = np.bincount(query[(lo_in < s) & (s < hi_in)], minlength=len(n))
        within = np.bincount(query[(lo_out <= s) & (s <= hi_out)], minlength=len(n))
        counts[i : i + block] = inside
        undecided[i : i + block] = within > inside
    return counts, undecided


def _grid_counts(table, first, stop, grid):
    """Dense reference: the table's counts at every step of a sorted
    ``grid`` for rows ``first:stop``, (rows, steps), and where the table
    leaves them undecided, from a difference array over grid indices."""
    n_rows, n = stop - first, len(grid)
    ptr = table.ptr[first : stop + 1]
    lo_out, lo_in, hi_in, hi_out = table.bounds[:, ptr[0] : ptr[-1]]
    base = np.repeat(np.arange(n_rows) * (n + 1), np.diff(ptr))
    size = n_rows * (n + 1)

    def tally(start, end):
        diff = np.bincount(base + start, minlength=size) - np.bincount(base + end, minlength=size)
        return diff.reshape(n_rows, n + 1).cumsum(axis=1)[:, :n]

    start = np.searchsorted(grid, lo_in, side="right")
    inside = tally(start, np.maximum(start, np.searchsorted(grid, hi_in, side="left")))
    within = tally(np.searchsorted(grid, lo_out, side="left"), np.searchsorted(grid, hi_out, side="right"))
    return inside, within > inside


#: The most points a fallback call of a 2D walk holds.
_FALLBACK_POINTS_2D = util.BLOCK_CELLS // 2


def _dense_walk(count_batch, origin, directions, target_count, s_max, tol, table):
    """Reference: ``first_exit_distances`` reading each grid as dense
    (rows, steps) counts, in blocks of rows, and each bisection step from
    every face of its row."""
    directions = np.asarray(directions, dtype=float)
    m = directions.shape[0]
    all_rows = np.arange(m)
    lo = np.zeros(m)
    hi = np.full(m, np.inf)

    def scalar(steps, rows):
        counts = np.empty(len(steps), dtype=int)
        for i in range(0, len(steps), _FALLBACK_POINTS_2D):
            part = slice(i, i + _FALLBACK_POINTS_2D)
            counts[part] = count_batch(origin[None, :] + steps[part, None] * directions[rows[part]])
        return counts

    def first_bad(grid):
        n = len(grid)
        first = np.full(m, -1)
        block = max(1, util.BLOCK_CELLS // (n + 1))
        for i in range(0, m, block):
            rows = all_rows[i : i + block]
            counts, undecided = _grid_counts(table, i, i + len(rows), grid)
            live = grid < hi[rows, None]
            bad = live & ~undecided & (counts != target_count)
            stop = np.where(bad.any(axis=1), bad.argmax(axis=1), n)
            ask_r, ask_k = np.nonzero(live & undecided & (np.arange(n) < stop[:, None]))
            bad[ask_r, ask_k] = scalar(grid[ask_k], rows[ask_r]) != target_count
            first[rows] = np.where(bad.any(axis=1), bad.argmax(axis=1), -1)
        return first

    def bisect(rows):
        for _ in range(200):
            active = rows[(hi[rows] - lo[rows]) > tol]
            if len(active) == 0:
                break
            mid = 0.5 * (lo[active] + hi[active])
            counts, undecided = _ray_counts(table, mid, active)
            counts[undecided] = scalar(mid[undecided], active[undecided])
            bad = counts != target_count
            hi[active[bad]] = mid[bad]
            lo[active[~bad]] = mid[~bad]

    grid = np.linspace(0.0, 1.0, util._EXIT_COARSE_STEPS + 1)[1:] * s_max
    below = grid / s_max * s_max
    for verify in range(4):
        if verify:
            best = float(hi.min(initial=s_max))
            if best <= tol:
                break
            grid = below = np.linspace(0.0, best, util._EXIT_VERIFY_STEPS + 1)[1:-1]
        k = first_bad(grid)
        sel = np.nonzero(k >= 0)[0]
        if verify and len(sel) == 0:
            break
        k = k[sel]
        lo[sel] = np.where(k > 0, below[k - 1], 0.0)
        hi[sel] = grid[k]
        bisect(sel)
    return np.minimum(hi, s_max)


def _recording(count_batch):
    sizes = []

    def wrapped(pts):
        sizes.append(len(pts))
        return count_batch(pts)

    return wrapped, sizes


def _recording_points(count_batch):
    calls = []

    def wrapped(pts):
        calls.append(np.array(pts))
        return count_batch(pts)

    return wrapped, calls


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
        assert max(sizes) <= _FALLBACK_POINTS_2D

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
        dirs = _unit_directions(_FALLBACK_POINTS_2D + 903)
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
    counts, undecided = _ray_counts(table, steps, rows)
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
            assert max(sizes) <= _FALLBACK_POINTS_2D

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


def _planted_rays(rng, m, faces, steps):
    """A table, and a count it certifies, with what an event read must get
    right: bounds exactly on ``steps``, empty faces (``lo_in = hi_in =
    lo_out``), infinite bounds, rows with no faces and undecided bands up
    to a unit wide.  Rays run along ``(1, r)`` from the origin, so a point
    ``(s, s·r)`` gives back its step and row exactly; each face counts on
    the open interval between one end of each undecided band."""

    def bound():
        exact = rng.random((m, faces)) < 0.4
        return np.where(exact, rng.choice(steps, (m, faces)), rng.uniform(-0.5, steps[-1] + 0.5, (m, faces)))

    def pad():
        r = rng.random((m, faces))
        return np.where(r < 0.3, 0.0, np.where(r < 0.6, rng.uniform(0.0, 0.05, (m, faces)), rng.uniform(0.0, 1.0, (m, faces))))

    lo_in, hi_in = np.sort([bound(), bound()], axis=0)
    lo_out, hi_out = lo_in - pad(), hi_in + pad()
    # Outer bounds exactly on the step next to the inner one.
    snap = rng.random((m, faces)) < 0.2
    k = np.clip(np.searchsorted(steps, lo_in, side="right") - 1, 0, len(steps) - 1)
    lo_out[snap] = np.minimum(steps[k], lo_in)[snap]
    k = np.clip(np.searchsorted(steps, hi_in, side="left"), 0, len(steps) - 1)
    hi_out[snap] = np.maximum(steps[k], hi_in)[snap]
    low = rng.random((m, faces)) < 0.1
    lo_out[low] = lo_in[low] = -np.inf
    high = rng.random((m, faces)) < 0.1
    hi_in[high] = hi_out[high] = np.inf
    t_lo = np.where(rng.random((m, faces)) < 0.5, lo_out, lo_in)
    t_hi = np.where(rng.random((m, faces)) < 0.5, hi_in, hi_out)
    empty = (rng.random((m, faces)) < 0.15) & np.isfinite(lo_out)
    lo_in[empty] = hi_in[empty] = t_lo[empty] = lo_out[empty]
    t_hi[empty] = np.where(rng.random(np.count_nonzero(empty)) < 0.5, lo_out[empty], hi_out[empty])
    lo_out[3::7] = np.inf  # rows with no faces
    t_lo[lo_out == np.inf] = np.inf

    def count(pts):
        s = pts[:, 0]
        rows = np.rint(pts[:, 1] / s).astype(int)
        return np.count_nonzero((t_lo[rows] < s[:, None]) & (s[:, None] < t_hi[rows]), axis=1)

    table = RayTable.from_dense(np.stack([lo_out, lo_in, hi_in, hi_out]))
    assert (np.diff(table.ptr) == 0).any() and np.isinf(table.bounds).any()
    return table, count, np.column_stack([np.ones(m), np.arange(m, dtype=float)])


_STEPS = np.arange(1, 129) / 16  # the coarse grid for s_max = 8, exactly


class TestEventReads:
    def test_grid_segments_match_dense_counts(self):
        rng = np.random.default_rng(21)
        table, _, _ = _planted_rays(rng, 60, 5, _STEPS)
        for grid in (_STEPS, np.sort(rng.uniform(-1.0, 9.0, 300)), _STEPS[:7]):
            n = len(grid)
            for first, stop in [(0, 60), (0, 1), (17, 41)]:
                row, start, end, inside, within = util._grid_segments(table, first, stop, grid)
                size = end - start
                cell = np.repeat(row * n + start - (np.cumsum(size) - size), size) + np.arange(size.sum())
                # The segments tile every row's steps in row-major order.
                assert np.array_equal(cell, np.arange((stop - first) * n))
                want_in, want_und = _grid_counts(table, first, stop, grid)
                assert np.array_equal(np.repeat(inside, size), want_in.ravel())
                assert np.array_equal(np.repeat(within > inside, size), want_und.ravel())

    def test_bracket_faces_match_dense_counts(self):
        rng = np.random.default_rng(22)
        m = 80
        table, _, _ = _planted_rays(rng, m, 6, _STEPS)
        rows = np.arange(m)[rng.random(m) < 0.7]
        # Narrow brackets, with one end or both on the row's face bounds.
        lo, hi = np.empty(len(rows)), np.empty(len(rows))
        for j, r in enumerate(rows):
            own = np.unique(table.bounds[:, table.ptr[r] : table.ptr[r + 1]])
            own = own[np.isfinite(own)]
            x = rng.choice(own) if len(own) and rng.random() < 0.7 else rng.uniform(-1.0, 9.0)
            w = rng.uniform(0.0, 0.3)
            lo[j], hi[j] = (x, x + w) if rng.random() < 0.5 else (x - w, x)
            above = own[own > lo[j]]
            if len(above) and rng.random() < 0.3:
                hi[j] = above[0]
        assert np.isin(lo, table.bounds).sum() > len(rows) // 4 and np.isin(hi, table.bounds).sum() > len(rows) // 4
        base, unsure, (lo_out, lo_in, hi_in, hi_out) = util._bracket_faces(table, rows, lo, hi)
        assert lo_in.shape[1] < np.diff(table.ptr).max()  # faces fixed in a bracket drop out
        # Queries at both ends, at each face bound inside and one ulp either
        # side of it, and at random steps inside.
        at = [np.arange(len(rows)), np.arange(len(rows))]
        steps = [lo, hi]
        for r in range(len(rows)):
            b = table.bounds[:, table.ptr[rows[r]] : table.ptr[rows[r] + 1]].ravel()
            b = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), rng.uniform(lo[r], hi[r], 8)])
            b = b[(b >= lo[r]) & (b <= hi[r])]
            steps.append(b)
            at.append(np.full(len(b), r))
        q, s = np.concatenate(at), np.concatenate(steps)[:, None]
        inside = (lo_in[q] < s) & (s < hi_in[q])
        counts = base[q] + np.count_nonzero(inside, axis=1)
        undecided = unsure[q] | ((lo_out[q] <= s) & (s <= hi_out[q]) & ~inside).any(axis=1)
        want_counts, want_undecided = _ray_counts(table, s[:, 0], rows[q])
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(undecided, want_undecided)
        assert undecided.any() and (~undecided).any()

    def test_walk_on_planted_tables_matches_dense_reference(self):
        rng = np.random.default_rng(23)
        origin = np.zeros(2)
        for m, faces, target in [(50, 4, 0), (9, 12, 1), (700, 3, 0)]:
            table, count, dirs = _planted_rays(rng, m, faces, _STEPS)
            # Some row has undecided coarse steps below its first decided bad one.
            inside, undecided = _grid_counts(table, 0, m, _STEPS)
            bad = ~undecided & (inside != target)
            stop = np.where(bad.any(axis=1), bad.argmax(axis=1), len(_STEPS))
            assert (np.count_nonzero(undecided & (np.arange(len(_STEPS)) < stop[:, None]), axis=1) > 1).any()
            want_batch, want_calls = _recording_points(count)
            want = _dense_walk(want_batch, origin, dirs, target, 8.0, 1e-6, table)
            got_batch, got_calls = _recording_points(count)
            got = first_exit_distances(got_batch, origin, dirs, target, 8.0, 1e-6, table)
            assert np.array_equal(got, want)
            # The walk asks the fallback for the points the dense read asks
            # for, no more, though it may group them into fewer calls.
            assert len(want_calls) > 0
            got_points, want_points = (np.unique(np.concatenate(c), axis=0, return_counts=True) for c in (got_calls, want_calls))
            assert all(np.array_equal(g, w) for g, w in zip(got_points, want_points))
            assert max(map(len, got_calls)) <= _FALLBACK_POINTS_2D
            assert np.array_equal(got, _plain_walk(count, origin, dirs, target, 8.0, 1e-6))
            assert (want < 8.0).any()



class TestSearchHelpers:
    def test_signed_families_match_per_row_grids(self):
        # The plane search's supports come from one stacked product and its
        # grids from one linspace; each row must be the per-normal
        # ``coords @ n`` and 1-D linspace bit for bit, at every magnitude.
        rng = np.random.default_rng(31)
        for k in (2, 3, 7, 16, 48):
            for _ in range(40):
                scale = 10.0 ** rng.uniform(-150, 150)
                coords = rng.standard_normal((int(rng.integers(4, 30)), 3)) * scale
                normals = rng.standard_normal((int(rng.integers(1, 20)), 3))
                normals /= np.linalg.norm(normals, axis=1)[:, None]
                proj = np.matmul(coords[None], normals[:, :, None])[..., 0]
                M, E, ends = util.signed_families(normals, proj.min(1), proj.max(1), k)
                assert M.shape == (2 * len(normals), 3) and E.shape == (2 * len(normals), k)
                for j, n in enumerate(normals):
                    lo, hi = float((coords @ n).min()), float((coords @ n).max())
                    offs = np.linspace(lo, hi, k + 2)[1:-1]
                    assert np.array_equal(M[2 * j], n) and np.array_equal(M[2 * j + 1], -n)
                    assert np.array_equal(E[2 * j], offs) and np.array_equal(E[2 * j + 1], -offs[::-1])
                    assert ends[2 * j] == hi and ends[2 * j + 1] == -lo

    def test_family_cut_reports_unsigned_offsets(self):
        assert util.family_cut(6, 0.25) == (3, 1, 0.25)
        assert util.family_cut(7, 0.25) == (3, -1, -0.25)
        j, side, offset = util.family_cut(1, 0.0)
        assert (j, side) == (0, -1) and math.copysign(1.0, offset) == 1.0

    @staticmethod
    def _recording(cells):
        calls = []

        def evaluate(f, e):
            calls.append(list(zip(f.tolist(), e.tolist())))
            return e * 2.0, f + 1

        evaluate.cells = cells
        return calls, evaluate

    def test_cached_cuts_speculate_within_the_budget(self):
        calls, evaluate = self._recording(100)
        cache: dict = {}
        ahead = [(0, 0.25), (1, 0.5), (0, 0.75)]
        # Two keys of 100 cells: 600 cells, within the budget.
        got = util.cached_cuts(evaluate, cache, [(0, 0.5), (1, 0.5)], lambda: ahead)
        assert calls == [[(0, 0.5), (1, 0.5), (0, 0.25), (0, 0.75)]]
        assert [a.tolist() for a in got] == [[1.0, 1.0], [1, 2]]
        # The next step finds its cuts cached: no call, and ``ahead`` unused.
        got = util.cached_cuts(evaluate, cache, [(0, 0.75), (0, 0.25)], lambda: 1 / 0)
        assert len(calls) == 1
        assert [a.tolist() for a in got] == [[1.5, 0.5], [1, 1]]

    def test_cached_cuts_above_the_budget_take_only_the_step(self):
        calls, evaluate = self._recording(util.SPECULATE_CELLS // 6 + 1)
        cache: dict = {}
        keys = [(0, 0.5), (3, 0.5)]
        util.cached_cuts(evaluate, cache, keys, lambda: [(0, 0.25)])
        assert calls == [keys]
        # A step with one new key calls for that key alone, and the budget
        # counts every key of the step.
        util.cached_cuts(evaluate, cache, keys + [(2, 0.5)], lambda: [(0, 0.25)])
        assert calls[1:] == [[(2, 0.5)]]
        util.cached_cuts(evaluate, cache, [(1, 0.5)], lambda: [(0, 0.25)])
        assert calls[2:] == [[(1, 0.5), (0, 0.25)]]

    def test_cached_cuts_evaluate_no_key_twice(self):
        rng = np.random.default_rng(37)
        calls, evaluate = self._recording(10)
        cache: dict = {}
        for _ in range(50):
            keys = list(zip(rng.integers(0, 4, 6).tolist(), (rng.integers(0, 8, 6) / 8).tolist()))
            extra = list(zip(rng.integers(0, 4, 6).tolist(), (rng.integers(0, 8, 6) / 8).tolist()))
            got = util.cached_cuts(evaluate, cache, keys, lambda: extra)
            assert got[0].tolist() == [2.0 * e for _, e in keys]
        seen = [key for call in calls for key in call]
        assert len(seen) == len(set(seen)) == len(cache)


class TestBlockSize:
    def test_a_block_of_seven_cells_changes_no_output(self, monkeypatch):
        # Every block only bounds memory, so a block smaller than one row of
        # any pass (one cut, query or direction per block) gives every byte
        # that the default block gives.
        rng = np.random.default_rng(41)
        poly = random_convex_polygon(rng, 9)
        ref = np.asarray(poly.centroid) + 0.05 * poly.diameter
        body = platonic("dodeca")
        cyl = generator_truncated_cylinder(1, 3)
        table, count, dirs = _planted_rays(rng, 60, 4, _STEPS)  # a walk that falls back

        def outputs():
            return [
                first_exit_distances(count, np.zeros(2), dirs, 0, 8.0, 1e-6, table).tobytes(),
                robust2d.sweep_csv(robust2d.truncation_sweep(poly, 60, 3)[0]),
                robust2d.full_robustness_line_bound(poly, 12, 8).to_json(),
                plane_truncation_search(body, "reduce_any", (4, 4), 1e-4, 3).to_json(),
                robust2d.rho_in_sampled(poly, ref, directions=90).to_json(),
                rho_in_sampled_3d(body, np.asarray(centroid3(body)) + 0.02 * body.scale, directions=128).to_json(),
                off_dumps(polyhedron_new(cyl.vertices, cyl.faces)),
            ]

        want = outputs()
        for module in (util, geom3d, equilib3d, robust2d):  # each module that reads the block
            monkeypatch.setattr(module, "BLOCK_CELLS", 7)
        assert outputs() == want
