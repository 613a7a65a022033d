import numpy as np

from equirobust import util
from equirobust.util import first_exit_distances


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
        got = first_exit_distances(batch, origin, dirs, 2, 10.0, 1e-6)
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
        got = first_exit_distances(count, origin, dirs, 0, 8.0, 1e-6)
        assert want[0] == want[2] == 321 / 128
        assert want[1] == want[3] == 2.0**-20  # step 0's bracket (0, 1/128), bisected
        assert want[4] == 8.0
        assert np.array_equal(got, want)

    def test_more_rows_than_one_batch(self):
        origin = np.array([0.3, -0.2])
        dirs = _unit_directions(util._EXIT_BATCH_POINTS + 903)
        count = _shells(origin)
        want, _ = _first_exit_stepwise(count, origin, dirs, 2, 10.0, 1e-6)
        got = first_exit_distances(count, origin, dirs, 2, 10.0, 1e-6)
        assert np.array_equal(got, want)
