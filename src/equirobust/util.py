"""Small shared helpers: number formatting, direction grids, RNG plumbing."""

from __future__ import annotations

import math

import numpy as np


def fmt_g17(x: float) -> str:
    """Format a float with 17 significant digits (decimal round-trip safe)."""
    return format(float(x), ".17g")


def fibonacci_sphere(n: int) -> np.ndarray:
    """Return ``n`` nearly evenly distributed unit vectors on S^2, shape (n, 3)."""
    if n < 1:
        raise ValueError("need at least one direction")
    i = np.arange(n, dtype=float)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * i / golden
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def rotation_from_seed(seed: int) -> np.ndarray:
    """Deterministic uniformly random 3x3 rotation matrix derived from a seed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    # Uniform rotation via a random unit quaternion.
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


# Steps of the coarse outward scan and of the verification sweep below, and
# the most query points the sweep asks ``count_batch`` for in one call.
_EXIT_COARSE_STEPS = 128
_EXIT_VERIFY_STEPS = 512
_EXIT_BATCH_POINTS = 4096


def first_exit_distances(
    count_batch,
    origin: np.ndarray,
    directions: np.ndarray,
    target_count: int,
    s_max: float,
    tol: float,
) -> np.ndarray:
    """Per direction, distance from ``origin`` to the first point where a count changes.

    ``count_batch(points)`` maps an (m, k) array of query points to an (m,)
    integer array.  For each row of ``directions`` the walk starts at
    ``origin`` (where the count must equal ``target_count``), scans a coarse
    grid out to ``s_max`` for the first step where the count differs, bisects
    that bracket down to ``tol``, and then re-examines a denser grid below the
    crossing so thin transition slivers between coarse samples are not skipped.
    Directions with no observed change return ``s_max``.

    The verification grid is evaluated a chunk of steps at a time, for every
    row at once, in calls of at most ``_EXIT_BATCH_POINTS`` points (a single
    step may exceed it when there are more rows).  Each row's first bad step
    in a chunk sets its bracket, so the brackets equal those of a walk that
    asks for one step at a time; only the points a row would have stopped
    before, later in the same chunk, are extra.
    """
    directions = np.asarray(directions, dtype=float)
    m = directions.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, s_max)
    found = np.zeros(m, dtype=bool)

    def counts_at(steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        pts = origin[None, :] + steps[:, None] * directions[rows]
        return count_batch(pts)

    def scan(rows: np.ndarray, upper: np.ndarray, n_steps: int) -> None:
        # March each row outward; record the first bracketing cell with a change.
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
    scan(all_rows, np.full(m, s_max), _EXIT_COARSE_STEPS)

    def bisect(rows: np.ndarray) -> None:
        for _ in range(200):
            active = rows[(hi[rows] - lo[rows]) > tol]
            if len(active) == 0:
                break
            mid = 0.5 * (lo[active] + hi[active])
            bad = counts_at(mid, active) != target_count
            hi[active[bad]] = mid[bad]
            lo[active[~bad]] = mid[~bad]

    bisect(all_rows[found])

    # Verification sweep: look for earlier crossings below the current best.
    # A row is live on a prefix of the grid (steps below its ``hi``, up to
    # its first bad step), so its first bad step in a chunk is the first
    # bad step a one-step-at-a-time walk would find.
    for _ in range(3):
        best = float(hi.min()) if found.any() else s_max
        if best <= tol:
            break
        grid = np.linspace(0.0, best, _EXIT_VERIFY_STEPS + 1)[1:-1]
        earlier = np.zeros(m, dtype=bool)
        j = 0
        while j < len(grid):
            n_live = np.count_nonzero(~earlier & (hi > grid[j]))
            if n_live == 0:
                break
            part = grid[j : j + max(1, _EXIT_BATCH_POINTS // n_live)]
            rows, steps = np.nonzero((part < hi[:, None]) & ~earlier[:, None])
            bad = counts_at(part[steps], rows) != target_count
            sel, first = np.unique(rows[bad], return_index=True)
            k = j + steps[bad][first]
            lo[sel] = np.where(k > 0, grid[k - 1], 0.0)
            hi[sel] = grid[k]
            found[sel] = True
            earlier[sel] = True
            j += len(part)
        if not earlier.any():
            break
        bisect(all_rows[earlier])

    out = np.where(found, hi, s_max)
    return out
