"""Small shared helpers: number formatting, direction grids, RNG plumbing."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


#: Most (cut, slot) cells a search's evaluator batch spans when it also takes
#: the next bisection step's two candidates per live bracket: above this the
#: extra cuts cost more than the evaluator call they save.
SPECULATE_CELLS = 4096


def is_count(x) -> bool:
    """Whether ``x`` is an integer (Python or numpy), and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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


# Steps of the coarse grid and of each verification grid of the first-exit
# walk below, and the most query points ``count_batch`` is asked for in one call.
_EXIT_COARSE_STEPS = 128
_EXIT_VERIFY_STEPS = 512
_EXIT_BATCH_POINTS = 4096
#: Cells (rows x faces, rows x slots or rows x grid steps) per block of the
#: ray tables below; a block's float temporaries take 128 kB each.
_RAY_BLOCK_CELLS = 1 << 14
#: Unit roundoff of float64; the ray tables' rounding bounds count in it.
_UNIT_ROUNDOFF = 2.0**-53


class RayTable(NamedTuple):
    """A count's face intervals along rays, one row per ray.

    Row r's faces are the columns ``ptr[r]:ptr[r + 1]`` of ``bounds``, whose
    four rows are ``(lo_out, lo_in, hi_in, hi_out)`` with ``lo_out <= lo_in
    <= hi_in <= hi_out``: the face certainly counts at steps ``lo_in < s <
    hi_in``, certainly does not for ``s < lo_out`` or ``s > hi_out``, and is
    undecided elsewhere.  Faces that never count are left out.
    """

    bounds: np.ndarray
    ptr: np.ndarray

    @classmethod
    def from_dense(cls, bounds: np.ndarray) -> "RayTable":
        """From (4, rows, faces) bounds, a face that never counts having
        ``lo_out = +inf``."""
        keep = bounds[0] < np.inf
        return cls(bounds[:, keep], np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))]))


def ray_intervals(
    directions: np.ndarray,
    vectors: np.ndarray,
    offsets: np.ndarray,
    thresholds: np.ndarray,
    scale: float,
    starts: np.ndarray,
) -> RayTable:
    """A count's :class:`RayTable` along the rays ``origin + s·u``, one row per direction.

    A count tests slots and counts a face (slots ``starts[f]:starts[f + 1]``)
    when all its slots pass.  Slot j passes at the query point ``p =
    origin + s·u`` when ``vectors[j]·(origin + s·u) - thresholds[j] < 0``, so
    on a ray it passes on a half line of ``s`` and a face counts on an
    interval.  ``offsets[j]`` is that test's left side at ``s = 0``.

    The scalar count decides each slot in floating point: it forms ``p`` as
    ``origin + s·u``, then ``vectors[j]·p`` or ``vectors[j]·(p - a_j)`` for
    an anchor ``a_j``, its sum in any order, fused or not, and compares with
    the threshold directly or as ``(vectors[j]·(p - a_j)) / thresholds[j] <
    1`` with ``thresholds[j] > 0``.  ``scale`` bounds every coordinate of
    ``origin`` and of the anchors, ``directions`` have coordinates of at most
    1 and ``offsets`` is found with no more rounding than one such test.
    Then the scalar decision and the exact sign of the test differ only
    where ``|test| <= alpha + beta·s``, with ``alpha = 32u·(|v|_1·scale +
    |threshold|)`` and ``beta = 16u·|v|_1·|u|_inf`` (``u`` the unit
    roundoff), about twice the worst case.  Each breakpoint ``b`` is widened
    to the steps where that can hold, ``b ± w``.  A slot whose slope is
    within ``2·beta`` of zero is decided by its offset's sign only below the
    step where the bound can reach it.

    The table is built for blocks of directions, so its temporaries stay
    near ``_RAY_BLOCK_CELLS`` cells.
    """
    directions = np.asarray(directions, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    u = _UNIT_ROUNDOFF
    norm1 = np.abs(vectors).sum(axis=1)
    alpha = 32.0 * u * (norm1 * scale + np.abs(thresholds))
    parts = []
    block = max(1, _RAY_BLOCK_CELLS // len(vectors))
    for i in range(0, len(directions), block):
        dirs = directions[i : i + block]
        slope = dirs @ vectors.T
        beta = (16.0 * u) * np.abs(dirs).max(axis=1)[:, None] * norm1
        flat = np.abs(slope) <= 2.0 * beta
        den = np.where(flat, 1.0, slope)
        b = -offsets / den
        w = 2.0 * (alpha + beta * np.abs(b)) / np.abs(den) + 4.0 * u * np.abs(b)
        rise = ~flat & (slope > 0.0)  # passes below b
        fall = ~flat & (slope < 0.0)  # passes above b
        # A flat slot keeps its offset's sign for s below s_flat.
        s_flat = (np.abs(offsets) - alpha) / (3.0 * beta)
        flat_pass = flat & (s_flat > 0.0) & (offsets < 0.0)
        flat_fail = flat & (s_flat > 0.0) & (offsets > 0.0)
        # Per slot: certainly passes above in_lo and below in_hi, certainly
        # fails below out_lo and above out_hi.
        in_lo = np.where(fall, b + w, np.where(flat & ~flat_pass, np.inf, -np.inf))
        out_lo = np.where(fall, b - w, np.where(flat_fail, s_flat, -np.inf))
        in_hi = np.where(rise, b - w, np.where(flat_pass, s_flat, np.inf))
        out_hi = np.where(rise, b + w, np.inf)
        lo_out = np.maximum.reduceat(out_lo, starts[:-1], axis=1)
        lo_in = np.maximum.reduceat(in_lo, starts[:-1], axis=1)
        hi_in = np.minimum.reduceat(in_hi, starts[:-1], axis=1)
        hi_out = np.minimum.reduceat(out_hi, starts[:-1], axis=1)
        # A face that never certainly counts is undecided on all of
        # [lo_out, hi_out]; one that never can is left out.
        empty = lo_in >= hi_in
        lo_in[empty] = hi_in[empty] = lo_out[empty]
        lo_out[lo_out > hi_out] = np.inf
        parts.append(RayTable.from_dense(np.stack([lo_out, lo_in, hi_in, hi_out])))
    sizes = np.concatenate([np.diff(t.ptr) for t in parts])
    return RayTable(np.concatenate([t.bounds for t in parts], axis=1), np.concatenate([[0], np.cumsum(sizes)]))


def _ray_counts(table: RayTable, steps: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table's count at each query ``(steps[i], rows[i])``, and whether
    the table leaves it undecided."""
    sizes = np.diff(table.ptr)
    counts = np.empty(len(steps), dtype=int)
    undecided = np.empty(len(steps), dtype=bool)
    block = max(1, _RAY_BLOCK_CELLS // max(1, int(sizes.max(initial=0))))
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


def _grid_counts(table: RayTable, first: int, stop: int, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table's counts at every step of a sorted ``grid`` for rows
    ``first:stop``, (rows, steps), and where the table leaves them undecided.

    Each interval is located in the grid with ``searchsorted``; a difference
    array over grid indices, summed with ``cumsum``, counts them."""
    n_rows, n = stop - first, len(grid)
    ptr = table.ptr[first : stop + 1]
    lo_out, lo_in, hi_in, hi_out = table.bounds[:, ptr[0] : ptr[-1]]
    base = np.repeat(np.arange(n_rows) * (n + 1), np.diff(ptr))
    size = n_rows * (n + 1)

    def tally(start: np.ndarray, end: np.ndarray) -> np.ndarray:
        diff = np.bincount(base + start, minlength=size) - np.bincount(base + end, minlength=size)
        return diff.reshape(n_rows, n + 1).cumsum(axis=1)[:, :n]

    start = np.searchsorted(grid, lo_in, side="right")
    inside = tally(start, np.maximum(start, np.searchsorted(grid, hi_in, side="left")))
    within = tally(np.searchsorted(grid, lo_out, side="left"), np.searchsorted(grid, hi_out, side="right"))
    return inside, within > inside


def first_exit_distances(
    count_batch,
    origin: np.ndarray,
    directions: np.ndarray,
    target_count: int,
    s_max: float,
    tol: float,
    table: RayTable,
) -> np.ndarray:
    """Per direction, distance from ``origin`` to the first point where a count changes.

    ``count_batch(points)`` maps an (m, k) array of query points to an (m,)
    integer array.  For each row of ``directions`` the walk starts at
    ``origin`` (where the count must equal ``target_count``), reads a coarse
    grid out to ``s_max`` for the first step where the count differs, bisects
    that bracket down to ``tol``, and then reads up to three denser
    verification grids below the best crossing so far, so thin transition
    slivers between coarse samples are not skipped; each earlier step found
    is bisected in turn.  Directions with no observed change return ``s_max``.

    ``table`` is the count's table from :func:`ray_intervals`, one row per
    direction.  Every grid, coarse or verifying, is shared by all rows, so
    all of its counts are read at once (see ``_grid_counts``) and a row's
    first bad step is one ``argmax``; the bisection reads each query's count
    from the table.  Only a query that the table leaves undecided goes to
    ``count_batch``, which stays the fallback: a grid asks it for a row's
    undecided steps below that row's first certainly bad one.  The brackets,
    and so the distances, equal those of a walk that asks ``count_batch``
    for one step at a time; a fallback query is formed exactly as that walk
    forms it, and the calls hold at most ``_EXIT_BATCH_POINTS`` points.
    """
    directions = np.asarray(directions, dtype=float)
    m = directions.shape[0]
    all_rows = np.arange(m)
    lo = np.zeros(m)
    hi = np.full(m, np.inf)  # finite once a row's crossing is bracketed

    def scalar(steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        counts = np.empty(len(steps), dtype=int)
        for i in range(0, len(steps), _EXIT_BATCH_POINTS):
            part = slice(i, i + _EXIT_BATCH_POINTS)
            counts[part] = count_batch(origin[None, :] + steps[part, None] * directions[rows[part]])
        return counts

    def first_bad(grid: np.ndarray) -> np.ndarray:
        # Per row, the first grid step below its ``hi`` where the count
        # differs, or -1: the step a one-step-at-a-time walk stops at.
        n = len(grid)
        first = np.full(m, -1)
        block = max(1, _RAY_BLOCK_CELLS // (n + 1))
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

    def bisect(rows: np.ndarray) -> None:
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

    # The coarse grid out to s_max, then up to three verification grids below
    # the best crossing so far.  The stepwise walk forms a coarse bracket's
    # lower end as (step / s_max) * s_max, one ulp off the step at times.
    grid = np.linspace(0.0, 1.0, _EXIT_COARSE_STEPS + 1)[1:] * s_max
    below = grid / s_max * s_max
    for verify in range(4):
        if verify:
            best = float(hi.min(initial=s_max))
            if best <= tol:
                break
            grid = below = np.linspace(0.0, best, _EXIT_VERIFY_STEPS + 1)[1:-1]
        k = first_bad(grid)
        sel = np.nonzero(k >= 0)[0]
        if verify and len(sel) == 0:
            break
        k = k[sel]
        lo[sel] = np.where(k > 0, below[k - 1], 0.0)
        hi[sel] = grid[k]
        bisect(sel)
    return np.minimum(hi, s_max)
