"""Shared helpers: number formatting, direction grids, RNG plumbing, cut searches, ray walks."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


#: Most (cut, slot) cells an evaluator call of :func:`cached_cuts` spans when
#: it also takes the next bisection step's candidates, three cuts per live
#: bracket: above this the extra cuts cost more than the call they save.  The
#: 2D line search's grid rounds span this many too: a larger round reads more
#: cuts below the families' first reducing cuts.
SPECULATE_CELLS = 4096
#: Cells per block of every pass whose block only bounds memory and changes no
#: result: (cut, slot) per evaluator chunk, (query, slot) per count, directions
#: x slots per ray table block, faces per bracket split, events per grid read,
#: points x coordinates per fallback call of the walk; 64 kB a temporary.
BLOCK_CELLS = 1 << 13


def is_count(x) -> bool:
    """Whether ``x`` is an integer (Python or numpy), and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def signed_families(normals: np.ndarray, lo: np.ndarray, hi: np.ndarray, k: int):
    """A grid search's cut families ``m·z <= e`` as rows of ``(M, E, ends)``.

    Family 2j is normal j's side +1: ``m = n``, the offsets
    ``linspace(lo, hi, k + 2)[1:-1]`` of its support interval, support end
    ``hi``; family 2j + 1 its side -1: ``m = -n``, the offsets negated and
    reversed, end ``-lo``.
    The kept part grows with ``e`` on both sides.  Each row of the one
    ``linspace`` is bit for bit its own 1-D ``linspace`` unless some row's
    step is 0: numpy then switches every row to its subnormal-safe formula.
    """
    offsets = np.linspace(lo, hi, k + 2, axis=1)[:, 1:-1]
    M = np.stack([normals, -normals], 1).reshape(-1, normals.shape[1])
    E = np.stack([offsets, -offsets[:, ::-1]], 1).reshape(-1, k)
    return M, E, np.stack([hi, -lo], 1).ravel()


def family_cut(f: int, e: float) -> tuple[int, int, float]:
    """Family f's cut at ``e`` as its normal index, side and unsigned offset."""
    side = 1 - 2 * (f % 2)
    # A bracket (-x, x) bisects to e = +0.0, where side·e is -0.0; its offset is +0.0.
    return f // 2, side, side * e + 0.0


def cached_cuts(evaluate, cache: dict, keys: list, ahead, cells: int) -> tuple[np.ndarray, ...]:
    """Per column of ``evaluate``'s results, an array over the cuts ``keys``,
    (family, e) pairs.  ``cache`` maps each cut evaluated so far to its
    results, so no cut is evaluated twice: the missing keys go to one call
    ``evaluate(families, es)``, which, while it spans at most
    ``SPECULATE_CELLS`` cells (three cuts of ``cells`` slots per key), also
    takes the keys ``ahead()`` names, the next bisection step's candidates."""
    new = [key for key in keys if key not in cache]
    if new:
        if 3 * len(keys) * cells <= SPECULATE_CELLS:
            new += ahead()
        new = [key for key in dict.fromkeys(new) if key not in cache]
        f, e = (np.array(c) for c in zip(*new))
        cache.update(zip(new, zip(*(c.tolist() for c in evaluate(f, e)))))
    return tuple(np.array(c) for c in zip(*(cache[key] for key in keys)))


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


def seed_generator(seed: int) -> np.random.Generator:
    """The counter-based generator keyed by ``seed``, an integer in [0, 2**128)."""
    if not is_count(seed):
        raise ValueError("seed must be an integer")
    if not 0 <= int(seed) < 2**128:
        raise ValueError("seed must be an integer in [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=seed))


def rotation_from_seed(seed: int) -> np.ndarray:
    """Deterministic uniformly random 3x3 rotation matrix derived from a seed."""
    rng = seed_generator(seed)
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


# Steps of the coarse grid and of each verification grid of the first-exit walk below.
_EXIT_COARSE_STEPS = 128
_EXIT_VERIFY_STEPS = 512
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
    near ``BLOCK_CELLS`` cells.
    """
    directions = np.asarray(directions, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    u = _UNIT_ROUNDOFF
    norm1 = np.abs(vectors).sum(axis=1)
    alpha = 32.0 * u * (norm1 * scale + np.abs(thresholds))
    parts = []
    block = max(1, BLOCK_CELLS // len(vectors))
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


# Per event kind of ``_grid_segments``: how it moves the faces counting
# (inside) and the faces not certainly absent (within).
_EVENT_INSIDE = np.array([0, 1, -1, 0, 0])
_EVENT_WITHIN = np.array([0, 0, 0, 1, -1])


def _grid_segments(table: RayTable, first: int, stop: int, grid: np.ndarray):
    """Rows ``first:stop`` of ``table`` read on a sorted ``grid``, as runs of
    steps on which a row's count and its undecided faces stay the same.

    A face counts on the grid indices ``[a, b)`` between its ``lo_in`` and
    ``hi_in`` and is not certainly absent on ``[c, d)`` between ``lo_out``
    and ``hi_out``, four ``searchsorted``s.  One sort of (row, index) event
    keys, with a no-op key at each row's index 0, and a ``cumsum`` per tally
    give every segment in row-major order: its row (counted from
    ``first``), its first and end steps, the faces counting on it
    (``inside``) and those not certainly absent (``within``); it is
    undecided where ``within > inside``."""
    n = len(grid)
    ptr = table.ptr[first : stop + 1]
    lo_out, lo_in, hi_in, hi_out = table.bounds[:, ptr[0] : ptr[-1]]
    at = np.repeat(np.arange(stop - first) * (n + 1), np.diff(ptr))  # each face's row (n + 1)
    start = np.searchsorted(grid, lo_in, side="right")
    # A key is 8 (row (n + 1) + index) plus the event's kind.
    keys = np.concatenate(
        [
            np.arange(stop - first) * (8 * (n + 1)),
            8 * (at + start) + 1,
            8 * (at + np.maximum(start, np.searchsorted(grid, hi_in, side="left"))) + 2,
            8 * (at + np.searchsorted(grid, lo_out, side="left")) + 3,
            8 * (at + np.searchsorted(grid, hi_out, side="right")) + 4,
        ]
    )
    keys.sort()
    inside = np.cumsum(_EVENT_INSIDE[keys & 7])
    within = np.cumsum(_EVENT_WITHIN[keys & 7])
    pos = keys >> 3
    last = np.append(pos[1:] != pos[:-1], True)
    seg_row, seg_start = np.divmod(pos[last], n + 1)
    new_row = np.append(seg_row[1:] != seg_row[:-1], True)
    seg_end = np.where(new_row, n, np.append(seg_start[1:], n))
    return seg_row, seg_start, seg_end, inside[last], within[last]


def _bracket_faces(table: RayTable, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Split each row's faces against its closed bracket ``[lo, hi]``.

    A face with ``lo_in < lo`` and ``hi_in > hi`` counts on all of it, one
    with ``hi_in <= lo`` or ``lo_in >= hi`` never does, and then the band
    ``[lo_out, hi_out]`` where it is undecided covers the bracket or misses
    it, or neither.  Returns per row the count of the faces that count
    throughout, whether a face is undecided throughout, and the bounds of
    the faces that can change inside the bracket, (4, rows, c) padded with
    NaN, which no comparison passes.  The faces are split in blocks of
    about ``BLOCK_CELLS``."""
    sizes = table.ptr[rows + 1] - table.ptr[rows]
    base = np.zeros(len(rows), dtype=int)
    unsure = np.zeros(len(rows), dtype=bool)
    owners, kept = [np.zeros(0, dtype=int)], [np.zeros((4, 0))]
    block = max(1, BLOCK_CELLS // max(1, int(sizes.max(initial=0))))
    for i in range(0, len(rows), block):
        n = sizes[i : i + block]
        owner = np.repeat(np.arange(i, i + len(n)), n)
        cell = np.arange(len(owner)) + np.repeat(table.ptr[rows[i : i + block]] - (np.cumsum(n) - n), n)
        bounds = table.bounds[:, cell]
        lo_out, lo_in, hi_in, hi_out = bounds
        a, b = lo[owner], hi[owner]
        counts = (lo_in < a) & (hi_in > b)
        never = (hi_in <= a) | (lo_in >= b)
        covers = never & (lo_out <= a) & (hi_out >= b)
        change = ~(counts | covers | (never & ((hi_out < a) | (lo_out > b))))
        base += np.bincount(owner[counts], minlength=len(rows))
        unsure[owner[covers]] = True
        owners.append(owner[change])
        kept.append(bounds[:, change])
    owner = np.concatenate(owners)
    per_row = np.bincount(owner, minlength=len(rows))
    faces = np.full((4, len(rows), int(per_row.max(initial=0))), np.nan)
    faces[:, owner, np.arange(len(owner)) - (np.cumsum(per_row) - per_row)[owner]] = np.concatenate(kept, axis=1)
    return base, unsure, faces


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
    direction.  A row's count changes only where one of its face intervals
    ends, so each grid is read from per-row event lists (see
    ``_grid_segments``): a row's first bad step starts the first run of
    steps on which the table decides a count other than ``target_count``.
    A bisection splits each row's faces once against its bracket (see
    ``_bracket_faces``); each step then tests only the faces that can
    change inside it.  Only a query that the table leaves undecided goes to
    ``count_batch``, which stays the fallback: a grid asks it for each
    row's undecided steps below that row's first certainly bad one, in
    row-major order.  ``count_batch`` must give each point the count it
    gives that point alone; then the brackets, and so the distances, equal
    those of a walk that asks it for one step at a time.  A fallback query
    is formed exactly as that walk forms it, and a call holds at most
    ``BLOCK_CELLS // k`` points.
    """
    directions = np.asarray(directions, dtype=float)
    m = directions.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, np.inf)  # finite once a row's crossing is bracketed

    def scalar(steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        counts = np.empty(len(steps), dtype=int)
        block = max(1, BLOCK_CELLS // directions.shape[1])
        for i in range(0, len(steps), block):
            part = slice(i, i + block)
            counts[part] = count_batch(origin[None, :] + steps[part, None] * directions[rows[part]])
        return counts

    def first_bad(grid: np.ndarray) -> np.ndarray:
        # Per row, the first grid step where the count differs, or -1: the
        # step a one-step-at-a-time walk stops at.  Every grid lies below
        # every row's ``hi``.
        n = len(grid)
        first = np.full(m, -1)
        stop = np.full(m, n)
        asks = []
        i = 0
        while i < m:
            # Rows whose faces give about BLOCK_CELLS events.
            j = max(i + 1, int(np.searchsorted(table.ptr, table.ptr[i] + BLOCK_CELLS // 4, side="right")) - 1)
            row, start, end, inside, within = _grid_segments(table, i, j, grid)
            row += i
            # A row's first decided bad segment ends its walk.
            bad = (start < end) & (inside == within) & (inside != target_count)
            bad_row, bad_start = row[bad], start[bad]
            lead = bad_row != np.append(-1, bad_row[:-1])
            stop[bad_row[lead]] = first[bad_row[lead]] = bad_start[lead]
            # Its undecided steps below that go to the fallback.
            end = np.minimum(end, stop[row])
            ask = (within > inside) & (start < end)
            asks.append((row[ask], start[ask], end[ask]))
            i = j
        row, start, end = (np.concatenate(c) for c in zip(*asks))
        size = end - start
        ask_r = np.repeat(row, size)
        ask_k = np.arange(len(ask_r)) + np.repeat(start - (np.cumsum(size) - size), size)
        hit = scalar(grid[ask_k], ask_r) != target_count
        hit_r, hit_k = ask_r[hit], ask_k[hit]
        lead = hit_r != np.append(-1, hit_r[:-1])
        first[hit_r[lead]] = hit_k[lead]
        return first

    def bisect(rows: np.ndarray) -> None:
        a, b = lo[rows], hi[rows]
        base, unsure, faces = _bracket_faces(table, rows, a, b)
        for _ in range(200):
            live = (b - a) > tol
            if not live.all():
                lo[rows], hi[rows] = a, b
                rows, a, b, base, unsure, faces = rows[live], a[live], b[live], base[live], unsure[live], faces[:, live]
                if len(rows) == 0:
                    return
            mid = 0.5 * (a + b)
            s = mid[:, None]
            lo_out, lo_in, hi_in, hi_out = faces
            inside = (lo_in < s) & (s < hi_in)
            counts = base + np.count_nonzero(inside, axis=1)
            undecided = unsure | ((lo_out <= s) & (s <= hi_out) & ~inside).any(axis=1)
            if undecided.any():
                counts[undecided] = scalar(mid[undecided], rows[undecided])
            bad = counts != target_count
            a, b = np.where(bad, a, mid), np.where(bad, mid, b)
        lo[rows], hi[rows] = a, b

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
