"""The space-filling curve traced by the walker and its wall.

The curve pairs the walker's rescaled position with the current wall
height at that position: point ``k`` of the trace is
``(k/n, positions[k]/sqrt(n), local_time_estimate)``.  With the occupation
estimator the height is simply the rescaled running visit count at the
current site, which is the discrete wall height itself.  The limit curve
is plane-filling in the upper half-plane and sweeps area at unit rate
(``|c| * d`` after scaling position by ``c`` and height by ``d``), which
:func:`wall_area` verifies exactly and :func:`coverage_check` probes on a
finite window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scaling import (
    ScaledPath,
    _active_segments,
    _check_finite,
    _check_positive,
    _check_time,
    band_local_time,
)
# ``stream`` is only called through ``walk_sites``; the benchmark's tracer
# still looks the name up in this module.
from .walk import OccupationField, stream, walk_sites  # noqa: F401

__all__ = [
    "CurveTrace",
    "Window",
    "CoverageReport",
    "build_trace",
    "scale_trace",
    "wall_area",
    "coverage_check",
    "fill_order_check",
]


@dataclass(frozen=True)
class CurveTrace:
    """Sampled curve points (t, x, h) with strictly increasing t."""

    times: np.ndarray
    levels: np.ndarray
    heights: np.ndarray


@dataclass(frozen=True)
class Window:
    """Axis-aligned target rectangle [x_lo, x_hi] x [0, h_hi]."""

    x_lo: float
    x_hi: float
    h_hi: float


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of driving the curve until it covers a cell grid.

    ``first_cover_time[i, j]`` is the time of the first trace point in
    cell (i, j), NaN while uncovered.  Cells are half-open squares of side
    ``delta`` anchored at (x_lo, 0).  The grid is covered when
    ``covered_count == total_count``; ``steps_used`` is then the step of
    its last first cover, and otherwise the whole step budget.
    """

    covered_count: int
    total_count: int
    first_cover_time: np.ndarray
    steps_used: int


_BAND_TRACE_POINTS = 129


def build_trace(
    path: ScaledPath, estimator: str = "occupation", eps: float | None = None
) -> CurveTrace:
    """Trace the curve along a rescaled walk, at the path's scale ``n``.

    The occupation estimator emits one point per step (the height is the
    running visit count at the current site, rescaled); the band estimator
    is evaluated at ``_BAND_TRACE_POINTS`` evenly strided steps (every step
    of a shorter walk) for cross-validation, each point a binary search per
    site in range of the path's edge index, which the first point builds.
    """
    n, positions = path.n, path.positions
    root_n = np.sqrt(float(n))
    if estimator == "occupation":
        times = np.arange(path.n_segments + 1) / n
        levels = positions / root_n
        heights = OccupationField().drop(positions)[1] / root_n
        return CurveTrace(times, levels, heights)
    if estimator == "band":
        count = min(path.n_segments + 1, _BAND_TRACE_POINTS)
        ks = np.unique(np.linspace(0, path.n_segments, count).astype(np.int64))
        times = ks / n
        levels = positions[ks] / root_n
        heights = np.array(
            [band_local_time(path, x, t, eps) for x, t in zip(levels, times)]
        )
        return CurveTrace(times, levels, heights)
    raise ValueError(f"unknown estimator {estimator!r}")


def _check_factors(c: float, d: float) -> None:
    """Reject a position factor ``c`` that is 0 or not finite, or a height
    factor ``d`` that is not finite and > 0."""
    _check_finite("position factor c", c)
    if c == 0:
        raise ValueError("position factor c must be nonzero")
    _check_positive("height factor d", d)


def scale_trace(trace: CurveTrace, c: float, d: float) -> CurveTrace:
    """Scale positions by ``c`` and heights by ``d`` (area rate |c|*d).

    A factor so large that a scaled level or height overflows to infinity
    raises ``ValueError``.
    """
    _check_factors(c, d)
    with np.errstate(over="ignore"):
        levels, heights = c * trace.levels, d * trace.heights
    if not np.isfinite(levels).all():
        raise ValueError(f"position factor c = {c} makes a level non-finite")
    if not np.isfinite(heights).all():
        raise ValueError(f"height factor d = {d} makes a height non-finite")
    return CurveTrace(trace.times, levels, heights)


def wall_area(path: ScaledPath, t: float, c: float = 1.0, d: float = 1.0) -> float:
    """Exact wall area at time ``t`` for the (c, d)-scaled curve.

    The band estimator's profile integrates per segment to exactly the
    segment's duration, independent of ``eps`` (the band indicator always
    integrates to ``2*eps`` over levels).  The closed-form accumulation is
    therefore the sum of segment durations, scaled by ``|c| * d``; only
    floating-point rounding separates the result from ``|c| * d * t``.
    Factors so large that the area overflows to infinity raise
    ``ValueError``, as in :func:`scale_trace`.
    """
    _check_factors(c, d)
    _check_time(t, path.horizon)
    k = _active_segments(t, path.n, path.n_segments)
    if k == 0:
        return 0.0
    durations = np.full(k, 1.0 / path.n)
    if k / path.n > t:
        durations[-1] = max(t - (k - 1) / path.n, 0.0)
    area = abs(c) * d * float(durations.sum())
    _check_finite(f"area of factors c = {c}, d = {d}", area)
    return area


def fill_order_check(trace: CurveTrace) -> list[tuple[int, int]]:
    """Index pairs (i, j) of consecutive visits to one position where the height drops.

    ``j`` is the next index after ``i`` with the same position.  The list is
    empty exactly when the height at every position is non-decreasing in
    time, as for any trace built by :func:`build_trace`: the wall at a fixed
    position only ever grows.  Its length is below ``len(trace.times)``.
    """
    order = np.argsort(trace.levels, kind="stable")
    same = trace.levels[order[1:]] == trace.levels[order[:-1]]
    hits = np.flatnonzero(same & (trace.heights[order[1:]] < trace.heights[order[:-1]]))
    return list(zip(order[hits].tolist(), order[hits + 1].tolist()))


_BLOCK_STEPS = 1 << 16
_MAX_CELLS = 1 << 24
_UNCOVERED = np.iinfo(np.int64).max


def coverage_check(
    seed: int,
    window: Window,
    delta: float,
    step_budget: int,
    n: int,
) -> CoverageReport:
    """Run the curve until every cell of the window grid is touched.

    Cells are marked by trace points, not interpolated crossings, so the
    scale must satisfy ``n**-0.5`` well below ``delta`` or the bottom row
    of cells cannot be reached (heights move in steps of ``n**-0.5``).
    A grid of more than ``_MAX_CELLS`` cells raises ``ValueError``.

    The walk streams in blocks of ``_BLOCK_STEPS`` steps after the origin
    block at step 0, each read by its step index
    (:func:`~wallcurve.walk.walk_sites`), with per-site visit counts
    carried across blocks by the streaming wall
    (:meth:`~wallcurve.walk.OccupationField.drop`), so memory stays
    bounded.  Each cell keeps the step of its first trace point, and the
    run stops after the block that covers the grid or spends the budget;
    the stop test reads the lowest uncovered cell and scans on from it only
    once that cell is covered.  No result depends on the block size, and
    covered counts are monotone in the budget.
    """
    if not window.x_lo < window.x_hi:
        raise ValueError("window must satisfy x_lo < x_hi")
    if window.h_hi <= 0:
        raise ValueError("window must extend above h = 0")
    _check_positive("cell size delta", delta)
    if step_budget < 1:
        raise ValueError(f"step budget must be >= 1, got {step_budget}")
    if n < 1:
        raise ValueError(f"scale parameter n must be >= 1, got {n}")

    cells = np.ceil([(window.x_hi - window.x_lo) / delta, window.h_hi / delta])
    if not np.isfinite(cells).all():
        raise ValueError(f"{cells[0]:g} x {cells[1]:g} cells of size {delta} are not a finite grid")
    nx, nh = map(int, cells)
    if nx * nh > _MAX_CELLS:
        raise ValueError(
            f"{nx} x {nh} = {nx * nh} cells of size {delta} exceed the limit of {_MAX_CELLS}"
        )
    total = nx * nh
    first = np.full(total, _UNCOVERED, dtype=np.int64)
    cursor = 0  # the lowest uncovered cell, or ``total`` once there is none
    root_n = np.sqrt(float(n))

    # ``step`` is the step of ``sites[0]``, so the origin block is step 0.
    wall, step, sites = OccupationField(), 0, walk_sites(seed, 0, 0, 0, 0)
    while True:
        wall, counts = wall.drop(sites)
        x, h = sites / root_n, counts / root_n
        # Heights are at least n**-0.5 and x >= x_lo, so no index is negative.
        inside = np.flatnonzero((x >= window.x_lo) & (x < window.x_hi) & (h < window.h_hi))
        ix = np.minimum(((x[inside] - window.x_lo) / delta).astype(np.int64), nx - 1)
        ih = np.minimum((h[inside] / delta).astype(np.int64), nh - 1)
        np.minimum.at(first, ix * nh + ih, step + inside)
        step += len(sites)
        if first[cursor] != _UNCOVERED:
            rest = first[cursor:] == _UNCOVERED
            cursor = cursor + int(rest.argmax()) if rest.any() else total
        if step > step_budget or cursor == total:
            break
        use = min(_BLOCK_STEPS, step_budget + 1 - step)
        # Site ``step`` is reached by the stream's step ``step - 1``.
        sites = walk_sites(seed, 0, 0, step - 1, use, start=int(sites[-1]))[1:]

    first = first.reshape(nx, nh)
    steps_used = int(first.max()) if cursor == total else step_budget
    uncovered = first == _UNCOVERED
    times = first.astype(np.float64)
    times /= n
    times[uncovered] = np.nan
    return CoverageReport(total - int(np.count_nonzero(uncovered)), total, times, steps_used)
