"""Brownian rescaling of walks and two local-time estimators.

A walk with steps of unit size becomes an approximate Brownian path under
the classical invariance-principle rescaling: time shrinks by ``1/n`` and
space by ``n**-0.5``, giving a piecewise-linear path with knot spacing
``1/n`` and knot increments ``n**-0.5``.

Local time at a level ``y`` up to time ``t`` is estimated two independent
ways:

* band estimator -- ``(2*eps)**-1`` times the exact Lebesgue measure of
  ``{u <= t : |path(u) - y| < eps}``, read in closed form off the walk's
  lattice-edge crossing counts, for one level or a whole grid (no
  quadrature anywhere);
* occupation estimator -- the rescaled visit count
  ``n**-0.5 * L(j, ceil(n*t))`` at the lattice site ``j`` nearest to
  ``y * sqrt(n)`` (ties snapped toward zero).

Both converge to the same limit; their agreement is one of the checks the
statistical suite runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .walk import OccupationField, _check_steps

__all__ = [
    "ScaledPath",
    "default_band_width",
    "band_local_time",
    "local_time_profile",
]


def default_band_width(n: int) -> float:
    """Default band half-width ``n**-0.25``.

    The band must shrink more slowly than the path's spatial resolution
    ``n**-0.5``; the quarter-power balances band bias against the walk's
    approximation error.
    """
    return float(n) ** -0.25


@dataclass(frozen=True)
class ScaledPath:
    """A walk rescaled to the piecewise-linear path with knots
    ``(k/n, positions[k]/sqrt(n))``.

    ``positions`` are the walk's lattice sites, a signed-integer array in
    which every step is +1 or -1; both local-time estimators read them.  A
    walk of zero steps is its one starting site, a path that exists only at
    ``t = 0``.  Both estimators read one running wall of the walk's prefix
    kept on the path (:func:`_wall_at`), so ``positions`` must not change
    after the first estimate.
    """

    n: int
    positions: np.ndarray
    _wall: tuple = field(default=(-1, OccupationField()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (
            isinstance(self.positions, np.ndarray)
            and np.issubdtype(self.positions.dtype, np.signedinteger)
        ):
            raise ValueError("path positions must be a numpy array of signed integers")
        if self.n < 1:
            raise ValueError(f"scale parameter n must be >= 1, got {self.n}")
        if len(self.positions) < 1:
            raise ValueError("path must hold at least one site")
        pos = self.positions
        up = (pos[1:] > pos[:-1]).view(np.int8)
        # ``diff`` wraps in the positions' dtype (127 to -128 reads +1 in
        # int8), so each step must also agree with the order of its sites.
        if not np.array_equal(np.diff(pos), 2 * up - 1):
            raise ValueError("path steps must be +1 or -1")

    @property
    def n_segments(self) -> int:
        return len(self.positions) - 1

    @property
    def horizon(self) -> float:
        return self.n_segments / self.n


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_positive(name: str, value: float) -> None:
    """Reject ``value`` unless it is finite and > 0 (NaN included)."""
    _check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _check_time(t: float, horizon: float) -> None:
    if not 0.0 <= t <= horizon * (1 + 1e-12):
        raise ValueError(f"t must be in [0, {horizon}], got {t}")


def _steps_for(t: float, n: int) -> int:
    """Walk steps needed to reach time ``t`` at scale ``n``: ``ceil(t*n)``,
    less the round-off of ``t = k/n`` (up to 1e-9 of a step)."""
    return math.ceil(t * n - 1e-9)


def _walk_steps(t: float, n: int) -> int:
    """Steps of a walk simulated to time ``t`` at scale ``n``: at least one,
    and at most 2**62 (``ValueError`` beyond)."""
    steps = max(_steps_for(t, n), 1)
    _check_steps(steps)
    return steps


def _active_segments(t: float, n: int, n_segments: int) -> int:
    """Number of segments intersecting [0, t], for ``t >= 0``."""
    return min(n_segments, _steps_for(t, n))


def band_local_time(path: ScaledPath, y: float, t: float, eps: float | None = None) -> float:
    """Band-occupation estimate of the local time at level ``y``.

    This is the one-level band :func:`local_time_profile`, so point
    estimates and profiles agree exactly and ``eps`` defaults alike.
    """
    return float(local_time_profile(path, t, [y], eps)[0])


def snap_level(y, n: int):
    """Lattice site nearest to ``y * sqrt(n)``, ties toward zero (elementwise)."""
    # No walk reaches 2**62; the clip keeps the int64 cast defined.
    z = np.clip(np.asarray(y, dtype=float) * np.sqrt(float(n)), -(2.0**62), 2.0**62)
    return (np.sign(z) * np.ceil(np.abs(z) - 0.5)).astype(np.int64)


def _wall_at(path: ScaledPath, m: int) -> OccupationField:
    """The wall of the walk's first ``m + 1`` sites.  The path keeps its last
    one: a later ``m`` grows it, an earlier one starts again from empty.
    ``_grow`` builds new arrays, so a wall handed out never changes and
    threads sharing a path need no lock.  Only the new sites' span is tallied."""
    done, wall = path._wall
    if m < done:
        done, wall = -1, OccupationField()
    if m > done:
        sites = path.positions[done + 1 : m + 1]
        lo = int(sites.min())
        wall = wall._grow(lo, np.bincount(np.subtract(sites, lo, dtype=np.int64)))[0]
    object.__setattr__(path, "_wall", (m, wall))
    return wall


def _band_profile(
    path: ScaledPath, t: float, levels: np.ndarray, eps: float
) -> np.ndarray:
    """Band-estimator profile over a level grid from lattice-edge counts.

    Every step is +1 or -1, so each whole segment crosses one lattice edge
    in time ``1/n`` at constant speed: the time spent below a lattice
    coordinate is piecewise linear between sites, with the edge's crossing
    count as its slope, and the band measure is its difference across the
    band.  A partial last segment is clipped on its own; it exists only when
    :func:`_active_segments` counts one more segment than ``floor(t*n)``, so
    a sliver within the round-off of ``t = k/n`` is dropped.

    The crossings ``c(j)`` of edge ``(j, j+1)`` come from the blocks ``L``
    of the path's running wall (:func:`_wall_at`) by the visit identity
    ``c(j-1) + c(j) = 2*L(j) - [j = S_0] - [j = S_full]``, solved upward
    from the lowest site as one alternating-sign sum.  A band with
    ``eps*sqrt(n) < 2**-30 * max(full, 1)`` would cancel in the difference
    of cumulative counts, so it raises ``ValueError``.
    """
    pos = path.positions
    k = _active_segments(t, path.n, path.n_segments)
    full = min(k, math.floor(t * path.n))
    root_n = np.sqrt(float(path.n))
    least = 2.0**-30 * max(full, 1) / root_n
    if eps < least:
        raise ValueError(f"eps must be >= {least:.3g} for {full} steps at n = {path.n}, got {eps}")
    wall = _wall_at(path, full)
    twice = 2 * wall.counts
    # One at a time: the walk may end where it started.
    twice[int(pos[0]) - wall.min_site] -= 1
    twice[int(pos[full]) - wall.min_site] -= 1
    sign = 1 - 2 * (np.arange(len(twice)) & 1)
    crossings = sign * np.cumsum(sign * twice)
    below = np.concatenate([[0.0], np.cumsum(crossings[:-1])])
    sites = np.arange(wall.min_site, wall.min_site + len(below))
    a = (levels - eps) * root_n
    b = (levels + eps) * root_n
    measure = np.interp(b, sites, below) - np.interp(a, sites, below)
    if k > full:
        theta = t * path.n - full
        x0, x1 = pos[full], pos[full + 1]
        start = min(x0, x0 + theta * (x1 - x0))
        measure += np.clip(b - start, 0.0, theta) - np.clip(a - start, 0.0, theta)
    return measure / (path.n * 2.0 * eps)


def _occupation_profile(path: ScaledPath, t: float, levels: np.ndarray) -> np.ndarray:
    wall = _wall_at(path, _active_segments(t, path.n, path.n_segments))
    idx = snap_level(levels, path.n) - wall.min_site
    valid = (idx >= 0) & (idx < len(wall.counts))
    values = np.zeros(len(levels))
    values[valid] = wall.counts[idx[valid]] / np.sqrt(float(path.n))
    return values


def local_time_profile(
    path: ScaledPath,
    t: float,
    levels,
    eps: float | None = None,
    estimator: str = "band",
) -> np.ndarray:
    """Estimated local time at time ``t`` on each level of a strictly
    increasing grid of finite levels, as an array in the order of ``levels``;
    the band half-width ``eps`` defaults to :func:`default_band_width`."""
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("level grid must be non-empty")
    if not np.isfinite(levels).all():
        raise ValueError("levels must be finite")
    if levels.size > 1 and not np.all(np.diff(levels) > 0):
        raise ValueError("level grid must be strictly increasing")
    _check_time(t, path.horizon)
    if eps is not None:
        _check_positive("eps", eps)
    if estimator == "band":
        eps = default_band_width(path.n) if eps is None else eps
        return _band_profile(path, t, levels, eps)
    if estimator == "occupation":
        return _occupation_profile(path, t, levels)
    raise ValueError(f"unknown estimator {estimator!r}")
