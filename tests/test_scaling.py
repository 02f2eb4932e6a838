"""Rescaling and the two local-time estimators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallcurve import (
    OccupationField,
    ScaledPath,
    band_local_time,
    build_trace,
    default_band_width,
    ks_two_sample,
    local_time_profile,
    sample_identity_pair,
    simulate_walk,
    wall_area,
)
from wallcurve.scaling import _active_segments, _steps_for, snap_level


def _knot_times(path):
    return np.arange(len(path.positions)) / path.n


def _knot_values(path):
    return path.positions / np.sqrt(float(path.n))


def occupation_local_time(path, y, t):
    """The occupation estimate at one level ``y``: the one-level profile."""
    return float(local_time_profile(path, t, [y], estimator="occupation")[0])


def _knots(path):
    """The knots ``(k/n, positions[k]/sqrt(n))`` of a rescaled walk."""
    return list(zip(_knot_times(path).tolist(), _knot_values(path).tolist()))


def test_rescale_identity_scale():
    assert _knots(ScaledPath(n=1, positions=np.array([0, 1]))) == [(0.0, 0.0), (1.0, 1.0)]


def test_rescale_hand_case():
    assert _knots(ScaledPath(n=4, positions=np.array([0, 1, 0, -1]))) == [
        (0.0, 0.0),
        (0.25, 0.5),
        (0.5, 0.0),
        (0.75, -0.5),
    ]


def test_rescale_rejects_bad_scale():
    with pytest.raises(ValueError):
        ScaledPath(n=0, positions=simulate_walk(5, seed=0))


def test_band_local_time_flat_path():
    # A ScaledPath is a rescaled walk: flat segments, steps other than +1 or
    # -1, a scale below 1 and a path without a site cannot be built.  A walk
    # of zero steps can, and every estimate on it is taken at t = 0.
    with pytest.raises(ValueError, match="steps must be"):
        ScaledPath(n=1, positions=np.array([0, 2, 1]))
    with pytest.raises(ValueError, match="steps must be"):
        ScaledPath(n=1, positions=np.array([0, 0]))
    with pytest.raises(ValueError, match="n must be >= 1"):
        ScaledPath(n=0, positions=np.array([0, 1]))
    with pytest.raises(ValueError, match="at least one site"):
        ScaledPath(n=1, positions=np.array([], dtype=np.int64))
    point = ScaledPath(n=1, positions=np.array([0]))
    assert band_local_time(point, 0.0, 0.0, 0.5) == 0.0
    assert occupation_local_time(point, 0.0, 0.0) == 1.0
    assert wall_area(point, 0.0) == 0.0


@pytest.mark.parametrize(
    "positions",
    [np.array([127, -128], dtype=np.int8), np.array([2**63 - 1, -(2**63)], dtype=np.int64)],
)
def test_scaled_path_rejects_a_step_that_wraps(positions):
    # ``np.diff`` wraps in the positions' dtype, where each of these steps
    # reads +1.
    with pytest.raises(ValueError, match="steps must be"):
        ScaledPath(n=1, positions=positions)


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_narrow_dtype_walk_gives_the_int64_band_estimates(dtype):
    # Its sites, counted from the lowest, run to 200 and overflow int8.
    wide = ScaledPath(n=4, positions=np.arange(-100, 101))
    narrow = ScaledPath(n=4, positions=wide.positions.astype(dtype))
    levels = np.linspace(-60.0, 60.0, 241)
    for t in (0.0, 10.0, 20.3, wide.horizon):
        assert np.array_equal(
            local_time_profile(narrow, t, levels), local_time_profile(wide, t, levels)
        )
    assert np.array_equal(build_trace(narrow, "band").heights, build_trace(wide, "band").heights)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_band_profile_tallies_a_fresh_wall_without_copying_the_walk(dtype):
    # A fresh path's wall is tallied from the sites less their minimum, one
    # int64 array of the walk's length (7.6 MiB here) and the grid.  A copy
    # of the walk made before that subtraction doubles the peak to 15.3 MiB.
    path = ScaledPath(n=10**6, positions=simulate_walk(10**6, seed=1).astype(dtype))
    levels = np.linspace(-3.0, 3.0, 101)
    tracemalloc.start()
    try:
        local_time_profile(path, 1.0, levels, estimator="band")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20


def test_band_too_narrow_for_float64_is_refused():
    # The band measure is a difference of cumulative crossing counts, which
    # cancels below about 2**-30 of the count: eps = 1e-15 read 1.776 here,
    # where the exact value is 1.5.
    spath = ScaledPath(n=1, positions=np.array([0, 1, 2, 1, 2]))
    with pytest.raises(ValueError, match=r"eps must be >= 3.73e-09 for 4 steps"):
        band_local_time(spath, 2.0, 4.0, 1e-15)
    assert band_local_time(spath, 2.0, 4.0, 1e-6) == 1.4999999997655777


@pytest.mark.parametrize("positions", [np.array([0.5, 1.5, 0.5]), [0, 1]])
def test_scaled_path_rejects_non_integer_array_positions(positions):
    with pytest.raises(ValueError, match="numpy array of signed integers"):
        ScaledPath(n=1, positions=positions)


def _one_step_path():
    return ScaledPath(n=1, positions=np.array([0, 1]))


def test_band_local_time_single_segment_clip():
    seg = _one_step_path()
    assert band_local_time(seg, 0.5, 1.0, 0.25) == pytest.approx(1.0, abs=1e-15)


def test_band_local_time_argument_errors():
    seg = _one_step_path()
    with pytest.raises(ValueError):
        band_local_time(seg, 0.0, 1.5, 0.25)
    with pytest.raises(ValueError):
        band_local_time(seg, 0.0, 0.5, 0.0)


def test_band_local_time_monotone_in_time():
    spath = ScaledPath(n=600, positions=simulate_walk(600, seed=8))
    eps = default_band_width(600)
    for y in (-0.4, 0.0, 0.3):
        values = [band_local_time(spath, y, t, eps) for t in np.linspace(0, 1, 9)]
        assert np.all(np.diff(values) >= -1e-15)


def test_snap_level_ties_toward_zero():
    n = 4  # sqrt(n) = 2, so y = 1.25 maps to lattice coordinate 2.5
    assert snap_level(1.25, n) == 2
    assert snap_level(-1.25, n) == -2
    assert snap_level(1.3, n) == 3
    assert snap_level(0.0, n) == 0


def test_occupation_local_time_initial_block():
    path = ScaledPath(n=100, positions=simulate_walk(100, seed=1))
    assert occupation_local_time(path, 0.0, 0.0) == pytest.approx(0.1)


def test_occupation_local_time_hand_case():
    path = ScaledPath(n=4, positions=np.array([0, 1, 0, -1]))
    assert occupation_local_time(path, 0.0, 0.75) == pytest.approx(1.0)


def test_occupation_local_time_unvisited_level():
    path = ScaledPath(n=4, positions=np.array([0, 1, 0, -1]))
    assert occupation_local_time(path, 25.0, 0.75) == 0.0


def test_occupation_local_time_bounds():
    path = ScaledPath(n=4, positions=np.array([0, 1, 0, -1]))
    with pytest.raises(ValueError):
        occupation_local_time(path, 0.0, 1.0)


def test_profile_grid_validation():
    spath = ScaledPath(n=20, positions=simulate_walk(20, seed=0))
    with pytest.raises(ValueError):
        local_time_profile(spath, 0.5, [])
    with pytest.raises(ValueError):
        local_time_profile(spath, 0.5, [0.0, 0.0])
    with pytest.raises(ValueError):
        local_time_profile(spath, 0.5, [0.1], estimator="nope")
    for bad in ([np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        for estimator in ("band", "occupation"):
            with pytest.raises(ValueError, match="levels must be finite"):
                local_time_profile(spath, 0.5, bad, estimator=estimator)
    with pytest.raises(ValueError, match="levels must be finite"):
        band_local_time(spath, np.nan, 0.5)


def test_band_local_time_default_width_is_the_profile_default():
    spath = ScaledPath(n=300, positions=simulate_walk(300, seed=4))
    levels = np.linspace(-0.5, 0.5, 11)
    points = [band_local_time(spath, y, 0.7) for y in levels]
    assert points == local_time_profile(spath, 0.7, levels).tolist()
    assert points == [band_local_time(spath, y, 0.7, default_band_width(300)) for y in levels]


def test_profile_at_time_zero():
    spath = ScaledPath(n=100, positions=simulate_walk(100, seed=6))
    levels = np.linspace(-1, 1, 21)
    band = local_time_profile(spath, 0.0, levels, estimator="band")
    assert np.all(band == 0.0)
    assert all(band_local_time(spath, y, 0.0, default_band_width(100)) == 0.0 for y in levels)
    occ = local_time_profile(spath, 0.0, levels, estimator="occupation")
    near_zero = np.abs(levels * 10) <= 0.5
    assert np.allclose(occ[near_zero], 0.1)
    assert np.all(occ[~near_zero] == 0.0)


def test_profile_vanishes_outside_path_range():
    spath = ScaledPath(n=500, positions=simulate_walk(500, seed=9))
    eps = 0.2
    hi = _knot_values(spath).max() + eps
    lo = _knot_values(spath).min() - eps
    levels = np.array([lo - 1.0, lo - 0.01, hi + 0.01, hi + 1.0])
    prof = local_time_profile(spath, 1.0, levels, eps, "band")
    assert np.all(prof == 0.0)


def test_band_local_time_matches_dense_sampling_oracle():
    # Brute force the band measure by sampling the interpolated path on a
    # fine grid, on short random walks.
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        positions = np.concatenate([[0], np.cumsum(rng.choice([-1, 1], size=n))])
        spath = ScaledPath(n=n, positions=positions)
        t = float(rng.uniform(0.3, 1.0)) * spath.horizon
        y = float(rng.normal(scale=0.5))
        eps = float(rng.uniform(0.05, 0.5))
        u = np.linspace(0.0, t, 200_001)
        curve = np.interp(u, _knot_times(spath), _knot_values(spath))
        brute = np.mean(np.abs(curve - y) < eps) * t / (2 * eps)
        exact = band_local_time(spath, y, t, eps)
        assert exact == pytest.approx(brute, abs=2e-3)


def test_occupation_local_time_snaps_ties_toward_zero():
    path = ScaledPath(n=4, positions=np.array([0, 1, 2, 1]))  # sqrt(n) = 2
    # y = 0.25 has lattice coordinate 0.5: ties resolve to site 0 (2 visits
    # counting the initial block would be site 0's; site 1 has 2 visits too,
    # so probe y = 0.75 -> coordinate 1.5 -> site 1).
    assert occupation_local_time(path, 0.25, 0.75) == pytest.approx(1 / 2)
    assert occupation_local_time(path, -0.25, 0.75) == pytest.approx(1 / 2)
    assert occupation_local_time(path, 0.75, 0.75) == pytest.approx(2 / 2)


def test_band_profile_matches_direct_clipping():
    # Lattice-edge counts against clipping every segment against the band.
    for seed, t in [(11, 0.9), (12, 1.0), (13, 0.37)]:
        spath = ScaledPath(n=2000, positions=simulate_walk(2000, seed=seed))
        eps = default_band_width(2000)
        levels = np.linspace(-1.5, 1.5, 77)
        profile = local_time_profile(spath, t, levels, eps, "band")
        direct = np.array([_band_local_time_reference(spath, y, t, eps) for y in levels])
        assert np.abs(profile - direct).max() < 1e-12


def test_band_sliver_past_a_knot_is_dropped():
    # t lies 1e-9 of a step past knot 13, within the round-off of t = k/n:
    # point and profile both stop at the knot, where the band holds 1 of 2.
    positions = np.array([0, -1, -2, -1, -2, -3, -4, -5, -4, -3, -2, -1, -2, -1, 0])
    spath = ScaledPath(n=1, positions=positions)
    t = 13.000000001
    point = band_local_time(spath, 0.0, t, 1.0)
    profile = local_time_profile(spath, t, [0.0], 1.0, "band")[0]
    assert profile == point == 0.5


def test_band_profile_integrates_to_elapsed_time():
    # Trapezoid rule on a grid finer than eps/4 recovers t to 1e-3 relative.
    spath = ScaledPath(n=2000, positions=simulate_walk(2000, seed=11))
    eps = default_band_width(2000)
    t = 0.9
    values = _knot_values(spath)
    grid = np.arange(values.min() - 2 * eps, values.max() + 2 * eps, eps / 5)
    values = local_time_profile(spath, t, grid, eps, "band")
    assert abs(np.trapezoid(values, grid) - t) < 1e-3 * t


def test_occupation_profile_mass_identity():
    # Summing site counts over the lattice gives (m + 1) / n exactly.
    n = 2000
    path = ScaledPath(n=n, positions=simulate_walk(n, seed=11))
    sites = np.arange(path.positions.min(), path.positions.max() + 1)
    levels = sites / np.sqrt(n)
    prof = local_time_profile(path, 1.0, levels, estimator="occupation")
    mass = prof.sum() / np.sqrt(n)
    assert mass == pytest.approx((n + 1) / n, rel=1e-12)


def test_profile_monotone_in_time_per_level():
    path = ScaledPath(n=800, positions=simulate_walk(800, seed=14))
    levels = np.linspace(-1, 1, 31)
    eps = default_band_width(800)
    prev_band = np.zeros_like(levels)
    prev_occ = np.zeros_like(levels)
    for t in (0.2, 0.5, 0.8, 1.0):
        band = local_time_profile(path, t, levels, eps, "band")
        occ = local_time_profile(path, t, levels, None, "occupation")
        assert np.all(band >= prev_band - 1e-12)
        assert np.all(occ >= prev_occ)
        prev_band, prev_occ = band, occ


def test_profile_mirror_symmetry():
    path = ScaledPath(n=600, positions=simulate_walk(600, seed=15))
    mirrored = ScaledPath(n=600, positions=-path.positions)
    levels = np.linspace(-1.2, 1.2, 49)  # symmetric grid
    eps = default_band_width(600)
    for est in ("band", "occupation"):
        fwd = local_time_profile(path, 1.0, levels, eps, est)
        rev = local_time_profile(mirrored, 1.0, levels, eps, est)
        assert np.allclose(fwd, rev[::-1], atol=1e-12)


def test_rescaled_counts_match_half_normal_construction():
    # Occupation local time at 0 vs the running-maximum realization of the
    # same law, on independent streams.
    occ = sample_identity_pair(1.0, 77, 2500, "reversal", 500)[:, 1]
    ref = sample_identity_pair(1.0, 77, 2500, "levy", 500)[:, 1]
    _, p = ks_two_sample(occ, ref)
    assert p > 0.001


def _band_local_time_reference(path, y, t, eps):
    """Reference for ``band_local_time``: each active segment clipped against the band."""
    k = _active_segments(t, path.n, path.n_segments)
    if k == 0:
        return 0.0
    values = _knot_values(path)
    x0 = values[:k]
    x1 = values[1 : k + 1]
    s_max = np.minimum(1.0, t * path.n - np.arange(k))
    lo, hi = y - eps, y + eps
    sa = (lo - x0) / (x1 - x0)
    sb = (hi - x0) / (x1 - x0)
    s1 = np.minimum(sa, sb)
    s2 = np.maximum(sa, sb)
    s1 = np.clip(s1, 0.0, s_max)
    s2 = np.clip(s2, 0.0, s_max)
    measure = float(np.maximum(s2 - s1, 0.0).sum()) / path.n
    return measure / (2.0 * eps)


@st.composite
def walk_paths(draw):
    """A rescaled walk; its lattice step in space is ``n**-0.5``."""
    n_steps = draw(st.integers(1, 400))
    n = draw(st.integers(1, 2 * n_steps))
    spath = ScaledPath(n=n, positions=simulate_walk(n_steps, draw(st.integers(0, 2**32))))
    return spath, 1.0 / np.sqrt(n)


@st.composite
def band_cases(draw):
    """A rescaled walk, a band half-width, a level and a time for ``band_local_time``.

    ``eps`` runs from a quarter of one lattice step to wider than the path;
    ``y`` sits on a knot, at a knot plus or minus ``eps``, or anywhere near
    the path; ``t`` sits on a knot time or between two.
    """
    spath, step = draw(walk_paths())
    values = _knot_values(spath)
    width = float(np.ptp(values)) + step
    eps = step * 2.0 ** draw(st.floats(-2.0, np.log2(width / step) + 1.0))
    knot = float(values[draw(st.integers(0, spath.n_segments))])
    y = draw(
        st.sampled_from([knot, knot - eps, knot + eps])
        | st.floats(float(values.min()) - 2 * eps, float(values.max()) + 2 * eps)
    )
    k = draw(st.integers(0, spath.n_segments))
    frac = 0.0 if k == spath.n_segments else draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0))
    return spath, y, (k + frac) / spath.n, eps


@settings(max_examples=300, deadline=None)
@given(case=band_cases())
def test_band_local_time_equals_full_length_reference(case):
    # Edge counts and per-segment clipping round differently.
    spath, y, t, eps = case
    got = band_local_time(spath, y, t, eps)
    assert abs(got - _band_local_time_reference(spath, y, t, eps)) <= 1e-12 * t / (2 * eps)


@settings(max_examples=200, deadline=None)
@given(case=band_cases(), later=st.floats(0.0, 1.0))
def test_band_local_time_never_decreases_in_time(case, later):
    spath, y, t, eps = case
    t2 = t + later * (spath.horizon - t)
    before = band_local_time(spath, y, t, eps)
    after = band_local_time(spath, y, t2, eps)
    # A longer time sums more segments, so numpy's pairwise summation tree
    # can change shape; the order holds up to a few ulps of the total.
    assert after >= before * (1 - 1e-13)


def _band_profile_by_bincount(path, t, levels, eps):
    """The band kernel as first written: every call counts the edges that the
    walk prefix crosses with one ``bincount``."""
    pos = path.positions
    k = _active_segments(t, path.n, path.n_segments)
    full = min(k, math.floor(t * path.n))
    edges = np.minimum(pos[:full], pos[1 : full + 1])
    lo = pos[: full + 1].min()
    below = np.concatenate([[0.0], np.cumsum(np.bincount(edges - lo))])
    sites = np.arange(lo, lo + len(below))
    root_n = np.sqrt(float(path.n))
    a = (levels - eps) * root_n
    b = (levels + eps) * root_n
    measure = np.interp(b, sites, below) - np.interp(a, sites, below)
    if k > full:
        theta = t * path.n - full
        x0, x1 = pos[full], pos[full + 1]
        start = min(x0, x0 + theta * (x1 - x0))
        measure += np.clip(b - start, 0.0, theta) - np.clip(a - start, 0.0, theta)
    return measure / (path.n * 2.0 * eps)


@st.composite
def band_queries(draw):
    """One rescaled walk, zero steps included, and queries on it in the order
    drawn: each a time, a strictly increasing level grid, ``eps`` and an
    estimator.

    A time is 0, a knot time, a time between two knots, or within 1e-9 of a
    step either side of a knot (the sliver the kernel drops); levels reach a
    path width beyond the path on both sides.
    """
    n_steps = draw(st.integers(0, 300))
    n = draw(st.integers(1, 400))
    spath = ScaledPath(n=n, positions=simulate_walk(n_steps, draw(st.integers(0, 2**32))))
    step = 1.0 / np.sqrt(n)
    values = _knot_values(spath)
    width = float(np.ptp(values)) + step
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, n_steps))
        offset = draw(st.sampled_from([0.0, 5e-10, -5e-10]) | st.floats(0.0, 1.0))
        t = 0.0 if k == 0 and offset < 0 else min((k + offset) / n, spath.horizon)
        eps = step * 2.0 ** draw(st.floats(-3.0, np.log2(width / step) + 1.0))
        lo, hi = float(values.min()) - width, float(values.max()) + width
        grid = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12))
        estimator = draw(st.sampled_from(["band", "occupation"]))
        queries.append((t, np.unique(grid), eps, estimator))
    return spath, queries


def _walk_from_steps(steps):
    return np.concatenate([[0], np.cumsum([1 if c == "u" else -1 for c in steps])])


# The walks on which the band estimate drops by rounding in t (CHANGES.md).
_ROUNDING_WALK_12 = ScaledPath(n=1, positions=_walk_from_steps("dduudduuduud"))
_ROUNDING_WALK_139 = ScaledPath(
    n=1,
    positions=_walk_from_steps(
        "uduudddduuuuddudduduuuuudduuduuududududuuudduddudduddddduuudddduduudud"
        "ddududuuuududduddduduuuuuuududuuududdududuudduudddduududuuududduuuuud"
    ),
)


@settings(max_examples=200, deadline=None)
@given(case=band_queries())
@example(
    case=(
        _ROUNDING_WALK_12,
        [(t, np.array([2.414213562373095]), 1.4142135623730951, "band") for t in (12.0, 11.5)],
    )
)
@example(
    case=(
        _ROUNDING_WALK_139,
        [
            (t, np.array([20.845398302197573]), 10.848721470922609, "band")
            for t in (139.0, 138.5)
        ],
    )
)
@example(
    # Forward, back to an earlier time, to t = 0, then a time repeated: the
    # wall grows, restarts from empty twice, and is read as kept.
    case=(
        ScaledPath(n=3, positions=simulate_walk(40, seed=7)),
        [
            (t, np.linspace(-3.0, 3.0, 13), 0.5, "band")
            for t in (2.0, 12.5, 4.5, 0.0, 4.5, 4.5, 13.0)
        ],
    )
)
@example(
    # The estimators in turn, forward, back and between two knots, where
    # the band reads the wall one step before the occupation estimator.
    case=(
        ScaledPath(n=3, positions=simulate_walk(40, seed=7)),
        [
            (t, np.linspace(-3.0, 3.0, 13), 0.5, estimator)
            for t in (2.0, 12.5, 4.5, 0.0, 13.0)
            for estimator in ("occupation", "band", "occupation")
        ],
    )
)
def test_band_profile_equals_the_per_call_bincount(case):
    # Both estimators read the path's one running wall, which grows from its
    # last query when a query comes later in time and starts again from empty
    # when one comes earlier.  Each band result is the per-call edge
    # bincount's, bit for bit, and each occupation result the per-call wall's.
    spath, queries = case
    root_n = np.sqrt(float(spath.n))
    for t, levels, eps, estimator in queries:
        got = local_time_profile(spath, t, levels, eps, estimator)
        if estimator == "band":
            assert np.array_equal(got, _band_profile_by_bincount(spath, t, levels, eps))
            continue
        m = _active_segments(t, spath.n, spath.n_segments)
        wall = OccupationField().drop(spath.positions[: m + 1])[0]
        blocks = dict(enumerate(wall.counts.tolist(), wall.min_site))
        counts = [blocks.get(site, 0) for site in snap_level(levels, spath.n).tolist()]
        assert np.array_equal(got, np.array(counts) / root_n)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_band_local_time_drops_by_rounding_on_recorded_walks():
    # The bound of test_band_local_time_never_decreases_in_time, on the two
    # recorded walks where the band estimate falls from t to t + 1/2: the
    # whole segments' share is a difference of interpolated cumulative
    # counts, which loses a band measure below one ulp of the count.  A kernel
    # that holds the bound turns this into a failure; the cases then become
    # examples of that test.
    cases = [
        (_ROUNDING_WALK_12, 2.414213562373095, 1.4142135623730951, 11.5, 12.0),
        (_ROUNDING_WALK_139, 20.845398302197573, 10.848721470922609, 138.5, 139.0),
    ]
    for spath, y, eps, t, later in cases:
        before = band_local_time(spath, y, t, eps)
        after = band_local_time(spath, y, later, eps)
        assert after >= before * (1 - 1e-13), (spath.n_segments, before, after)


@st.composite
def profile_cases(draw):
    """A rescaled walk, a time, a band half-width and a level grid.

    ``t`` lies below ``1/n``, on a knot or between two knots; ``eps`` runs
    from a tenth of one lattice step to wider than the path; the levels are
    the lattice sites in and around the path and those sites plus or minus
    ``eps``.
    """
    n_steps = draw(st.integers(1, 300))
    n = draw(st.integers(1, 400))
    spath = ScaledPath(n=n, positions=simulate_walk(n_steps, draw(st.integers(0, 2**32))))
    k = draw(st.integers(0, n_steps))
    frac = draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0)) if k < n_steps else 0.0
    t = draw(st.sampled_from([(k + frac) / n]) | st.floats(0.0, 1.0 / n))
    step = 1.0 / np.sqrt(n)
    width = float(np.ptp(_knot_values(spath))) + step
    eps = step * 2.0 ** draw(st.floats(np.log2(0.1), np.log2(width / step) + 1.0))
    sites = np.arange(spath.positions.min() - 2, spath.positions.max() + 3) * step
    levels = np.unique(np.concatenate([sites, sites - eps, sites + eps]))
    return spath, t, eps, levels


@settings(max_examples=300, deadline=None)
@given(case=profile_cases())
def test_band_profile_equals_per_level_clipping(case):
    spath, t, eps, levels = case
    profile = local_time_profile(spath, t, levels, eps, "band")
    points = np.array([band_local_time(spath, y, t, eps) for y in levels])
    assert np.all(profile == points)
    direct = np.array([_band_local_time_reference(spath, y, t, eps) for y in levels])
    assert np.abs(profile - direct).max() <= 1e-12 * np.abs(profile).max()


@settings(max_examples=200, deadline=None)
@given(case=profile_cases())
def test_occupation_profile_equals_point_counts(case):
    spath, t, _, levels = case
    profile = local_time_profile(spath, t, levels, estimator="occupation")
    points = np.array([occupation_local_time(spath, y, t) for y in levels])
    assert np.all(profile == points)
    wall = OccupationField().drop(spath.positions[: _steps_for(t, spath.n) + 1])[0]
    blocks = dict(enumerate(wall.counts.tolist(), wall.min_site))
    counts = [blocks.get(site, 0) for site in snap_level(levels, spath.n).tolist()]
    assert np.all(profile == np.array(counts) / np.sqrt(float(spath.n)))


@settings(max_examples=30, deadline=None)
@given(case=walk_paths())
def test_band_and_occupation_satisfy_the_visit_identity(case):
    # Every visit to site j enters it by one of its two edges and leaves by
    # one, except the first visit to 0 and the last to S_k.  With c(e) the
    # crossings of edge (e, e+1) and L(j) the blocks at j after k steps:
    # c(j-1) + c(j) = 2 L(j) - [j = 0] - [j = S_k].  A band of half-width half
    # a lattice step around j holds the half of each crossing next to j, so at
    # lattice levels the band estimate is the occupation estimate less
    # ([j = 0] + [j = S_k]) / (2 sqrt(n)).
    spath, step = case
    pos, root_n = spath.positions, np.sqrt(float(spath.n))
    for k in range(spath.n_segments + 1):
        wall = OccupationField().drop(pos[: k + 1])[0]
        lo = wall.min_site - 1  # one site either side of the wall, where L = 0
        sites = np.arange(lo, wall.min_site + len(wall.counts) + 1)
        blocks = np.zeros(len(sites), dtype=np.int64)
        blocks[1:-1] = wall.counts
        c = np.bincount(np.minimum(pos[:k], pos[1 : k + 1]) - lo, minlength=len(sites))
        ends = (sites == 0).astype(np.int64) + (sites == pos[k])
        assert np.array_equal(np.r_[0, c[:-1]] + c, 2 * blocks - ends)

        t = k / spath.n
        levels = sites * step
        band = local_time_profile(spath, t, levels, 0.5 * step, "band")
        occupation = local_time_profile(spath, t, levels, estimator="occupation")
        assert np.array_equal(occupation, blocks / root_n)
        expected = occupation - ends / (2 * root_n)
        np.testing.assert_allclose(band, expected, rtol=1e-12, atol=1e-12 / root_n)
