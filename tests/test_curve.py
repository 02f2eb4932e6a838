"""Curve traces, wall area, fill order, coverage."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallcurve import (
    CurveTrace,
    OccupationField,
    ScaledPath,
    Window,
    band_local_time,
    build_trace,
    coverage_check,
    curve,
    fill_order_check,
    local_time_profile,
    scale_trace,
    simulate_walk,
    wall_area,
)


def _trace(n_steps, seed, n, **kwargs):
    """The curve of a seeded ``n_steps`` walk at scale ``n``."""
    return build_trace(ScaledPath(n=n, positions=simulate_walk(n_steps, seed=seed)), **kwargs)


def test_build_trace_hand_case():
    trace = build_trace(ScaledPath(n=1, positions=np.array([0, 1, 0])))
    assert trace.times.tolist() == [0.0, 1.0, 2.0]
    assert trace.levels.tolist() == [0.0, 1.0, 0.0]
    assert trace.heights.tolist() == [1.0, 1.0, 2.0]


def test_build_trace_initial_height():
    trace = _trace(10, 2, 100)
    assert trace.times[0] == 0.0
    assert trace.levels[0] == 0.0
    assert trace.heights[0] == pytest.approx(0.1)


def test_build_trace_length_and_steps():
    n = 400
    trace = _trace(n, 3, n)
    assert len(trace.times) == n + 1
    assert np.all(np.diff(trace.times) > 0)
    assert np.allclose(np.abs(np.diff(trace.levels)), 1 / np.sqrt(n))
    assert np.all(trace.heights >= 0)


def test_build_trace_band_estimator_subsamples():
    spath = ScaledPath(n=500, positions=simulate_walk(500, seed=4))
    trace = build_trace(spath, estimator="band")
    assert len(trace.times) == curve._BAND_TRACE_POINTS == 129
    eps = 500**-0.25
    direct = [
        band_local_time(spath, x, t, eps) for x, t in zip(trace.levels, trace.times)
    ]
    assert np.allclose(trace.heights, direct)


def test_band_trace_times_are_strictly_increasing_and_end_the_walk():
    # The floored linspace steps by at least one, so it holds no duplicate.
    for steps in [*range(301), 10**5 + 1, 2**20 - 1, 999_983]:
        trace = _trace(steps, 5, 7, estimator="band")
        assert len(trace.times) == min(steps + 1, curve._BAND_TRACE_POINTS), steps
        assert np.all(np.diff(trace.times) > 0), steps
        assert trace.times[0] == 0.0 and trace.times[-1] == steps / 7, steps


def test_build_trace_rejects_unknown_estimator():
    with pytest.raises(ValueError):
        _trace(5, 0, 5, estimator="quantum")


def test_scale_trace_identity_and_mirror():
    trace = _trace(50, 5, 50)
    same = scale_trace(trace, 1.0, 1.0)
    assert np.array_equal(same.levels, trace.levels)
    assert np.array_equal(same.heights, trace.heights)
    mirrored = scale_trace(trace, -1.0, 1.0)
    assert np.array_equal(mirrored.levels, -trace.levels)
    assert np.array_equal(mirrored.heights, trace.heights)


def test_scale_trace_rejects_degenerate_factors():
    trace = _trace(5, 0, 5)
    with pytest.raises(ValueError):
        scale_trace(trace, 0.0, 1.0)
    with pytest.raises(ValueError):
        scale_trace(trace, 1.0, 0.0)


def test_zero_step_path_at_time_zero():
    # A walk of zero steps is its starting site: at t = 0 the band holds no
    # time, the wall is the one block at the origin and the area is 0.
    path = ScaledPath(n=100, positions=simulate_walk(0, seed=3))
    levels = np.array([-0.1, 0.0, 0.1])
    band = local_time_profile(path, 0.0, levels, estimator="band")
    occupation = local_time_profile(path, 0.0, levels, estimator="occupation")
    assert band.tolist() == [0.0, 0.0, 0.0]
    assert occupation.tolist() == [0.0, 0.1, 0.0]
    assert band_local_time(path, 0.0, 0.0, 0.5) == 0.0
    assert local_time_profile(path, 0.0, [0.0], estimator="occupation")[0] == 0.1
    assert wall_area(path, 0.0) == 0.0
    for estimator, height in (("occupation", 0.1), ("band", 0.0)):
        trace = build_trace(path, estimator=estimator)
        assert (trace.times.tolist(), trace.levels.tolist()) == ([0.0], [0.0])
        assert trace.heights.tolist() == [height]


def test_wall_area_zero_time():
    spath = ScaledPath(n=100, positions=simulate_walk(100, seed=1))
    assert wall_area(spath, 0.0) == 0.0


def test_wall_area_matches_elapsed_time():
    n = 10**5
    spath = ScaledPath(n=n, positions=simulate_walk(n, seed=6))
    for t in (0.25, 0.5, 1.0):
        area = wall_area(spath, t)
        assert abs(area - t) <= 10 * np.finfo(float).eps * n


def test_wall_area_linear_at_knot_times():
    n = 1000
    spath = ScaledPath(n=n, positions=simulate_walk(n, seed=7))
    for k in (1, 17, 500, 1000):
        assert abs(wall_area(spath, k / n) - k / n) <= 10 * np.finfo(float).eps * k


def test_wall_area_scales_by_rate():
    n = 10**4
    spath = ScaledPath(n=n, positions=simulate_walk(n, seed=8))
    t = 1.0
    for c, d in [(2.0, 3.0), (-1.0, 0.5)]:
        target = abs(c) * d * t
        assert abs(wall_area(spath, t, c=c, d=d) - target) <= 1e-9 * target


def test_wall_area_argument_errors():
    spath = ScaledPath(n=10, positions=simulate_walk(10, seed=0))
    with pytest.raises(ValueError):
        wall_area(spath, 2.0)
    with pytest.raises(ValueError):
        wall_area(spath, 0.5, c=0.0)
    with pytest.raises(ValueError):
        wall_area(spath, 0.5, d=-1.0)


def test_fill_order_clean_for_built_traces():
    for seed in range(5):
        trace = _trace(800, seed, 800)
        assert fill_order_check(trace) == []
    band = _trace(300, 1, 300, estimator="band")
    assert fill_order_check(band) == []


def test_fill_order_empty_trace():
    empty = CurveTrace(times=np.array([]), levels=np.array([]), heights=np.array([]))
    assert fill_order_check(empty) == []


def test_fill_order_flags_corrupted_heights():
    trace = _trace(40, 9, 40)
    revisits = np.where(trace.levels == 0.0)[0]
    i, j = int(revisits[0]), int(revisits[1])
    heights = trace.heights.copy()
    heights[i], heights[j] = heights[j], heights[i]
    bad = CurveTrace(times=trace.times, levels=trace.levels, heights=heights)
    assert (i, j) in fill_order_check(bad)


def test_fill_order_reports_consecutive_drops_only():
    # 3000 visits to one position with falling heights: every one of the
    # 2999 consecutive pairs drops, out of 4,498,500 inverted pairs.
    k = 3000
    reversed_wall = CurveTrace(
        times=np.arange(k, dtype=float), levels=np.zeros(k),
        heights=np.arange(k, 0, -1, dtype=float),
    )
    pairs = fill_order_check(reversed_wall)
    assert len(pairs) == k - 1
    assert pairs == [(i, i + 1) for i in range(k - 1)]


def test_scaling_preserves_fill_order():
    trace = _trace(500, 10, 500)
    assert fill_order_check(scale_trace(trace, -2.5, 0.3)) == []


def test_coverage_origin_cell_covered_immediately():
    report = coverage_check(
        seed=0, window=Window(-0.025, 0.025, 0.05), delta=0.05, step_budget=1, n=10**4
    )
    assert report.total_count == 1
    assert report.covered_count == 1
    assert report.first_cover_time[0, 0] == 0.0
    assert report.covered_count == report.total_count


def test_coverage_rejects_degenerate_windows():
    with pytest.raises(ValueError):
        coverage_check(0, Window(1.0, -1.0, 0.5), 0.05, 10, 100)
    with pytest.raises(ValueError):
        coverage_check(0, Window(-1.0, 1.0, -0.5), 0.05, 10, 100)
    with pytest.raises(ValueError):
        coverage_check(0, Window(-1.0, 1.0, 0.5), 0.0, 10, 100)


def test_coverage_refuses_a_budget_over_the_step_limit():
    # This grid is covered at step 522, so a budget the check lets through
    # returns at once instead of walking 2**63 steps.
    window = Window(-0.5, 0.5, 0.5)
    assert coverage_check(0, window, 0.25, 2**62, 100).steps_used == 522
    with pytest.raises(ValueError, match=r"a walk of 9\.22337e\+18 steps exceeds the limit of 2\*\*62"):
        coverage_check(0, window, 0.25, 2**63, 100)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n_steps=st.integers(0, 3000),
    block=st.integers(1, 700),
    entries=st.sets(st.integers(1, 80)),
)
# Every count enters a row, so each site's count before a block is an entry.
@example(seed=0, n_steps=3000, block=500, entries=set(range(1, 81)))
def test_entries_reached_match_a_dict_counter(seed, n_steps, block, entries):
    sites = simulate_walk(n_steps, seed)
    table = np.array(sorted(entries), dtype=np.int64)
    wall, tally = OccupationField(), {}
    for a in range(0, len(sites), block):
        chunk = sites[a : a + block]
        expected = set()
        for k, site in enumerate(chunk.tolist()):
            tally[site] = tally.get(site, 0) + 1
            if tally[site] in entries:
                expected.add((site, tally[site], k))
        wall, lo, before, order, starts = wall._rank(chunk)
        j, counts, hit = curve._entries_reached(table, before, order, starts)
        assert hit.dtype == np.int64
        assert len(j) == len(expected)
        assert set(zip((lo + j).tolist(), counts.tolist(), hit.tolist())) == expected


@pytest.mark.parametrize(
    "seed, window, delta, budget, n, covered",
    [
        # One block reaches 851 of 2**22 cells.
        (3, Window(-1.0, 1.0, 2.0), 2.0 / 2048, curve._BLOCK_STEPS, 10**8, 851),
        # The walk covers all 1786 x 893 cells, after 18341669 steps.
        (9, Window(-0.5, 0.5, 0.5), 0.00056, 10**8, 5 * 10**6, 1786 * 893),
    ],
)
def test_coverage_memory_is_the_report_and_one_block(seed, window, delta, budget, n, covered):
    # However many cells are reached, the grid costs a float64 a cell and,
    # for a moment, a bool mask; a block's working arrays, about a dozen
    # int64 arrays of 2**16 visits, add at most 6 MiB.
    tracemalloc.start()
    try:
        report = coverage_check(seed, window, delta, budget, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.covered_count == covered
    assert peak <= 9 * report.total_count + 6 * 2**20


def test_coverage_monotone_in_budget():
    window = Window(-0.5, 0.5, 0.25)
    counts = [
        coverage_check(3, window, 0.05, budget, 400).covered_count
        for budget in (10, 100, 1000, 10**5, 10**6)
    ]
    assert counts == sorted(counts)


def test_coverage_first_cover_times_stable_under_extension():
    window = Window(-0.5, 0.5, 0.25)
    small = coverage_check(3, window, 0.05, 1000, 400)
    large = coverage_check(3, window, 0.05, 10**6, 400)
    done = ~np.isnan(small.first_cover_time)
    assert np.array_equal(
        small.first_cover_time[done], large.first_cover_time[done]
    )


def _point_loop_cover_times(seed, window, delta, budget, n, shape):
    """Each cell's first cover time, one trace point at a time."""
    nx, nh = shape
    expected = np.full((nx, nh), np.nan)
    counts = {}
    root_n = np.sqrt(float(n))
    for k, site in enumerate(simulate_walk(budget, seed).tolist()):
        counts[site] = counts.get(site, 0) + 1
        x, h = site / root_n, counts[site] / root_n
        if window.x_lo <= x < window.x_hi and 0.0 <= h < window.h_hi:
            ix = min(int((x - window.x_lo) / delta), nx - 1)
            ih = min(int(h / delta), nh - 1)
            if np.isnan(expected[ix, ih]):
                expected[ix, ih] = k / n
    return expected


def test_coverage_first_cover_times_match_point_loop():
    # Both runs have first covers on both sides of the first block's end at
    # n = 10**4.  Heights up to 3 are out of reach, so the first walks its
    # whole budget and revisits cells (249 of 300 covered, the last at step
    # 65726); the second covers its grid at step 78137 and reports that
    # exact step.
    n = 10**4
    first_block_end = curve._BLOCK_STEPS / n
    cases = [
        (2, Window(-0.5, 0.5, 3.0), 0.1, 70_000, 70_000),
        (2, Window(-1.0, 1.0, 0.5), 0.05, 100_000, 78_137),
    ]
    for seed, window, delta, budget, steps_used in cases:
        report = coverage_check(seed, window, delta, budget, n)
        shape = report.first_cover_time.shape
        expected = _point_loop_cover_times(seed, window, delta, budget, n, shape)
        assert np.array_equal(report.first_cover_time, expected, equal_nan=True)
        assert (expected < first_block_end).any() and (expected > first_block_end).any()
        covered = not np.isnan(expected).any()
        assert report.steps_used == steps_used
        assert steps_used == (round(expected.max() * n) if covered else budget)
        assert (report.covered_count == report.total_count) == covered


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from([4, 16, 100, 10**4]),
    cell=st.sampled_from([0.3, 0.5, 0.75, 1.0, 1.5, 2.5, 3.25]),
    x_lo=st.floats(-40.0, 0.0),
    width=st.floats(1.0, 60.0),
    rows=st.floats(1.0, 20.0),
    budget=st.integers(1, 3000),
)
# Rows 2.5 counts high, 7.4 of them: the part row on top holds count 18 alone.
@example(seed=4, n=100, cell=2.5, x_lo=-20.0, width=40.0, rows=7.4, budget=3000)
# Rows 0.5 counts high: each count skips a row.
@example(seed=4, n=16, cell=0.5, x_lo=-20.0, width=40.0, rows=19.5, budget=3000)
def test_coverage_marks_match_point_loop(seed, n, cell, x_lo, width, rows, budget):
    # Lengths are drawn in lattice units: ``cell`` is delta * sqrt(n), so
    # rows start between counts (2.5), one count skips rows (below 1), or
    # rows and counts align (1.0); ``rows`` is h_hi / delta, not whole
    # unless drawn so, which leaves a part row on top.
    root_n = np.sqrt(float(n))
    delta = cell / root_n
    window = Window(x_lo / root_n, (x_lo + width) / root_n, rows * delta)
    report = coverage_check(seed, window, delta, budget, n)
    shape = report.first_cover_time.shape
    expected = _point_loop_cover_times(seed, window, delta, budget, n, shape)
    assert np.array_equal(report.first_cover_time, expected, equal_nan=True)


def test_height_jumps_shrink_with_scale():
    # Continuity proxy: the coarse trace has larger height jumps than the
    # fine trace on matched seeds.
    wins = 0
    for seed in range(10):
        jumps = {}
        for n in (10**4, 10**6):
            trace = _trace(n, seed, n)
            jumps[n] = np.abs(np.diff(trace.heights)).max()
        wins += jumps[10**6] < jumps[10**4]
    assert wins >= 9
