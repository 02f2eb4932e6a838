"""Property tests of the step source, the streaming wall and coverage."""

from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallcurve import OccupationField, Window, coverage_check, simulate_walk, stream
from wallcurve.walk import walk_sites

seeds = st.integers(0, 2**64 - 1)
step_counts = st.integers(0, 3000)


def _split(data, n: int) -> list[int]:
    """Chunk boundaries 0 = b0 <= b1 <= ... <= n drawn by hypothesis."""
    cuts = data.draw(st.lists(st.integers(0, n), max_size=8))
    return [0, *sorted(cuts), n]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts, first=st.integers(0, 2**20), data=st.data())
def test_chained_draws_equal_one_draw(seed, n_steps, first, data):
    whole = walk_sites(seed, 3, 1, first, n_steps)
    chained = walk_sites(seed, 3, 1, first, 0)
    bounds = _split(data, n_steps)
    for a, b in zip(bounds, bounds[1:]):
        chunk = walk_sites(seed, 3, 1, first + a, b - a, start=int(chained[-1]))
        chained = np.concatenate([chained, chunk[1:]])
    assert np.array_equal(chained, whole)


def _reference_walk_sites(seed, first: int, count: int, start: int) -> np.ndarray:
    """The step rule read plainly: every word up to the last step, unpacked."""
    words = stream(seed, 5, domain=2).bit_generator.random_raw(-(-(first + count) // 64))
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")[first : first + count]
    return np.cumsum(np.concatenate([[start], 2 * bits.astype(np.int64) - 1]))


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    first=st.integers(0, 2**16),
    count=step_counts,
    start=st.integers(-9, 9),
)
# Word and Philox-block edges: step 64 opens word 1, step 256 opens block 1.
@example(seed=0, first=0, count=0, start=0)
@example(seed=0, first=0, count=3000, start=0)
@example(seed=0, first=63, count=2, start=0)
@example(seed=0, first=64, count=1, start=0)
@example(seed=0, first=65, count=63, start=0)
@example(seed=0, first=255, count=2, start=0)
@example(seed=0, first=256, count=256, start=0)
@example(seed=0, first=257, count=1, start=0)
def test_walk_sites_reads_the_unpacked_bits(seed, first, count, start):
    sites = walk_sites(seed, 5, 2, first, count, start=start)
    assert sites.dtype == np.int64
    assert np.array_equal(sites, _reference_walk_sites(seed, first, count, start))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts, data=st.data())
def test_chunked_drops_equal_one_drop(seed, n_steps, data):
    sites = simulate_walk(n_steps, seed)
    whole, whole_heights = OccupationField().drop(sites)
    wall, heights = OccupationField(), []
    bounds = _split(data, n_steps + 1)
    for a, b in zip(bounds, bounds[1:]):
        wall, h = wall.drop(sites[a:b])
        heights.append(h)
    assert np.array_equal(np.concatenate(heights), whole_heights)
    assert wall.min_site == whole.min_site
    assert wall.counts.sum() == whole.counts.sum() == n_steps + 1
    assert np.array_equal(wall.counts, whole.counts)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts)
def test_negated_sites_mirror_the_wall(seed, n_steps):
    sites = simulate_walk(n_steps, seed)
    wall, heights = OccupationField().drop(sites)
    mirror, mirror_heights = OccupationField().drop(-sites)
    assert mirror.min_site == -(wall.min_site + len(wall.counts) - 1)
    assert np.array_equal(mirror.counts, wall.counts[::-1])
    assert np.array_equal(mirror_heights, heights)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts)
def test_heights_count_up_per_site(seed, n_steps):
    sites = simulate_walk(n_steps, seed)
    tally: dict[int, int] = {}
    expected = []
    for site in sites.tolist():
        tally[site] = tally.get(site, 0) + 1
        expected.append(tally[site])
    wall, heights = OccupationField().drop(sites)
    assert heights.tolist() == expected
    assert dict(enumerate(wall.counts.tolist(), wall.min_site)) == tally


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.integers(0, 40) | st.integers(0, 2**17), max_size=40),
        min_size=1,
        max_size=5,
    ),
    shifts=st.lists(st.integers(-(2**17), 2**17), min_size=5, max_size=5),
)
# The second chunk grows the window 70000 sites downwards and revisits
# site 0, so its offsets span more than 2**16 and are sorted as int64:
# as uint16, offset 70000 would sort before offset 5000.
@example(
    chunks=[[0, 1, 1, 0, 40], [5000, 70000, 5000, 0, 70000]],
    shifts=[0, -70000, 0, 0, 0],
)
def test_chunked_drops_match_a_dict_counter(chunks, shifts):
    # Arbitrary sites, not a walk: chunk k is shifted by shifts[0..k], so
    # the window may grow downwards or upwards between chunks, with holes.
    tally: dict[int, int] = {}
    wall, base = OccupationField(), 0
    for chunk, shift in zip(chunks, shifts):
        base += shift
        sites = np.array(chunk, dtype=np.int64) + base
        expected = []
        for site in sites.tolist():
            tally[site] = tally.get(site, 0) + 1
            expected.append(tally[site])
        wall, heights = wall.drop(sites)
        assert heights.tolist() == expected
    blocks = dict(enumerate(wall.counts.tolist(), wall.min_site))
    assert {site: count for site, count in blocks.items() if count} == tally


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    n=st.sampled_from([4, 16, 100]),
    x_lo=st.floats(-2.0, 0.0),
    width=st.floats(0.1, 3.0),
    h_hi=st.floats(0.1, 2.0),
    delta=st.sampled_from([0.25, 0.5, 1.0]),
    budget=st.integers(1, 1500),
    block=st.integers(1, 64),
)
# Covered at step 219, inside the 32nd block of 7 steps.
@example(seed=1, n=16, x_lo=-1.0, width=2.0, h_hi=1.0, delta=0.5, budget=1500, block=7)
# 79 of 96 cells covered when the budget runs out.
@example(seed=0, n=100, x_lo=-2.0, width=3.0, h_hi=2.0, delta=0.25, budget=1500, block=64)
def test_coverage_report_does_not_depend_on_block_size(
    seed, n, x_lo, width, h_hi, delta, budget, block
):
    window = Window(x_lo, x_lo + width, h_hi)
    whole = coverage_check(seed, window, delta, budget, n)
    with patch("wallcurve.curve._BLOCK_STEPS", block):
        blocked = coverage_check(seed, window, delta, budget, n)
    assert (blocked.covered_count, blocked.total_count, blocked.steps_used) == (
        whole.covered_count, whole.total_count, whole.steps_used
    )
    assert np.array_equal(blocked.first_cover_time, whole.first_cover_time, equal_nan=True)
