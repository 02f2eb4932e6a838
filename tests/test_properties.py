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
@given(seed=seeds, n_steps=step_counts, data=st.data())
def test_chained_draws_equal_one_draw(seed, n_steps, data):
    whole = walk_sites(stream(seed, 3, domain=1), n_steps)
    rng = stream(seed, 3, domain=1)
    chained = walk_sites(rng, 0)
    bounds = _split(data, n_steps)
    for a, b in zip(bounds, bounds[1:]):
        chunk = walk_sites(rng, b - a, start=int(chained[-1]))
        chained = np.concatenate([chained, chunk[1:]])
    assert np.array_equal(chained, whole)


def _reference_walk_sites(rng, n_steps: int, start: int = 0) -> np.ndarray:
    """The step source as first written: one ``integers`` bit per step."""
    steps = 2 * rng.integers(0, 2, size=n_steps, dtype=np.int64) - 1
    return np.cumsum(np.concatenate([[start], steps]))


@settings(max_examples=100, deadline=None)
@given(seed=seeds, n_steps=step_counts, lead=st.integers(0, 5), start=st.integers(-9, 9))
@example(seed=0, n_steps=0, lead=1, start=0)
@example(seed=0, n_steps=1, lead=0, start=0)
@example(seed=0, n_steps=1, lead=1, start=0)
@example(seed=0, n_steps=2999, lead=1, start=0)
@example(seed=0, n_steps=3000, lead=1, start=0)
def test_walk_sites_reads_the_bits_integers_gives(seed, n_steps, lead, start):
    # An odd ``lead`` leaves the stream mid-word, with a half-word pending.
    rng, ref = stream(seed, 5, domain=2), stream(seed, 5, domain=2)
    rng.integers(0, 2, size=lead)
    ref.integers(0, 2, size=lead)
    sites = walk_sites(rng, n_steps, start=start)
    assert sites.dtype == np.int64
    assert np.array_equal(sites, _reference_walk_sites(ref, n_steps, start))
    # Compare next draws, not state dicts: ``uinteger`` is stale while no
    # half-word is pending.  Odd sizes leave each side mid-word once more.
    assert np.array_equal(rng.integers(0, 2, size=3), ref.integers(0, 2, size=3))
    assert np.array_equal(rng.bit_generator.random_raw(3), ref.bit_generator.random_raw(3))
    assert np.array_equal(rng.integers(0, 2, size=5), ref.integers(0, 2, size=5))


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
    seed=seeds,
    n=st.sampled_from([4, 16, 100]),
    x_lo=st.floats(-2.0, 0.0),
    width=st.floats(0.1, 3.0),
    h_hi=st.floats(0.1, 2.0),
    delta=st.sampled_from([0.25, 0.5, 1.0]),
    budget=st.integers(1, 1500),
    block=st.integers(1, 64),
)
# Covered at step 443, inside the 64th block of 7 steps.
@example(seed=1, n=16, x_lo=-1.0, width=2.0, h_hi=1.0, delta=0.5, budget=1500, block=7)
# 69 of 96 cells covered when the budget runs out.
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
