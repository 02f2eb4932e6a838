"""Property tests of the step source and the streaming wall."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcurve import OccupationField, simulate_walk, stream
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


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts, data=st.data())
def test_chunked_drops_equal_one_drop(seed, n_steps, data):
    sites = simulate_walk(n_steps, seed).positions
    whole, whole_heights = OccupationField().drop(sites)
    wall, heights = OccupationField(), []
    bounds = _split(data, n_steps + 1)
    for a, b in zip(bounds, bounds[1:]):
        wall, h = wall.drop(sites[a:b])
        heights.append(h)
    assert np.array_equal(np.concatenate(heights), whole_heights)
    assert wall.min_site == whole.min_site
    assert wall.total == whole.total == n_steps + 1
    assert np.array_equal(wall.counts, whole.counts)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts)
def test_negated_sites_mirror_the_wall(seed, n_steps):
    sites = simulate_walk(n_steps, seed).positions
    wall, heights = OccupationField().drop(sites)
    mirror, mirror_heights = OccupationField().drop(-sites)
    assert mirror.min_site == -(wall.min_site + len(wall.counts) - 1)
    assert np.array_equal(mirror.counts, wall.counts[::-1])
    assert np.array_equal(mirror_heights, heights)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_steps=step_counts)
def test_heights_count_up_per_site(seed, n_steps):
    sites = simulate_walk(n_steps, seed).positions
    tally: dict[int, int] = {}
    expected = []
    for site in sites.tolist():
        tally[site] = tally.get(site, 0) + 1
        expected.append(tally[site])
    wall, heights = OccupationField().drop(sites)
    assert heights.tolist() == expected
    assert wall.as_dict() == dict(sorted(tally.items()))
