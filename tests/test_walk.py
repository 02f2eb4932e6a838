"""Walk engine: trajectory, occupation counts, block trace."""

import numpy as np
import pytest

from wallcurve import (
    OccupationField,
    discrete_brick_trace,
    simulate_walk,
    stream,
)
from wallcurve.walk import walk_sites


def _blocks(field):
    """A wall's per-site block counts as ``{site: count}``."""
    return dict(enumerate(field.counts.tolist(), field.min_site))


def test_zero_step_walk_is_single_point():
    sites = simulate_walk(0, seed=7)
    assert sites.tolist() == [0]
    assert sites.dtype == np.int64


def test_walk_structure():
    sites = simulate_walk(3, seed=5)
    assert len(sites) == 4
    assert sites[0] == 0
    assert set(np.abs(np.diff(sites)).tolist()) == {1}


def test_negative_steps_rejected():
    with pytest.raises(ValueError):
        simulate_walk(-1, seed=0)


def test_walk_is_deterministic_at_scale():
    a = simulate_walk(10**6, seed=42)
    b = simulate_walk(10**6, seed=42)
    assert np.array_equal(a, b)


def test_distinct_seeds_and_replicates_differ():
    base = simulate_walk(64, seed=1)
    assert not np.array_equal(base, simulate_walk(64, seed=2))
    assert not np.array_equal(base, walk_sites(stream(1, 1), 64))


def test_stream_domains_are_disjoint():
    a = stream(9, 0, domain=0).integers(0, 2, size=32)
    b = stream(9, 0, domain=1).integers(0, 2, size=32)
    assert not np.array_equal(a, b)


def test_occupation_field_hand_case():
    field = OccupationField().drop(np.array([0, 1, 0, -1]))[0]
    assert _blocks(field) == {-1: 1, 0: 2, 1: 1}
    assert field.counts.sum() == 4


def test_occupation_field_single_block():
    sites = simulate_walk(0, seed=3)
    assert _blocks(OccupationField().drop(sites[:1])[0]) == {0: 1}


def test_occupation_field_counts_one_block_per_time_index():
    sites = simulate_walk(257, seed=11)
    for k in (0, 100, 257):
        field = OccupationField().drop(sites[: k + 1])[0]
        assert field.counts.sum() == k + 1


def test_occupation_field_grows_by_one_at_current_site():
    sites = simulate_walk(200, seed=13)
    prev = _blocks(OccupationField().drop(sites[:1])[0])
    for k in range(1, 201):
        cur = _blocks(OccupationField().drop(sites[: k + 1])[0])
        diff = {j: cur.get(j, 0) - prev.get(j, 0) for j in set(cur) | set(prev)}
        changed = {j: v for j, v in diff.items() if v}
        assert changed == {int(sites[k]): 1}
        prev = cur


def test_occupation_field_mirror_symmetry():
    sites = simulate_walk(300, seed=21)
    forward = _blocks(OccupationField().drop(sites)[0])
    backward = _blocks(OccupationField().drop(-sites)[0])
    assert backward == {-j: c for j, c in forward.items()}


def test_visited_sites_form_an_interval():
    field = OccupationField().drop(simulate_walk(500, seed=2))[0]
    assert (field.counts >= 1).all()


def test_brick_trace_hand_cases():
    def rows(sites):
        return np.column_stack([np.arange(len(sites)), sites, discrete_brick_trace(sites)]).tolist()

    assert rows(np.array([0])) == [[0, 0, 1]]
    assert rows(np.array([0, 1, 0])) == [[0, 0, 1], [1, 1, 1], [2, 0, 2]]


def test_brick_trace_heights_count_up_per_site():
    sites = simulate_walk(400, seed=17)
    placed = discrete_brick_trace(sites)
    assert len(placed) == 401
    for site in np.unique(sites):
        heights = placed[sites == site]
        assert heights.tolist() == list(range(1, len(heights) + 1))


def test_walk_matches_diffusive_scaling():
    # Empirical mean/variance of the endpoint of `walk_sites`, the package's
    # one step source, over many replicates.
    reps, n = 10**4, 10**4
    finals = np.empty(reps)
    for r in range(reps):
        finals[r] = walk_sites(stream(123, r, domain=0), n)[-1]
    z = finals / np.sqrt(n)
    assert abs(z.mean()) < 4 / np.sqrt(reps)
    assert abs(z.var(ddof=1) - 1.0) < 0.05
