"""Walk engine: trajectory, occupation counts, block trace."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallcurve import (
    OccupationField,
    discrete_brick_trace,
    simulate_walk,
    stream,
)
from wallcurve.stats import _chi2_sf
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
    assert not np.array_equal(base, walk_sites(1, 1, 0, 0, 64))


def test_stream_domains_are_disjoint():
    a = stream(9, 0, domain=0).integers(0, 2, size=32)
    b = stream(9, 0, domain=1).integers(0, 2, size=32)
    assert not np.array_equal(a, b)


_MASK64 = (1 << 64) - 1


def _keyword_stream(seed, replicate, domain):
    """The stream built with numpy's own ``Philox(counter=..., key=...)``."""
    counter = np.array([0, 0, 0, domain & _MASK64], dtype=np.uint64)
    key = np.array([seed & _MASK64, replicate & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


_WORD = st.integers(-(2**64), 2**65 - 1)


@settings(max_examples=100, deadline=None)
@given(
    seed=_WORD,
    replicate=_WORD,
    domain=_WORD,
    k=st.integers(0, 300),
    jump=st.integers(0, 2**70),
    bits=st.integers(0, 300),
)
@example(seed=-1, replicate=2**64, domain=2**65 - 1, k=1, jump=0, bits=1)
def test_stream_matches_the_keyword_philox(seed, replicate, domain, k, jump, bits):
    # If numpy ever changes how a seed sequence becomes a Philox key, the
    # raw words, the advanced words, the bits and the pickle all diverge.
    ours, theirs = stream(seed, replicate, domain), _keyword_stream(seed, replicate, domain)
    assert np.array_equal(ours.bit_generator.random_raw(k), theirs.bit_generator.random_raw(k))
    ours.bit_generator.advance(jump)
    theirs.bit_generator.advance(jump)
    assert np.array_equal(ours.bit_generator.random_raw(k), theirs.bit_generator.random_raw(k))
    assert np.array_equal(ours.integers(0, 2, size=bits), theirs.integers(0, 2, size=bits))
    copy = pickle.loads(pickle.dumps(ours))
    assert np.array_equal(copy.integers(0, 2, size=bits), theirs.integers(0, 2, size=bits))
    assert np.array_equal(copy.bit_generator.random_raw(k), theirs.bit_generator.random_raw(k))


def test_seed_sequence_is_the_fixed_key():
    seed_seq = stream(-1, 5, 0).bit_generator.seed_seq
    assert seed_seq.generate_state(2, np.uint64).tolist() == [_MASK64, 5]
    with pytest.raises(ValueError):
        seed_seq.generate_state(4, np.uint32)


def test_stream_reads_no_os_entropy(monkeypatch):
    # numpy's ``SeedSequence()`` draws its entropy through ``secrets.randbits``,
    # which reads ``random._urandom``.
    stream(0)
    reads = []

    def urandom(size):
        reads.append(size)
        return bytes(size)

    monkeypatch.setattr(random, "_urandom", urandom)
    for replicate in range(10):
        stream(3, replicate, 1)
    assert reads == []


@pytest.mark.parametrize("first, count", [(-5, 10), (0, -1)])
def test_walk_sites_rejects_negative_addresses(first, count):
    with pytest.raises(ValueError):
        walk_sites(0, 0, 0, first, count)


def test_walk_sites_rejects_a_walk_over_the_step_limit():
    with pytest.raises(ValueError, match=r"a walk of 4\.61169e\+18 steps exceeds the limit of 2\*\*62"):
        walk_sites(0, 0, 0, 0, 2**62 + 1)


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
        finals[r] = walk_sites(123, r, 0, 0, n)[-1]
    z = finals / np.sqrt(n)
    assert abs(z.mean()) < 4 / np.sqrt(reps)
    assert abs(z.var(ddof=1) - 1.0) < 0.05


# The step source's own statistical check.  Seed, replicates and alpha are
# fixed here before any run; a failure at this seed is reported, not re-seeded.
_SOURCE_SEED, _SOURCE_REPLICATES, _SOURCE_ALPHA = 24, 2000, 0.001
# Reads of 64 steps from the last two steps of word 0 (a word seam, bit 63
# then bit 0) and of word 7 (a 4-word Philox block seam, reached by advance).
_SOURCE_FIRSTS = (62, 510)


def _read_steps(replicate: int, first: int) -> np.ndarray:
    """64 up-bits (0/1) of one replicate's stream from step ``first``."""
    return (np.diff(walk_sites(_SOURCE_SEED, replicate, 0, first, 64)) + 1) // 2


def _source_p_values(read) -> list[float]:
    """Chi-square p-values of a step reader ``read(replicate, first)``.

    One for fairness over every step read, and one per seam for the 16
    patterns of the 4 consecutive steps that straddle it.
    """
    reads = np.array(
        [[read(r, first) for first in _SOURCE_FIRSTS] for r in range(_SOURCE_REPLICATES)]
    )
    ups, total = int(reads.sum()), reads.size
    p_values = [_chi2_sf(1, (2 * ups - total) ** 2 / total)]
    expected = _SOURCE_REPLICATES / 16
    for seam in range(len(_SOURCE_FIRSTS)):
        patterns = reads[:, seam, :4] @ (1 << np.arange(4))
        observed = np.bincount(patterns, minlength=16)
        p_values.append(_chi2_sf(15, float(((observed - expected) ** 2 / expected).sum())))
    return p_values


def test_step_source_is_fair_and_independent_across_seams():
    assert min(_source_p_values(_read_steps)) > _SOURCE_ALPHA


def test_step_source_check_fails_on_mutant_sources():
    coins = np.random.default_rng(0)

    def biased(replicate, first):
        # A down-step turns up with probability 0.04: P(up) = 0.52.
        steps = _read_steps(replicate, first)
        return steps | (coins.random(len(steps)) < 0.04)

    def seam_copy(replicate, first):
        # Bit 63 of each word copies bit 0 of the next word.
        steps = _read_steps(replicate, first)
        k = first + np.arange(len(steps))
        last = np.flatnonzero((k % 64 == 63) & (k + 1 < first + len(steps)))
        steps[last] = steps[last + 1]
        return steps

    for mutant in (biased, seam_copy):
        assert min(_source_p_values(mutant)) < _SOURCE_ALPHA, mutant.__name__
