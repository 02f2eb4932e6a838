"""Closed-form fixed-time laws and the identity-chain samplers."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from wallcurve import (
    chi2_gof_2d,
    joint_density,
    marginal_height,
    marginal_level,
    mean_height,
    oracle,
    reflection_tail,
    sample_exact,
    sample_identity_pair,
    walk,
)
from wallcurve.oracle import IDENTITY_SIDES
from wallcurve.walk import stream, walk_sites


def test_joint_density_values():
    assert joint_density(0.0, 0.0, 1.0) == 0.0
    # 1/sqrt(2*pi) * exp(-1/2); see the quadrature and finite-difference
    # checks below for the independent confirmations of the constant.
    assert joint_density(0.0, 1.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-15)


def test_joint_density_symmetric_in_position():
    ys = np.linspace(0.1, 3.0, 7)
    assert np.allclose(joint_density(ys, 0.4, 2.0), joint_density(-ys, 0.4, 2.0))


def test_joint_density_domain_errors():
    with pytest.raises(ValueError):
        joint_density(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        joint_density(0.0, -0.1, 1.0)


def test_joint_density_returns_float_for_scalars_and_arrays_for_arrays():
    assert type(joint_density(0.3, 0.4, 1.0)) is float
    assert type(joint_density(np.float64(0.3), 1, 2)) is float
    assert type(joint_density(np.array(0.3), np.array(0.4), 1.0)) is float
    both = joint_density(np.array([0.3, -0.3]), np.array([0.4, 0.4]), 1.0)
    assert isinstance(both, np.ndarray) and both.shape == (2,)
    assert both[0] == both[1] == joint_density(0.3, 0.4, 1.0)
    assert joint_density([0.1, 0.2, 0.3], 0.4, 1.0).shape == (3,)
    assert joint_density(0.1, [0.2, 0.3], 1.0).shape == (2,)


@pytest.mark.parametrize("s", [-0.1, [0.2, -0.1], np.array([0.2, -0.1]), np.array(-0.1)])
def test_joint_density_rejects_negative_height(s):
    with pytest.raises(ValueError, match="height s must be >= 0"):
        joint_density(0.0, s, 1.0)


@pytest.mark.parametrize(
    "call",
    [lambda t: joint_density(0.0, 1.0, t), lambda t: chi2_gof_2d(np.zeros((500, 2)), t)],
    ids=["joint_density", "chi2_gof_2d"],
)
def test_a_t_whose_cube_overflows_is_refused_by_name(call):
    # t**3 of a float above about 5.6e102 overflows; 1e102 still holds.
    assert joint_density(0.0, 1.0, 1e102) > 0
    with pytest.raises(ValueError, match=r"^t = 1e\+200 is too large: t\*\*3 overflows"):
        call(1e200)


_ORACLE_CALLS = {
    "joint_density": lambda t: joint_density(0.1, 0.2, t),
    "marginal_level": lambda t: marginal_level(0.1, t),
    "marginal_height": lambda t: marginal_height(0.2, t),
    "mean_height": mean_height,
    "reflection_tail": lambda t: reflection_tail(0.0, 0.5, t),
    "chi2_gof_2d": lambda t: chi2_gof_2d(np.zeros((500, 2)), t),
    "sample_exact": lambda t: sample_exact(t, 0, 2),
    "sample_identity_pair": lambda t: sample_identity_pair(t, 0, 100, "lhs", replicates=2),
}


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_ORACLE_CALLS))
def test_oracle_rejects_bad_time(name, t):
    with pytest.raises(ValueError, match=r"^t must be "):
        _ORACLE_CALLS[name](t)


def test_joint_density_normalizes_to_one():
    total, _ = integrate.dblquad(
        lambda s, y: joint_density(y, s, 1.0), -10, 10, 0, lambda y: max(0.0, 10 - abs(y))
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_marginal_level_values_and_symmetry():
    assert marginal_level(0.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-15)
    assert marginal_level(1.3, 2.0) == marginal_level(-1.3, 2.0)
    with pytest.raises(ValueError):
        marginal_level(0.0, -1.0)


def test_marginal_level_matches_quadrature_of_joint():
    for y in (0.0, 0.7, -1.4, 2.2):
        num, _ = integrate.quad(
            lambda s: joint_density(y, s, 1.0), 0, 12, epsabs=1e-12, limit=200
        )
        assert num == pytest.approx(marginal_level(y, 1.0), abs=1e-8)


def test_marginal_height_values_and_normalization():
    assert marginal_height(0.0, 1.0) == pytest.approx(0.7978845608028654, rel=1e-15)
    total, _ = integrate.quad(lambda s: marginal_height(s, 1.0), 0, 12)
    assert total == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        marginal_height(-0.1, 1.0)


def test_marginal_height_matches_quadrature_of_joint():
    for s in (0.0, 0.5, 1.7):
        num, _ = integrate.quad(
            lambda y: joint_density(y, s, 1.0), -12, 12, epsabs=1e-12, limit=200
        )
        assert num == pytest.approx(marginal_height(s, 1.0), abs=1e-8)


def test_marginal_height_brownian_scaling():
    for s, t in [(0.3, 4.0), (1.1, 0.25)]:
        assert marginal_height(s, t) == pytest.approx(
            marginal_height(s / np.sqrt(t), 1.0) / np.sqrt(t), rel=1e-12
        )


def test_mean_height_values():
    assert mean_height(1.0) == pytest.approx(0.7978845608028654, rel=1e-15)
    assert mean_height(4.0) == pytest.approx(2 * mean_height(1.0), rel=1e-15)
    assert mean_height(1e-12) < 1e-5
    with pytest.raises(ValueError):
        mean_height(0.0)


def test_mean_height_matches_quadrature():
    num, _ = integrate.quad(lambda s: s * marginal_height(s, 1.0), 0, 12)
    assert num == pytest.approx(mean_height(1.0), abs=1e-10)


def test_reflection_tail_values():
    s, t = 0.8, 1.3
    gaussian_at_2s = np.exp(-((2 * s) ** 2) / (2 * t)) / np.sqrt(2 * np.pi * t)
    assert reflection_tail(0.0, s, t) == pytest.approx(gaussian_at_2s, rel=1e-15)
    tails = [reflection_tail(0.2, s, 1.0) for s in (0.5, 0.8, 1.2, 2.0)]
    assert np.all(np.diff(tails) < 0)
    with pytest.raises(ValueError):
        reflection_tail(1.0, 0.5, 1.0)


def test_reflection_pipeline_reproduces_joint_density():
    # Differentiate the running-maximum tail in s, evaluate at x = s - |y|,
    # halve for the independent fair sign: recovers the joint density.
    t = 1.0
    h = 1e-6
    for y, s in [(0.7, 0.5), (-0.3, 1.1), (0.05, 0.8), (1.5, 0.2)]:
        x = s - abs(y)
        fd = -(reflection_tail(x, s + h, t) - reflection_tail(x, s - h, t)) / (2 * h)
        assert 0.5 * fd == pytest.approx(joint_density(y, s, t), rel=1e-6)


def test_sampler_shapes_and_determinism():
    a = sample_identity_pair(1.0, 5, 400, "lhs", replicates=64)
    b = sample_identity_pair(1.0, 5, 400, "lhs", replicates=64)
    assert a.shape == (64, 2)
    assert np.array_equal(a, b)


def test_sampler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_identity_pair(1.0, 0, 100, "diagonal", replicates=10)
    with pytest.raises(ValueError):
        sample_identity_pair(0.0, 0, 100, "lhs", replicates=10)


def test_levy_side_coordinates_nonnegative():
    pairs = sample_identity_pair(1.0, 6, 500, "levy", replicates=300)
    assert np.all(pairs[:, 0] >= 0)  # gap below the running maximum
    assert np.all(pairs[:, 1] >= 0)  # the running maximum itself


def test_signed_side_with_forced_plus_signs_equals_levy():
    # Forcing every sign to + (taking |.|) gives back the levy pair, and the
    # fair signs themselves take both values.
    signed = sample_identity_pair(1.0, 6, 500, "signed", 300)
    levy = sample_identity_pair(1.0, 6, 500, "levy", 300)
    assert np.array_equal(np.abs(signed), levy)
    gaps = signed[:, 0][signed[:, 0] != 0]
    assert (gaps > 0).any() and (gaps < 0).any()


def test_heights_count_initial_block():
    pairs = sample_identity_pair(1.0, 3, 400, "lhs", replicates=50)
    assert np.all(pairs[:, 1] >= 1 / np.sqrt(400))


def _reference_identity_pair(seed: int, m: int, side: str, replicates: int) -> np.ndarray:
    """The sampler as a loop over whole site arrays, one replicate at a time.

    Each side walks on its own counter domain (lhs 0, reversal 1, levy 2;
    signed reuses the levy walk and draws its signs on domain 3).  The
    visit counts include the walk's site at time 0.
    """
    domain = {"lhs": 0, "reversal": 1, "levy": 2, "signed": 2}[side]
    pairs = []
    for r in range(replicates):
        sites = walk_sites(seed, r, domain, 0, m)
        end = sites[-1]
        if side == "lhs":
            pair = [end, np.count_nonzero(sites == end)]
        elif side == "reversal":
            pair = [end, np.count_nonzero(sites == 0)]
        else:
            top = sites.max()
            pair = [top - end, top]
        if side == "signed":
            pair[0] *= walk_sites(seed, r, 3, 0, 1)[1]
        pairs.append(pair)
    return np.array(pairs, dtype=float) / np.sqrt(float(m))


@settings(max_examples=150, deadline=None)
@given(
    side=st.sampled_from(IDENTITY_SIDES),
    m=st.integers(1, 200),
    replicates=st.integers(1, 12),
    block_bytes=st.integers(1, 400),
    seed=st.integers(0, 2**64 - 1),
)
@example(side="lhs", m=1, replicates=3, block_bytes=1, seed=0)
@example(side="reversal", m=8, replicates=5, block_bytes=8, seed=1)
@example(side="levy", m=17, replicates=7, block_bytes=27, seed=2)
@example(side="signed", m=40, replicates=12, block_bytes=48, seed=3)
@example(side="lhs", m=63, replicates=5, block_bytes=16, seed=4)
@example(side="reversal", m=64, replicates=6, block_bytes=8, seed=5)
@example(side="levy", m=65, replicates=7, block_bytes=40, seed=6)
@example(side="signed", m=129, replicates=9, block_bytes=100, seed=7)
@example(side="lhs", m=15, replicates=4, block_bytes=8, seed=8)
@example(side="reversal", m=16, replicates=4, block_bytes=8, seed=9)
@example(side="signed", m=17, replicates=5, block_bytes=16, seed=10)
@example(side="levy", m=31, replicates=6, block_bytes=8, seed=11)
@example(side="lhs", m=32, replicates=7, block_bytes=24, seed=12)
@example(side="reversal", m=33, replicates=8, block_bytes=16, seed=13)
@example(side="levy", m=112, replicates=9, block_bytes=32, seed=14)
@example(side="reversal", m=113, replicates=10, block_bytes=40, seed=15)
def test_identity_sampler_equals_per_replicate_walks(side, m, replicates, block_bytes, seed):
    # A small block cap splits the replicates into blocks, the last one
    # partial; m covers walks under one chunk, whole chunks, the seams
    # either side of them, odd lengths and walks of one, two and three words.
    with mock.patch.object(oracle, "_BLOCK_BYTES", block_bytes):
        pairs = sample_identity_pair(1.0, seed, m, side, replicates)
    assert np.array_equal(pairs, _reference_identity_pair(seed, m, side, replicates))


def test_identity_sampler_keeps_no_state_between_calls():
    # Interleaved sides in one process: the second lhs call equals the first.
    args = (1.0, 9, 1000)
    lhs = sample_identity_pair(*args, "lhs", 300)
    levy = sample_identity_pair(*args, "levy", 300)
    again = sample_identity_pair(*args, "lhs", 300)
    assert np.array_equal(lhs, again)
    assert np.array_equal(levy, sample_identity_pair(*args, "levy", 300))
    for table in oracle._byte_tables() + oracle._chunk_tables():
        assert not table.flags.writeable


def _straight_streams(word: int):
    """A stand-in for ``stream`` whose every raw word is ``word``."""
    bit_generator = mock.Mock()
    bit_generator.random_raw.side_effect = lambda size: np.full(size, word, dtype=np.uint64)
    return lambda *args, **kwargs: mock.Mock(bit_generator=bit_generator)


# The running sums are int8 up to m = 112, int16 up to 32752, then int32:
# a down walk's sum reaches -16 * ceil(m/16) with the cleared tail, so the
# pairs 112, 113 and 32752, 32753 straddle the widenings.  At 127, 128 and
# 32767, 32768 a straight up walk ends at m, either side of a type maximum.
@pytest.mark.parametrize("m", [112, 113, 127, 128, 32752, 32753, 32767, 32768])
@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
def test_straight_walks_at_the_sum_type_boundaries(m, up):
    with mock.patch.object(walk, "stream", _straight_streams(2**64 - 1 if up else 0)):
        pairs = {side: sample_identity_pair(1.0, 0, m, side, 3) for side in ("lhs", "reversal", "levy")}
    end = m if up else -m
    expected = {"lhs": (end, 1), "reversal": (end, 1), "levy": (0, m) if up else (m, 0)}
    for side, pair in expected.items():
        assert np.array_equal(pairs[side], np.tile(np.divide(pair, np.sqrt(m)), (3, 1))), side


def _dense_hits_at(chunk: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Visit counts by unpacking all 16 steps of every chunk, in int64."""
    steps = 2 * ((chunk.astype(np.int64)[..., None] >> np.arange(16)) & 1) - 1
    sites = np.cumsum(steps, axis=-1)
    return (sites == offset.astype(np.int64)[..., None]).sum(axis=(1, 2))


@st.composite
def _visit_blocks(draw):
    """A block of chunks and offsets as the sampler builds them: 16-step
    chunks, the last one of each row cleared above its first 1..16 steps,
    and offsets of the running-sum type, clear of its minimum."""
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]))
    top = int(np.iinfo(dtype).max)
    offset = st.one_of(
        st.integers(-18, 18), st.sampled_from([-17, -16, 16, 17, -top, top]), st.integers(-top, top)
    )
    chunks = draw(st.lists(st.integers(0, 2**16 - 1), min_size=rows * width, max_size=rows * width))
    chunk = np.reshape(np.array(chunks, np.uint16), (rows, width))
    chunk[:, -1] &= 0xFFFF >> draw(st.integers(0, 15))
    offsets = draw(st.lists(offset, min_size=rows * width, max_size=rows * width))
    return chunk, np.reshape(np.array(offsets, dtype=dtype), (rows, width))


@settings(max_examples=300, deadline=None)
@given(block=_visit_blocks())
@example(block=(np.array([[5]], np.uint16), np.array([[-1]], np.int8)))
@example(
    block=(
        np.array([[0x0000, 0xFFFF, 0x0034, 0x0000], [0x0001, 0x0002, 0x0098, 0x001F]], np.uint16),
        np.array([[16, 17, -17, -16], [0, 2**15 - 1, 1 - 2**15, -3]], np.int16),
    )
)
def test_sparse_visit_counts_equal_the_dense_kernel(block):
    chunk, offset = block
    assert np.array_equal(oracle._hits_at(chunk, offset), _dense_hits_at(chunk, offset))


def _bits_of_replicate(m: int):
    """A stand-in for ``stream`` whose replicate r, on every domain, draws
    one word: the bits of r below bit m, and ones above, which no read of an
    m-step walk may see.  A sign is then bit 0 of r."""
    ones = (2**64 - 1) ^ (2**m - 1)

    class BitsOfReplicate:
        def __init__(self, seed, replicate, domain=0):
            self.bit_generator = self
            self.word = replicate | ones

        def random_raw(self, size=None):
            return self.word

    return BitsOfReplicate


def _direct_pairs(m: int, side: str) -> np.ndarray:
    """Every side's pair for all 2**m walks, walk r taking the bits of r."""
    r = np.arange(2**m)
    steps = 2 * ((r[:, None] >> np.arange(m)) & 1) - 1
    sites = np.cumsum(np.column_stack([np.zeros_like(r), steps]), axis=1)
    end, top = sites[:, -1], sites.max(axis=1)
    pair = {
        "lhs": (end, np.count_nonzero(sites == end[:, None], axis=1)),
        "reversal": (end, np.count_nonzero(sites == 0, axis=1)),
    }.get(side, (top - end, top))
    pairs = np.column_stack(pair).astype(float) / np.sqrt(float(m))
    if side == "signed":
        pairs[:, 0] *= np.where(r & 1, 1.0, -1.0)
    return pairs


@pytest.mark.parametrize("m", [*range(1, 13), 16, 17])
def test_identity_sampler_on_every_short_walk(m):
    # All 2**m walks of m steps, through every side: the chunk seams, the
    # cleared tail and the reversal's tail visit, walk by walk.
    with mock.patch.object(walk, "stream", _bits_of_replicate(m)):
        for side in IDENTITY_SIDES:
            pairs = sample_identity_pair(1.0, 0, m, side, 2**m)
            assert np.array_equal(pairs, _direct_pairs(m, side)), side


@pytest.mark.parametrize("side", IDENTITY_SIDES)
def test_identity_sampler_builds_one_stream_per_replicate_and_draw(side):
    # One walk stream per replicate on the side's domain, and for "signed"
    # one more on the sign domain: the stream builds the benchmark counts.
    keys = []

    def spy(seed, replicate=0, domain=0):
        keys.append((replicate, domain))
        return stream(seed, replicate, domain)

    with mock.patch.object(oracle, "_BLOCK_BYTES", 100), mock.patch.object(walk, "stream", spy):
        sample_identity_pair(1.0, 3, 200, side, 7)
    domains = {"lhs": [0], "reversal": [1], "levy": [2], "signed": [2, 3]}[side]
    assert sorted(keys) == sorted((r, d) for r in range(7) for d in domains)


def test_exact_sampler_matches_model_moments():
    pairs = sample_exact(1.0, 123, 200_000)
    assert np.all(pairs[:, 1] >= 0)
    # |y| + s is chi with 3 degrees of freedom: mean 2*sqrt(2/pi).
    radial = np.abs(pairs[:, 0]) + pairs[:, 1]
    assert radial.mean() == pytest.approx(2 * np.sqrt(2 / np.pi), abs=0.01)
    assert pairs[:, 0].mean() == pytest.approx(0.0, abs=0.01)
    assert pairs[:, 1].mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)


def test_identity_sampler_memory_is_linear_in_walk_length():
    # 256 replicates of 10**5 steps held at once would need about 205 MB.
    tracemalloc.start()
    try:
        sample_identity_pair(1.0, 0, 10**5, "lhs", replicates=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
