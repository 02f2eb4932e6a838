"""Simple random walk on the integers and the block wall it builds.

The walker starts at site 0, drops a block there, and then repeatedly flips
a fair coin, steps one site left or right, and drops a block at the new
site.  After ``n`` steps the wall holds ``n + 1`` blocks and the number of
blocks at site ``j`` is the walk's occupation time of ``j`` through step
``n``.

All randomness flows through :func:`stream`, a counter-based Philox
generator keyed by ``(seed, replicate)``.  Replicates are therefore
independent, reproducible, and order-insensitive: they can be generated in
any order (or concurrently) and merged by replicate index.  The key reaches
Philox through a fixed seed-sequence object, so building a stream reads no
OS entropy, and ``bit_generator.seed_seq`` is that object, not ``None``.
Seed, replicate and domain are taken mod 2**64.

The step rule (stream format v6): step ``k`` of a stream goes up when bit
``k mod 64`` of raw Philox word ``k div 64`` is set, lowest bit first, so
one word holds 64 steps.  :func:`walk_sites` is the one reader of that rule,
addressed by step index; the identity sampler reads the same bits as 16-step
``uint16`` chunks straight from the words.  :meth:`OccupationField.drop` is
the one block counter, the streaming wall.  A read of steps ``first ..
first + count - 1`` depends on nothing but its address, so a walk read chunk
by chunk, and a wall fed chunk by chunk, match the one-shot versions exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
#: The longest walk read: int64 sites hold it, and no array holds a longer one.
_MAX_STEPS = 1 << 62


def stream(seed: int, replicate: int = 0, domain: int = 0) -> np.random.Generator:
    """Return the Philox generator for one (seed, replicate) pair.

    The 128-bit Philox key is the pair ``(seed, replicate)``, so distinct
    replicates of one master seed give statistically independent streams.
    ``domain`` selects one of 2**64 non-overlapping sub-streams within a
    replicate (walk steps vs. sign flips, etc.) by offsetting the most
    significant word of the 256-bit counter; each sub-stream still has
    2**192 blocks of headroom before any overlap.  All three are taken
    mod 2**64, so ``seed = -1`` and ``seed = 2**64 - 1`` give one stream.

    The key reaches Philox as a fixed seed-sequence object, which is what
    ``bit_generator.seed_seq`` returns.  numpy's ``Philox(key=...)`` gives
    the same words but leaves ``seed_seq`` at ``None``, after building and
    discarding a ``SeedSequence`` from OS entropy on every call.
    """
    counter = np.array([0, 0, 0, domain & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key(seed, replicate), counter=counter))


def _philox_key(seed: int, replicate: int) -> np.random.bit_generator.ISeedSequence:
    """The seed sequence whose state is the Philox key ``(seed, replicate)``."""
    return _philox_key_class()(seed & _MASK64, replicate & _MASK64)


@functools.cache
def _philox_key_class() -> type:
    """The seed-sequence class behind :func:`_philox_key`.

    It is made on first use because its base class lives in
    ``numpy.random``, which ``import wallcurve`` does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """A fixed 128-bit Philox key, handed over as two uint64 words."""

        def __init__(self, seed: int, replicate: int) -> None:
            self.words = (seed, replicate)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is exactly two uint64 words")
            return np.array(self.words, dtype=np.uint64)

        def __reduce__(self):
            return _philox_key, self.words

    return PhiloxKey


@dataclass(frozen=True)
class OccupationField:
    """Per-site block counts of a walk prefix: the wall, grown chunk by chunk.

    Counts are stored densely from ``min_site`` upward; a walk visits every
    site between its running extremes, so the dense window has no holes.
    ``OccupationField()`` is the empty wall.
    """

    min_site: int = 0
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def _grow(self, sites: np.ndarray) -> tuple[OccupationField, np.ndarray, np.ndarray]:
        """The wall with one more block on each of ``sites``, the sites'
        offsets in its window, and the number of new blocks at each of its
        sites (``np.bincount`` of the offsets over the whole window)."""
        sites = np.asarray(sites, dtype=np.int64)
        if len(sites) == 0:
            return self, sites, np.zeros(len(self.counts), dtype=np.int64)
        lo, hi = int(sites.min()), int(sites.max())
        if len(self.counts):
            lo = min(lo, self.min_site)
            hi = max(hi, self.min_site + len(self.counts) - 1)
        counts = np.zeros(hi - lo + 1, dtype=np.int64)
        offset = self.min_site - lo
        counts[offset : offset + len(self.counts)] = self.counts
        idx = sites - lo
        tally = np.bincount(idx, minlength=len(counts))
        counts += tally
        return OccupationField(min_site=lo, counts=counts), idx, tally

    def drop(self, sites: np.ndarray) -> tuple[OccupationField, np.ndarray]:
        """Drop one block on each of ``sites``, in order.

        Returns the grown wall and each new block's height, i.e. the number
        of blocks at its site once it is placed.  A stable sort (radix, on
        uint16 offsets, when the window fits) groups the blocks by site, so
        sorted position ``p`` holds height ``p + 1`` plus its site's grown
        count less the running sum of the tally through that site.
        """
        wall, idx, tally = self._grow(sites)
        key = idx.astype(np.uint16) if len(tally) <= 1 << 16 else idx
        order = np.argsort(key, kind="stable")
        heights = np.empty(len(idx), dtype=np.int64)
        heights[order] = np.arange(1, len(idx) + 1) + np.repeat(
            wall.counts - np.cumsum(tally), tally
        )
        return wall, heights


def walk_sites(
    seed: int, replicate: int, domain: int, first: int, count: int, start: int = 0
) -> np.ndarray:
    """Sites of steps ``first .. first + count - 1`` of one stream, from ``start``.

    The one step reader: ``count + 1`` int64 sites, ``start`` first.  It
    builds the :func:`stream` of ``(seed, replicate, domain)`` once, skips
    ``first // 256`` whole Philox counter blocks of 4 words with ``advance``,
    draws the words that hold the steps and slices their bits, lowest first.
    Reading ``[a, b)`` and then ``[b, c)`` from the last site gives the walk
    that reading ``[a, c)`` gives.  A negative ``first`` or ``count``, or a
    ``count`` above 2**62, raises ``ValueError``.
    """
    if first < 0 or count < 0:
        raise ValueError(f"first and count must be >= 0, got first={first}, count={count}")
    _check_steps(count)
    word, skip = divmod(first, 64)
    bit_generator = stream(seed, replicate, domain).bit_generator
    bit_generator.advance(word // 4)
    drop = word % 4
    words = bit_generator.random_raw(drop + -(-(skip + count) // 64))[drop:]
    # Little-endian bytes: bit k of a word is bit k % 8 of its byte k // 8.
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    sites = np.empty(count + 1, dtype=np.int64)
    sites[0] = start
    steps = sites[1:]
    steps[:] = bits[skip : skip + count]
    steps *= 2
    steps -= 1
    return np.cumsum(sites, out=sites)


def _check_steps(steps: int) -> None:
    """Reject a walk of more than ``_MAX_STEPS`` steps, naming its length."""
    if steps > _MAX_STEPS:
        raise ValueError(f"a walk of {steps:.6g} steps exceeds the limit of 2**62 steps")


def simulate_walk(n_steps: int, seed: int) -> np.ndarray:
    """Sites of ``n_steps`` fair +/-1 steps from the origin, an int64 array.

    ``n_steps = 0`` is legal and yields the single site ``[0]``.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    return walk_sites(seed, 0, 0, 0, n_steps)


def discrete_brick_trace(sites: np.ndarray) -> np.ndarray:
    """Height of every block placement: ``heights[k]`` is the number of
    blocks at ``sites[k]`` once block ``k`` is placed, so within any fixed
    site the heights are 1, 2, 3, ... in order of appearance."""
    return OccupationField().drop(sites)[1]
