"""Simple random walk on the integers and the block wall it builds.

The walker starts at site 0, drops a block there, and then repeatedly flips
a fair coin, steps one site left or right, and drops a block at the new
site.  After ``n`` steps the wall holds ``n + 1`` blocks and the number of
blocks at site ``j`` is the walk's occupation time of ``j`` through step
``n``.

All randomness flows through :func:`stream`, a counter-based Philox
generator keyed by ``(seed, replicate)``.  Replicates are therefore
independent, reproducible, and order-insensitive: they can be generated in
any order (or concurrently) and merged by replicate index.

The step rule (stream format v6): step ``k`` of a stream goes up when bit
``k mod 64`` of raw Philox word ``k div 64`` is set, lowest bit first, so
one word holds 64 steps.  :func:`walk_sites` is the one reader of that rule,
addressed by step index; the identity sampler reads the same bits as bytes
straight from the words.  :meth:`OccupationField.drop` is the one block
counter, the streaming wall.  A read of steps ``first .. first + count - 1``
depends on nothing but its address, so a walk read chunk by chunk, and a
wall fed chunk by chunk, match the one-shot versions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, replicate: int = 0, domain: int = 0) -> np.random.Generator:
    """Return the Philox generator for one (seed, replicate) pair.

    The 128-bit Philox key is the pair ``(seed, replicate)``, so distinct
    replicates of one master seed give statistically independent streams.
    ``domain`` selects one of 2**64 non-overlapping sub-streams within a
    replicate (walk steps vs. sign flips, etc.) by offsetting the most
    significant word of the 256-bit counter; each sub-stream still has
    2**192 blocks of headroom before any overlap.
    """
    key = np.array([seed & _MASK64, replicate & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, domain & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


@dataclass(frozen=True)
class OccupationField:
    """Per-site block counts of a walk prefix: the wall, grown chunk by chunk.

    Counts are stored densely from ``min_site`` upward; a walk visits every
    site between its running extremes, so the dense window has no holes.
    ``OccupationField()`` is the empty wall.
    """

    min_site: int = 0
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def drop(self, sites: np.ndarray) -> tuple[OccupationField, np.ndarray]:
        """Drop one block on each of ``sites``, in order.

        Returns the grown wall and each new block's height, i.e. the number
        of blocks at its site once it is placed.
        """
        sites = np.asarray(sites, dtype=np.int64)
        if len(sites) == 0:
            return self, np.zeros(0, dtype=np.int64)
        lo, hi = int(sites.min()), int(sites.max())
        if len(self.counts):
            lo = min(lo, self.min_site)
            hi = max(hi, self.min_site + len(self.counts) - 1)
        counts = np.zeros(hi - lo + 1, dtype=np.int64)
        offset = self.min_site - lo
        counts[offset : offset + len(self.counts)] = self.counts
        idx = sites - lo
        tally = np.bincount(idx, minlength=len(counts))
        heights = counts[idx] + _running_visit_rank(idx, tally)
        counts += tally
        return OccupationField(min_site=lo, counts=counts), heights


def walk_sites(
    seed: int, replicate: int, domain: int, first: int, count: int, start: int = 0
) -> np.ndarray:
    """Sites of steps ``first .. first + count - 1`` of one stream, from ``start``.

    The one step reader: ``count + 1`` int64 sites, ``start`` first.  It
    builds the :func:`stream` of ``(seed, replicate, domain)`` once, skips
    ``first // 256`` whole Philox counter blocks of 4 words with ``advance``,
    draws the words that hold the steps and slices their bits, lowest first.
    Reading ``[a, b)`` and then ``[b, c)`` from the last site gives the walk
    that reading ``[a, c)`` gives.
    """
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


def simulate_walk(n_steps: int, seed: int) -> np.ndarray:
    """Sites of ``n_steps`` fair +/-1 steps from the origin, an int64 array.

    ``n_steps = 0`` is legal and yields the single site ``[0]``.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    return walk_sites(seed, 0, 0, 0, n_steps)


def _running_visit_rank(idx: np.ndarray, tally: np.ndarray) -> np.ndarray:
    """Rank of each entry among equal entries, in time order (1-based).

    Equivalent to walking the array and incrementing a per-site counter.
    ``idx`` holds non-negative site offsets and ``tally`` is
    ``np.bincount(idx)``, possibly zero-padded; one stable sort groups the
    offsets (as uint16, by linear-time radix sort, when the tally fits) and
    each group's start in sorted order comes from the tally.
    """
    key = idx.astype(np.uint16) if len(tally) <= 1 << 16 else idx
    order = np.argsort(key, kind="stable")
    first = np.cumsum(tally) - tally
    ranks = np.empty(len(idx), dtype=np.int64)
    ranks[order] = np.arange(1, len(idx) + 1) - first[idx[order]]
    return ranks


def discrete_brick_trace(sites: np.ndarray) -> np.ndarray:
    """Height of every block placement: ``heights[k]`` is the number of
    blocks at ``sites[k]`` once block ``k`` is placed, so within any fixed
    site the heights are 1, 2, 3, ... in order of appearance."""
    return OccupationField().drop(sites)[1]
