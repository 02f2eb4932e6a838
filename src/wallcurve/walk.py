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

This module is the only one that turns random words into steps
(:func:`_up_bits`, read by :func:`walk_sites` and the identity sampler) or
counts blocks (:meth:`OccupationField.drop`, the streaming wall).  Philox
draws do not depend on how they are chunked, so a walk extended chunk by
chunk from one generator, and a wall fed chunk by chunk, match the one-shot
versions exactly.
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


def _up_bits(words: np.ndarray) -> np.ndarray:
    """The up-steps in raw 64-bit Philox words, two per word, as booleans.

    The one bit rule: a step goes up when bit 31 of its 32-bit half is set,
    low half first (the ``int32`` view is low half first on a little-endian
    host), which is the bit ``rng.integers(0, 2)`` reads.  The last axis
    doubles in length.
    """
    return words.view(np.int32) < 0


def walk_sites(rng: np.random.Generator, n_steps: int, start: int = 0) -> np.ndarray:
    """Sites of ``n_steps`` fair +/-1 steps from ``start``, ``start`` first.

    The one step source: each step is one fair bit drawn from ``rng`` (a
    caller-built :func:`stream`).  Continuing from the last site with the
    same generator extends the walk exactly as one longer call would.

    The bits are those ``rng.integers(0, 2)`` would give (:func:`_up_bits`).
    Whole words are read raw, two steps each.  A half-word left pending by
    an earlier draw, and an odd last step, go through ``integers``, so the
    generator is left as ``integers`` would leave it.
    """
    sites = np.empty(n_steps + 1, dtype=np.int64)
    sites[0] = start
    bits = sites[1:]
    if n_steps and rng.bit_generator.state["has_uint32"]:
        bits[0] = rng.integers(0, 2, dtype=np.int64)
        bits = bits[1:]
    words, odd = divmod(len(bits), 2)
    bits[: 2 * words] = _up_bits(rng.bit_generator.random_raw(words))
    if odd:
        bits[-1] = rng.integers(0, 2, dtype=np.int64)
    steps = sites[1:]
    steps *= 2
    steps -= 1
    return np.cumsum(sites, out=sites)


def simulate_walk(n_steps: int, seed: int) -> np.ndarray:
    """Sites of ``n_steps`` fair +/-1 steps from the origin, an int64 array.

    ``n_steps = 0`` is legal and yields the single site ``[0]``.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    return walk_sites(stream(seed, 0, domain=0), n_steps)


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
