"""Closed-form laws of the curve at a fixed time, plus matched samplers.

At a fixed time ``t`` the pair (position, wall height) = (B(t), local time
at B(t)) has the joint density

    f(y, s) = (|y| + s) / sqrt(2*pi*t**3) * exp(-(|y| + s)**2 / (2*t))

on R x [0, inf).  The density follows from three classical identities, each
realized here as a sampler side so the whole chain can be replayed
empirically:

* time reversal -- the height above the current position has the same law
  as the height above the origin ("lhs" vs "reversal");
* Levy's identity -- (|B(t)|, local time at 0) matches (S(t) - B(t), S(t))
  with S the running maximum ("levy");
* sign symmetry -- B(t)'s sign is independent of (|B(t)|, local time at 0),
  so attaching a fair sign to S(t) - B(t) recovers the full pair
  ("signed").

The reflection principle supplies the running-maximum tail used in the
final step: Pr{B(t) in dx, S(t) >= s} has density exp(-(2s-x)**2/(2t)) /
sqrt(2*pi*t) for x < s.

Note the normalizing constant: sqrt(2*pi*t**3), not sqrt(8*pi*t**3).  The
latter fails every consistency check in this module (the density would
integrate to 1/2), while the constant used here reproduces the Gaussian
position marginal, the half-normal height marginal, and the
finite-difference replay of the reflection-principle derivation.
"""

from __future__ import annotations

import functools

import numpy as np

from .scaling import _check_positive, _walk_steps
from .walk import _replicate_words, stream

__all__ = [
    "joint_density",
    "marginal_level",
    "marginal_height",
    "mean_height",
    "reflection_tail",
    "sample_identity_pair",
    "sample_exact",
    "IDENTITY_SIDES",
]

#: Sampler sides, with the counter domain used for each side's walk draws.
#: "signed" reuses the "levy" walk (it is that pair with a sign attached)
#: and draws its signs from a separate domain.
IDENTITY_SIDES = ("lhs", "reversal", "levy", "signed")
_WALK_DOMAIN = {"lhs": 0, "reversal": 1, "levy": 2, "signed": 2}
_SIGN_DOMAIN = 3
#: Bytes of raw words drawn per block of replicates: the sampler's memory
#: cap.  64 KiB is 52 replicates of 10**4 steps (157 words each).
_BLOCK_BYTES = 1 << 16


def joint_density(y, s, t: float):
    """Joint density of (position, wall height) at time ``t``.

    Defined on the closed half-plane s >= 0 by continuity: on the boundary
    it equals |y| * exp(-y**2/(2t)) / sqrt(2*pi*t**3), vanishing only at
    the origin.
    """
    _check_positive("t", t)
    # The integrand of every GOF cell: without np.asarray, Python floats stay
    # on numpy's cheap scalar path, and one ufunc reduction is the cheapest
    # sign check that takes scalars, lists and arrays alike.
    if np.minimum.reduce(s, axis=None, initial=0.0) < 0:
        raise ValueError("height s must be >= 0")
    try:
        cube = t**3
    except OverflowError:
        raise ValueError(f"t = {t} is too large: t**3 overflows") from None
    r = np.abs(y) + s
    out = r / np.sqrt(2.0 * np.pi * cube) * np.exp(-(r**2) / (2.0 * t))
    return out if isinstance(out, np.ndarray) else float(out)


def marginal_level(y, t: float):
    """Position marginal: centered Gaussian with variance ``t``."""
    _check_positive("t", t)
    y = np.asarray(y, dtype=float)
    out = np.exp(-(y**2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    return out if out.ndim else float(out)


def marginal_height(s, t: float):
    """Height marginal: half-normal with scale ``sqrt(t)``.

    Takes its maximum sqrt(2/(pi*t)) at the s = 0 boundary.
    """
    _check_positive("t", t)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("height s must be >= 0")
    out = np.sqrt(2.0 / (np.pi * t)) * np.exp(-(s**2) / (2.0 * t))
    return out if out.ndim else float(out)


def mean_height(t: float) -> float:
    """Expected wall height at the walker's position, ``sqrt(2*t/pi)``."""
    _check_positive("t", t)
    return float(np.sqrt(2.0 * t / np.pi))


def reflection_tail(x: float, s: float, t: float) -> float:
    """Density in ``x`` of {B(t) in dx, running max >= s}, for ``x < s``.

    By reflecting the path at its first passage of ``s``, this equals the
    plain Gaussian density evaluated at ``2*s - x``.
    """
    _check_positive("t", t)
    if s <= 0:
        raise ValueError(f"s must be > 0, got {s}")
    if x >= s:
        raise ValueError(f"identity requires x < s, got x={x}, s={s}")
    return float(np.exp(-((2.0 * s - x) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t))


def sample_exact(t: float, seed: int, size: int) -> np.ndarray:
    """Draw (y, s) pairs exactly from the fixed-time law.

    Under u = |y| + s the density is Maxwell (chi with 3 degrees of
    freedom, scale sqrt(t)) and y is uniform on (-u, u) given u, so a
    3-d Gaussian norm plus one uniform inverts the law exactly.  Used as
    the synthetic null for calibrating the statistical harness.
    """
    _check_positive("t", t)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = stream(seed, 0, domain=0)
    u = np.sqrt(t) * np.linalg.norm(rng.standard_normal((size, 3)), axis=1)
    y = u * rng.uniform(-1.0, 1.0, size=size)
    s = u - np.abs(y)
    return np.column_stack([y, s])


def sample_identity_pair(
    t: float,
    seed: int,
    n: int,
    side: str,
    replicates: int = 2000,
) -> np.ndarray:
    """Monte-Carlo pairs realizing one side of the identity chain.

    Each replicate simulates ``ceil(n*t)`` walk steps on its own
    ``(seed, replicate)`` stream and reports, rescaled by ``n**-0.5``:

    * ``lhs``      -- (position, visit count at the current site);
    * ``reversal`` -- (position, visit count at the origin);
    * ``levy``     -- (running max - position, running max);
    * ``signed``   -- the ``levy`` pair with its first coordinate given an
      independent fair sign.

    ``lhs``, ``reversal`` and ``levy`` use disjoint generator domains, so
    any two of those sides are independent; ``signed`` deliberately reuses
    the ``levy`` walk.

    The site array is never built.  Each replicate's ``ceil(m/64)`` raw
    words hold its steps in the rule of :mod:`wallcurve.walk`, so their
    little-endian ``uint16`` chunks are the up-steps packed sixteen to a
    chunk, the first in the lowest bit.  ``_replicate_words`` reads them in
    blocks of about ``_BLOCK_BYTES`` bytes (one row per replicate, so memory
    stays O(m) at any ``replicates``), and each statistic is reduced from
    :func:`_chunk_tables` lookups plus one running sum per chunk.  The
    unread bits of each row's last chunk are cleared: its ``tail`` steps
    after the walk's end then step down, move no maximum and no visit to
    the end site, and visit 0 once exactly when ``1 <= end <= tail``.  The
    running sums are held in the narrowest signed type whose maximum is at
    least ``16*ceil(m/16)``, and visit counts gather only the chunks that
    start near the target site (:func:`_hits_at`).  A replicate's sign is
    step 0 of its own sign stream, read by the same reader.
    """
    _check_positive("t", t)
    if n < 1:
        raise ValueError(f"scale parameter n must be >= 1, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if side not in IDENTITY_SIDES:
        raise ValueError(f"unknown side {side!r}, expected one of {IDENTITY_SIDES}")
    m = _walk_steps(t, n)
    words = -(-m // 64)
    rows = min(replicates, max(1, _BLOCK_BYTES // (8 * words)))
    span = 16 * -(-m // 16)  # the steps of the whole chunks read
    tail = span - m
    # Every chunk start, offset and running maximum below is one site of the
    # walk less another (or the origin), in [-m, m], and the running sum
    # with the tail stays in [-span, m].  A signed type whose maximum is at
    # least span never meets its own minimum, where np.abs would wrap.
    sums = next(d for d in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(d).max >= span)
    net, peak = _chunk_tables()
    domain = _WALK_DOMAIN[side]
    out = np.empty((replicates, 2))
    for lo in range(0, replicates, rows):
        block = _replicate_words(seed, range(lo, min(lo + rows, replicates)), domain, words)
        chunk = block.view("<u2")[:, : span // 16]
        chunk[:, -1] &= 0xFFFF >> tail
        step = net.take(chunk)
        start = np.cumsum(step, axis=1, dtype=sums)
        end = start[:, -1] + tail
        start -= step  # each chunk's first site
        pairs = out[lo : lo + len(block)]
        if side == "lhs":
            pairs[:, 0] = end
            pairs[:, 1] = (end == 0) + _hits_at(chunk, end[:, None] - start)
        elif side == "reversal":
            pairs[:, 0] = end
            # 1: the visit at time 0; the tail's visit to 0 is taken back.
            pairs[:, 1] = 1 + _hits_at(chunk, -start) - ((end >= 1) & (end <= tail))
        else:
            run_max = np.maximum((start + peak.take(chunk)).max(axis=1), 0)
            pairs[:, 0] = run_max - end
            pairs[:, 1] = run_max
    out /= np.sqrt(float(n))
    if side == "signed":
        # A fair sign is the one step of a one-step walk: bit 0 of the first
        # word of the replicate's sign stream.
        first = _replicate_words(seed, range(replicates), _SIGN_DOMAIN, 1)[:, 0] & 1
        out[:, 0] *= np.where(first, 1.0, -1.0)
    return out


def _hits_at(chunk: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Per row, the steps that land ``offset`` sites from their chunk's first site.

    A chunk's steps land within 16 sites of its first site, so only the
    chunks with ``|offset| <= 16`` are gathered.  Each is read as its two
    bytes through the padded byte table of visits, the high byte at the
    offset less the low byte's net displacement, and one ``np.bincount``
    adds up the visits per row.  The sums are float64 counts far below
    2**53, hence exact.
    """
    net, _, hits = _byte_tables()
    near = np.flatnonzero(np.abs(offset) <= 16)
    chunk = chunk.ravel().take(near)
    low = (chunk & 255).astype(np.int32)
    column = offset.ravel().take(near).astype(np.int32) + 24
    high = (chunk >> 8).astype(np.int32) * 49 + column - net.take(low)
    visits = hits.take(low * 49 + column) + hits.take(high)  # flat: 49 columns a row
    return np.bincount(near // offset.shape[1], weights=visits, minlength=len(offset))


@functools.cache
def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of a byte of eight packed up-steps, the first in its lowest bit.

    Relative to the byte's first site they give the net displacement, the
    highest site reached, and the visits to each offset -24..24 (a row of
    49 columns per byte, zero beyond +-8, so an offset out of the byte's
    reach counts nothing).
    """
    byte = np.arange(256)
    sites = np.cumsum(2 * ((byte[:, None] >> np.arange(8)) & 1) - 1, axis=1)
    hits = (sites[:, :, None] == np.arange(-24, 25)).sum(axis=1)
    return _read_only(sites[:, -1], sites.max(axis=1), hits)


@functools.cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """Net displacement and highest site of a 16-step chunk, by its ``uint16``.

    The low byte's steps come first, so the high byte starts at the low
    byte's net displacement.
    """
    net, peak, _ = _byte_tables()
    # Row: the high byte; column: the low byte.
    return _read_only((net + net[:, None]).ravel(), np.maximum(peak, net + peak[:, None]).ravel())


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables as int8 arrays that refuse writes, since every call shares them."""
    tables = tuple(table.astype(np.int8) for table in tables)
    for table in tables:
        table.setflags(write=False)
    return tables
