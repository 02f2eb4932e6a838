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
from .walk import stream

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
    r = np.abs(y) + s
    out = r / np.sqrt(2.0 * np.pi * t**3) * np.exp(-(r**2) / (2.0 * t))
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
    little-endian bytes are the up-steps packed eight to a byte, the first
    in the lowest bit.  Replicates are drawn in blocks of about
    ``_BLOCK_BYTES`` bytes of words (one row per replicate, so memory stays
    O(m) at any ``replicates``), and each statistic is reduced from
    :func:`_byte_tables` lookups plus one running sum per byte.  A
    replicate's sign is step 0 of its own sign stream.
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
    raw = np.empty((rows, words), dtype="<u8")
    n_bytes = -(-m // 8)
    # Table row of each byte: 256 * (steps in the byte), the last one partial.
    base = np.full(n_bytes, 256 * 8)
    base[-1] = 256 * (m - 8 * (n_bytes - 1))
    net, peak, hits = _byte_tables()
    domain = _WALK_DOMAIN[side]
    out = np.empty((replicates, 2))
    for lo in range(0, replicates, rows):
        block = raw[: min(rows, replicates - lo)]
        for i in range(len(block)):
            block[i] = stream(seed, lo + i, domain=domain).bit_generator.random_raw(words)
        code = base + block.view(np.uint8)[:, :n_bytes]
        step = net[code]
        start = np.cumsum(step, axis=1)
        end = start[:, -1].copy()
        start -= step  # each byte's first site
        pairs = out[lo : lo + len(block)]
        if side == "lhs":
            pairs[:, 0] = end
            pairs[:, 1] = (end == 0) + _hits_at(hits, code, end[:, None] - start)
        elif side == "reversal":
            pairs[:, 0] = end
            pairs[:, 1] = 1 + _hits_at(hits, code, -start)  # 1: the visit at time 0
        else:
            run_max = np.maximum((start + peak[code]).max(axis=1), 0)
            pairs[:, 0] = run_max - end
            pairs[:, 1] = run_max
    out /= np.sqrt(float(n))
    if side == "signed":
        # A fair sign is the one step of a one-step walk: bit 0 of the first
        # word of the replicate's sign stream.
        first = [
            stream(seed, r, domain=_SIGN_DOMAIN).bit_generator.random_raw() & 1
            for r in range(replicates)
        ]
        out[:, 0] *= np.where(first, 1.0, -1.0)
    return out


def _hits_at(hits: np.ndarray, code: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Per row, the steps that land ``offset`` sites from their byte's first site.

    ``offset`` is overwritten: it is turned into the flat table index in place.
    """
    np.clip(offset, -9, 9, out=offset)
    offset += 19 * code + 9
    return hits[offset].sum(axis=1)


@functools.cache
def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of a walk's bytes of packed up-steps, indexed by ``256 * L + byte``.

    A byte holds ``L`` in 1..8 steps, the first in its lowest bit; the bits
    above the ``L``-th are not read.  Relative to the byte's first site the
    tables give the net displacement, the highest site reached, and the
    visits to each offset -9..9 (19 entries per byte, flat; the ones at +-9
    stay zero, so a clipped offset counts nothing).  The tables are
    read-only, since every call shares them.
    """
    byte = np.arange(256)
    sites = np.cumsum(2 * ((byte[:, None] >> np.arange(8)) & 1) - 1, axis=1)
    net = np.zeros((9, 256), dtype=np.int8)
    peak = np.zeros((9, 256), dtype=np.int8)
    hits = np.zeros((9, 256, 19), dtype=np.int8)
    for steps in range(1, 9):
        prefix = sites[:, :steps]
        net[steps] = prefix[:, -1]
        peak[steps] = prefix.max(axis=1)
        hits[steps] = (prefix[:, :, None] == np.arange(-9, 10)).sum(axis=1)
    tables = net.ravel(), peak.ravel(), hits.ravel()
    for table in tables:
        table.setflags(write=False)
    return tables
