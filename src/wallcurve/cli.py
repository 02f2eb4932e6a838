"""Command-line front end: simulate, trace, profile, verify.

Tables are formatted by column: CSV (comma-delimited, header row, newline
"\\n", integer columns as integers, float columns as ``%.17g``) or JSON
records of the same values (canonical key order, floats as ``repr``), so that
every file round-trips byte-identically through parse/re-serialize.  Every
CSV cell comes from a numpy kernel; ``%`` formats, in one batch, only the
float cells outside fixed notation and non-finite values.  A JSON table
with a float column goes through a ``%`` template.

Exit codes for ``verify``: 0 pass, 1 statistical fail, 2 usage error.  Any
command exits 2 on bad input, a request too large to allocate included, and
141 (128 + SIGPIPE) when the reader of stdout closes it early.
Seeds are always explicit flags or the reported default; there is no
environment-variable override.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterable, Iterator

import numpy as np

from .curve import Window, build_trace, scale_trace
from .scaling import ScaledPath, _check_finite, _check_positive, _walk_steps, local_time_profile
from .stats import EXPERIMENTS, ExperimentConfig, run_experiment
from .walk import discrete_brick_trace, simulate_walk

DEFAULT_SEED = 0
DEFAULT_N = 10_000
DEFAULT_T = 1.0
MAX_DEFAULT_ROWS = 100_000

_VERIFY_NAMES = {name.removeprefix("identity-"): name for name in EXPERIMENTS}

# Table cell format per numpy dtype kind; the CSV kernels give its bytes.
# JSON writes finite floats with ``repr``, so its records use ``%r`` instead.
_CELL = {"i": "%d", "u": "%d", "f": "%.17g"}
_JSON_CELL = {**_CELL, "f": "%r"}
_BLOCK = 1 << 16  # table rows formatted per write


def _dump_json(obj) -> Iterator[bytes]:
    # Encoded whole, so a non-finite value (no JSON token) raises before any
    # byte is written.
    yield (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _int_cells(column: np.ndarray) -> np.ndarray:
    """The decimal text of an integer column: one uint8 row per cell.

    Each row is a sign column (``-`` or NUL) and the digits, right-aligned
    and padded on the left with NUL bytes, which the caller drops.
    """
    magnitude = column.astype(np.uint64)  # |int64 min| fits in uint64
    negative = column < 0
    np.negative(magnitude, out=magnitude, where=negative)
    top = int(magnitude.max(initial=0))
    if top <= np.iinfo(np.uint32).max:
        magnitude = magnitude.astype(np.uint32)
    width = len(str(top))
    cells = np.zeros((len(column), width + 1), np.uint8)
    cells[negative, 0] = ord("-")
    for j in range(width, 0, -1):
        rest = magnitude // 10
        digit = (magnitude - rest * 10).astype(np.uint8) + ord("0")
        # A leading zero (no digits left, but not the units digit) is padding.
        cells[:, j] = digit if j == width else np.where(magnitude > 0, digit, 0)
        magnitude = rest
    return cells


_E_LO, _E_HI = -4, 16  # the decimal exponents '%.17g' writes in fixed notation
# 5**p in 32-bit halves, for the p = 16 - E of the fixed range.
_POW5_HI, _POW5_LO = np.array([divmod(5**p, 2**32) for p in range(17 - _E_LO)], np.uint64).T
_SLOT = np.arange(18)
_BEFORE = _SLOT < _SLOT[:, None]  # row P: the slots left of the point's slot P
_UPTO = _SLOT <= _SLOT[:, None]  # row L: the slots of the first L digits, moved one right
# The sign, then "0." and zeros before the digits when E < 0; by
# 2 * (min(E, 0) - _E_LO) + (v < 0).
_HEAD = np.array(
    [list(sign + (b"0." + b"0" * (-1 - e) if e < 0 else b"").ljust(7, b"\0"))
     for e in range(_E_LO, 1) for sign in (b"\0", b"-")],
    np.uint8,
)


def _significand(m: np.ndarray, q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``round_half_even(m * 2**q * 10**(16 - e))``, exactly, in uint64.

    ``m * 5**(16 - e)`` is built in two words from 32-bit limb products, and
    the rest of the power of two is a right shift by ``0 < k < 64`` bits.
    """
    p = 16 - e
    f_lo, f_hi = _POW5_LO[p], _POW5_HI[p]
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo + (low >> 32)
    high = m_hi * f_hi + (mid >> 32)
    low = (mid << 32) | (low & 0xFFFFFFFF)
    k = (-p - q).astype(np.uint64)
    n = (high << (64 - k)) | (low >> k)
    rest, half = low & ((1 << k) - 1), 1 << (k - 1)
    return n + ((rest > half) | ((rest == half) & (n & 1).astype(bool)))


def _float_cells(column: np.ndarray) -> np.ndarray:
    """The ``'%.17g' % v`` text of a float column: one uint8 row per cell.

    A cell in fixed notation is rendered here from its 17 significant digits
    ``N = round_half_even(|v| * 10**(16 - E))`` (:func:`_significand`), with
    ``E = floor(log10|v|)`` moved by one where ``N`` falls outside
    ``[10**16, 10**17)``.  Digits are shown up to the last nonzero one or the
    units digit, whichever comes later; the point follows digit ``E`` when a
    shown digit comes after it.  A zero is ``0`` or ``-0``.  Non-finite values
    and cells outside fixed notation (``|v| < 1e-4`` or ``|v| >= 1e17``) are
    formatted by ``%`` in one batch.  NUL bytes pad the rows; the caller
    drops them.
    """
    magnitude = np.abs(column)
    # '%.17g' writes |v| in [1e-4, 1e17) in fixed notation: rounded to 17
    # digits, no double crosses either end.  Only those cells are laid out.
    fixed = np.flatnonzero((magnitude >= 10.0**_E_LO) & (magnitude < 10.0 ** (_E_HI + 1)))
    v = magnitude[fixed]
    e = np.clip(np.floor(np.log10(v)), _E_LO, _E_HI).astype(np.int64)
    fraction, exponent = np.frexp(v)
    m, q = (fraction * 2.0**61).astype(np.uint64), exponent - 61
    n = _significand(m, q, e)
    # Where log10 rounds across a power of ten, N has 16 or 18 digits.
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)
    redo = np.flatnonzero(off)
    e[redo] += off[redo]
    n[redo] = _significand(m[redo], q[redo], e[redo])
    laid = fixed[(n >= 10**16) & (n < 10**17)]  # only an N shown to have 17 digits is laid out
    # Digits 0-8 come from the top nine, 9-16 from the low eight; slot 17 is spare.
    words = [(n // 10**8).astype(np.uint32), (n % 10**8).astype(np.uint32)]
    digits = np.zeros((len(v), 18), np.uint8)
    for j in range(16, -1, -1):
        word = words[j > 8]
        words[j > 8] = word // 10
        digits[:, j] = word - words[j > 8] * 10 + ord("0")
    last = 17 - np.argmax(digits[:, 16::-1] != ord("0"), axis=1)  # L, to the last nonzero digit
    # The point's slot P follows digit E, or comes first when E < 0.  Left of
    # it the digits stay; right of it they move one slot, the first L kept.
    point = np.maximum(e, -1) + 1
    shifted = np.zeros_like(digits)
    shifted[:, 1:] = digits[:, :17] * np.take(_UPTO[:, 1:], last, axis=0)
    body = np.where(np.take(_BEFORE, point, axis=0), digits, shifted)
    dot = (e >= 0) & (e < last - 1)
    body.reshape(-1)[np.arange(0, body.size, 18) + point] = np.where(dot, ord("."), 0)
    head = np.take(_HEAD, 2 * (np.minimum(e, 0) - _E_LO) + (column[fixed] < 0), axis=0)
    width = _HEAD.shape[1] + 18
    cells = np.zeros((len(column), width), np.uint8)
    cells[fixed] = np.concatenate([head, body], axis=1)
    zero = np.flatnonzero(magnitude == 0)
    cells[zero, 0] = np.where(np.signbit(column[zero]), ord("-"), 0)
    cells[zero, 1] = ord("0")
    # The rest go through one "%" and are NUL-padded to the row width by the
    # "S" dtype; the longest, "-1.7976931348623157e+308", is 24 bytes of 25.
    rest = np.ones(len(column), bool)
    rest[laid] = rest[zero] = False
    rest = np.flatnonzero(rest)
    values = tuple(column[rest].tolist())
    texts = ((_CELL["f"] + "\n") * len(values) % values).split()
    cells[rest] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


def _rows(pieces: list[bytes], columns) -> bytes:
    """Rows of integer or float cells between literal ``pieces``, NUL padding removed."""
    n = len(columns[0])
    parts = [np.broadcast_to(np.frombuffer(pieces[0], np.uint8), (n, len(pieces[0])))]
    for column, piece in zip(columns, pieces[1:]):
        parts.append(_float_cells(column) if column.dtype.kind == "f" else _int_cells(column))
        parts.append(np.broadcast_to(np.frombuffer(piece, np.uint8), (n, len(piece))))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _table(fmt: str, header: list[str], columns, stride: int = 1) -> Iterator[bytes]:
    """A table of numpy columns as ASCII bytes: one CSV row per index, or JSON
    records.

    Rows are produced ``_BLOCK`` at a time, so memory stays flat.  Every CSV
    cell, and every cell of a JSON table of integer columns only, comes from
    a numpy kernel (:func:`_int_cells`, :func:`_float_cells`) that gives the
    bytes of the ``_CELL`` format.  A JSON table with a float column goes
    row by row through a ``%`` template, as floats there are ``repr``, the
    shortest round-tripping text; a JSON record lists its keys in sorted
    order, as ``json.dumps(sort_keys=True, indent=2)`` does.  JSON has no
    token for a non-finite float, so a JSON table holding one raises
    ``ValueError``.
    """
    columns = [c[::stride] for c in columns]
    if fmt == "json":
        header, columns = zip(*sorted(zip(header, columns), key=lambda col: col[0]))
        fields = []
        for name, c in zip(header, columns):
            if c.dtype.kind == "f" and not np.isfinite(c).all():
                raise ValueError(f"JSON cannot encode the non-finite values in column {name!r}")
            fields.append(f"    {json.dumps(name)}: {_JSON_CELL[c.dtype.kind]}")
        template = "  {\n" + ",\n".join(fields) + "\n  }"
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        template = ",".join(["%d"] * len(columns)) + "\n"  # the cells' places only
        head, sep, tail = ",".join(header) + "\n", "", ""
    kernel = fmt == "csv" or all(c.dtype.kind in "iu" for c in columns)
    # The kernel ends every row with ``sep``: a block cuts its last one, and
    # the next block starts with it.
    pieces = [p.encode() for p in (template + sep).split("%d")]
    yield head.encode()
    for start in range(0, len(columns[0]), _BLOCK):
        block = [c[start : start + _BLOCK] for c in columns]
        if kernel:
            text = _rows(pieces, block).removesuffix(sep.encode())
        else:
            text = sep.join([template % row for row in zip(*(c.tolist() for c in block))]).encode()
        yield (sep if start else "").encode() + text
    yield tail.encode()


def _write(path: str | None, chunks: Iterable[bytes]) -> None:
    """Write byte chunks to ``path``, or to stdout when it is None or "-".

    The first chunk is taken before the file is opened, so an error raised
    while a table is set up leaves an existing file as it was.
    """
    chunks = iter(chunks)
    first = next(chunks, b"")
    if path is None or path == "-":
        sys.stdout.flush()  # text written before stays ahead of these bytes
        sys.stdout.buffer.write(first)
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()  # a closed pipe raises here, inside ``main``
        return
    with open(path, "wb") as out:
        out.write(first)
        out.writelines(chunks)


def _check_stride(stride: int | None) -> None:
    if stride is not None and stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def _default_stride(n_steps: int) -> int:
    return max(1, int(np.ceil((n_steps + 1) / MAX_DEFAULT_ROWS)))


def cmd_walk(args: argparse.Namespace) -> int:
    _check_stride(args.stride)
    sites = simulate_walk(args.steps, args.seed)
    # Full resolution by default: one row per placed block.
    columns = (np.arange(len(sites)), sites, discrete_brick_trace(sites))
    _write(args.output, _table(args.format, ["k", "site", "height"], columns, args.stride or 1))
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    _check_stride(args.stride)
    path = ScaledPath(n=args.n, positions=simulate_walk(args.steps, args.seed))
    trace = build_trace(path, estimator=args.estimator, eps=args.eps)
    if args.c != 1.0 or args.d != 1.0:
        trace = scale_trace(trace, args.c, args.d)
    stride = args.stride or _default_stride(len(trace.times) - 1)
    columns = (trace.times, trace.levels, trace.heights)
    _write(args.output, _table(args.format, ["t", "x", "h"], columns, stride))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    _check_positive("t", args.t)
    _check_finite("ymin", args.ymin)
    _check_finite("ymax", args.ymax)
    if args.levels < 1:
        raise ValueError(f"levels must be >= 1, got {args.levels}")
    # np.linspace sizes its float64 table from the count as a float, and
    # numpy holds no array of 2**63 bytes: 2**59 levels stay clear of both.
    if args.levels > 1 << 59:
        raise ValueError(f"levels must be <= 2**59, got {args.levels}")
    sites = simulate_walk(_walk_steps(args.t, args.n), args.seed)
    path = ScaledPath(n=args.n, positions=sites)
    levels = np.linspace(args.ymin, args.ymax, args.levels)
    values = local_time_profile(path, args.t, levels, eps=args.eps, estimator=args.estimator)
    _write(args.output, _table(args.format, ["y", "local_time"], (levels, values)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        experiment=_VERIFY_NAMES[args.experiment],
        replicates=args.replicates,
        n=args.n,
        t=args.t,
        seed=args.seed,
        alpha=args.alpha,
        c=args.c,
        d=args.d,
        window=Window(args.xlo, args.xhi, args.hhi),
        delta=args.delta,
        step_budget=args.budget,
    )
    report = run_experiment(config)
    _write(args.output, _dump_json(report.to_dict()))
    return 0 if report.passed else 1


def _add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    if formats:
        p.add_argument("--format", choices=["csv", "json"], default="csv")


_DIGITS = r"\d(?:_?\d)*"
# Every negative spelling ``float()`` accepts, in any case: ``-1e3``, ``-.5``,
# ``-1_000``, ``-inf``, ``-Infinity``, ``-nan``.
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}\.?(?:{_DIGITS})?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?|inf(?:inity)?|nan)$",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e308`` and ``-inf`` as numbers, as it
    reads ``-1``.

    argparse's own negative-number pattern has no exponent and no non-finite
    spelling, so it takes ``--c -1e308`` or ``--c -inf`` for an option with no
    value.  Subcommand parsers are built from this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wallcurve",
        description="Random-walk wall simulation and statistical verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walk", help="simulate the walk and its block placements")
    p.add_argument("--steps", type=int, default=DEFAULT_N)
    p.add_argument("--stride", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("curve", help="trace the rescaled curve (t, x, h)")
    p.add_argument("--steps", type=int, default=DEFAULT_N)
    p.add_argument("--n", type=int, default=DEFAULT_N, help="steps per unit time")
    p.add_argument("--estimator", choices=["occupation", "band"], default="occupation")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--stride", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("profile", help="local-time profile at a fixed time")
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--t", type=float, default=DEFAULT_T)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--estimator", choices=["band", "occupation"], default="band")
    p.add_argument("--ymin", type=float, default=-3.0)
    p.add_argument("--ymax", type=float, default=3.0)
    p.add_argument("--levels", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("experiment", choices=sorted(_VERIFY_NAMES))
    v = ExperimentConfig(EXPERIMENTS[0])  # the library's defaults
    p.add_argument("--replicates", "-N", type=int, default=v.replicates)
    p.add_argument("--n", type=int, default=v.n)
    p.add_argument("--t", type=float, default=v.t)
    p.add_argument("--alpha", type=float, default=v.alpha)
    p.add_argument("--c", type=float, default=v.c)
    p.add_argument("--d", type=float, default=v.d)
    p.add_argument("--xlo", type=float, default=v.window.x_lo)
    p.add_argument("--xhi", type=float, default=v.window.x_hi)
    p.add_argument("--hhi", type=float, default=v.window.h_hi)
    p.add_argument("--delta", type=float, default=v.delta)
    p.add_argument("--budget", type=int, default=v.step_budget)
    _add_common(p, formats=False)  # reports are always the JSON schema
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does: not bad input.  Point
        # stdout at devnull, so the flush at interpreter exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, the status of a process a closed pipe ends
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
