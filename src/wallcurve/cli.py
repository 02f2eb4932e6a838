"""Command-line front end: simulate, trace, profile, verify.

Tables are formatted by column: CSV (comma-delimited, header row, newline
"\\n", integer columns as integers, float columns to 17 significant digits)
or JSON records of the same values (canonical key order), so that every file
round-trips byte-identically through parse/re-serialize.

Exit codes for ``verify``: 0 pass, 1 statistical fail, 2 usage error.  Any
command exits 2 on bad input, a request too large to allocate included.
Seeds are always explicit flags or the reported default; there is no
environment-variable override.
"""

from __future__ import annotations

import argparse
import json
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

# Table cell format per numpy dtype kind; CSV rows are built from it.  JSON
# writes finite floats with ``repr``, so its records use ``%r`` instead.
_CELL = {"i": "%d", "u": "%d", "f": "%.17g"}
_JSON_CELL = {**_CELL, "f": "%r"}
_BLOCK = 1 << 16  # table rows formatted per write


def _dump_json(obj) -> Iterator[str]:
    # Encoded whole, so a non-finite value (no JSON token) raises before any
    # byte is written.
    yield json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def _int_rows(pieces: list[bytes], columns) -> bytes:
    """Rows of integer cells between literal ``pieces``, NUL padding removed."""
    n = len(columns[0])
    parts = [np.broadcast_to(np.frombuffer(pieces[0], np.uint8), (n, len(pieces[0])))]
    for column, piece in zip(columns, pieces[1:]):
        parts.append(_int_cells(column))
        parts.append(np.broadcast_to(np.frombuffer(piece, np.uint8), (n, len(piece))))
    return np.concatenate(parts, axis=1).tobytes().replace(b"\0", b"")


def _table(fmt: str, header: list[str], columns, stride: int = 1) -> Iterator[str]:
    """A table of numpy columns as text: one CSV row per index, or JSON records.

    Rows come from one ``%`` template built from the column dtypes (a JSON
    record lists its keys in sorted order, as ``json.dumps(sort_keys=True,
    indent=2)`` does) and are produced ``_BLOCK`` rows at a time, so memory
    stays flat.  A table of integer columns only is rendered by numpy
    (:func:`_int_cells`) into the same bytes; any float column sends the
    table through the template.  JSON has no token for a non-finite float,
    so a JSON table holding one raises ``ValueError``.
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
        template = ",".join(_CELL[c.dtype.kind] for c in columns) + "\n"
        head, sep, tail = ",".join(header) + "\n", "", ""
    integer = all(c.dtype.kind in "iu" for c in columns)
    # The kernel ends every row with ``sep``: a block cuts its last one, and
    # the next block starts with it.
    pieces = [p.encode() for p in (template + sep).split("%d")]
    yield head
    for start in range(0, len(columns[0]), _BLOCK):
        block = [c[start : start + _BLOCK] for c in columns]
        if integer:
            text = _int_rows(pieces, block).decode().removesuffix(sep)
        else:
            text = sep.join([template % row for row in zip(*(c.tolist() for c in block))])
        yield (sep if start else "") + text
    yield tail


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path``, or to stdout when it is None or "-".

    The first chunk is taken before the file is opened, so an error raised
    while a table is set up leaves an existing file as it was.
    """
    chunks = iter(chunks)
    first = next(chunks, "")
    if path is None or path == "-":
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", newline="\n") as out:
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
