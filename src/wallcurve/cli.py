"""Command-line front end: simulate, trace, profile, verify.

Emits CSV (comma-delimited, header row, 17-significant-digit floats,
newline "\\n") or JSON (single object, canonical key order) so that every
file round-trips byte-identically through parse/re-serialize.

Exit codes for ``verify``: 0 pass, 1 statistical fail, 2 usage error.
Seeds are always explicit flags or the reported default; there is no
environment-variable override.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Iterable

import numpy as np

from .curve import Window, build_trace, scale_trace
from .scaling import local_time_profile
from .stats import ExperimentConfig, run_experiment
from .walk import discrete_brick_trace, simulate_walk

DEFAULT_SEED = 0
DEFAULT_N = 10_000
DEFAULT_T = 1.0
DEFAULT_REPLICATES = 2000
DEFAULT_ALPHA = 0.001
MAX_DEFAULT_ROWS = 100_000

_VERIFY_NAMES = {
    "area": "area",
    "density": "density",
    "reversal": "identity-reversal",
    "levy": "identity-levy",
    "signed": "identity-signed",
    "knight": "knight",
    "coverage": "coverage",
}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_table(out: IO[str], header: list[str], rows: Iterable[tuple]) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


def _emit_table(path: str | None, fmt: str, header: list[str], rows) -> None:
    out, close = _open_out(path)
    try:
        if fmt == "csv":
            _write_table(out, header, rows)
        else:
            out.write(
                _dump_json([{k: v for k, v in zip(header, map(_json_val, row))} for row in rows])
            )
    finally:
        if close:
            out.close()


def _json_val(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _check_stride(stride: int | None) -> None:
    if stride is not None and stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def _default_stride(n_steps: int) -> int:
    return max(1, int(np.ceil((n_steps + 1) / MAX_DEFAULT_ROWS)))


def cmd_walk(args: argparse.Namespace) -> int:
    _check_stride(args.stride)
    path = simulate_walk(args.steps, args.seed)
    trace = discrete_brick_trace(path)
    # Full resolution by default: one row per placed block.
    stride = args.stride or 1
    rows = zip(
        trace.steps[::stride].tolist(),
        trace.sites[::stride].tolist(),
        trace.heights[::stride].tolist(),
    )
    _emit_table(args.output, args.format, ["k", "site", "height"], rows)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    _check_stride(args.stride)
    path = simulate_walk(args.steps, args.seed)
    trace = build_trace(path, args.n, estimator=args.estimator, eps=args.eps)
    if args.c != 1.0 or args.d != 1.0:
        trace = scale_trace(trace, args.c, args.d)
    stride = args.stride or _default_stride(len(trace) - 1)
    rows = zip(
        trace.times[::stride].tolist(),
        trace.levels[::stride].tolist(),
        trace.heights[::stride].tolist(),
    )
    _emit_table(args.output, args.format, ["t", "x", "h"], rows)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    n_steps = args.steps or max(1, int(np.ceil(args.n * args.t)))
    path = simulate_walk(n_steps, args.seed)
    levels = np.linspace(args.ymin, args.ymax, args.levels)
    profile = local_time_profile(
        path, args.t, levels, eps=args.eps, estimator=args.estimator, n=args.n
    )
    rows = zip(profile.levels.tolist(), profile.values.tolist())
    _emit_table(args.output, args.format, ["y", "local_time"], rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        experiment=_VERIFY_NAMES[args.experiment],
        replicates=args.replicates,
        n=args.n,
        t=args.t,
        eps=args.eps,
        seed=args.seed,
        alpha=args.alpha,
        c=args.c,
        d=args.d,
        window=Window(args.xlo, args.xhi, args.hhi),
        delta=args.delta,
        step_budget=args.budget,
    )
    report = run_experiment(config)
    text = _dump_json(report.to_dict())
    out, close = _open_out(args.output)
    try:
        out.write(text)
    finally:
        if close:
            out.close()
    return 0 if report.passed else 1


def _add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    if formats:
        p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--steps", type=int, default=None)
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
    p.add_argument("--replicates", "-N", type=int, default=DEFAULT_REPLICATES)
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--t", type=float, default=DEFAULT_T)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--xlo", type=float, default=-1.0)
    p.add_argument("--xhi", type=float, default=1.0)
    p.add_argument("--hhi", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--budget", type=int, default=10**8)
    _add_common(p, formats=False)  # reports are always the JSON schema
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
