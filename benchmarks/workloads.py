"""The benchmark's workloads: wallcurve CLI commands and checks on their outputs.

Each op is one ``wallcurve`` command that writes one file.  Its check reads
that file after the command has exited, outside the timed interval, and
raises :class:`CheckError` when the output is wrong.  The checks hold for
any seed and any random-stream format; see README.md for why each workload
exists.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

WORKLOADS = ("verify", "export", "coverage")

REPORT_KEYS = ("test_name", "statistic", "p_value", "n_samples", "seed", "params", "verdict")
VERIFY_EXPERIMENTS = ("density", "reversal", "levy", "signed", "knight")
BAND_CURVE_ROWS = 129
PROFILE_ROWS = 101
PROFILE_T = 1.0
# Every point of a 1e7-step path at n = 1e6 lies inside this window (the path
# would have to reach |x| = 50 or a height of 50 by time 10), so the window
# is never covered and the coverage marking does the same work for any seed.
COVERAGE_WINDOW = ("--xlo", "-50", "--xhi", "50", "--hhi", "50", "--delta", "0.05")

FULL = {"verify": (), "steps": 10**6, "budget": 10**7}
TINY = {"verify": ("--n", "1000", "--replicates", "500"), "steps": 10**4, "budget": 10**5}


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload and the check on the file it writes."""

    name: str
    argv: tuple[str, ...]
    output: str
    expect_rc: int
    check: Callable[[str], None]


def workload_ops(workload: str, seed: int, out_dir: str, tiny: bool = False) -> list[Op]:
    """The ops of one workload at one seed; ``out_dir`` is relative to the checkout."""
    size = TINY if tiny else FULL
    common = ("--seed", str(seed))

    def op(name, argv, ext, check, expect_rc=0):
        output = f"{out_dir}/{name}.{ext}"
        return Op(name, (*argv, *common, "--output", output), output, expect_rc, check)

    if workload == "verify":
        return [
            op(e, ("verify", e, *size["verify"]), "json", partial(check_verify, seed=seed))
            for e in VERIFY_EXPERIMENTS
        ]
    if workload == "export":
        steps = str(size["steps"])
        curve = ("curve", "--steps", steps, "--n", steps)
        profile = ("profile", "--n", steps, "--t", str(PROFILE_T))
        return [
            op("walk", ("walk", "--steps", steps), "csv", partial(check_walk, steps=size["steps"])),
            op("curve-occupation", curve, "csv", partial(check_curve, band=False)),
            op(
                "curve-band",
                (*curve, "--estimator", "band"),
                "csv",
                partial(check_curve, band=True),
            ),
            op("profile-band", profile, "csv", partial(check_profile, band=True)),
            op(
                "profile-occupation",
                (*profile, "--estimator", "occupation"),
                "csv",
                partial(check_profile, band=False),
            ),
        ]
    if workload == "coverage":
        budget = size["budget"]
        argv = ("verify", "coverage", *COVERAGE_WINDOW, "--n", "1000000", "--budget", str(budget))
        return [op("coverage", argv, "json", partial(check_coverage, budget=budget), 1)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Checks


def _report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    missing = [k for k in REPORT_KEYS if k not in report]
    if missing:
        raise CheckError(f"report lacks keys {missing}")
    return report


def check_verify(text: str, seed: int) -> None:
    report = _report(text)
    if report["seed"] != seed:
        raise CheckError(f"report seed {report['seed']} != {seed}")
    if report["verdict"] != "pass":
        raise CheckError(f"verdict {report['verdict']!r}, expected 'pass'")


def check_coverage(text: str, budget: int) -> None:
    report = _report(text)
    params = report["params"]
    if report["verdict"] != "fail":
        raise CheckError(f"verdict {report['verdict']!r}, expected 'fail'")
    if params["steps_used"] != budget:
        raise CheckError(f"steps_used {params['steps_used']} != budget {budget}")
    if not params["covered"] < params["total"]:
        raise CheckError(f"covered {params['covered']} of {params['total']} cells")


def _table(text: str, header: tuple[str, ...], dtype=float) -> np.ndarray:
    first, _, body = text.partition("\n")
    if first != ",".join(header):
        raise CheckError(f"header {first!r}, expected {','.join(header)!r}")
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=dtype, ndmin=2)
    except ValueError as exc:
        raise CheckError(f"unparseable row: {exc}") from None
    if table.shape[1:] != (len(header),):
        raise CheckError(f"{table.shape[1:]} columns, expected {len(header)}")
    return table


def check_walk(text: str, steps: int) -> None:
    k, site, height = _table(text, ("k", "site", "height"), np.int64).T
    if len(k) != steps + 1:
        raise CheckError(f"{len(k)} rows, expected {steps + 1}")
    if not np.array_equal(k, np.arange(steps + 1)):
        raise CheckError("k column is not 0, 1, 2, ...")
    if site[0] != 0 or np.any(np.abs(np.diff(site)) != 1):
        raise CheckError("walk does not start at 0 with +-1 steps")
    order = np.argsort(site, kind="stable")
    by_site, h = site[order], height[order]
    first = np.r_[True, by_site[1:] != by_site[:-1]]
    if np.any(h[first] != 1) or np.any(np.diff(h)[~first[1:]] != 1):
        raise CheckError("per-site heights do not run 1, 2, 3, ...")


def check_curve(text: str, band: bool) -> None:
    t, _, h = _table(text, ("t", "x", "h")).T
    if band and len(t) != BAND_CURVE_ROWS:
        raise CheckError(f"{len(t)} band rows, expected {BAND_CURVE_ROWS}")
    if np.any(np.diff(t) <= 0):
        raise CheckError("t is not strictly increasing")
    # The band estimate at t = 0 integrates over an empty interval, so it is 0.
    if np.any(h < 0) or np.any(h[t > 0] <= 0):
        raise CheckError("h is not positive at every t > 0")


def check_profile(text: str, band: bool) -> None:
    y, value = _table(text, ("y", "local_time")).T
    if len(y) != PROFILE_ROWS:
        raise CheckError(f"{len(y)} rows, expected {PROFILE_ROWS}")
    if np.any(value < 0):
        raise CheckError("negative local time")
    # Local time integrates over levels to t; the grid can only lose mass.
    if band and np.trapezoid(value, y) > 1.01 * PROFILE_T:
        raise CheckError(f"profile integrates to {np.trapezoid(value, y)} > 1.01 t")
