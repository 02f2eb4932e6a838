"""Acceptance suite: one test per acceptance criterion, at full scale.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
``pytest -s`` or ``-rA``).  Seeds are pre-registered constants; statistical
verdicts use alpha = 0.001.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from wallcurve import (
    ScaledPath,
    Window,
    build_trace,
    chi2_gof_2d,
    coverage_check,
    fill_order_check,
    joint_density,
    ks_two_sample,
    marginal_height,
    marginal_level,
    mean_height,
    sample_exact,
    sample_identity_pair,
    simulate_walk,
    wall_area,
)
from wallcurve.scaling import default_band_width, local_time_profile
from wallcurve.stats import estimator_agreement

SEED = 0
ALPHA = 0.001


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fixed_time_samples():
    """(position, height) pairs at t=1: 10**4 replicates of 10**4 steps."""
    start = time.monotonic()
    samples = sample_identity_pair(1.0, SEED, 10**4, "lhs", replicates=10**4)
    return samples, time.monotonic() - start


def test_criterion_1_exact_area_law():
    start = time.monotonic()
    n = 10**6
    worst = 0.0
    for seed in range(20):
        spath = ScaledPath(n=n, positions=simulate_walk(n, seed=seed))
        for t in (0.25, 0.5, 1.0):
            worst = max(worst, abs(wall_area(spath, t) - t) / t)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 60
    _report(1, ok, f"max relative area error {worst:.2e} over 20 seeds x 3 times, {elapsed:.1f}s")


def test_criterion_2_scaled_area_law():
    n = 10**6
    spath = ScaledPath(n=n, positions=simulate_walk(n, seed=SEED))
    worst = 0.0
    for c, d in [(2.0, 3.0), (-1.0, 0.5)]:
        for t in (0.5, 1.0):
            target = abs(c) * d * t
            err = abs(wall_area(spath, t, c=c, d=d) - target) / target
            worst = max(worst, err)
    _report(2, worst <= 1e-9, f"max relative scaled-area error {worst:.2e}")


def test_criterion_3_fixed_time_law(fixed_time_samples):
    samples, sample_time = fixed_time_samples
    start = time.monotonic()
    statistic, p_value = chi2_gof_2d(samples, 1.0)
    elapsed = sample_time + time.monotonic() - start
    ok = p_value > ALPHA and elapsed <= 600
    _report(3, ok, f"chi-square {statistic:.1f}, p = {p_value:.4f}, {elapsed:.1f}s")


def test_criterion_4_identity_chain():
    reps, n = 2000, 10**4
    sides = {
        name: sample_identity_pair(1.0, SEED, n, name, replicates=reps)
        for name in ("lhs", "reversal", "signed")
    }
    results = {}
    for a_name, b_name in [("lhs", "reversal"), ("lhs", "signed"), ("reversal", "signed")]:
        a, b = sides[a_name], sides[b_name]
        for label, (xa, xb) in {
            "y": (a[:, 0], b[:, 0]),
            "s": (a[:, 1], b[:, 1]),
            "|y|+s": (np.abs(a[:, 0]) + a[:, 1], np.abs(b[:, 0]) + b[:, 1]),
        }.items():
            _, p = ks_two_sample(xa, xb)
            results[f"{a_name}/{b_name}[{label}]"] = p
    worst = min(results.values())
    _report(4, worst > ALPHA, f"9 pairwise KS tests, min p = {worst:.4f}")


def test_criterion_5_mean_height(fixed_time_samples):
    samples, _ = fixed_time_samples
    heights = samples[:, 1]
    target = mean_height(1.0)
    stderr = heights.std(ddof=1) / np.sqrt(len(heights))
    gap = abs(heights.mean() - target)
    tol = 3 * stderr + 0.02
    _report(5, gap <= tol, f"|mean - {target:.5f}| = {gap:.5f} <= {tol:.5f}")


def test_criterion_6_count_rescaling():
    # Estimator agreement at n = 10**6 (median over 10 seeds), plus the
    # distributional check of the rescaled counts at the origin.
    gaps = [estimator_agreement(seed, 10**6) for seed in range(10)]
    median_gap = float(np.median(gaps))

    occ = sample_identity_pair(1.0, SEED, 10**4, "reversal", replicates=2000)[:, 1]
    ref = sample_identity_pair(1.0, SEED, 10**4, "levy", replicates=2000)[:, 1]
    _, p = ks_two_sample(occ, ref)

    # Informational: at the quarter-power default band the nearest-site
    # comparison is dominated by the sqrt(width) spatial roughness of local
    # time, so it sits far above the site-resolved gap reported above.
    n = 10**6
    path = ScaledPath(n=n, positions=simulate_walk(n, seed=SEED))
    levels = np.linspace(-1.0, 1.0, 101)
    band = local_time_profile(path, 1.0, levels, default_band_width(n), "band")
    occ_prof = local_time_profile(path, 1.0, levels, None, "occupation")
    rough = np.abs(band - occ_prof).max()
    print(
        f"  [info] nearest-site vs quarter-power band gap {rough:.3f} "
        "(roughness-dominated, not a pass/fail quantity)"
    )
    ok = median_gap < 0.05 and p > ALPHA
    _report(6, ok, f"median estimator gap {median_gap:.5f} < 0.05, count-law KS p = {p:.4f}")


def test_criterion_7_coverage():
    covered = 0
    all_times = []
    details = []
    for seed in range(10):
        report = coverage_check(
            seed, Window(-1.0, 1.0, 0.5), delta=0.05, step_budget=10**8, n=10**4
        )
        covered += report.covered_count == report.total_count
        times = report.first_cover_time[~np.isnan(report.first_cover_time)]
        all_times.append(times)
        details.append(f"seed {seed}: {report.steps_used} steps")
    pooled = np.concatenate(all_times)
    print(
        "  [info] first-cover time quantiles over all cells/seeds: "
        f"median {np.median(pooled):.2f}, 90% {np.quantile(pooled, 0.9):.2f}, "
        f"max {pooled.max():.2f}; " + "; ".join(details)
    )
    _report(7, covered >= 9, f"{covered}/10 seeds fully covered the window in budget")


def test_criterion_8_fill_order():
    scales = (1, 4, 100, 10**4)
    checked = 0
    for seed in range(100):
        n_steps = 500 + (seed * 37) % 1500
        n = scales[seed % len(scales)]
        estimator = "band" if seed % 10 == 9 else "occupation"
        path = ScaledPath(n=n, positions=simulate_walk(n_steps, seed=seed))
        trace = build_trace(path, estimator=estimator)
        if fill_order_check(trace):
            _report(8, False, f"violations in trace for seed {seed}")
        checked += 1
    _report(8, checked == 100, f"fill order clean on {checked} random traces")


def test_criterion_9_oracle_self_consistency():
    total, _ = integrate.dblquad(
        lambda s, y: joint_density(y, s, 1.0),
        -10, 10, 0, lambda y: max(0.0, 10 - abs(y)),
        epsabs=1e-9,
    )
    norm_err = abs(total - 1.0)

    ys = np.linspace(-3.5, 3.5, 50)
    level_err = max(
        abs(
            integrate.quad(lambda s: joint_density(y, s, 1.0), 0, 12, epsabs=1e-12, limit=200)[0]
            - marginal_level(y, 1.0)
        )
        for y in ys
    )
    ss = np.linspace(0.0, 3.5, 50)
    height_err = max(
        abs(
            integrate.quad(lambda y: joint_density(y, s, 1.0), -12, 12, epsabs=1e-12, limit=200)[0]
            - marginal_height(s, 1.0)
        )
        for s in ss
    )

    moment, _ = integrate.dblquad(
        lambda s, y: s * joint_density(y, s, 1.0),
        -10, 10, 0, lambda y: max(0.0, 10 - abs(y)),
        epsabs=1e-9,
    )
    moment_err = abs(moment - mean_height(1.0))

    rejects = 0
    for k in range(200):
        _, p = chi2_gof_2d(sample_exact(1.0, 5000 + k, 10**4), 1.0)
        rejects += p <= ALPHA

    ok = (
        norm_err <= 1e-6
        and level_err <= 1e-8
        and height_err <= 1e-8
        and moment_err <= 1e-6
        and rejects <= 2
    )
    _report(
        9,
        ok,
        f"normalization err {norm_err:.1e}, marginal errs {level_err:.1e}/{height_err:.1e}, "
        f"moment err {moment_err:.1e}, null rejections {rejects}/200",
    )
