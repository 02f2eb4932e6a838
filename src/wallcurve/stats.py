"""Statistical verification harness: KS, chi-square GOF, experiments.

Monte-Carlo samples from the simulation modules are tested against the
closed-form laws of :mod:`wallcurve.oracle`, producing a
:class:`TestReport` with a pass/fail verdict at a configured significance
level.  Reports are pure functions of their configuration: every random
draw comes from the (seed, replicate) streams of :func:`wallcurve.walk.stream`
and replicates are merged in index order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, erfc, exp, frexp, pi, sqrt
from statistics import NormalDist
from typing import Any

import numpy as np

from . import oracle
from .curve import Window, _check_factors, coverage_check, wall_area
from .scaling import (
    ScaledPath,
    _check_finite,
    _check_positive,
    _walk_steps,
    local_time_profile,
)
from .walk import simulate_walk

__all__ = [
    "FORMAT_VERSION",
    "TestReport",
    "ExperimentConfig",
    "EXPERIMENTS",
    "ks_two_sample",
    "chi2_gof_2d",
    "run_experiment",
]

# Written into every report's params; bumped whenever report bytes change.
FORMAT_VERSION = 6

_EXACT_KS_LIMIT = 10_000
_ASYMPTOTIC_KS_MIN = 50  # per-sample size from which the Kolmogorov tail holds
_EXPECTED_FLOOR = 5.0
_EDGE_TRUNCATION = 12.0  # outermost bin edge, in units of sqrt(t)
_GOF_BINS = (12, 12)  # GOF grid: position bins, height bins


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def _ks_exact_pvalue(n1: int, n2: int, d_int: int) -> float:
    """Exact P(D >= d) for the two-sample statistic, d = d_int/(n1*n2).

    Counts monotone lattice paths from (0, 0) to (n1, n2) that keep
    |i*n2 - j*n1| < d_int throughout; under the null (no ties) all
    C(n1+n2, n1) orderings are equally likely.

    The lattice is symmetric in the two samples, so rows run over the
    smaller one.  In row i the allowed j form one interval, where each count
    is the running sum of the row above; outside it the count is 0.  Counts
    are float64, and each row is rescaled by a power of two, which is exact,
    so only the running sums round.
    """
    if d_int <= 0:
        return 1.0
    n1, n2 = min(n1, n2), max(n1, n2)
    f = np.zeros(n2 + 1)
    f[0] = 1.0  # row -1: the one path into (0, 0)
    exponent = 0
    for i in range(n1 + 1):
        lo = max(0, (i * n2 - d_int) // n1 + 1)
        hi = min(n2, -(-(i * n2 + d_int) // n1) - 1)
        if lo > hi:
            return 1.0
        f[:lo] = 0.0
        row = f[lo : hi + 1]
        np.cumsum(row, out=row)
        _, e = frexp(row[-1])  # the row's largest count; e = 0 for an empty row
        row *= 2.0**-e
        exponent += e
    inside = Fraction(f[n2]) * Fraction(2) ** exponent / comb(n1 + n2, n1)
    return float(1 - inside)


def _kolmogorov_sf(x: float) -> float:
    """Kolmogorov tail P(K > x), the limit law of sqrt(n) * D.

    Below x = 1 the CDF's theta-function form converges fast, above it the
    alternating tail series does; five terms of either reach double
    precision on its side of the switch.
    """
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        w = -(pi**2) / (8.0 * x * x)
        cdf = sqrt(2.0 * pi) / x * sum(exp((2 * k - 1) ** 2 * w) for k in range(1, 6))
        return 1.0 - cdf
    return 2.0 * sum((-1) ** (k - 1) * exp(-2.0 * k * k * x * x) for k in range(1, 6))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and p-value.

    The statistic is the sup-distance between the two empirical CDFs,
    computed on the integer lattice so ties cost nothing.  The p-value is
    exact (lattice-path enumeration) when either sample has fewer than 50
    points or len(a)*len(b) <= 10**4, and otherwise uses the asymptotic
    Kolmogorov tail at the effective sample size n1*n2/(n1+n2).
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    # A NaN sorts last and never enters its empirical CDF, which then stops
    # short of 1 and skews D.
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    merged = np.concatenate([a, b])
    i = np.searchsorted(a, merged, side="right").astype(np.int64)
    j = np.searchsorted(b, merged, side="right").astype(np.int64)
    d_int = int(np.abs(i * n2 - j * n1).max())
    statistic = d_int / (n1 * n2)
    if min(n1, n2) < _ASYMPTOTIC_KS_MIN or n1 * n2 <= _EXACT_KS_LIMIT:
        p_value = _ks_exact_pvalue(n1, n2, d_int)
    else:
        en = n1 * n2 / (n1 + n2)
        p_value = _kolmogorov_sf(sqrt(en) * statistic)
    return statistic, p_value


# ---------------------------------------------------------------------------
# Chi-square goodness of fit on a 2-D binning


def quantile_bin_edges(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal-equiprobable ``_GOF_BINS`` edges for (position, height) at time t.

    Interior edges sit at the quantiles of the Gaussian position marginal
    and the half-normal height marginal; the outer edges truncate at
    12*sqrt(t), far beyond any representable tail mass.
    """
    ny, ns = _GOF_BINS
    root_t = np.sqrt(t)
    ndtri = np.vectorize(NormalDist().inv_cdf, otypes=[float])
    qy = np.arange(1, ny) / ny
    y_edges = np.concatenate(
        [[-_EDGE_TRUNCATION * root_t], root_t * ndtri(qy), [_EDGE_TRUNCATION * root_t]]
    )
    qs = np.arange(1, ns) / ns
    s_edges = np.concatenate(
        [[0.0], root_t * ndtri((1.0 + qs) / 2.0), [_EDGE_TRUNCATION * root_t]]
    )
    return y_edges, s_edges


@lru_cache(maxsize=32)
def _bin_probabilities(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell probabilities by Gauss-Legendre quadrature of the joint density.

    The density is analytic on every cell, since its one kink, y = 0, is a
    bin edge; a fixed 32 x 32 rule per cell then matches the closed-form
    cell masses to about 1e-16, in one density call for all cells.
    """
    y_edges, s_edges = quantile_bin_edges(t)
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def rule(edges):
        half = np.diff(edges)[:, None] / 2.0
        return edges[:-1, None] + half * (1.0 + nodes), half * weights

    y, wy = rule(y_edges)
    s, ws = rule(s_edges)
    density = oracle.joint_density(y[:, :, None, None], s, t)
    probs = (wy[:, :, None, None] * density * ws).sum(axis=(1, 3))
    return y_edges, s_edges, probs


def _merge_small_bins(
    observed: np.ndarray, probs: np.ndarray, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pool cells whose expected count is below the floor of 5.

    Small cells go into one pooled cell; if the pool itself is still below
    the floor, the smallest regular cells join it until it clears.  The
    rule depends only on the model probabilities, so it is deterministic
    and identical across runs with the same configuration.
    """
    obs = observed.ravel().astype(float)
    p = probs.ravel()
    expected = n_samples * p
    small = expected < _EXPECTED_FLOOR
    keep = ~small
    pool_obs = obs[small].sum()
    pool_p = p[small].sum()
    if small.any():
        order = np.argsort(expected, kind="stable")
        for idx in order:
            if n_samples * pool_p >= _EXPECTED_FLOOR:
                break
            if keep[idx]:
                keep[idx] = False
                pool_obs += obs[idx]
                pool_p += p[idx]
    obs_kept = obs[keep]
    p_kept = p[keep]
    if small.any():
        obs_kept = np.append(obs_kept, pool_obs)
        p_kept = np.append(p_kept, pool_p)
    if len(p_kept) < 2 or n_samples * p_kept.min() < _EXPECTED_FLOOR:
        raise ValueError(
            "binning cannot reach the expected-count floor; "
            "need more samples or coarser bins"
        )
    return obs_kept, p_kept


def _histogram_2d(
    samples: np.ndarray, y_edges: np.ndarray, s_edges: np.ndarray
) -> np.ndarray:
    ny, ns = len(y_edges) - 1, len(s_edges) - 1
    iy = np.clip(np.searchsorted(y_edges, samples[:, 0], side="right") - 1, 0, ny - 1)
    js = np.clip(np.searchsorted(s_edges, samples[:, 1], side="right") - 1, 0, ns - 1)
    flat = np.bincount(iy * ns + js, minlength=ny * ns)
    return flat.reshape(ny, ns)


def _chi2_sf(dof: int, x: float) -> float:
    """Chi-square tail P(X > x) for an integer number of degrees of freedom.

    Even dof: the Poisson sum exp(-x/2) * sum_{i < dof/2} (x/2)**i / i!.
    Odd dof: erfc(sqrt(x/2)) plus sqrt(2x/pi) * exp(-x/2) times the sum of
    x**i / (3 * 5 * ... * (2i + 1)) for i < (dof - 1)/2.  Every term is
    positive and built from the one before; once exp(-x/2) underflows the
    tail reads 0, never NaN.
    """
    if x <= 0.0:
        return 1.0
    half = x / 2.0
    if dof % 2 == 0:
        term = total = exp(-half)
        for i in range(1, dof // 2):
            term *= half / i
            total += term
        return total
    total = erfc(sqrt(half))
    term = sqrt(2.0 * x / pi) * exp(-half)
    for i in range((dof - 1) // 2):
        total += term
        term *= x / (2 * i + 3)
    return total


def _pearson(obs: np.ndarray, p: np.ndarray, n_samples: int) -> tuple[float, float, int]:
    expected = n_samples * p
    statistic = float(((obs - expected) ** 2 / expected).sum())
    dof = len(p) - 1
    p_value = _chi2_sf(dof, statistic)
    return statistic, p_value, dof


def chi2_gof_2d(samples, t: float) -> tuple[float, float]:
    """Pearson GOF of (y, s) pairs against the joint law at time ``t``.

    Bin probabilities come from Gauss-Legendre quadrature of the density over
    a marginal-equiprobable grid (cached per ``t``); cells below an expected
    count of 5 are pooled before the statistic is formed.
    """
    _check_positive("t", t)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("samples must be an (N, 2) array of (y, s) pairs")
    # Binning clips out-of-range values into the edge cells, so bad pairs
    # would be counted there instead of failing.
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    if (samples[:, 1] < 0).any():
        raise ValueError("heights s must be >= 0")
    if len(samples) < 500:
        raise ValueError("need at least 500 samples for the 2-D GOF test")
    y_edges, s_edges, probs = _bin_probabilities(t)
    observed = _histogram_2d(samples, y_edges, s_edges)
    obs_kept, p_kept = _merge_small_bins(observed, probs, len(samples))
    statistic, p_value, _ = _pearson(obs_kept, p_kept, len(samples))
    return statistic, p_value


# ---------------------------------------------------------------------------
# Experiment harness


@dataclass(frozen=True)
class TestReport:
    """Outcome of one verification experiment."""

    test_name: str
    statistic: float
    p_value: float | None
    n_samples: int
    seed: int
    verdict: str
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of a verification run; defaults are desk scale."""

    experiment: str
    replicates: int = 2000
    n: int = 10_000
    t: float = 1.0
    seed: int = 0
    alpha: float = 0.001
    c: float = 1.0
    d: float = 1.0
    window: Window = Window(-1.0, 1.0, 0.5)
    delta: float = 0.05
    step_budget: int = 10**8

    def __post_init__(self) -> None:
        # alpha = 1 is allowed: no p-value exceeds it, so it forces a fail verdict.
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        _check_positive("t", self.t)
        _check_factors(self.c, self.d)


_AREA_RTOL = 1e-9
_AGREEMENT_TOL = 0.05


def _report(
    config: ExperimentConfig,
    statistic: float,
    p_value: float | None,
    n_samples: int,
    ok: bool,
    **extra: Any,
) -> TestReport:
    """The report of one run: the shared params plus the runner's ``extra``."""
    params = {
        "experiment": config.experiment,
        "replicates": config.replicates,
        "n": config.n,
        "t": config.t,
        "alpha": config.alpha,
        "format_version": FORMAT_VERSION,
        **extra,
    }
    verdict = "pass" if ok else "fail"
    return TestReport(
        config.experiment, statistic, p_value, n_samples, config.seed, verdict, params
    )


def _ks_suite(a: np.ndarray, b: np.ndarray) -> dict[str, tuple[float, float]]:
    """KS per coordinate and on |y| + s, the radial combination."""
    return {
        "coord_y": ks_two_sample(a[:, 0], b[:, 0]),
        "coord_s": ks_two_sample(a[:, 1], b[:, 1]),
        "radial": ks_two_sample(
            np.abs(a[:, 0]) + a[:, 1], np.abs(b[:, 0]) + b[:, 1]
        ),
    }


def _run_area(config: ExperimentConfig) -> TestReport:
    n_steps = _walk_steps(config.t, config.n)
    path = ScaledPath(n=config.n, positions=simulate_walk(n_steps, config.seed))
    area = wall_area(path, config.t, c=config.c, d=config.d)
    target = abs(config.c) * config.d * config.t
    _check_finite(f"target area of factors c = {config.c}, d = {config.d}", target)
    statistic = abs(area - target)
    tol = _AREA_RTOL * target
    return _report(
        config, statistic, None, n_steps, statistic <= tol,
        c=config.c, d=config.d, area=area, tolerance=tol,
    )


def _sample(config: ExperimentConfig, side: str) -> np.ndarray:
    """The configured replicates of one identity side (see :mod:`oracle`)."""
    return oracle.sample_identity_pair(config.t, config.seed, config.n, side, config.replicates)


def _run_density(config: ExperimentConfig) -> TestReport:
    samples = _sample(config, "lhs")
    statistic, p_value = chi2_gof_2d(samples, config.t)
    return _report(
        config, statistic, p_value, config.replicates, p_value > config.alpha,
        bins=list(_GOF_BINS),
    )


_IDENTITY_PAIRS = {
    "identity-reversal": ("lhs", "reversal"),
    "identity-levy": ("reversal", "levy"),
    "identity-signed": ("lhs", "signed"),
}


def _run_identity(config: ExperimentConfig) -> TestReport:
    side_a, side_b = _IDENTITY_PAIRS[config.experiment]
    a, b = _sample(config, side_a), _sample(config, side_b)
    if config.experiment == "identity-levy":
        # Levy's identity matches (|position|, height at 0) in law.
        a = np.column_stack([np.abs(a[:, 0]), a[:, 1]])
    results = _ks_suite(a, b)
    p_value = min(p for _, p in results.values())
    statistic = max(d for d, _ in results.values())
    return _report(
        config, statistic, p_value, config.replicates, p_value > config.alpha,
        sides=[side_a, side_b],
        ks={k: {"statistic": d, "p_value": p} for k, (d, p) in results.items()},
    )


def estimator_agreement(seed: int, n: int, t: float = 1.0) -> float:
    """Max estimator gap over 101 levels in ``[-sqrt(t), sqrt(t)]``.

    Levels are snapped to lattice sites and the band spans half a lattice
    spacing, the regime where the band integral resolves individual sites:
    both estimators then target the same site and the gap isolates the
    count-rescaling convention (any exponent other than ``n**-0.5`` blows
    the gap up instead of shrinking it like ``n**-0.5``).  At off-site
    levels or wider bands the gap is dominated by nearest-site
    quantization and by the spatial roughness of local time itself, which
    decays only like the square root of the band width; see the tests.
    """
    root_n = np.sqrt(float(n))
    levels = np.unique(np.rint(np.linspace(-np.sqrt(t), np.sqrt(t), 101) * root_n)) / root_n
    path = ScaledPath(n=n, positions=simulate_walk(_walk_steps(t, n), seed))
    eps = 0.5 / root_n
    band = local_time_profile(path, t, levels, eps, "band")
    occ = local_time_profile(path, t, levels, None, "occupation")
    return float(np.abs(band - occ).max())


def _run_knight(config: ExperimentConfig) -> TestReport:
    occ = _sample(config, "reversal")[:, 1]
    half_normal = _sample(config, "levy")[:, 1]
    statistic, p_value = ks_two_sample(occ, half_normal)
    discrepancy = estimator_agreement(config.seed, config.n, config.t)
    ok = p_value > config.alpha and discrepancy < _AGREEMENT_TOL
    return _report(
        config, statistic, p_value, config.replicates, ok,
        max_estimator_discrepancy=discrepancy,
        agreement_tolerance=_AGREEMENT_TOL,
    )


def _run_coverage(config: ExperimentConfig) -> TestReport:
    report = coverage_check(
        config.seed, config.window, config.delta, config.step_budget, config.n
    )
    times = report.first_cover_time[~np.isnan(report.first_cover_time)]
    quantiles = (
        {
            "min": float(times.min()),
            "median": float(np.median(times)),
            "max": float(times.max()),
        }
        if times.size
        else {}
    )
    covered, total = report.covered_count, report.total_count
    return _report(
        config, covered / total, None, report.steps_used, covered == total,
        window=[config.window.x_lo, config.window.x_hi, config.window.h_hi],
        delta=config.delta,
        step_budget=config.step_budget,
        covered=covered,
        total=total,
        steps_used=report.steps_used,
        first_cover=quantiles,
    )


_RUNNERS = {
    "area": _run_area,
    "density": _run_density,
    **dict.fromkeys(_IDENTITY_PAIRS, _run_identity),
    "knight": _run_knight,
    "coverage": _run_coverage,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> TestReport:
    """Run one named experiment; the report is a pure function of config."""
    runner = _RUNNERS.get(config.experiment)
    if runner is None:
        raise ValueError(
            f"unknown experiment {config.experiment!r}, expected one of {EXPERIMENTS}"
        )
    return runner(config)
