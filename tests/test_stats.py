"""KS test, chi-square GOF, and the experiment harness."""

import hashlib
import warnings
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import chdtrc, kolmogorov, ndtri
from scipy.stats import norm

from wallcurve import (
    ExperimentConfig,
    Window,
    chi2_gof_2d,
    ks_two_sample,
    run_experiment,
    sample_exact,
)
from wallcurve import oracle
from wallcurve.stats import (
    _bin_probabilities,
    _chi2_sf,
    _kolmogorov_sf,
    _ks_exact_pvalue,
    _merge_small_bins,
    _pearson,
    estimator_agreement,
    quantile_bin_edges,
)


def _brute_force_ks_pvalue(a, b):
    """Enumerate every interleaving of the two samples."""
    n1, n2 = len(a), len(b)
    d_obs, _ = ks_two_sample(a, b)
    hits = total = 0
    for perm in set(permutations([0] * n1 + [1] * n2)):
        i = j = d_int = 0
        for label in perm:
            if label == 0:
                i += 1
            else:
                j += 1
            d_int = max(d_int, abs(i * n2 - j * n1))
        total += 1
        hits += d_int / (n1 * n2) >= d_obs - 1e-12
    return hits / total


def _reference_ks_exact_pvalue(n1, n2, d_int):
    """The exact p-value as first written: integer path counts, cell by cell."""
    if d_int <= 0:
        return 1.0
    f = [0] * (n2 + 1)
    f[0] = 1
    for j in range(1, n2 + 1):
        f[j] = f[j - 1] if j * n1 < d_int else 0
    for i in range(1, n1 + 1):
        g = [0] * (n2 + 1)
        g[0] = f[0] if i * n2 < d_int else 0
        for j in range(1, n2 + 1):
            if abs(i * n2 - j * n1) < d_int:
                g[j] = g[j - 1] + f[j]
        f = g
    return float(1 - Fraction(f[n2], comb(n1 + n2, n1)))


def test_ks_identical_samples():
    stat, p = ks_two_sample([3, 1, 2], [1, 2, 3])
    assert stat == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    stat, _ = ks_two_sample([0, 1], [5, 6, 7])
    assert stat == 1.0


def test_ks_hand_case():
    stat, p = ks_two_sample([1, 2], [1.5])
    assert stat == 0.5
    assert p == 1.0  # every interleaving reaches distance 1/2


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_non_finite_sample_rejected(bad):
    good = np.linspace(0.0, 1.0, 90)
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample([0.1, bad, 0.3] * 30, good)
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample(good, [bad])


def test_kolmogorov_sf_matches_scipy():
    # 0.011 is where a tail series used on the wrong side of x = 1 read 0.913.
    xs = np.append(np.linspace(0.005, 3.5, 20_001), [0.011, 1.0, np.nextafter(1.0, 0.0)])
    got = np.array([_kolmogorov_sf(float(x)) for x in xs])
    np.testing.assert_allclose(got, kolmogorov(xs), rtol=0, atol=1e-14)
    assert _kolmogorov_sf(0.011) == 1.0
    assert _kolmogorov_sf(0.0) == 1.0
    for x in (3.5, 5.0, 8.0):  # far tail, down to 5e-56
        assert _kolmogorov_sf(x) == pytest.approx(kolmogorov(x), rel=1e-13, abs=0)


def test_chi2_sf_matches_scipy():
    # Most of the gap is scipy's: against 40-digit values the series here
    # reads within 4e-16 relative at the worst points of this grid.
    xs = np.geomspace(1e-4, 600.0, 400)
    for dof in range(1, 144):
        got = np.array([_chi2_sf(dof, float(x)) for x in xs])
        np.testing.assert_allclose(got, chdtrc(dof, xs), rtol=2e-13, atol=0, err_msg=f"dof {dof}")
    assert _chi2_sf(7, 0.0) == 1.0
    assert _chi2_sf(143, 1e7) == 0.0  # underflows to 0, not NaN


def test_ks_exact_pvalue_matches_enumeration():
    rng = np.random.default_rng(0)
    for n1, n2 in [(2, 1), (3, 2), (4, 4), (5, 3)]:
        a = rng.normal(size=n1)
        b = rng.normal(size=n2)
        _, p = ks_two_sample(a, b)
        assert p == pytest.approx(_brute_force_ks_pvalue(a, b), abs=1e-12)


def test_ks_exact_pvalue_matches_integer_reference():
    cases = [(n1, n2, d) for n1 in range(1, 9) for n2 in range(1, 9) for d in range(n1 * n2 + 2)]
    for n1, n2 in [(49, 300), (300, 49), (30, 40), (100, 100), (7, 2000)]:
        cases += [(n1, n2, d) for d in (1, n1, n1 * n2 // 8, n1 * n2 // 3, n1 * n2 - 1)]
    for n1, n2, d in cases:
        assert _ks_exact_pvalue(n1, n2, d) == pytest.approx(
            _reference_ks_exact_pvalue(n1, n2, d), abs=1e-12
        ), (n1, n2, d)


def test_ks_exact_pvalue_at_large_unbalanced_size():
    # About 1e182 paths in all, far past the integers float64 holds exactly.
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(4)
    a = rng.normal(size=49)
    b = rng.normal(loc=0.3, size=100_000)
    _, p = ks_two_sample(a, b)
    assert p == pytest.approx(ks_2samp(a, b, method="exact").pvalue, rel=1e-9)


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    a = rng.normal(size=60)
    b = rng.normal(size=80)
    stat, p = ks_two_sample(a, b)
    stat2, p2 = ks_two_sample(np.exp(a), np.exp(b))
    assert stat2 == stat
    assert p2 == p


def test_ks_identical_shapes_give_p_one():
    # Shifting every point by half a gap gives D = 1/3000, sqrt(en) * D = 0.013,
    # where the Kolmogorov tail is 1 to double precision.
    a = np.arange(3000.0)
    stat, p = ks_two_sample(a, a + 0.5)
    assert stat == pytest.approx(1 / 3000)
    assert p == 1.0


def test_ks_large_samples_use_asymptotics():
    rng = np.random.default_rng(2)
    a = rng.normal(size=400)
    b = rng.normal(size=400)
    stat, p = ks_two_sample(a, b)
    assert 0 < stat < 0.15
    assert 0.001 < p <= 1.0


def test_ks_agrees_with_reference_implementation():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(3)
    a = rng.normal(size=220)
    b = rng.normal(loc=0.15, size=180)  # product > 1e4: asymptotic branch
    stat, p = ks_two_sample(a, b)
    ref = ks_2samp(a, b, method="asymp")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    # The p-value convention here is the asymptotic Kolmogorov tail at the
    # effective sample size (scipy's asymp mode instead uses the finite-n
    # one-sample law, which differs by a few percent at this size).
    en = len(a) * len(b) / (len(a) + len(b))
    assert p == pytest.approx(float(kolmogorov(np.sqrt(en) * stat)), rel=1e-10)
    assert p == pytest.approx(ref.pvalue, rel=0.1)

    c = rng.normal(size=30)
    d = rng.normal(size=40)  # product <= 1e4: exact branch
    stat, p = ks_two_sample(c, d)
    ref = ks_2samp(c, d, method="exact")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_ks_unbalanced_small_sample_uses_exact_pvalue():
    # 10 x 2000 exceeds the product limit, but the asymptotic tail needs 50
    # points per sample: it gave 0.0505 here, the exact law 0.0348.
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(1)
    a = rng.normal(size=10)
    b = rng.normal(size=2000)
    stat, p = ks_two_sample(a, b)
    ref = ks_2samp(a, b, method="exact")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-9)
    assert p < 0.05


def test_bin_probabilities_sum_to_one():
    _, _, probs = _bin_probabilities(1.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(probs > 0)


def test_bin_probabilities_bytes_are_pinned():
    # The GOF cells feed every `verify density` report byte for byte, so this
    # hash moves only with a deliberate output format change.
    _, _, probs = _bin_probabilities(1.0)
    assert hashlib.sha256(probs.tobytes()).hexdigest() == (
        "e233e77fb675cca54a2c64229f841084f0a1383b6d3f55ae13ec50ef552a00b6"
    )


@pytest.mark.parametrize("t", [1e-105, 1e-107, 1e-200, 5e-324])
def test_gof_refuses_a_t_whose_cell_masses_underflow(t):
    # No numpy warning comes before the refusal, and t = 1e-103 still holds.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^t = {t!r} is too small for the GOF: its cell"):
            chi2_gof_2d(np.zeros((500, 2)), t)
        assert _bin_probabilities(1e-103)[2].sum() == pytest.approx(1.0, rel=0, abs=1e-14)


@pytest.mark.parametrize("t", [1.0, 0.37])
def test_bin_edges_match_ndtri(t):
    y_edges, s_edges = quantile_bin_edges(t)
    q = np.arange(1, 12) / 12
    np.testing.assert_allclose(y_edges[1:-1], np.sqrt(t) * ndtri(q), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        s_edges[1:-1], np.sqrt(t) * ndtri((1 + q) / 2), rtol=0, atol=1e-15
    )
    # The density's kink at y = 0 must fall on an edge, exactly.
    assert y_edges[6] == 0.0
    assert s_edges[0] == 0.0


def test_bin_probabilities_match_closed_form_cell():
    # Independent algebra: integrate the density over each rectangle by
    # reducing to Gaussian CDF differences.
    y_edges, s_edges, probs = _bin_probabilities(1.0)

    def cell_prob(a, b, c, d):
        # For 0 <= a < b: P = Phi(b+c) - Phi(a+c) - Phi(b+d) + Phi(a+d).
        def positive_part(lo, hi):
            return (
                norm.cdf(hi + c) - norm.cdf(lo + c) - norm.cdf(hi + d) + norm.cdf(lo + d)
            )

        if a >= 0:
            return positive_part(a, b)
        if b <= 0:
            return positive_part(-b, -a)
        return positive_part(0, -a) + positive_part(0, b)

    for iy, js in np.ndindex(probs.shape):
        expected = cell_prob(
            y_edges[iy], y_edges[iy + 1], s_edges[js], s_edges[js + 1]
        )
        assert probs[iy, js] == pytest.approx(expected, rel=0, abs=1e-15), (iy, js)


@pytest.mark.parametrize("t", [1.0, 0.37])
def test_bin_probabilities_match_adaptive_quadrature(t):
    # The cells as first computed: one adaptive dblquad per cell.
    y_edges, s_edges, probs = _bin_probabilities(t)
    for iy, js in np.ndindex(probs.shape):
        expected, _ = dblquad(
            lambda s, y: oracle.joint_density(y, s, t),
            y_edges[iy],
            y_edges[iy + 1],
            s_edges[js],
            s_edges[js + 1],
            epsabs=1e-10,
            epsrel=1e-10,
        )
        assert probs[iy, js] == pytest.approx(expected, rel=0, abs=1e-15), (iy, js)


def test_chi2_self_consistent_on_synthetic_multinomial():
    y_edges, s_edges, probs = _bin_probabilities(1.0)
    flat = probs.ravel() / probs.sum()
    y_mid = (y_edges[:-1] + y_edges[1:]) / 2
    s_mid = (s_edges[:-1] + s_edges[1:]) / 2
    cells = np.array([[y, s] for y in y_mid for s in s_mid])
    low_p = 0
    seen_high = False
    for seed in range(50):
        counts = np.random.default_rng(seed).multinomial(10**5, flat)
        samples = np.repeat(cells, counts, axis=0)
        _, p = chi2_gof_2d(samples, 1.0)
        low_p += p < 0.05
        seen_high |= p > 0.5
    assert low_p <= 9
    assert seen_high


def test_chi2_gross_mismatch_rejected():
    samples = np.full((600, 2), 0.01)
    _, p = chi2_gof_2d(samples, 1.0)
    assert p < 1e-6


def test_chi2_requires_enough_samples():
    with pytest.raises(ValueError):
        chi2_gof_2d(np.zeros((100, 2)), 1.0)


@pytest.mark.parametrize(
    "column, value, message",
    [
        (0, np.nan, "finite"),
        (1, np.nan, "finite"),
        (0, -np.inf, "finite"),
        (1, np.inf, "finite"),
        (1, -3.0, ">= 0"),
    ],
)
def test_chi2_rejects_bad_samples(column, value, message):
    # Binning would clip these into edge cells and report a p-value.
    samples = sample_exact(1.0, 2024, 2000)
    samples[:5, column] = value
    with pytest.raises(ValueError, match=message):
        chi2_gof_2d(samples, 1.0)


def test_chi2_passes_on_exact_sampler():
    samples = sample_exact(1.0, 2024, 20_000)
    _, p = chi2_gof_2d(samples, 1.0)
    assert p > 0.001


def test_merge_pools_small_cells():
    probs = np.array([0.5, 0.3, 0.1, 0.05, 0.04, 0.006, 0.003, 0.001])
    obs = np.array([50.0, 30.0, 10.0, 5.0, 4.0, 1.0, 0.0, 0.0])
    kept_obs, kept_p = _merge_small_bins(obs, probs, 100)
    # Expected counts 4.0, 0.6, 0.3 and 0.1 sit below the floor of 5 and
    # pool into one cell that exactly clears it.
    assert len(kept_p) == 5
    assert kept_obs.sum() == pytest.approx(100.0)
    assert kept_p.sum() == pytest.approx(1.0)
    assert 100 * kept_p.min() >= 5.0
    assert kept_p[-1] == pytest.approx(0.05)


def test_merge_reports_unreachable_floor():
    probs = np.full(8, 0.125)
    obs = np.ones(8)
    with pytest.raises(ValueError):
        _merge_small_bins(obs, probs, 8)


def test_pearson_invariant_under_relabeling():
    obs = np.array([10.0, 20.0, 30.0, 40.0])
    p = np.array([0.1, 0.2, 0.3, 0.4])
    stat, pv, dof = _pearson(obs, p, 100)
    perm = np.array([2, 0, 3, 1])
    stat2, pv2, dof2 = _pearson(obs[perm], p[perm], 100)
    assert stat2 == pytest.approx(stat, rel=1e-15)
    assert (pv2, dof2) == (pv, dof)


def test_run_experiment_area_is_exact_and_deterministic():
    config = ExperimentConfig(experiment="area", n=2000, seed=9)
    report = run_experiment(config)
    assert report.verdict == "pass"
    assert report.p_value is None
    assert report.statistic < 1e-9
    assert run_experiment(config).to_dict() == report.to_dict()


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(experiment="teleport"))


def test_report_serialization_keys():
    report = run_experiment(ExperimentConfig(experiment="area", n=500, seed=1))
    d = report.to_dict()
    assert set(d) == {
        "test_name", "statistic", "p_value", "n_samples", "seed", "params", "verdict",
    }
    assert d["params"]["n"] == 500
    assert d["params"]["alpha"] == 0.001


def test_identity_experiments_pass_at_reduced_scale():
    for name in ("identity-reversal", "identity-levy", "identity-signed"):
        report = run_experiment(
            ExperimentConfig(experiment=name, replicates=600, n=2000, seed=3)
        )
        assert report.passed, (name, report.p_value)


def test_estimator_agreement_shrinks_with_scale():
    coarse = estimator_agreement(0, 2000)
    fine = estimator_agreement(0, 40_000)
    assert coarse < 1.5 / np.sqrt(2000)
    assert fine < 1.5 / np.sqrt(40_000)
    assert fine < coarse


def test_coverage_experiment_report():
    # Height granularity n**-0.5 must sit well below delta for the bottom
    # cell row to be reachable.
    report = run_experiment(
        ExperimentConfig(
            experiment="coverage",
            seed=3,
            n=2500,
            window=Window(-0.5, 0.5, 0.25),
            delta=0.05,
            step_budget=10**7,
        )
    )
    assert report.passed
    assert report.params["covered"] == report.params["total"]
    assert "median" in report.params["first_cover"]
