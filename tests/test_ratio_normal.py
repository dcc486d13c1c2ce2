"""Tests for the ratio-of-correlated-normals distribution machinery."""

import numpy as np
import pytest
from scipy import integrate, stats

from r2rcontrol.errors import DegenerateDistributionError
from r2rcontrol.ratio_normal import RatioDistribution, bvn_upper_orthant
from r2rcontrol.rng import make_rng
from r2rcontrol.theory import RatioMoments


# ---------------------------------------------------------------------------
# bivariate normal upper orthant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [-0.95, -0.5, 0.0, 0.3, 0.8, 0.99])
@pytest.mark.parametrize("hk", [(0.0, 0.0), (1.2, -0.7), (-2.0, 1.5), (3.0, 3.0)])
def test_bvn_matches_scipy(hk, r):
    h, k = hk
    mvn = stats.multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]])
    # P(X > h, Y > k) via the survival symmetry of the centered normal
    expected = mvn.cdf([-h, -k])
    assert bvn_upper_orthant(h, k, r) == pytest.approx(expected, abs=5e-14)


def test_bvn_independence_factorises():
    h, k = 0.4, -1.1
    assert bvn_upper_orthant(h, k, 0.0) == pytest.approx(
        stats.norm.sf(h) * stats.norm.sf(k), abs=1e-15
    )


def test_bvn_zero_zero_quarter_circle_identity():
    # P(X>0, Y>0) = 1/4 + arcsin(r) / (2 pi)
    for r in (-0.9, -0.3, 0.0, 0.5, 0.95):
        assert bvn_upper_orthant(0.0, 0.0, r) == pytest.approx(
            0.25 + np.arcsin(r) / (2 * np.pi), abs=1e-15
        )


def test_bvn_perfect_correlation_limits():
    # r -> 1: P(X>h, X>k) = sf(max(h, k)); r -> -1: P(X>h, -X>k)
    assert bvn_upper_orthant(0.7, -0.2, 1.0) == pytest.approx(stats.norm.sf(0.7))
    assert bvn_upper_orthant(0.7, -0.2, -1.0) == pytest.approx(
        max(0.0, stats.norm.cdf(0.2) - stats.norm.cdf(0.7))
    )


def test_bvn_array_call_matches_scipy_in_every_regime():
    rng = np.random.default_rng(5)
    n = 2400
    h, k = rng.uniform(-3.0, 3.0, (2, n))
    # a quarter each: the 6-, 12- and 20-node arcsin series, and |r| >= 0.925
    ar = np.concatenate([rng.uniform(lo, hi, n // 4) for lo, hi in
                         ((0.01, 0.3), (0.3, 0.75), (0.75, 0.925), (0.925, 0.9999))])
    r = ar * rng.choice([-1.0, 1.0], n)
    expected = [stats.multivariate_normal.cdf([-a, -b], cov=[[1.0, c], [c, 1.0]])
                for a, b, c in zip(h, k, r)]
    np.testing.assert_allclose(bvn_upper_orthant(h, k, r), expected, rtol=0, atol=5e-14)


# (h, k, r, L) recorded from Genz's routine run one point at a time, with
# scalar numpy arithmetic. Each L's last bit depends on a detail the array
# form must keep: the pow() rounding of (h - k)**2 (rows 3-4), summing just
# the masked high-|r| terms (rows 1-2), or the sign of a zero (row 5).
PINNED_BVN = [
    (-0.21510163473138277, 3.8649916076921578, -0.9306612191675349, 9.760558568639382e-26),
    (7.5920890957994285, -5.087855485035536, -0.9627327986531483, 3.4790343886494857e-31),
    (6.330966610222756, -4.971665049239659, -0.9871022945533979, 1.0080429741719772e-26),
    (-5.534261969545195, 6.383018533280763, -0.970212282762009, 9.638975527077059e-14),
    (0.7, -0.2, -1.0, -0.0),
]


def test_bvn_and_cdf_keep_pinned_values_bit_for_bit():
    h, k, r, expected = np.array(PINNED_BVN).T
    assert bvn_upper_orthant(h, k, r).tobytes() == expected.tobytes()
    # these two CDF values depend on the pow() rounding of u**2 in a(u)
    d = _dist(1.5, 3.0, 0.8, 0.7, 0.2)
    got = d.cdf([0.834565640140188, -1.702172228706392])
    assert got.tolist() == [0.8938729191569618, 3.268489529747703e-05]


def test_bvn_array_special_entries_equal_scalar_calls():
    inf, nan = np.inf, np.nan
    h = np.array([nan, 0.3, inf, -inf, -inf, 0.4, 0.5, 0.7, 0.7, -0.2, 1.1, 0.2])
    k = np.array([0.1, nan, 0.2, 0.3, -inf, -inf, -0.6, -0.2, -0.2, 0.9, 0.4, 0.2])
    r = np.array([0.5, 0.5, 0.5, 0.95, 0.5, -0.4, 0.0, 1.0, -1.0, 0.96, -0.97, 0.5])
    scalar = [bvn_upper_orthant(float(a), float(b), float(c)) for a, b, c in zip(h, k, r)]
    assert all(isinstance(v, float) for v in scalar)
    np.testing.assert_array_equal(bvn_upper_orthant(h, k, r), scalar)
    assert bvn_upper_orthant(h[:, None], k, 0.5).shape == (12, 12)


# ---------------------------------------------------------------------------
# ratio distribution: exact special cases
# ---------------------------------------------------------------------------


def _dist(mu1, mu2, s1, s2, s12, **kw):
    return RatioDistribution(RatioMoments(mu1, mu2, s1, s2, s12), **kw)


def test_centered_uncorrelated_ratio_is_cauchy():
    d = _dist(0.0, 0.0, 1.0, 1.0, 0.0)
    assert d.pdf(0.0) == pytest.approx(1.0 / np.pi, abs=1e-14)
    grid = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(d.pdf(grid), stats.cauchy.pdf(grid), atol=1e-12)
    np.testing.assert_allclose(d.cdf(grid), stats.cauchy.cdf(grid), atol=1e-12)


def test_scaled_cauchy_case():
    # X1/X2 with sds (s1, s2), centered, uncorrelated -> Cauchy(scale=s1/s2)
    d = _dist(0.0, 0.0, 2.0, 0.5, 0.0)
    grid = np.linspace(-10, 10, 21)
    np.testing.assert_allclose(
        d.cdf(grid), stats.cauchy.cdf(grid, scale=4.0), atol=1e-12
    )


def test_pdf_integrates_to_one():
    d = _dist(1.7, 1.8, 0.31, 0.12, 0.011)
    total, err = integrate.quad(d.pdf, -np.inf, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cdf_is_monotone_and_bounded():
    d = _dist(-2.0, 1.3, 0.8, 0.4, -0.1)
    grid = np.linspace(-25, 25, 301)
    vals = d.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("mu2", [3.0, -3.0])
def test_tails_take_their_limits(mu2):
    # past |u| ~ 1e154 u**2 overflows and a(u) = inf: the formulas alone read 0.5 or nan
    d = _dist(1.5, mu2, 0.8, 0.7, 0.2)
    inf = np.inf
    assert d.cdf([-inf, -1e300, 1e300, inf]).tolist() == [0.0, 0.0, 1.0, 1.0]
    assert d.pdf([-inf, -1e300, -1e160, 1e160, 1e300, inf]).tolist() == [0.0] * 6
    # the normal approximation keeps its own limits Phi(+-|mu2|/sigma2) as u -> +-inf,
    # which it nearly reaches inside the formula's range (+-1e150)
    lo, hi = stats.norm.cdf([-abs(mu2) / 0.7, abs(mu2) / 0.7])
    approx = d.cdf_normal_approx([-inf, -1e300, -1e150, 1e150, 1e300, inf])
    np.testing.assert_allclose(approx, [lo] * 3 + [hi] * 3, rtol=0, atol=1e-15)
    grid = np.concatenate([[-inf], -np.logspace(300, -3, 2000), [0.0], np.logspace(-3, 300, 2000), [inf]])
    vals = d.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert all(np.isnan(f(np.nan)) for f in (d.cdf, d.pdf, d.cdf_normal_approx))


def test_cdf_derivative_matches_pdf():
    d = _dist(0.9, 2.2, 0.5, 0.3, 0.06)
    for u in (-1.0, 0.2, 0.41, 1.5):
        h = 1e-6
        num = (d.cdf(u + h) - d.cdf(u - h)) / (2 * h)
        assert num == pytest.approx(d.pdf(u), rel=1e-5)


def test_cdf_matches_monte_carlo():
    m = RatioMoments(1.7, 1.8, 0.31, 0.12, 0.011)
    d = RatioDistribution(m)
    rng = make_rng(11, tag="ratio-mc")
    draws = d.rvs(400_000, rng)
    for q in (0.6, 0.9, 0.944, 1.0, 1.2):
        emp = np.mean(draws <= q)
        se = np.sqrt(emp * (1 - emp) / draws.size)
        assert d.cdf(q) == pytest.approx(emp, abs=5 * se + 1e-4)


# ---------------------------------------------------------------------------
# normal approximation and its error bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("snr", [2.0, 4.0, 8.0])
def test_normal_approx_error_within_bound(snr):
    d = _dist(1.5, snr * 0.25, 0.5, 0.25, 0.03)
    bound = d.approx_error_bound
    assert bound == pytest.approx(stats.norm.cdf(-snr))
    grid = np.linspace(-30, 40, 401)
    gap = np.abs(d.cdf(grid) - d.cdf_normal_approx(grid))
    assert gap.max() <= bound + 1e-12


def test_approx_converges_as_denominator_concentrates():
    gaps = []
    for s2 in (0.5, 0.2, 0.05):
        d = _dist(1.0, 2.0, 0.4, s2, 0.0)
        grid = np.linspace(-3, 4, 101)
        gaps.append(np.abs(d.cdf(grid) - d.cdf_normal_approx(grid)).max())
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# negative-denominator convention
# ---------------------------------------------------------------------------


def test_negative_gain_sign_flip_consistency():
    # u = X1/X2 with mu2 < 0 equals -(X1/(-X2)); both paths must agree
    m = RatioMoments(0.8, -1.8, 0.3, 0.15, -0.02)
    d = RatioDistribution(m)
    flipped = RatioDistribution(RatioMoments(0.8, 1.8, 0.3, 0.15, 0.02))
    grid = np.linspace(-3, 3, 61)
    np.testing.assert_allclose(d.cdf(grid), 1.0 - flipped.cdf(-grid), atol=1e-12)
    np.testing.assert_allclose(d.pdf(grid), flipped.pdf(-grid), atol=1e-12)

    rng = make_rng(12, tag="neg-gain")
    draws = d.rvs(200_000, rng)
    emp = np.mean(draws <= -0.4)
    se = np.sqrt(emp * (1 - emp) / draws.size)
    assert d.cdf(-0.4) == pytest.approx(emp, abs=5 * se + 1e-4)


def test_perfect_correlation_rejected():
    with pytest.raises(DegenerateDistributionError):
        _dist(0.0, 1.0, 1.0, 1.0, 1.0)
