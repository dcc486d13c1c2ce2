"""Exact distribution of a ratio of correlated normal variables.

Implements the Hinkley (1969) density and CDF of u = X1/X2 for
(X1, X2) bivariate normal, the normal approximation F*(u) with its
Phi(-mu2/sigma2) error guarantee, and the bivariate-normal upper
orthant probability L(h, k; r) those formulas need.

L(h, k; r) uses Genz's rewrite of the Drezner-Wesolowsky algorithm
(double precision accuracy ~1e-15), since generic quadrature does not
reliably reach the accuracy the CDF identities require.

Both L and the CDF evaluate whole arrays: each of Genz's three |r|
regimes runs once on the points that fall in it, block by block, so a
million-point CDF takes about a second and its temporaries stay a few MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# ndtr is what scipy.stats.norm.cdf evaluates, without its per-call overhead
from scipy.special import ndtr

from .errors import DegenerateDistributionError
from .estimation import RatioMoments

_SQRT_TWO_PI = np.sqrt(2.0 * np.pi)

# Gauss-Legendre nodes/weights used by Genz's BVN routine
_GL6_W = np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])
_GL6_X = np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])
_GL12_W = np.array(
    [0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
     0.2031674267230659, 0.2334925365383547, 0.2491470458134029]
)
_GL12_X = np.array(
    [0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
     0.5873179542866171, 0.3678314989981802, 0.1252334085114692]
)
_GL20_W = np.array(
    [0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259]
)
_GL20_X = np.array(
    [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733]
)


# points per block: bounds the (points x nodes) temporaries of the BVN sums
_BLOCK = 16384


def _blockwise(fn, *arrays):
    """fn on consecutive fixed-size blocks of the broadcast, flattened inputs."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    flat = [a.ravel() for a in arrays]
    out = np.empty(flat[0].size)
    for start in range(0, out.size, _BLOCK):
        out[start:start + _BLOCK] = fn(*(a[start:start + _BLOCK] for a in flat))
    return out.reshape(arrays[0].shape)


def bvn_upper_orthant(h, k, r):
    """L(h, k; r) = P(X >= h, Y >= k) for standard bivariate normal, corr r.

    Broadcasts array arguments; scalar arguments give a float.
    """
    out = _blockwise(_bvn, h, k, r)
    return float(out) if out.ndim == 0 else out


def _bvn(h, k, r):
    # exact where r = 0, and the limit where h or k is infinite (nan stays nan)
    out = ndtr(-h) * ndtr(-k)
    i = np.flatnonzero(np.isfinite(h) & np.isfinite(k) & (r != 0.0))
    if i.size:
        with np.errstate(all="ignore"):  # lanes a regime's mask drops may overflow
            out[i] = _genz(h[i], k[i], r[i])
    return out


def _genz(h, k, r):
    """Genz's three |r| regimes, one index set each; h and k finite, r != 0."""
    tp = 2.0 * np.pi
    hk = h * k
    ar = np.abs(r)
    bvn = np.empty(h.size)
    for i, w, x in (
        (np.flatnonzero(ar < 0.3), _GL6_W, _GL6_X),
        (np.flatnonzero((ar >= 0.3) & (ar < 0.75)), _GL12_W, _GL12_X),
        (np.flatnonzero((ar >= 0.75) & (ar < 0.925)), _GL20_W, _GL20_X),
    ):
        hi, ki, hki = h[i], k[i], hk[i, None]
        hs = ((hi * hi + ki * ki) / 2.0)[:, None]
        asr = np.arcsin(r[i])
        sn1 = np.sin(asr[:, None] * (1.0 - x) / 2.0)
        sn2 = np.sin(asr[:, None] * (1.0 + x) / 2.0)
        s = np.sum(
            w * (np.exp((sn1 * hki - hs) / (1.0 - sn1**2))
                 + np.exp((sn2 * hki - hs) / (1.0 - sn2**2))),
            axis=1,
        )
        bvn[i] = s * asr / (2.0 * tp) + ndtr(-hi) * ndtr(-ki)

    j = np.flatnonzero(~(ar < 0.925))  # |r| >= 0.925, and nan r
    hj, rj = h[j], r[j]
    kj = np.where(rj < 0.0, -k[j], k[j])
    hkj = np.where(rj < 0.0, -hk[j], hk[j])
    series = np.zeros(j.size)  # stays 0 in the limits |r| >= 1
    m = np.flatnonzero(np.abs(rj) < 1.0)
    series[m] = _genz_high(hj[m], kj[m], rj[m], hkj[m]) / tp
    pos = rj > 0.0
    out = np.where(pos, series + ndtr(-np.where(kj > hj, kj, hj)), -series)
    bvn[j] = np.where(~pos & (kj > hj), out + (ndtr(kj) - ndtr(hj)), out)
    # min(max(bvn, 0), 1) as Python's max and min pick, which keeps -0.0
    bvn = np.where(0.0 > bvn, 0.0, bvn)
    return np.where(1.0 < bvn, 1.0, bvn)


def _genz_high(h, k, r, hk):
    """Minus the |r| >= 0.925 series times 2 pi, for 0.925 <= |r| < 1."""
    x, w = _GL20_X, _GL20_W
    a_s = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_s)
    # float_power rounds like C pow(), as a numpy scalar's ** 2 does; an
    # array's ** 2 is x*x, which differs in the last bit on about 0.1% of
    # doubles, and the recorded theory artifacts were computed with pow()
    bs = np.float_power(h - k, 2)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / a_s + hk) / 2.0
    bvn = np.where(
        asr > -100.0,
        a * np.exp(asr) * (
            1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
            + c * d * a_s * a_s / 5.0
        ),
        0.0,
    )
    b = np.sqrt(bs)
    sp = _SQRT_TWO_PI * ndtr(-b / a)
    bvn = np.where(
        -hk < 100.0,
        bvn - np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        bvn,
    )
    a, bs, hk, c, d = a / 2.0, bs[:, None], hk[:, None], c[:, None], d[:, None]
    for sign in (-1.0, 1.0):
        xs = (a[:, None] * (sign * x + 1.0)) ** 2
        rs = np.sqrt(1.0 - xs)
        asr1 = -(bs / xs + hk) / 2.0
        mask = asr1 > -100.0
        sp = 1.0 + c * xs * (1.0 + d * xs)
        ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        terms = w * np.exp(asr1) * (ep - sp)
        bvn = np.where(mask.any(axis=1), bvn + a * _masked_row_sums(terms, mask), bvn)
    return -bvn


def _masked_row_sums(terms, mask):
    """Each row's np.sum over just its masked entries.

    np.sum adds eight or more terms pairwise and fewer in sequence, so the
    masked entries are packed to the front and summed at their own count.
    """
    if mask.all():
        return terms.sum(axis=1)
    packed = np.take_along_axis(terms, np.argsort(~mask, axis=1, kind="stable"), axis=1)
    counts = mask.sum(axis=1)
    out = np.zeros(len(terms))
    for n in np.unique(counts):
        rows = counts == n
        out[rows] = packed[rows, :n].sum(axis=1)
    return out


@dataclass
class RatioDistribution:
    """Distribution of u = X1/X2 with (X1, X2) bivariate normal.

    mu2 < 0 is handled through the distribution of -u drawn from the
    sign-flipped pair (X1, -X2), matching the convention used by the
    control-error bound when the process gain is negative.
    """

    moments: RatioMoments

    def __post_init__(self):
        if abs(self.moments.rho) >= 1.0 - 1e-12:
            raise DegenerateDistributionError("|rho| = 1 gives a degenerate ratio")
        m = self.moments
        self._flip = m.mu2 < 0
        if self._flip:
            self._m = RatioMoments(m.mu1, -m.mu2, m.sigma1, m.sigma2, -m.sigma12)
        else:
            self._m = m

    # internal Hinkley pieces for the (possibly sign-flipped) moments -------

    def _abc(self, u, u_sq):
        m = self._m
        a = np.sqrt(
            u_sq / m.sigma1**2 - 2.0 * m.rho * u / (m.sigma1 * m.sigma2) + 1.0 / m.sigma2**2
        )
        b = (
            m.mu1 * u / m.sigma1**2
            - m.rho * (m.mu1 + m.mu2 * u) / (m.sigma1 * m.sigma2)
            + m.mu2 / m.sigma2**2
        )
        c = (
            m.mu1**2 / m.sigma1**2
            - 2.0 * m.rho * m.mu1 * m.mu2 / (m.sigma1 * m.sigma2)
            + m.mu2**2 / m.sigma2**2
        )
        return a, b, c

    def _pdf_pos(self, u):
        m = self._m
        rho = m.rho
        a, b, c = self._abc(u, u**2)
        one_m_r2 = 1.0 - rho**2
        d = np.exp((b**2 - c * a**2) / (2.0 * one_m_r2 * a**2))
        z = b / (np.sqrt(one_m_r2) * a)
        term1 = b * d / (_SQRT_TWO_PI * m.sigma1 * m.sigma2 * a**3) * (
            ndtr(z) - ndtr(-z)
        )
        term2 = np.sqrt(one_m_r2) / (
            np.pi * m.sigma1 * m.sigma2 * a**2
        ) * np.exp(-c / (2.0 * one_m_r2))
        out = term1 + term2
        # far out (|u| past about 1e154) the terms overflow to nan, where the
        # density is below the smallest double: take its limit 0
        return np.where(np.isnan(out) & ~np.isnan(u), 0.0, out)

    def _cdf_pos(self, u):
        m = self._m
        # u**2 rounded like C pow(), as in _genz_high
        a, _, _ = self._abc(u, np.float_power(u, 2))
        denom = m.sigma1 * m.sigma2 * a
        r = (m.sigma2 * u - m.rho * m.sigma1) / denom
        h = (m.mu1 - m.mu2 * u) / denom
        k = m.mu2 / m.sigma2
        vals = bvn_upper_orthant(h, -k, r) + bvn_upper_orthant(-h, k, r)
        # where u is infinite or u**2 overflows (|u| past about 1e154), a is
        # not finite and the formula reads 0.5 or nan: take the limits 0 and 1
        return np.where(np.isinf(u) | np.isinf(a), u > 0.0, vals)

    def _approx_pos(self, u):
        m = self._m
        a, _, _ = self._abc(u, u**2)
        vals = ndtr((m.mu2 * u - m.mu1) / (m.sigma1 * m.sigma2 * a))
        # where a is not finite, as in _cdf_pos: its own limits Phi(+-mu2/sigma2),
        # not 0 and 1, as u runs to +-inf
        return np.where(np.isinf(u) | np.isinf(a), ndtr(np.copysign(m.mu2 / m.sigma2, u)), vals)

    def _evaluate(self, piece, u, complement: bool):
        """``piece`` at u, or at -u with the sign flip (then 1 - value for a CDF).

        The far tails overflow on purpose: the private pieces above replace
        those entries by their limits.
        """
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = piece(-u if self._flip else u)
        if complement and self._flip:
            vals = 1.0 - vals
        return float(vals) if vals.ndim == 0 else vals

    # public surface --------------------------------------------------------

    def pdf(self, u):
        return self._evaluate(self._pdf_pos, u, complement=False)

    def cdf(self, u):
        return self._evaluate(lambda v: _blockwise(self._cdf_pos, v), u, complement=True)

    def cdf_normal_approx(self, u):
        return self._evaluate(self._approx_pos, u, complement=True)

    @property
    def approx_error_bound(self) -> float:
        """Uniform bound on |F - F*|: Phi(-|mu2|/sigma2)."""
        m = self._m
        return float(ndtr(-m.mu2 / m.sigma2))

    def rvs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Monte Carlo ratio draws from the underlying bivariate normal."""
        m = self.moments
        cov = np.array([[m.sigma1**2, m.sigma12], [m.sigma12, m.sigma2**2]])
        xy = rng.multivariate_normal([m.mu1, m.mu2], cov, size=n)
        return xy[:, 0] / xy[:, 1]
