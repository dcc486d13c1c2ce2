"""Exact distribution of a ratio of correlated normal variables.

Implements the Hinkley (1969) density and CDF of u = X1/X2 for
(X1, X2) bivariate normal, the normal approximation F*(u) with its
Phi(-mu2/sigma2) error guarantee, and the bivariate-normal upper
orthant probability L(h, k; r) those formulas need.

L(h, k; r) uses Genz's rewrite of the Drezner-Wesolowsky algorithm
(double precision accuracy ~1e-15), since generic quadrature does not
reliably reach the accuracy the CDF identities require.
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


def bvn_upper_orthant(h: float, k: float, r: float) -> float:
    """L(h, k; r) = P(X >= h, Y >= k) for standard bivariate normal, corr r."""
    if np.isnan(h) or np.isnan(k):
        return np.nan
    if h == np.inf or k == np.inf:
        return 0.0
    if h == -np.inf:
        return 1.0 if k == -np.inf else float(ndtr(-k))
    if k == -np.inf:
        return float(ndtr(-h))
    if r == 0.0:
        return float(ndtr(-h) * ndtr(-k))

    tp = 2.0 * np.pi
    hk = h * k
    bvn = 0.0
    ar = abs(r)
    if ar < 0.3:
        w, x = _GL6_W, _GL6_X
    elif ar < 0.75:
        w, x = _GL12_W, _GL12_X
    else:
        w, x = _GL20_W, _GL20_X

    if ar < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = np.arcsin(r)
        sn1 = np.sin(asr * (1.0 - x) / 2.0)
        sn2 = np.sin(asr * (1.0 + x) / 2.0)
        bvn = np.sum(
            w * (np.exp((sn1 * hk - hs) / (1.0 - sn1**2))
                 + np.exp((sn2 * hk - hs) / (1.0 - sn2**2)))
        )
        bvn = bvn * asr / (2.0 * tp) + ndtr(-h) * ndtr(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if ar < 1.0:
            a_s = (1.0 - r) * (1.0 + r)
            a = np.sqrt(a_s)
            bs = (h - k) ** 2
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 16.0
            asr = -(bs / a_s + hk) / 2.0
            if asr > -100.0:
                bvn = a * np.exp(asr) * (
                    1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
                    + c * d * a_s * a_s / 5.0
                )
            if -hk < 100.0:
                b = np.sqrt(bs)
                sp = _SQRT_TWO_PI * ndtr(-b / a)
                bvn -= np.exp(-hk / 2.0) * sp * b * (
                    1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
                )
            a /= 2.0
            for sign in (-1.0, 1.0):
                xs = (a * (sign * x + 1.0)) ** 2
                rs = np.sqrt(1.0 - xs)
                asr1 = -(bs / xs + hk) / 2.0
                mask = asr1 > -100.0
                if np.any(mask):
                    sp = 1.0 + c * xs * (1.0 + d * xs)
                    ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                    bvn += a * np.sum(
                        w[mask] * np.exp(asr1[mask]) * (ep[mask] - sp[mask])
                    )
            bvn = -bvn / tp
        if r > 0.0:
            bvn += ndtr(-max(h, k))
        else:
            bvn = -bvn
            if k > h:
                bvn += ndtr(k) - ndtr(h)
    return float(min(max(bvn, 0.0), 1.0))


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

    @property
    def sign_convention(self) -> str:
        """``"b_negative"`` when mu2 < 0, else ``"b_positive"``."""
        return "b_negative" if self._flip else "b_positive"

    # internal Hinkley pieces for the (possibly sign-flipped) moments -------

    def _abc(self, u):
        m = self._m
        a = np.sqrt(
            u**2 / m.sigma1**2 - 2.0 * m.rho * u / (m.sigma1 * m.sigma2) + 1.0 / m.sigma2**2
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
        a, b, c = self._abc(u)
        one_m_r2 = 1.0 - rho**2
        d = np.exp((b**2 - c * a**2) / (2.0 * one_m_r2 * a**2))
        z = b / (np.sqrt(one_m_r2) * a)
        term1 = b * d / (_SQRT_TWO_PI * m.sigma1 * m.sigma2 * a**3) * (
            ndtr(z) - ndtr(-z)
        )
        term2 = np.sqrt(one_m_r2) / (
            np.pi * m.sigma1 * m.sigma2 * a**2
        ) * np.exp(-c / (2.0 * one_m_r2))
        return term1 + term2

    def _cdf_pos(self, u):
        m = self._m
        a, _, _ = self._abc(u)
        denom = m.sigma1 * m.sigma2 * a
        r = (m.sigma2 * u - m.rho * m.sigma1) / denom
        h = (m.mu1 - m.mu2 * u) / denom
        k = m.mu2 / m.sigma2
        return bvn_upper_orthant(h, -k, r) + bvn_upper_orthant(-h, k, r)

    def _approx_pos(self, u):
        m = self._m
        a, _, _ = self._abc(u)
        return ndtr((m.mu2 * u - m.mu1) / (m.sigma1 * m.sigma2 * a))

    # public surface --------------------------------------------------------

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        x = -u if self._flip else u
        out = self._pdf_pos(x)
        return float(out) if out.ndim == 0 else out

    def cdf(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        vals = np.array([self._cdf_pos(-x if self._flip else x) for x in np.atleast_1d(u)])
        if self._flip:
            vals = 1.0 - vals
        return float(vals[0]) if scalar else vals

    def cdf_normal_approx(self, u):
        u = np.asarray(u, dtype=float)
        vals = self._approx_pos(-u if self._flip else u)
        if self._flip:
            vals = 1.0 - vals
        return float(vals) if vals.ndim == 0 else vals

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
