"""Independent reference computations for the test suite.

Everything here is derived straight from definitions (closed forms
re-derived by hand, generic quadrature, brute-force matching and
enumeration) and deliberately avoids the library's own code paths, so a
test that compares the two is a genuine dual-route check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats
from scipy.optimize import linear_sum_assignment


def normal_w2(mu0: float, s0: float, mu1: float, s1: float) -> float:
    """Closed form W2 between normals from the location-scale argument."""
    return math.sqrt((mu0 - mu1) ** 2 + (s0 - s1) ** 2)


def normal_kl(mu_p: float, s_p: float, mu_q: float, s_q: float) -> float:
    """KL(p || q) for normals, expanded from the definition."""
    return (math.log(s_q / s_p)
            + (s_p**2 + (mu_p - mu_q) ** 2) / (2.0 * s_q**2) - 0.5)


def conjugate_posterior(mu0: float, s0: float, estimate: float, se: float) -> tuple[float, float]:
    """Precision-additive normal-normal update."""
    prec = 1.0 / s0**2 + 1.0 / se**2
    mean = (mu0 / s0**2 + estimate / se**2) / prec
    return mean, math.sqrt(1.0 / prec)


def pooled_study(studies: list[tuple[float, float]]) -> tuple[float, float]:
    """Precision-weighted pooling of (estimate, std_error) pairs."""
    precs = [1.0 / se**2 for _, se in studies]
    total = sum(precs)
    mean = sum(p * est for p, (est, _) in zip(precs, studies)) / total
    return mean, math.sqrt(1.0 / total)


def sorted_matching_wp(x: np.ndarray, y: np.ndarray, p: float = 2.0) -> float:
    """Optimal coupling of equal-mass 1D clouds is the rank matching."""
    return float(np.mean(np.abs(np.sort(x) - np.sort(y)) ** p) ** (1.0 / p))


def assignment_wp(points_a: np.ndarray, points_b: np.ndarray, p: float = 2.0) -> float:
    """Exact Wp between equal-count, equal-weight clouds in any dimension.

    With uniform weights the transport optimum is attained at a
    permutation (Birkhoff), so the Hungarian assignment is exact.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(points_b, dtype=float).T).T
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
    rows, cols = linear_sum_assignment(cost)
    return float(np.mean(cost[rows, cols]) ** (1.0 / p))


def trapezoid_wp(quantile_a, quantile_b, p: float = 2.0, n: int = 1_000_001) -> float:
    """High-resolution trapezoid rule for the quantile-formula Wasserstein."""
    t = np.linspace(1e-9, 1.0 - 1e-9, n)
    diff = np.abs(np.asarray(quantile_a(t), dtype=float)
                  - np.asarray(quantile_b(t), dtype=float)) ** p
    return float(np.trapezoid(diff, t) ** (1.0 / p))


def quad_wp(quantile_a, quantile_b, p: float = 2.0) -> float:
    """Adaptive quadrature route for the quantile formula."""
    def integrand(t: float) -> float:
        return abs(float(quantile_a(t)) - float(quantile_b(t))) ** p

    total = 0.0
    for lo, hi in ((1e-12, 1e-6), (1e-6, 0.5), (0.5, 1.0 - 1e-6), (1.0 - 1e-6, 1.0 - 1e-12)):
        value, _ = integrate.quad(integrand, lo, hi, limit=400)
        total += value
    return total ** (1.0 / p)


def bisect_quantile(cdf, t: float, lo: float, hi: float, iters: int = 200) -> float:
    """Generalized inverse by plain bisection on a cdf callable."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < t:
            lo = mid
        else:
            hi = mid
    return hi


def grid_quantile_bruteforce(xs, ws, t: float) -> float:
    """Linear-scan generalized inverse of a step cdf."""
    acc = 0.0
    for x, w in zip(xs, ws):
        acc += w
        if acc >= t:
            return float(x)
    return float(xs[-1])


def truncnorm_frozen(mu: float, sigma: float, lower: float, upper: float):
    """scipy frozen truncated normal in standardized-bound form."""
    a = -np.inf if math.isinf(lower) else (lower - mu) / sigma
    b = np.inf if math.isinf(upper) else (upper - mu) / sigma
    return stats.truncnorm(a, b, loc=mu, scale=sigma)


def truncnorm_quantile(mu: float, sigma: float, lower: float, upper: float, t):
    """scipy's truncated-normal ppf, taken on the reflected distribution
    above t = 1/2.

    scipy inverts log Phi(x) whenever the lower bound lies below the mean,
    which loses the digits of an upper-tail level like 1 - 1e-12; reflecting
    x -> -x turns that level into the exactly representable 1 - t.
    """
    t = np.asarray(t, dtype=float)
    upper_half = t > 0.5
    direct = truncnorm_frozen(mu, sigma, lower, upper).ppf(np.where(upper_half, 0.5, t))
    mirrored = truncnorm_frozen(-mu, sigma, -upper, -lower).ppf(np.where(upper_half, 1.0 - t, 0.5))
    return np.where(upper_half, -mirrored, direct)


def truncnorm_moments_exact(mu: float, sigma: float, lower: float,
                            upper: float) -> tuple[float, float]:
    """(mean, sd) of a truncated normal from its textbook closed form in
    80-digit arithmetic.

    Double precision cannot be the oracle here: scipy's truncnorm.stats
    evaluates the same closed form and loses every digit of the sd on an
    interval 1e-3 latent sd wide far in a tail.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 80
    a = -ctx.inf if math.isinf(lower) else (ctx.mpf(lower) - mu) / sigma
    b = ctx.inf if math.isinf(upper) else (ctx.mpf(upper) - mu) / sigma
    # Mass from the tail the interval sits in, so no digits cancel.
    if a > 0:
        mass = (ctx.erfc(a / ctx.sqrt(2)) - ctx.erfc(b / ctx.sqrt(2))) / 2
    else:
        mass = (ctx.erfc(-b / ctx.sqrt(2)) - ctx.erfc(-a / ctx.sqrt(2))) / 2
    p_a = ctx.npdf(a) / mass if ctx.isfinite(a) else ctx.zero
    p_b = ctx.npdf(b) / mass if ctx.isfinite(b) else ctx.zero
    a_term = a * p_a if ctx.isfinite(a) else ctx.zero
    b_term = b * p_b if ctx.isfinite(b) else ctx.zero
    m1 = p_a - p_b
    var = 1 + a_term - b_term - m1**2
    return float(mu + sigma * m1), float(sigma * ctx.sqrt(var))


def truncnorm_pdf_cdf_exact(mu: float, sigma: float, lower: float, upper: float,
                            xs) -> tuple[np.ndarray, np.ndarray]:
    """pdf and cdf of a truncated normal at ``xs`` in 60-digit arithmetic.

    Bounds and points are standardized in doubles first, as scipy's
    truncnorm (``truncnorm_frozen``) takes them, so rounding the inputs to
    the latent scale is not counted as error. scipy itself cannot be the
    oracle: it takes each mass as a difference of two cdf values in double
    precision, which loses the digits the bounds share, 1.8e-12 of the cdf
    on [12, 12.001].
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 60
    root2 = ctx.sqrt(2)

    def mass(lo, hi):
        # From the tail the interval sits in, so no digits cancel.
        if lo > 0:
            return (ctx.erfc(lo / root2) - ctx.erfc(hi / root2)) / 2
        return (ctx.erfc(-hi / root2) - ctx.erfc(-lo / root2)) / 2

    a = -ctx.inf if math.isinf(lower) else ctx.mpf((lower - mu) / sigma)
    b = ctx.inf if math.isinf(upper) else ctx.mpf((upper - mu) / sigma)
    kept = mass(a, b)
    pdf, cdf = [], []
    for x in np.asarray(xs, dtype=float):
        z = ctx.mpf((x - mu) / sigma)
        inside = a <= z <= b
        pdf.append(float(ctx.npdf(z) / (sigma * kept)) if inside else 0.0)
        cdf.append(0.0 if z <= a else 1.0 if z >= b else float(mass(a, z) / kept))
    return np.array(pdf), np.array(cdf)


def pdf_moments_quad(pdf, lo: float, hi: float) -> tuple[float, float]:
    """(mean, sd) of a density by adaptive quadrature."""
    mass, _ = integrate.quad(pdf, lo, hi, limit=400)
    mean, _ = integrate.quad(lambda x: x * pdf(x), lo, hi, limit=400)
    mean /= mass
    var, _ = integrate.quad(lambda x: (x - mean) ** 2 * pdf(x), lo, hi, limit=400)
    return mean, math.sqrt(var / mass)


def riemann_predictive(xs, ws, ybar: float, se: float) -> float:
    """Marginal density of ybar for a grid prior, summed node by node."""
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    dens = np.exp(-0.5 * ((ybar - xs) / se) ** 2) / (se * math.sqrt(2.0 * math.pi))
    return float(np.dot(ws, dens))


def expected_w2_large_n(mu0: float, s0: float) -> float:
    """n -> inf limit of expected learning: E[sqrt((mu0-theta)^2 + s0^2)]
    over theta ~ N(mu0, s0), by quadrature."""
    def integrand(z: float) -> float:
        return math.sqrt((s0 * z) ** 2 + s0**2) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    value, _ = integrate.quad(integrand, -10.0, 10.0, limit=200)
    return value


def normal_pdf(x: float, mu: float, sigma: float) -> float:
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


class CauchyStub:
    """Heavy-tailed quantile source (no finite mean); duck-typed for wp_quantile."""

    def __init__(self, loc: float = 0.0, scale: float = 1.0) -> None:
        self.loc = loc
        self.scale = scale

    def quantile(self, t):
        t = np.asarray(t, dtype=float)
        return self.loc + self.scale * np.tan(np.pi * (t - 0.5))


class StudentTStub:
    """Student-t quantile source; df = 2 has infinite variance, df = 3 finite."""

    def __init__(self, df: float, loc: float = 0.0) -> None:
        self.df = df
        self.loc = loc

    def quantile(self, t):
        return self.loc + stats.t.ppf(np.asarray(t, dtype=float), self.df)
