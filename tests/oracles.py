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


def w2_quantile_gl4(a, b, nodes: int = 4096) -> float:
    """W2 by the quantile formula, 4-point Gauss-Legendre in each of nodes/2
    geometric panels a side, bounds 1e-12 * (0.5 / 1e-12)^(j / (nodes/2)),
    through each distribution's ``quantile``."""
    half = nodes // 2
    bounds = 1e-12 * (0.5 / 1e-12) ** (np.arange(half + 1) / half)
    g, gw = np.polynomial.legendre.leggauss(4)
    h = 0.5 * np.diff(bounds)
    t = ((bounds[:-1] + h)[:, None] + h[:, None] * g).ravel()
    weights = (h[:, None] * gw).ravel()
    total = 0.0
    for levels in (t, 1.0 - t):
        diff = (np.asarray(a.quantile(levels), dtype=float)
                - np.asarray(b.quantile(levels), dtype=float))
        total += float(np.dot(weights, diff * diff))
    return math.sqrt(total)


def transport_w2_dense(parts, ref_mu: float, ref_sd: float, panels: int = 4000) -> float:
    """W2 from Normal(ref_mu, ref_sd) to the normal mixture ``parts``, a list
    of (weight, mu, sd), as E_P[(X - T(X))^2] with T = G^-1(F_P), the 1-D
    optimal map. Each component is integrated on its own standardized scale,
    8-point Gauss-Legendre on ``panels`` equal panels of [-12, 12]; T is
    taken from the smaller tail of F_P."""
    g, gw = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-12.0, 12.0, panels + 1)
    h = 0.5 * np.diff(edges)
    z = ((edges[:-1] + h)[:, None] + h[:, None] * g).ravel()
    zw = (h[:, None] * gw).ravel() * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    total = 0.0
    for weight, mu, sd in parts:
        x = mu + sd * z
        lower = sum(w * special.ndtr((x - m) / s) for w, m, s in parts)
        upper = sum(w * special.ndtr((m - x) / s) for w, m, s in parts)
        t_map = np.where(lower <= upper,
                         ref_mu + ref_sd * special.ndtri(np.maximum(lower, 1e-300)),
                         ref_mu - ref_sd * special.ndtri(np.maximum(upper, 1e-300)))
        total += weight * float(np.dot(zw, (x - t_map) ** 2))
    return math.sqrt(total)


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

    Bounds and points are standardized in 60 digits, so rounding the inputs
    to the latent scale counts as error. scipy itself cannot be the oracle:
    it takes each mass as a difference of two cdf values in double
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

    def standardize(x):
        return (ctx.mpf(x) - mu) / sigma

    a = -ctx.inf if math.isinf(lower) else standardize(lower)
    b = ctx.inf if math.isinf(upper) else standardize(upper)
    kept = mass(a, b)
    pdf, cdf = [], []
    for x in np.asarray(xs, dtype=float):
        z = standardize(x)
        inside = a <= z <= b
        pdf.append(float(ctx.npdf(z) / (sigma * kept)) if inside else 0.0)
        cdf.append(0.0 if z <= a else 1.0 if z >= b else float(mass(a, z) / kept))
    return np.array(pdf), np.array(cdf)


def _truncnorm_log_density_mp(ctx, mu, sigma, lower, upper):
    """(a, b, log density at x = mu + sigma z as a function of z) of a
    truncated normal; a normal has infinite bounds. The log kept mass comes
    from the tail the interval sits in, so bounds far out keep their digits."""
    root2 = ctx.sqrt(2)
    a = -ctx.inf if math.isinf(lower) else (ctx.mpf(lower) - mu) / sigma
    b = ctx.inf if math.isinf(upper) else (ctx.mpf(upper) - mu) / sigma
    if a > 0:
        mass = (ctx.erfc(a / root2) - ctx.erfc(b / root2)) / 2
    else:
        mass = (ctx.erfc(-b / root2) - ctx.erfc(-a / root2)) / 2
    log_norm = ctx.log(sigma) + ctx.log(mass) + ctx.log(2 * ctx.pi) / 2
    return a, b, lambda z: -z * z / 2 - log_norm


def _truncnorm_expect_mp(ctx, sigma, a, b, log_density, f):
    """E[f(z)] for z on (a, b) where x = mu + sigma z has this log density:
    quadrature split at graded steps of 1 / max(1, |mode|) from the mode,
    where the mass sits."""
    mode = min(max(ctx.zero, a), b)
    step = 1 / max(ctx.one, abs(mode))
    points = {a, b} | {mode + sign * step * 2**k for sign in (-1, 1) for k in range(-3, 8)}
    points = sorted(x for x in points if a <= x <= b)
    return ctx.quad(lambda z: sigma * ctx.exp(log_density(z)) * f(z), points)


def truncnorm_kl_exact(p, q) -> float:
    """KL(p || q) between truncated normals, each (mu, sigma, lower,
    upper), by 50-digit quadrature of E_p[log p - log q] over p's support."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 50
    a, b, log_p = _truncnorm_log_density_mp(ctx, *p)
    _, _, log_q = _truncnorm_log_density_mp(ctx, *q)
    mu_p, sigma_p = ctx.mpf(p[0]), ctx.mpf(p[1])
    mu_q, sigma_q = ctx.mpf(q[0]), ctx.mpf(q[1])
    return float(_truncnorm_expect_mp(
        ctx, sigma_p, a, b, log_p,
        lambda z: log_p(z) - log_q((mu_p + sigma_p * z - mu_q) / sigma_q)))


def truncnorm_entropy_exact(mu: float, sigma: float, lower: float, upper: float) -> float:
    """Differential entropy -E[log density] of a truncated normal by
    50-digit quadrature."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 50
    a, b, log_density = _truncnorm_log_density_mp(ctx, mu, sigma, lower, upper)
    return float(-_truncnorm_expect_mp(ctx, ctx.mpf(sigma), a, b, log_density, log_density))


def truncnorm_log_predictive_exact(mu: float, sigma: float, lower: float, upper: float,
                                   ybar: float, se: float) -> float:
    """log of the integral over theta of a truncated normal prior's pdf
    times the Normal(ybar; theta, se) likelihood, by 30-digit quadrature on
    the latent standardized scale. Panels are graded around the product's
    peak inside the bounds, on its own width and on the decay rate there,
    so a peak pinned to a bound far out keeps its digits."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 30
    a, b, log_density = _truncnorm_log_density_mp(ctx, mu, sigma, lower, upper)
    mu, sigma, ybar, se = (ctx.mpf(v) for v in (mu, sigma, ybar, se))

    def log_product(z):
        r = (ybar - mu - sigma * z) / se
        return log_density(z) - r * r / 2 - ctx.log(se) - ctx.log(2 * ctx.pi) / 2

    # The unbounded peak of the log product, a concave quadratic, then clipped.
    peak = min(max(sigma * (ybar - mu) / (sigma**2 + se**2), a), b)
    width = se / ctx.sqrt(sigma**2 + se**2)
    slope = abs(sigma * (ybar - mu - sigma * peak) / se**2 - peak)  # of the log product
    steps = (width, 1 / max(ctx.one, slope))
    points = {a, b} | {peak + sign * h * 2**k for sign in (-1, 1) for h in steps
                       for k in range(-4, 10)}
    points = sorted(x for x in points if a <= x <= b)
    value = ctx.quad(lambda z: sigma * ctx.exp(log_product(z)), points)
    return float(ctx.log(value))


def mixture_quantile_exact(parts, t: float) -> float:
    """Quantile at level t of a mixture of normals, each part
    (weight, mu, sigma, lower) truncated below ``lower`` (-inf for none),
    as the root of its tail equation in 50-digit arithmetic.

    Levels below 1/2 solve sum w P(X <= x) = t and the rest
    sum w P(X > x) = 1 - t, so a level like 1 - 1e-12 keeps its digits.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 50
    root2 = ctx.sqrt(2)

    def sf(z):
        return ctx.erfc(z / root2) / 2

    def tail(x, upper):
        total = ctx.zero
        for w, mu, sigma, lower in parts:
            z = (x - mu) / sigma
            a = -ctx.inf if math.isinf(lower) else (ctx.mpf(lower) - mu) / sigma
            kept = sf(a)
            above = sf(max(z, a)) / kept
            total += w * (above if upper else (kept - sf(max(z, a))) / kept)
        return total

    level = ctx.mpf(t)
    if level < 0.5:
        equation = lambda x: tail(x, False) - level
    else:
        equation = lambda x: (1 - level) - tail(x, True)
    lo = ctx.mpf(min(mu - 12 * sigma for _, mu, sigma, _ in parts))
    hi = ctx.mpf(max(mu + 12 * sigma for _, mu, sigma, _ in parts))
    # Plain bisection: the equation increases in x, and 200 halvings of
    # the bracket leave far less than a double's spacing.
    for _ in range(200):
        mid = (lo + hi) / 2
        if equation(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(hi)


def normal_grid_jump_quantile(weight: float, mu: float, sigma: float, xs, ws,
                              t: float) -> float:
    """inf{x : F(x) >= t} for F = weight * Normal(mu, sigma) + (1 - weight) *
    grid(xs, ws), at a level t on one of the grid's jumps: a scan for the
    first node whose cdf reaches t in 50-digit arithmetic."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = 50
    level = ctx.mpf(t)
    below_node = ctx.zero
    for x, w in zip(xs, ws):
        normal = weight * ctx.ncdf((ctx.mpf(x) - mu) / sigma)
        if normal + (1 - weight) * below_node < level <= normal + (1 - weight) * (below_node + w):
            return float(x)
        below_node += w
    raise ValueError(f"level {t!r} is on no jump of the grid")


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
