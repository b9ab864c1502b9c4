"""Standard-normal special functions on numpy alone.

``ndtr``, ``log_ndtr``, ``ndtri``, ``ndtri_exp`` and ``erfcx`` take
scalars or arrays and are tail safe: each keeps its relative digits as
far out as a double reaches, and each returns the customary values at
infinities and at the ends of its domain.

Phi and erfcx use the rational erfc forms of Cody (1969, Math. Comp. 23)
as tabulated in Moshier's Cephes library (1989, ndtr.c), each on its own
range of t = |z| / sqrt(2): erf(t) = t T(t^2) / U(t^2) below 1,
erfc(t) = exp(-t^2) P(t) / Q(t) from 1 to 8, and
erfc(t) = exp(-t^2) R(1/t) / S(1/t) from 8 up (Cephes' R(t) / S(t) divided
through by t^6), and from t = 100 the asymptotic series. Every Cephes
coefficient is positive, so no evaluation cancels. Phi^-1 is Wichura's
AS241 (Appl. Statist. 37, 1988), within about three ulps as evaluated in
doubles; near the median one Newton step on this module's erf takes it
to within two.

Each rational is Horner's rule in place, on numerator and denominator at
once, so every element gets the same IEEE operations whatever array it
sits in: a power matrix times the coefficients through BLAS gave some
elements other bits by their position (and, 10^4 columns wide,
page-faulted on every call). The range most points of the transport
kernel fall in is evaluated over the whole array, with the points of other
ranges clipped into it so that it stays finite, and only those points are
then replaced, on masked subsets: no block is copied out and back.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "log_ndtr", "ndtri", "ndtri_exp", "erfcx"]

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_HALF_SQRT_PI = 0.5 * _SQRT_PI
_LOG_HALF = math.log(0.5)


def _stacked(num, den):
    """A (numerator, denominator) pair, coefficients by increasing power, as
    one column of both per power: (2, 1) arrays for ``_rational``. The
    shorter is padded with zero top coefficients: 0 x + c is c exactly, so
    the padding changes no bit."""
    n = max(len(num), len(den))
    both = np.array([list(c) + [0.0] * (n - len(c)) for c in (num, den)])
    return tuple(both[:, k:k + 1] for k in range(n))


# Each table is (numerator, denominator), coefficients by increasing power.
# erf(t) = t T(s) / U(s), s = t^2, for 0 <= t < 1.
_ERF = _stacked(
    (5.55923013010394962768e4, 7.00332514112805075473e3, 2.23200534594684319226e3,
     9.00260197203842689217e1, 9.60497373987051638749e0),
    (4.92673942608635921086e4, 2.26290000613890934246e4, 4.59432382970980127987e3,
     5.21357949780152679795e2, 3.35617141647503099647e1, 1.0),
)
# erfcx(t) = exp(t^2) erfc(t) = P(t) / Q(t) for 1 <= t < 8.
_ERFCX_MID = _stacked(
    (5.57535335369399327526e2, 1.02755188689515710272e3, 9.34528527171957607540e2,
     5.26445194995477358631e2, 1.96520832956077098242e2, 4.86371970985681366614e1,
     7.46321056442269912687e0, 5.64189564831068821977e-1, 2.46196981473530512524e-10),
    (5.57535340817727675546e2, 1.65666309194161350182e3, 2.24633760818710981792e3,
     1.82390916687909736289e3, 9.75708501743205489753e2, 3.54937778887819891062e2,
     8.67072140885989742329e1, 1.32281951154744992508e1, 1.0),
)
# erfcx(t) = R(u) / S(u), u = 1/t, for t >= 8.
_ERFCX_TAIL = _stacked(
    (0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
    (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0),
)
# erfcx(t) = S(v) / (sqrt(pi) t), v = 1/t^2, for t >= _ASYMPTOTIC: the
# asymptotic series, where Cephes' R/S (fit up to t = 26.6) drifts to 2e-15.
_ASYMPTOTIC = 100.0
_ERFCX_SERIES = _stacked((1.0, -0.5, 0.75, -1.875, 6.5625), (1.0,))
# Wichura's AS241 (PPND16; Appl. Statist. 37, 1988) for Phi^-1(p), p <= 1/2:
# x = q A(r) / B(r) with q = p - 1/2, r = 0.180625 - q^2 from _P_CENTRAL up;
# below it x = -C(r - 1.6) / D(r - 1.6) with r = sqrt(-log p) up to 5, and
# x = -E(r - 5) / F(r - 5) beyond. Each is good to about 1e-16.
_P_CENTRAL = 0.075
_AS241_CENTRAL = _stacked(
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR = _stacked(
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = _stacked(
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)
# From here to 1/2, 1/2 - p is exact (Sterbenz), and one Newton step on
# Phi(x) - p takes AS241's three ulps near the median to one or two.
_P_REFINE = 0.25
# Below this log level Phi^-1 solves log Phi(x) = y by Newton: AS241 is fit
# down to p = 1e-300, and exp(y) would be subnormal not far below it.
_LOG_NEWTON_BELOW = -700.0
_LOG_NEWTON_ITERATIONS = 4


def _rational(x, table):
    """num(x) / den(x) for a ``_stacked`` table, elementwise: Horner's rule
    on both at once, one (2, n) array, half the ufunc calls of two passes."""
    flat = x.reshape(1, -1)
    out = flat * table[-1]
    for c in table[-2:0:-1]:
        out += c
        out *= flat
    out += table[0]
    return np.divide(out[0], out[1], out=out[0]).reshape(x.shape)


def _erf_small(t):
    """erf(t) for |t| < 1."""
    return t * _rational(t * t, _ERF)


def _fill(out, mask, f, *args):
    """out[mask] = f(*(a[mask] for a in args)); nothing to do when no element
    is masked, which spares an empty array its dozens of ufunc calls."""
    if mask.any():
        out[mask] = f(*(a[mask] for a in args))


def _erfcx_tail(t):
    """exp(t^2) erfc(t) for t >= 8: Cephes' R/S in 1/t, and the asymptotic
    series from _ASYMPTOTIC up."""
    u = 1.0 / t
    out = _rational(u, _ERFCX_TAIL)
    _fill(out, t >= _ASYMPTOTIC,
          lambda uf, tf: _rational(uf * uf, _ERFCX_SERIES) / (_SQRT_PI * tf), u, t)
    return out


def _erfcx_big(t):
    """exp(t^2) erfc(t) for t >= 1 (or nan): the 1 <= t < 8 rational over the
    whole array (t clipped at 8, which keeps it finite), then the tail form
    on the t >= 8 subset."""
    out = _rational(np.minimum(t, 8.0), _ERFCX_MID)
    _fill(out, t >= 8.0, _erfcx_tail, t)
    return out


def lower_tail(a, e):
    """Phi(-a) for a >= 0 (or nan), given e = exp(-a^2 / 2): a caller that
    also needs the density, e / sqrt(2 pi), computes e once for both."""
    t = a * _SQRT_HALF
    out = _erfcx_big(np.maximum(t, 1.0))  # most of the kernel's points; below 1, replaced
    out *= e
    out *= 0.5
    _fill(out, t < 1.0, lambda ts: 0.5 - 0.5 * _erf_small(ts), t)
    return out


def _as_array(x):
    """x as a float array of at least one dimension (the rationals work in
    place, which a 0-d array does not allow), and whether x was a scalar."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _restore(values, scalar):
    return values[0] if scalar else values


def ndtr(z):
    """Phi(z), the standard normal cdf; the smaller tail keeps every digit."""
    z, scalar = _as_array(z)
    a = np.abs(z)
    c = np.minimum(a, 40.0)  # exp(-800) is already 0, and a * a may overflow
    tail = lower_tail(a, np.exp(-0.5 * c * c))
    return _restore(np.where(z > 0.0, 1.0 - tail, tail), scalar)


def erfcx(x):
    """exp(x^2) erfc(x); inf below x = -26.6, where exp(x^2) overflows."""
    x, scalar = _as_array(x)
    t = np.abs(x)
    out = _erfcx_big(np.maximum(t, 1.0))  # from t = 1 up; below 1, replaced
    _fill(out, t < 1.0, lambda ts: np.exp(ts * ts) * (1.0 - _erf_small(ts)), t)
    with np.errstate(over="ignore"):
        _fill(out, x < 0.0, lambda xn, pos: 2.0 * np.exp(xn * xn) - pos, x, out)
    return _restore(out, scalar)


def _log_lower_tail(a):
    """log Phi(-a) for a >= 0 (or nan), finite where Phi(-a) underflows:
    log(erfcx(t) / 2) - t^2 with t = a / sqrt(2) from t = 1 out."""
    t = a * _SQRT_HALF
    out = _erfcx_big(np.maximum(t, 1.0))
    out *= 0.5
    with np.errstate(over="ignore", divide="ignore"):  # -inf at a = inf
        np.log(out, out=out)
        out -= t * t
    _fill(out, t < 1.0, lambda ts: np.log(0.5 - 0.5 * _erf_small(ts)), t)
    return out


def log_ndtr(z):
    """log Phi(z), finite as far into the lower tail as z^2 is."""
    z, scalar = _as_array(z)
    log_tail = _log_lower_tail(np.abs(z))
    return _restore(np.where(z < 0.0, log_tail, np.log1p(-np.exp(log_tail))), scalar)


def _ndtri_log_newton(y):
    """Phi^-1(exp(y)) for y far below 0: Newton on log Phi(-sqrt(2) t) = y,
    that is log(erfcx(t) / 2) - t^2 = y, from t^2 = -y - log(-2y) / 2 -
    log(2 pi) / 2. Each step is t += residual * sqrt(pi) erfcx(t) / 2."""
    t = np.sqrt(-y - 0.5 * (math.log(2.0) + np.log(-y)) - 0.5 * math.log(2.0 * math.pi))
    for _ in range(_LOG_NEWTON_ITERATIONS):
        r = _erfcx_big(t)
        t = t + (np.log(0.5 * r) - t * t - y) * (_HALF_SQRT_PI * r)
    return t * -math.sqrt(2.0)


def _ndtri_central(p):
    """Phi^-1(p) for _P_CENTRAL <= p <= 1/2 (or an ulp or two above): AS241,
    then from _P_REFINE up one Newton step on the residual (1/2 - p) -
    erf(-x / sqrt(2)) / 2, which keeps x's relative digits near 0."""
    q = p - 0.5
    x = q * _rational(0.180625 - q * q, _AS241_CENTRAL)
    u = ((0.5 - p) - 0.5 * _erf_small(x * -_SQRT_HALF)) * (_SQRT_2PI * np.exp(0.5 * x * x))
    return np.where(p >= _P_REFINE, x - u, x)


def _ndtri_far(r, log_p):
    """Phi^-1(p) for r = sqrt(-log p) > 5: AS241, and Newton on log Phi
    below log p = _LOG_NEWTON_BELOW (r > 26.5). Clipping r at 27 changes
    only those levels, whose rational it keeps finite and is discarded."""
    x = -_rational(np.minimum(r, 27.0) - 5.0, _AS241_FAR)
    _fill(x, log_p < _LOG_NEWTON_BELOW, _ndtri_log_newton, log_p)
    return x


def _ndtri_lower(p, log_p):
    """Phi^-1(p) for 0 <= p <= 1/2 (an ulp or two above is fine), given p and
    log p. Only the central range reads p, so p may underflow to 0 where
    log p is finite."""
    r = np.sqrt(-np.minimum(log_p, 0.0))
    x = -_rational(np.minimum(r, 5.0) - 1.6, _AS241_NEAR)  # most levels; the rest replaced
    _fill(x, r > 5.0, _ndtri_far, r, log_p)
    _fill(x, p >= _P_CENTRAL, _ndtri_central, p)
    return x


def ndtri_lower(p):
    """Phi^-1(p) for 0 < p <= 1/2 (an ulp or two above is fine): the lower side alone."""
    p = np.asarray(p, dtype=float)
    return _ndtri_lower(p, np.log(p))


def ndtri(p):
    """Phi^-1(p); -inf at 0, inf at 1, nan outside [0, 1]."""
    p, scalar = _as_array(p)
    upper = p > 0.5
    side = np.where(upper, 1.0 - p, p)  # 1 - p is exact above 1/2
    x = np.full(p.shape, np.nan)
    _fill(x, (side > 0.0) & (side <= 0.5), lambda sp: _ndtri_lower(sp, np.log(sp)), side)
    x[side == 0.0] = -np.inf
    return _restore(np.where(upper, -x, x), scalar)


def ndtri_exp(y):
    """Phi^-1(exp(y)) for y <= 0; -inf at -inf, inf at 0, nan above 0."""
    y, scalar = _as_array(y)
    out = np.full(y.shape, np.nan)
    _fill(out, (y > _LOG_HALF) & (y <= 0.0), lambda ya: -ndtri(-np.expm1(ya)), y)
    _fill(out, np.isfinite(y) & (y <= _LOG_HALF), lambda ym: _ndtri_lower(np.exp(ym), ym), y)
    out[y == -np.inf] = -np.inf
    return _restore(out, scalar)
