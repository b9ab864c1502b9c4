"""One-dimensional belief distributions.

Four concrete families cover every belief object in the package: exact
normals, truncated normals parameterized by their latent normal, finite
mixtures, and discrete grid densities (probability mass on nodes). All
values are immutable after construction and every operation is pure.

Each family exposes the same method surface (``pdf``, ``cdf``,
``quantile``, ``moments``, ``support``). Methods accept scalars or numpy
arrays and return matching shapes. A draw is the quantile of a uniform:
``d.quantile(rng.random(count))``.

The truncated family is closed form on the numpy-only normal functions of
``_normal`` and tail safe: the kept mass is measured from the tail the
interval lies in, a narrow interval's mass is integrated from its bounds,
and far in a tail the moments come from the Mills-ratio continued fraction.
``_mixture_quantiles``, the one mixture-quantile solver, runs Newton on each
level's own log tail in a bisection bracket and freezes each level where it
settles, so no level's quantile depends on the rest of its call.

``dist_from_literal`` and the ``json_*`` checks beside it are the one
parser of the scenario schema: every message starts with the JSON path of
the field at fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._normal import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp
from .errors import TailMassError

__all__ = [
    "NormalDist",
    "TruncatedNormalDist",
    "MixtureDist",
    "GridDensity",
    "Distribution1D",
    "to_grid",
    "dist_from_literal",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
# Mass a grid window may clip before to_grid refuses to discretize.
GRID_TAIL_TOL = 1e-6
# Fewest nodes to_grid accepts; scenario grids and --grid-nodes are held to it.
MIN_GRID_NODES = 64
# Nodes of a grid window when neither the scenario nor --grid-nodes gives a count.
DEFAULT_GRID_NODES = 4096


_TINY = np.finfo(float).tiny  # the smallest normal double


def _root_sum_sq(w: np.ndarray, *gaps: np.ndarray) -> float:
    """sqrt(sum over gaps d of sum(w * d^2)): every W2 of quantile gaps, and
    the mixture sd.

    Where the plain sum leaves [smallest normal double, inf) and the largest
    |d| is finite and nonzero, each d is divided by the power of two at that
    |d| and the root multiplied back, so the result holds wherever it is
    itself a double; inside that range no bit moves.
    """
    def total(ds) -> float:
        with np.errstate(over="ignore"):
            return float(sum(np.dot(w, d * d) for d in ds))

    plain = total(gaps)
    if _TINY <= plain < math.inf:
        return math.sqrt(plain)
    big = max(float(np.max(np.abs(d))) for d in gaps)
    if big == 0.0 or not math.isfinite(big):
        return math.sqrt(plain)
    exp = math.frexp(big)[1]
    root = math.sqrt(total([np.ldexp(d, -exp) for d in gaps]))
    with np.errstate(over="ignore"):  # a root past the largest double reads inf
        return float(np.ldexp(root, exp))


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _restore_shape(values: np.ndarray, scalar: bool):
    return float(values[()]) if scalar else values


def _check_prob_open(t: np.ndarray) -> None:
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")


def norm_logpdf(x, mu, sigma):
    """Log density of Normal(mu, sigma) at x; broadcasts like numpy."""
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - _LOG_SQRT_2PI


@dataclass(frozen=True)
class NormalDist:
    """Normal belief with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float
    _log_mass = 0.0  # log of the kept mass Z = 1, named as on TruncatedNormalDist

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("normal parameters must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        return _restore_shape(np.exp(norm_logpdf(arr, self.mu, self.sigma)), scalar)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        return _restore_shape(ndtr((arr - self.mu) / self.sigma), scalar)

    def quantile(self, t):
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        return _restore_shape(self.mu + self.sigma * ndtri(arr), scalar)

    def _tail(self, x, upper):
        return ndtr(np.where(upper, -1.0, 1.0) * (x - self.mu) / self.sigma)

    def moments(self) -> tuple[float, float]:
        return self.mu, self.sigma

    def support(self) -> tuple[float, float]:
        return -math.inf, math.inf


# Gauss-Legendre rule for the kept mass and the moments of a truncated
# normal on intervals whose width times the largest standardized bound is at
# most _NARROW_SPAN. There the log density moves by at most ~_NARROW_SPAN + 2,
# so the rule is exact to rounding.
_NARROW_SPAN = 4.0
_NARROW_NODES, _NARROW_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _is_narrow(a, b):
    """The _NARROW_SPAN test for a <= b, where max(|a|, |b|) = max(b, -a)."""
    return (b - a) * np.maximum(1.0, np.maximum(b, -a)) <= _NARROW_SPAN


def _mills_ratio(x: float) -> float:
    """(1 - Phi(x)) / phi(x), exact to rounding for large x."""
    return _SQRT_HALF_PI * float(erfcx(x / math.sqrt(2.0)))


# From this standardized bound out the moments come from the Mills-ratio
# continued fraction, which by this depth is exact to rounding.
_FRACTION_FROM = 2.5
_FRACTION_DEPTH = 96


def _mills_fractions(x: float) -> tuple[float, float, float]:
    """M(x), 1 - x M(x) and (1 + x^2) M(x) - x for x >= _FRACTION_FROM,
    where M is the Mills ratio, each to rounding.

    With C_k = x + k / C_{k+1} (Laplace's continued fraction, M = 1 / C_1)
    the last two are 1 / (C_1 C_2) and 2 / (C_1 C_2 C_3): the differences
    that cancel to 1/x^2 and 2/x^3 of their terms are never formed."""
    c = x
    for k in range(_FRACTION_DEPTH, 3, -1):
        c = x + k / c
    c3 = x + 3.0 / c
    c2 = x + 2.0 / c3
    c1 = x + 1.0 / c2
    return 1.0 / c1, 1.0 / (c1 * c2), 2.0 / (c1 * c2 * c3)


def _log_lower_mass(lo, hi):
    """log(Phi(hi) - Phi(lo)) for lo < hi <= 0, from the lower tail."""
    log_hi, log_lo = log_ndtr(np.stack([hi, lo]))  # one call: its cost is mostly per call
    return log_hi + np.log1p(-np.exp(log_lo - log_hi))


def _log_central_mass(lo, hi):
    """log(Phi(hi) - Phi(lo)) for lo <= 0 < hi: one minus both tails."""
    below, above = ndtr(np.stack([lo, -hi]))
    return np.log1p(-below - above)


def _log_narrow_mass(lo, width):
    """log(Phi(lo + width) - Phi(lo)), narrow, by Gauss-Legendre; peak factor in logs."""
    half = 0.5 * np.asarray(width, dtype=float)
    mid = lo + half
    u = half[..., None] * _NARROW_NODES
    # Summed elementwise: a BLAS product's rounding varies with the array's size.
    total = (np.exp(-mid[..., None] * u - 0.5 * u * u) * _NARROW_WEIGHTS).sum(axis=-1)
    return np.log(half * total) - 0.5 * mid * mid - _LOG_SQRT_2PI


def _log_gauss_mass(a, b) -> np.ndarray:
    """log(Phi(b) - Phi(a)) for a <= b; arrays broadcast.

    A narrow interval is integrated directly: a difference of two cdf
    values loses the digits its bounds share, 1e-7 of the mass on
    [10, 10 + 1e-9]. A wider interval in one tail is measured from that
    tail (the upper one by symmetry), so a truncation 40 sd out keeps its
    digits instead of reading as ndtr(b) - ndtr(a) = 0; one holding the
    median subtracts both tails from 1. Intervals too far out for a double
    (log mass below -1.8e308) give -inf or nan.
    """
    # Adding zeros broadcasts at a fraction of np.broadcast_arrays' cost.
    zero = np.zeros(np.broadcast(a, b).shape)
    a, b = np.add(a, zero), np.add(b, zero)
    out = np.empty(a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        narrow = _is_narrow(a, b)
        wide = ~narrow
        left = wide & (b <= 0.0)
        right = wide & (a > 0.0)
        central = wide ^ left ^ right
        for mask, log_mass in (
                (narrow, lambda lo, hi: _log_narrow_mass(lo, hi - lo)), (left, _log_lower_mass),
                (right, lambda lo, hi: _log_lower_mass(-hi, -lo)),
                (central, _log_central_mass)):
            if np.count_nonzero(mask):
                out[mask] = log_mass(a[mask], b[mask])
    return out


@dataclass(frozen=True)
class TruncatedNormalDist:
    """Latent Normal(mu, sigma) restricted to (lower, upper) and renormalized.

    Closed form on the standardized bounds (a, b), with the kept mass
    measured by ``_log_gauss_mass``, so truncations far from the latent
    mass stay finite and accurate.
    """

    mu: float
    sigma: float
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("latent normal parameters must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not self.lower < self.upper:
            raise ValueError("lower bound must be below upper bound")
        a, b = self.std_bounds()
        log_mass = float(_log_narrow_mass(a, (self.upper - self.lower) / self.sigma)
                         if _is_narrow(a, b) else _log_gauss_mass(a, b))
        if not math.isfinite(log_mass):
            raise ValueError("latent normal carries no mass between the bounds")
        object.__setattr__(self, "_log_mass", log_mass)

    def std_bounds(self) -> tuple[float, float]:
        """Truncation bounds on the standardized latent scale."""
        return (self.lower - self.mu) / self.sigma, (self.upper - self.mu) / self.sigma

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.zeros(arr.shape)
        inside = (arr >= self.lower) & (arr <= self.upper)
        z = (arr[inside] - self.mu) / self.sigma
        out[inside] = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - self._log_mass) / self.sigma
        return _restore_shape(out, scalar)

    def _log_tail(self, x, upper):
        """log P(X > x) where ``upper`` is True, else log P(X <= x); x in the support."""
        a, b = self.std_bounds()
        z = (x - self.mu) / self.sigma
        if _is_narrow(a, b):
            # Offsets from the bounds: 1/width amplifies rounding x and a bound apart.
            width = np.where(upper, self.upper - x, x - self.lower) / self.sigma
            return _log_narrow_mass(np.where(upper, z, a), width) - self._log_mass
        return _log_gauss_mass(np.where(upper, z, a), np.where(upper, b, z)) - self._log_mass

    def _tail(self, x, upper):  # exactly 1 past the support: a mixture's flat stretches stay flat
        return np.where(np.where(upper, x <= self.lower, x >= self.upper), 1.0,
                        np.exp(self._log_tail(np.clip(x, self.lower, self.upper), upper)))

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.zeros(arr.shape)
        out[arr >= self.upper] = 1.0
        inside = (arr > self.lower) & (arr < self.upper)
        log_cdf = self._log_tail(arr[inside], False)
        # Near 1 the upper-tail complement keeps the digits.
        high = log_cdf > -0.1
        log_cdf[high] = np.log1p(-np.exp(self._log_tail(arr[inside][high], True)))
        out[inside] = np.exp(log_cdf)
        return _restore_shape(out, scalar)

    def quantile(self, t):
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        a, b = self.std_bounds()
        # Invert the lower tail below the median of the latent mass and the
        # upper tail above it, so that neither reads a tail mass off a log
        # that rounds to 0. An interval inside one tail uses that tail.
        below = (b <= 0.0) | ((a < 0.0) & (arr < 0.5))
        log_a, log_b = log_ndtr(np.array([a, -b]))  # both bounds' tails in one call
        z = ndtri_exp(np.where(below, np.logaddexp(log_a, np.log(arr) + self._log_mass),
                               np.logaddexp(log_b, np.log1p(-arr) + self._log_mass)))
        q = np.clip(self.mu + self.sigma * np.where(below, z, -z), self.lower, self.upper)
        if _is_narrow(a, b):
            # z carries eps * |z| of rounding, ulps of q far out; Newton on the
            # tail _log_tail reads in offsets from the bound gives them back.
            upper = arr >= 0.5
            goal = np.where(upper, 1.0 - arr, arr)
            with np.errstate(divide="ignore"):  # a tail of width 0, at a bound
                for _ in range(2):
                    miss = np.exp(self._log_tail(q, upper)) - goal
                    q = np.clip(q + np.where(upper, miss, -miss) / self.pdf(q),
                                self.lower, self.upper)
        return _restore_shape(q, scalar)

    def _mirrored_bounds(self) -> tuple[float, float, float]:
        """(sign, lo, hi): standardized bounds, mirrored above the latent mean (sign -1)."""
        a, b = self.std_bounds()
        return (-1.0, -b, -a) if b <= 0.0 else (1.0, a, b)

    def _tail_frame(self) -> Optional[tuple[float, float, float, float, float]]:
        """(sign, lo, log Z + lo^2 / 2, E[Y], Var[Y]) on a narrow interval, or
        on a wide one _FRACTION_FROM sd or more out; else None.
        Y = sign (X - mu) / sigma - lo is the excess over the near bound and Z
        the kept mass, so the lo^2 / 2 in log Z is never formed.

        Narrow: Gauss-Legendre in Y over the width w from the raw bounds, where
        the exponent -lo Y - Y^2 / 2 moves by at most ~_NARROW_SPAN, with
        centred sums (the closed form cancels to nothing there, a negative
        variance 35 sd out). Wide: K = Z / phi(lo) = M(lo) - rho M(hi) and
          K E[Y]   = g(lo) - rho (g(hi) + w M(hi)),
          K E[Y^2] = h(lo) - rho (h(hi) + w (2 g(hi) + w M(hi))),
        with rho = phi(hi) / phi(lo) and M, g, h from _mills_fractions. Off
        the narrow rule w hi > 4, so rho < e^-2 and neither difference cancels
        much, where the closed-form variance 1 + lo p_lo - hi p_hi - m1^2
        would carry eps * lo^2 of rounding.
        """
        sign, lo, hi = self._mirrored_bounds()
        w = (self.upper - self.lower) / self.sigma
        if _is_narrow(lo, hi):
            # The width from the raw bounds: hi - lo keeps only eps * |lo| / w
            # of its digits far from mu.
            y = 0.5 * w * (1.0 + _NARROW_NODES)
            weights = _NARROW_WEIGHTS * np.exp(-lo * y - 0.5 * y * y)
            total = weights.sum()
            weights /= total
            shift = float(weights @ y)
            return (sign, lo, math.log(0.5 * w * total) - _LOG_SQRT_2PI, shift,
                    float(weights @ (y - shift) ** 2))
        if lo < _FRACTION_FROM:
            return None
        kept, excess, excess_sq = _mills_fractions(lo)
        if hi < math.inf:
            rho = math.exp(-0.5 * w * (hi + lo))
            m_hi, g_hi, h_hi = _mills_fractions(hi)
            kept -= rho * m_hi
            excess -= rho * (g_hi + w * m_hi)
            excess_sq -= rho * (h_hi + w * (2.0 * g_hi + w * m_hi))
        shift = excess / kept
        return sign, lo, math.log(kept) - _LOG_SQRT_2PI, shift, excess_sq / kept - shift * shift

    def moments(self) -> tuple[float, float]:
        frame = self._tail_frame()
        if frame is not None:
            sign, lo, _, shift, var = frame
            return (float(self.mu + self.sigma * sign * (lo + shift)),
                    float(self.sigma * math.sqrt(var)))
        sign, lo, hi = self._mirrored_bounds()
        # Standardized densities at the bounds over the kept mass (zero at an
        # infinite bound). In a tail, Mills ratios give them to rounding;
        # exp(log density - log mass) would lose eps * lo**2 of them, 1e-7 of
        # the sd 40 sd out.
        if lo > 0.0:
            ratio = math.exp(-0.5 * (hi - lo) * (hi + lo))  # phi(hi) / phi(lo)
            kept = _mills_ratio(lo) - ratio * _mills_ratio(hi)
            p_lo, p_hi = 1.0 / kept, ratio / kept
        else:
            p_lo, p_hi = np.exp(-0.5 * np.square([lo, hi]) - _LOG_SQRT_2PI - self._log_mass)
        m1 = p_lo - p_hi
        var = 1.0
        if p_lo > 0.0:
            var += (lo - m1) * p_lo
        if p_hi > 0.0:
            var -= (hi - m1) * p_hi
        return float(self.mu + self.sigma * sign * m1), float(self.sigma * math.sqrt(var))

    def support(self) -> tuple[float, float]:
        return self.lower, self.upper


@dataclass(frozen=True)
class GridDensity:
    """Probability masses ``ws`` on strictly increasing nodes ``xs``.

    The cdf is the right-continuous step function of the masses and the
    quantile is its generalized inverse, which keeps Bayes updates and
    Wasserstein integrals exact finite sums.
    """

    xs: np.ndarray
    ws: np.ndarray

    def __post_init__(self) -> None:
        xs = np.array(self.xs, dtype=float)
        ws = np.array(self.ws, dtype=float)
        if xs.ndim != 1 or ws.ndim != 1 or xs.size != ws.size:
            raise ValueError("xs and ws must be 1-D arrays of equal length")
        if xs.size < 2:
            raise ValueError("a grid needs at least two nodes")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ws)):
            raise ValueError("grid nodes and masses must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(ws < 0.0):
            raise ValueError("grid masses must be nonnegative")
        total = ws.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"grid masses must sum to 1 (got {total!r})")
        xs.setflags(write=False)
        ws.setflags(write=False)
        cum = np.cumsum(ws)
        cum.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)
        object.__setattr__(self, "_cum", cum)

    # ndarray fields break the generated comparison, so compare by content.
    def __eq__(self, other) -> bool:
        if not isinstance(other, GridDensity):
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.ws, other.ws)

    __hash__ = None

    def cell_widths(self) -> np.ndarray:
        """Quadrature width attributed to each node (half cells at the ends)."""
        widths = np.empty_like(self.xs)
        widths[1:-1] = 0.5 * (self.xs[2:] - self.xs[:-2])
        widths[0] = 0.5 * (self.xs[1] - self.xs[0])
        widths[-1] = 0.5 * (self.xs[-1] - self.xs[-2])
        return widths

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        edges = 0.5 * (self.xs[1:] + self.xs[:-1])
        idx = np.searchsorted(edges, arr, side="left")
        dens = self.ws[idx] / self.cell_widths()[idx]
        inside = (arr >= self.xs[0]) & (arr <= self.xs[-1])
        return _restore_shape(np.where(inside, dens, 0.0), scalar)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        idx = np.searchsorted(self.xs, arr, side="right")
        cum = np.concatenate(([0.0], self._cum))
        return _restore_shape(np.minimum(cum[idx], 1.0), scalar)

    def _tail(self, x, upper):
        lower = self.cdf(x)
        return np.where(upper, 1.0 - lower, lower)

    def quantile(self, t):
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        idx = np.searchsorted(self._cum, arr, side="left")
        idx = np.minimum(idx, self.xs.size - 1)
        return _restore_shape(self.xs[idx], scalar)

    def moments(self) -> tuple[float, float]:
        mean = float(np.dot(self.ws, self.xs))
        return mean, _root_sum_sq(self.ws, self.xs - mean)

    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


MixtureComponent = Union[NormalDist, TruncatedNormalDist, GridDensity]

# Mixture-quantile solver (MixtureDist.quantile, the transport kernel's breaks).
_TABLE_POINTS = 256
_MIN_SWEEPS = 2
_MAX_SWEEPS = 200  # Newton takes 2 to 4; bisection to a jump, log2(cell / 1e-14) or so
# Table logs are clipped to +/- this; every target log tail lies far inside.
_LOG_CLIP = 1000.0
# nextafter(0, 1) and 1 - 2^-53: MixtureDist.quantile's table spans these levels.
_EXTREME_LEVELS = np.array([5e-324, 1.0 - 2.0**-53])


@np.errstate(divide="ignore")
def _mixture_quantiles(tails, t, xs) -> np.ndarray:
    """Quantiles at levels t of each row's distribution, shape (rows, t.size).

    ``tails(x, upper, slope)`` gives P(X > x) where ``upper`` and P(X <= x)
    elsewhere, without cancellation, for x of shape (rows, m), and if ``slope``
    the slope of P(X <= x) (0 on a grid's steps). Levels below 1/2 solve
    log P(X <= q) = log t, the rest log P(X > q) = log(1 - t). The log tails at
    each row's table points ``xs`` (rows, points; increasing along a row) start
    and bracket each level, and a level outside its row's table ends at that
    end. Newton on the log tail polishes the rest. A step that leaves the
    bracket or is not half the last (on a jump, say) bisects it, unless the
    level has settled: a step within 1e-14 of q, relative, where the cdf rises.
    Others end at the bracket's upper end, inf{x : F(x) >= t}, once it is 1e-14
    tight. A level is frozen in the sweep where it ends, so its quantile
    depends on its own level and row alone."""
    rows, points = xs.shape
    upper = t >= 0.5
    sign = np.where(upper, -1.0, 1.0)
    goal = np.where(upper, -np.log(1.0 - t), np.log(t))
    # Rows 2r, 2r + 1: log P(X <= x), -log P(X > x); both increase, as sign*log - goal.
    table = np.stack([np.log(tails(xs, False, False)[0]),
                      -np.log(tails(xs, True, False)[0])], axis=1)
    table = np.clip(table, -_LOG_CLIP, _LOG_CLIP).ravel()
    # Level (r, c) searches row 2r + upper[c]. Complex keys order by the real
    # part, the row, first and exactly, where a shift per row would round.
    row = 2 * np.arange(rows)[:, None] + upper
    j = np.searchsorted(np.arange(table.size) // points + 1j * table, row + 1j * goal)
    band = row * points
    j = np.clip(j, band + 1, band + points - 1)
    below = table[j - 1]
    rise = table[j] - below
    frac = np.divide(goal - below, rise, out=rise, where=rise > 0.0)
    lo, hi = (np.take_along_axis(xs, j - band - end, axis=1) for end in (1, 0))
    q = lo + (hi - lo) * np.clip(frac, 0.0, 1.0)
    out = np.where(goal < table[band], lo, hi)  # outside the table: its first or last point
    done = (goal < table[band]) | (goal > table[band + points - 1])
    del table, row, band, j, below, rise, frac  # before the sweeps' own temporaries
    step = np.inf

    for sweep in range(1, _MAX_SWEEPS + 1):
        mass, slope = tails(q, upper, True)
        settled = slope > 0.0  # not flat: a flat stretch's zero step misses its left end
        np.maximum(mass, 1e-300, out=mass)
        last, step = step, sign * np.log(mass) - goal  # the residual, then in place the step
        under = step < 0.0
        np.divide(np.multiply(step, mass, out=step), np.maximum(slope, 1e-300), out=step)
        newton = q - step
        settled &= np.abs(step) <= 1e-14 * (1.0 + 2.0 * np.abs(q))
        np.copyto(lo, q, where=under)
        np.copyto(hi, q, where=~under)
        q = np.clip(newton, lo, hi)
        stray = ~settled & ((newton <= lo) | (newton >= hi) | (np.abs(step) > 0.5 * np.abs(last)))
        if stray.any():
            q = np.where(stray, 0.5 * (lo + hi), q)
        if sweep >= _MIN_SWEEPS:  # a settled q is Newton's step: the new bracket clips nothing
            end = ~done & (settled | (hi - lo <= 1e-14 * (1.0 + np.abs(lo) + np.abs(hi))))
            np.copyto(out, np.where(settled, q, hi), where=end)
            done |= end
            if done.all():
                return out
        del mass, slope, newton, last  # before the next sweep's temporaries
    raise ArithmeticError(f"mixture quantile solver did not settle within {_MAX_SWEEPS} sweeps")


@dataclass(frozen=True)
class MixtureDist:
    """Finite mixture of component beliefs with positive weights summing to 1.

    Nested mixtures are flattened at construction (weights multiply), so
    components are always leaf distributions.
    """

    components: tuple[tuple[float, MixtureComponent], ...]

    def __post_init__(self) -> None:
        flat: list[tuple[float, MixtureComponent]] = []
        for entry in self.components:
            try:
                weight, comp = entry
            except (TypeError, ValueError):
                raise ValueError("components must be (weight, distribution) pairs") from None
            weight = float(weight)
            if weight <= 0.0 or not math.isfinite(weight):
                raise ValueError("mixture weights must be positive and finite")
            if isinstance(comp, MixtureDist):
                flat.extend((weight * w, c) for w, c in comp.components)
            elif isinstance(comp, (NormalDist, TruncatedNormalDist, GridDensity)):
                flat.append((weight, comp))
            else:
                raise ValueError(f"unsupported mixture component type {type(comp).__name__}")
        if not flat:
            raise ValueError("a mixture needs at least one component")
        total = math.fsum(w for w, _ in flat)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "components", tuple(flat))

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])

    def pdf(self, x):
        arr, scalar = _as_float_array(x)
        acc = np.zeros_like(arr)
        for w, comp in self.components:
            acc = acc + w * comp.pdf(arr)
        return _restore_shape(acc, scalar)

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        acc = np.zeros_like(arr)
        for w, comp in self.components:
            acc = acc + w * comp.cdf(arr)
        return _restore_shape(acc, scalar)

    def quantile(self, t):
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        ends = np.array([comp.quantile(_EXTREME_LEVELS) for _, comp in self.components])
        xs = np.linspace(ends[:, 0].min(), ends[:, 1].max(), _TABLE_POINTS)[None, :]

        def tails(x, upper, slope):  # each family's _tail: P(X > x) where upper, else P(X <= x)
            mass = sum(w * comp._tail(x, upper) for w, comp in self.components)
            return mass, slope and sum(w * comp.pdf(x) for w, comp in self.components
                                       if not isinstance(comp, GridDensity))
        q = _mixture_quantiles(tails, arr.ravel(), xs)
        return _restore_shape(q.reshape(arr.shape), scalar)

    def moments(self) -> tuple[float, float]:
        ws = self.weights()
        stats_ = [comp.moments() for _, comp in self.components]
        means = np.array([m for m, _ in stats_])
        sds = np.array([s for _, s in stats_])
        mean = float(np.dot(ws, means))
        # Law of total variance over the component label.
        return mean, _root_sum_sq(ws, sds, means - mean)

    def support(self) -> tuple[float, float]:
        los, his = zip(*(comp.support() for _, comp in self.components))
        return min(los), max(his)


Distribution1D = Union[NormalDist, TruncatedNormalDist, MixtureDist, GridDensity]


def to_grid(d: Distribution1D, lo: float, hi: float,
            nodes: int = DEFAULT_GRID_NODES) -> GridDensity:
    """Discretize ``d`` onto ``nodes`` equispaced points of [lo, hi].

    Masses are density times trapezoid cell width, renormalized. Raises
    TailMassError when ``d`` puts more than 1e-6 mass outside the window.
    A GridDensity input is returned unchanged when the window covers it.
    """
    lo = float(lo)
    hi = float(hi)
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("grid window requires finite lo < hi")
    if int(nodes) < MIN_GRID_NODES:
        raise ValueError(f"grid discretization needs at least {MIN_GRID_NODES} nodes")
    if isinstance(d, GridDensity):
        inside = (d.xs >= lo) & (d.xs <= hi)
        clipped = float(d.ws[~inside].sum())
        if clipped > GRID_TAIL_TOL:
            raise TailMassError(
                f"grid window [{lo:g}, {hi:g}] clips mass {clipped:.3g} from the density"
            )
        if inside.all():
            return d
        kept = d.ws[inside]
        if kept.size < 2:
            raise ValueError(f"grid window [{lo:g}, {hi:g}] keeps {kept.size} of the "
                             f"density's nodes; a grid needs at least two")
        return GridDensity(d.xs[inside], kept / kept.sum())
    outside = 1.0 - (d.cdf(hi) - d.cdf(lo))
    if outside > GRID_TAIL_TOL:
        raise TailMassError(
            f"window [{lo:g}, {hi:g}] leaves mass {outside:.3g} outside "
            f"(budget {GRID_TAIL_TOL:g})"
        )
    xs = np.linspace(lo, hi, int(nodes))
    h = xs[1] - xs[0]
    widths = np.full(xs.size, h)
    widths[0] = widths[-1] = 0.5 * h
    raw = d.pdf(xs) * widths
    total = raw.sum()
    if not (total > 0.0):
        raise TailMassError(f"density vanished everywhere on [{lo:g}, {hi:g}]")
    return GridDensity(xs, raw / total)


def dist_from_literal(obj) -> Distribution1D:
    """Parse a distribution's tagged scenario-file literal.

    Raises ValueError whose message starts with the offending field's path,
    ``literal.components[1].dist.sigma: expected a number`` for instance."""
    return _dist_at(obj, "literal")


# Checks on decoded JSON, shared with the scenario parser. Each raises a
# ValueError whose message starts with the path of the value at fault.
def json_object(value, path: str, allowed=None, required=()) -> dict:
    """``value`` as a JSON object holding every ``required`` key, and no key
    outside ``allowed`` unless that is None."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = () if allowed is None else sorted(map(str, set(value) - set(allowed)))
    if unknown:
        raise ValueError(f"{path}: unknown keys {', '.join(unknown)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{path}.{key}: missing")
    return value


def json_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the largest double
        raise ValueError(f"{path}: expected a number within the range of a double") from None


def json_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: expected an integer")
    return value


def json_list(value, path: str, item=None) -> list:
    """``value`` as a list, each entry checked by ``item(entry, path[i])`` if given."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list")
    return value if item is None else [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def at_path(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with ``path`` in front of its ValueError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


_LITERAL_FIELDS = {  # type tag: required fields, then optional ones
    "normal": (("mu", "sigma"), ()),
    "trunc_normal": (("mu", "sigma"), ("lower", "upper")),
    "mixture": (("components",), ()),
    "grid": (("xs", "ws"), ()),
}


def _dist_at(obj, path: str) -> Distribution1D:
    """:func:`dist_from_literal` for the literal at ``path`` of a JSON document."""
    kind = json_object(obj, path, required=("type",))["type"]
    if not isinstance(kind, str) or kind not in _LITERAL_FIELDS:
        raise ValueError(f"{path}.type: must be one of {', '.join(_LITERAL_FIELDS)}")
    required, optional = _LITERAL_FIELDS[kind]
    json_object(obj, path, {"type", *required, *optional}, required)
    if kind == "mixture":
        comps = []
        for i, entry in enumerate(json_list(obj["components"], f"{path}.components")):
            where = f"{path}.components[{i}]"
            json_object(entry, where, ("weight", "dist"), ("weight", "dist"))
            comps.append((json_number(entry["weight"], f"{where}.weight"),
                          _dist_at(entry["dist"], f"{where}.dist")))
        return at_path(path, MixtureDist, tuple(comps))
    if kind == "grid":
        return at_path(path, GridDensity, *(json_list(obj[k], f"{path}.{k}", json_number)
                                            for k in ("xs", "ws")))
    fields = {k: json_number(v, f"{path}.{k}") for k, v in obj.items() if k != "type"}
    return at_path(path, NormalDist if kind == "normal" else TruncatedNormalDist, **fields)
