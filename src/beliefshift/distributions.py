"""One-dimensional belief distributions.

Four concrete families cover every belief object in the package: exact
normals, truncated normals parameterized by their latent normal, finite
mixtures, and discrete grid densities (probability mass on nodes). All
values are immutable after construction and every operation is pure;
sampling takes a caller-owned generator.

Each family exposes the same method surface (``pdf``, ``cdf``,
``quantile``, ``sample``, ``moments``, ``support``); the module-level
functions of the same names are thin dispatch wrappers. Methods accept
scalars or numpy arrays and return matching shapes.

The truncated family is closed form on ``scipy.special`` alone and tail
safe: the kept mass is measured from the tail the interval lies in, so a
truncation 40 latent sd from the mass keeps its digits, and a narrow
interval's mass is integrated directly. Importing it costs only numpy:
``scipy.special`` is imported by the functions that evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import TailMassError

__all__ = [
    "NormalDist",
    "TruncatedNormalDist",
    "MixtureDist",
    "GridDensity",
    "Distribution1D",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "moments",
    "to_grid",
    "dist_from_literal",
    "dist_to_literal",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
# Mass a grid window may clip before to_grid refuses to discretize.
GRID_TAIL_TOL = 1e-6
# Fewest nodes to_grid accepts; scenario grids and --grid-nodes are held to it.
MIN_GRID_NODES = 64


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
        from scipy import special
        arr, scalar = _as_float_array(x)
        return _restore_shape(special.ndtr((arr - self.mu) / self.sigma), scalar)

    def quantile(self, t):
        from scipy import special
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        return _restore_shape(self.mu + self.sigma * special.ndtri(arr), scalar)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=int(count))

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
    from scipy import special
    return _SQRT_HALF_PI * float(special.erfcx(x / math.sqrt(2.0)))


def _log_lower_mass(lo, hi):
    """log(Phi(hi) - Phi(lo)) for lo < hi <= 0, from the lower tail."""
    from scipy import special
    log_hi = special.log_ndtr(hi)
    return log_hi + np.log1p(-np.exp(special.log_ndtr(lo) - log_hi))


def _log_narrow_mass(lo, hi):
    """log(Phi(hi) - Phi(lo)) for 1-D arrays of narrow intervals, by
    Gauss-Legendre around each midpoint with the peak factor in logs."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = half[:, None] * _NARROW_NODES
    total = np.exp(-mid[:, None] * u - 0.5 * u * u) @ _NARROW_WEIGHTS
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
    from scipy import special
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
                (narrow, _log_narrow_mass), (left, _log_lower_mass),
                (right, lambda lo, hi: _log_lower_mass(-hi, -lo)),
                (central, lambda lo, hi: np.log1p(-special.ndtr(lo) - special.ndtr(-hi)))):
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
        log_mass = float(_log_gauss_mass(*self.std_bounds()))
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

    def cdf(self, x):
        arr, scalar = _as_float_array(x)
        out = np.zeros(arr.shape)
        out[arr >= self.upper] = 1.0
        inside = (arr > self.lower) & (arr < self.upper)
        a, b = self.std_bounds()
        z = (arr[inside] - self.mu) / self.sigma
        log_cdf = _log_gauss_mass(a, z) - self._log_mass
        # Near 1 the upper-tail complement keeps the digits.
        high = log_cdf > -0.1
        log_cdf[high] = np.log1p(-np.exp(_log_gauss_mass(z[high], b) - self._log_mass))
        out[inside] = np.exp(log_cdf)
        return _restore_shape(out, scalar)

    def quantile(self, t):
        from scipy import special
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        a, b = self.std_bounds()
        # Invert the lower tail below the median of the latent mass and the
        # upper tail above it, so that neither reads a tail mass off a log
        # that rounds to 0. An interval inside one tail uses that tail.
        from_below = (b <= 0.0) | ((a < 0.0) & (arr < 0.5))
        z = np.where(
            from_below,
            special.ndtri_exp(np.logaddexp(special.log_ndtr(a), np.log(arr) + self._log_mass)),
            -special.ndtri_exp(np.logaddexp(special.log_ndtr(-b), np.log1p(-arr) + self._log_mass)),
        )
        q = np.clip(self.mu + self.sigma * z, self.lower, self.upper)
        return _restore_shape(q, scalar)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.quantile(rng.uniform(size=int(count)))

    def moments(self) -> tuple[float, float]:
        a, b = self.std_bounds()
        # Mirror an interval below the latent mean to above it; the mean flips.
        sign = -1.0 if b <= 0.0 else 1.0
        lo, hi = (-b, -a) if sign < 0.0 else (a, b)
        if _is_narrow(lo, hi):
            # The closed form cancels to nothing on a narrow interval (a
            # negative variance 35 sd out); Gauss-Legendre with centred
            # sums keeps every digit.
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            u = half * _NARROW_NODES
            log_w = -mid * u - 0.5 * u * u
            w = _NARROW_WEIGHTS * np.exp(log_w - log_w.max())
            w /= w.sum()
            shift = float(w @ u)
            m1 = mid + shift
            var = float(w @ (u - shift) ** 2)
        else:
            # Standardized densities at the bounds over the kept mass (zero
            # at an infinite bound). In a tail, Mills ratios give them to
            # rounding; exp(log density - log mass) would lose eps * lo**2
            # of them, 1e-7 of the sd 40 sd out.
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

    def quantile(self, t):
        arr, scalar = _as_float_array(t)
        _check_prob_open(arr)
        idx = np.searchsorted(self._cum, arr, side="left")
        idx = np.minimum(idx, self.xs.size - 1)
        return _restore_shape(self.xs[idx], scalar)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        p = self.ws / self.ws.sum()
        idx = rng.choice(self.xs.size, size=int(count), p=p)
        return self.xs[idx]

    def moments(self) -> tuple[float, float]:
        mean = float(np.dot(self.ws, self.xs))
        var = float(np.dot(self.ws, (self.xs - mean) ** 2))
        return mean, math.sqrt(max(var, 0.0))

    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


MixtureComponent = Union[NormalDist, TruncatedNormalDist, GridDensity]


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
        flat = np.atleast_1d(arr)
        comp_q = np.stack([np.atleast_1d(comp.quantile(flat)) for _, comp in self.components])
        # The mixture quantile is bracketed by the extreme component quantiles.
        lo = comp_q.min(axis=0)
        hi = comp_q.max(axis=0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < flat
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo <= 1e-14 * (1.0 + np.abs(lo) + np.abs(hi))):
                break
        # hi keeps cdf(hi) >= t, matching the generalized inverse convention.
        return _restore_shape(hi.reshape(arr.shape), scalar)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        count = int(count)
        idx = rng.choice(len(self.components), size=count, p=self.weights())
        out = np.empty(count, dtype=float)
        for k, (_, comp) in enumerate(self.components):
            mask = idx == k
            hits = int(mask.sum())
            if hits:
                out[mask] = comp.sample(rng, hits)
        return out

    def moments(self) -> tuple[float, float]:
        ws = self.weights()
        stats_ = [comp.moments() for _, comp in self.components]
        means = np.array([m for m, _ in stats_])
        sds = np.array([s for _, s in stats_])
        mean = float(np.dot(ws, means))
        # Law of total variance over the component label.
        var = float(np.dot(ws, sds**2) + np.dot(ws, (means - mean) ** 2))
        return mean, math.sqrt(max(var, 0.0))

    def support(self) -> tuple[float, float]:
        los, his = zip(*(comp.support() for _, comp in self.components))
        return min(los), max(his)


Distribution1D = Union[NormalDist, TruncatedNormalDist, MixtureDist, GridDensity]


def pdf(d: Distribution1D, x):
    """Density at ``x`` (mass over cell width for grids); zero off-support."""
    return d.pdf(x)


def cdf(d: Distribution1D, x):
    """P(X <= x)."""
    return d.cdf(x)


def quantile(d: Distribution1D, t):
    """Generalized inverse cdf: inf{x : cdf(x) >= t} for t in (0, 1)."""
    return d.quantile(t)


def sample(d: Distribution1D, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` values; deterministic given the generator state."""
    return d.sample(rng, count)


def moments(d: Distribution1D) -> tuple[float, float]:
    """(mean, sd); exact for normal/mixture/grid, closed form for truncated."""
    return d.moments()


def to_grid(d: Distribution1D, lo: float, hi: float, nodes: int = 4096) -> GridDensity:
    """Discretize ``d`` onto ``nodes`` equispaced points of [lo, hi].

    Masses are density times trapezoid cell width, renormalized. Raises
    TailMassError when ``d`` puts more than 1e-6 mass outside the window.
    A GridDensity input is returned unchanged when the window covers it.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError("grid window requires lo < hi")
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


def _finite_or_none(value: float):
    return None if math.isinf(value) else value


def dist_to_literal(d: Distribution1D) -> dict:
    """Serialize a distribution to its tagged scenario-file literal."""
    if isinstance(d, NormalDist):
        return {"type": "normal", "mu": d.mu, "sigma": d.sigma}
    if isinstance(d, TruncatedNormalDist):
        out = {"type": "trunc_normal", "mu": d.mu, "sigma": d.sigma}
        if not math.isinf(d.lower):
            out["lower"] = d.lower
        if not math.isinf(d.upper):
            out["upper"] = d.upper
        return out
    if isinstance(d, MixtureDist):
        return {
            "type": "mixture",
            "components": [
                {"weight": w, "dist": dist_to_literal(comp)} for w, comp in d.components
            ],
        }
    if isinstance(d, GridDensity):
        return {"type": "grid", "xs": d.xs.tolist(), "ws": d.ws.tolist()}
    raise ValueError(f"cannot serialize {type(d).__name__}")


def dist_from_literal(obj) -> Distribution1D:
    """Parse the tagged literal form produced by :func:`dist_to_literal`."""
    if not isinstance(obj, dict):
        raise ValueError("distribution literal must be an object")
    kind = obj.get("type")
    if kind == "normal":
        _require_keys(obj, {"type", "mu", "sigma"})
        return NormalDist(_number(obj, "mu"), _number(obj, "sigma"))
    if kind == "trunc_normal":
        _require_keys(obj, {"type", "mu", "sigma", "lower", "upper"})
        lower = _number(obj, "lower") if "lower" in obj else -math.inf
        upper = _number(obj, "upper") if "upper" in obj else math.inf
        return TruncatedNormalDist(_number(obj, "mu"), _number(obj, "sigma"), lower, upper)
    if kind == "mixture":
        _require_keys(obj, {"type", "components"})
        entries = obj.get("components")
        if not isinstance(entries, list) or not entries:
            raise ValueError("mixture literal needs a nonempty components list")
        comps = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "weight" not in entry or "dist" not in entry:
                raise ValueError(f"components[{i}] must carry weight and dist")
            comps.append((float(entry["weight"]), dist_from_literal(entry["dist"])))
        return MixtureDist(tuple(comps))
    if kind == "grid":
        _require_keys(obj, {"type", "xs", "ws"})
        return GridDensity(np.asarray(obj.get("xs"), dtype=float),
                           np.asarray(obj.get("ws"), dtype=float))
    raise ValueError(f"unknown distribution type {kind!r}")


def _require_keys(obj: dict, allowed: set) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unexpected keys {sorted(extra)} in {obj.get('type')!r} literal")


def _number(obj: dict, key: str) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    return float(value)
