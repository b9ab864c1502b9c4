"""Learning metrics between a prior and a posterior.

The headline metric is the Wasserstein-2 distance: closed form for
normal pairs, quantile-function quadrature for general 1D pairs, and an
exact transportation LP for weighted point clouds in any dimension.
KL divergence and Lindley information (closed form for normals and
truncated normals, summed on a shared grid otherwise), surprisal, and
quadratic-loss expectations ride along as comparators, and
``learning_report`` bundles everything for one prior-to-posterior
transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .distributions import (
    Distribution1D,
    GridDensity,
    MixtureDist,
    NormalDist,
    TruncatedNormalDist,
)
from .errors import AbsoluteContinuityError, MomentError
from .updating import SamplingModel, log_predictive_density

__all__ = [
    "LearningReport",
    "DiscreteMeasure",
    "w2_normal",
    "wp_quantile",
    "wasserstein_discrete",
    "kl_normal",
    "kl_grid",
    "lindley_normal",
    "lindley_grid",
    "surprisal",
    "log_surprisal",
    "quadratic_expectation",
    "learning_report",
]

DEFAULT_QUANTILE_NODES = 4096
# Families whose every moment is finite: wp_quantile skips their tail probe.
_ALL_MOMENTS = (NormalDist, TruncatedNormalDist, MixtureDist, GridDensity)
# Innermost panel boundary of the endpoint-clustered quadrature.
_T_EPS = 1e-12


@lru_cache(maxsize=32)
def t_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights on (0, 1), geometrically clustered at the ends.

    Each half uses panels with boundaries eps * (0.5/eps)^(j / (nodes/2)),
    which resolves the quantile singularities at 0 and 1 without wasting
    nodes in the bulk.
    """
    if nodes < 256:
        raise ValueError("quantile quadrature needs at least 256 nodes")
    half = nodes // 2
    bounds = _T_EPS * (0.5 / _T_EPS) ** (np.arange(half + 1) / half)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    widths = np.diff(bounds)
    t = np.concatenate([mids, 1.0 - mids[::-1]])
    w = np.concatenate([widths, widths[::-1]])
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def w2_normal(a: NormalDist, b: NormalDist) -> float:
    """Closed-form W2 between normals: sqrt((mu_a-mu_b)^2 + (sigma_a-sigma_b)^2)."""
    return math.hypot(a.mu - b.mu, a.sigma - b.sigma)


def _wp_grid_exact(a: GridDensity, b: GridDensity, p: float) -> float:
    # Both quantile functions are steps, so |F^-1 - G^-1|^p is piecewise
    # constant between the merged cumulative levels: sum it exactly.
    levels = np.unique(np.concatenate([a._cum, b._cum, [1.0]]))
    levels = levels[(levels > 0.0) & (levels <= 1.0)]
    widths = np.diff(np.concatenate([[0.0], levels]))
    mids = levels - 0.5 * widths
    qa = a.xs[np.minimum(np.searchsorted(a._cum, mids, side="left"), a.xs.size - 1)]
    qb = b.xs[np.minimum(np.searchsorted(b._cum, mids, side="left"), b.xs.size - 1)]
    return float(np.dot(widths, np.abs(qa - qb) ** p) ** (1.0 / p))


def _check_tail_convergence(a, b, p: float, total: float) -> None:
    """Probe |F^-1 - G^-1|^p near the endpoints for moment divergence.

    For a finite p-th moment the scaled probe h(t) = |diff|^p * t must
    decay toward the endpoint; heavy tails keep it flat or growing. The
    probe points are fixed decades, independent of the node count.
    """
    if total <= 0.0:
        return
    probes = 10.0 ** np.arange(-12.0, -3.9)
    for ts in (probes, 1.0 - probes):
        diff = np.abs(np.asarray(a.quantile(ts), dtype=float)
                      - np.asarray(b.quantile(ts), dtype=float))
        h = diff**p * probes
        # h[0] sits at the most extreme probe; h[-1] is the mildest.
        if h[0] > 0.5 * h[-1] and h[0] > 1e-9 * total:
            raise MomentError(
                f"quantile integrand fails to decay near the endpoints; "
                f"the order-{p:g} moment appears divergent"
            )


def wp_quantile(a, b, p: float = 2.0, nodes: int = DEFAULT_QUANTILE_NODES) -> float:
    """Wasserstein-p via the quantile formula (int |F^-1 - G^-1|^p dt)^(1/p).

    Grid-grid pairs are summed exactly over merged cumulative levels;
    everything else uses endpoint-clustered midpoint quadrature. Inputs
    only need a vectorized ``quantile`` method. Raises MomentError when
    the tails reveal a divergent p-th moment; the package's own families
    have every moment, so only other inputs are probed.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError("wasserstein order p must be at least 1")
    if isinstance(a, GridDensity) and isinstance(b, GridDensity):
        return _wp_grid_exact(a, b, p)
    t, w = t_nodes(int(nodes))
    qa = np.asarray(a.quantile(t), dtype=float)
    qb = np.asarray(b.quantile(t), dtype=float)
    total = float(np.dot(w, np.abs(qa - qb) ** p))
    if not all(isinstance(d, _ALL_MOMENTS) for d in (a, b)):
        _check_tail_convergence(a, b, p, total)
    return total ** (1.0 / p)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted points in R^d. Scalars or flat lists are treated as d = 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must form a nonempty (n, d) array")
        w = np.array(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of points")
        if np.any(w <= 0.0):
            raise ValueError("all weights must be positive")
        if abs(math.fsum(w.tolist()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.weights, other.weights
        )

    __hash__ = None

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def wasserstein_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         p: float = 2.0) -> tuple[float, np.ndarray]:
    """Exact Wasserstein-p between point clouds via the transportation LP.

    Cost is the Euclidean distance to the p-th power. Returns the optimal
    cost to the power 1/p and the optimal plan, a read-only (n, m) array
    whose entry [i, j] is the mass moved from mu's point i to nu's point j.
    """
    # Deferred: scipy.optimize roughly doubles the package's import time
    # and this is its only user.
    from scipy import sparse
    from scipy.optimize import linprog

    p = float(p)
    if p < 1.0:
        raise ValueError("wasserstein order p must be at least 1")
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    n, m = mu.points.shape[0], nu.points.shape[0]
    gaps = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.linalg.norm(gaps, axis=2) ** p
    row_sums = sparse.kron(sparse.eye(n), np.ones((1, m)))
    col_sums = sparse.kron(np.ones((1, n)), sparse.eye(m))
    constraints = sparse.vstack([row_sums, col_sums]).tocsc()
    rhs = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost.ravel(), A_eq=constraints, b_eq=rhs,
                  bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    plan = np.maximum(res.x.reshape(n, m), 0.0)
    if (np.abs(plan.sum(axis=1) - mu.weights).max() > 1e-9
            or np.abs(plan.sum(axis=0) - nu.weights).max() > 1e-9):
        raise RuntimeError("LP returned an infeasible transport plan")
    plan.setflags(write=False)
    return float(res.fun) ** (1.0 / p), plan


def _log_mass_and_sq(p_dist, q_dist) -> tuple[float, float]:
    """(L, S) with L + S / 2 = log Z_q + E_p[z_q^2] / 2 for X ~ p, with z_q
    and Z_q as in ``kl_normal``. Far in q's tail, or on a narrow interval
    far out, both terms are near lo^2 / 2 (lo q's standardized near bound)
    and would cancel all but eps * lo^2 of it; there z_q^2 = (lo + Y)^2 with
    the excess Y of q's tail frame, so L = log Z_q + lo^2 / 2 from that frame
    and S = 2 lo E[Y] + E[Y^2].
    """
    frame = q_dist._tail_frame() if isinstance(q_dist, TruncatedNormalDist) else None
    mean, sd = p_dist.moments()
    if frame is None:
        # Ratios before squaring, so tiny or huge scales do not under/overflow.
        return (q_dist._log_mass,
                (sd / q_dist.sigma) ** 2 + ((mean - q_dist.mu) / q_dist.sigma) ** 2)
    sign, lo, log_mass, mean_y, var_y = frame
    if p_dist is not q_dist:
        near = q_dist.lower if sign > 0.0 else q_dist.upper
        p_frame = p_dist._tail_frame() if isinstance(p_dist, TruncatedNormalDist) else None
        mean_y, var_y = sign * (mean - near) / q_dist.sigma, (sd / q_dist.sigma) ** 2
        if p_frame is not None:
            # Y = d + c Y_p from p's own excess: p's mean rounds by eps |X|.
            p_sign, _, _, p_mean_y, p_var_y = p_frame
            p_near = p_dist.lower if p_sign > 0.0 else p_dist.upper
            c = sign * p_sign * p_dist.sigma / q_dist.sigma
            mean_y = sign * (p_near - near) / q_dist.sigma + c * p_mean_y
            var_y = c * c * p_var_y
    return log_mass, 2.0 * lo * mean_y + mean_y * mean_y + var_y


def kl_normal(p_dist, q_dist) -> float:
    """KL(p || q) in nats between normals or truncated normals.

    With z_d = (X - mu_d) / sigma_d and Z_d the kept mass (1 for a normal),
    KL = log(sigma_q Z_q / (sigma_p Z_p)) + E_p[z_q^2] / 2 - E_p[z_p^2] / 2,
    each log Z_d + E_p[z_d^2] / 2 from ``_log_mass_and_sq``. Raises
    AbsoluteContinuityError when p's support is not inside q's.
    """
    (p_lo, p_hi), (q_lo, q_hi) = p_dist.support(), q_dist.support()
    if p_lo < q_lo or p_hi > q_hi:
        raise AbsoluteContinuityError("p's support is not inside q's")
    log_mass_q, sq_q = _log_mass_and_sq(p_dist, q_dist)
    log_mass_p, sq_p = _log_mass_and_sq(p_dist, p_dist)
    var_ratio = (p_dist.sigma / q_dist.sigma) ** 2
    # Mathematically nonnegative; clamp float residue near equality.
    return max(0.0, 0.5 * (sq_q - math.log(var_ratio) - sq_p) + (log_mass_q - log_mass_p))


def _require_same_grid(p_dist: GridDensity, q_dist: GridDensity) -> None:
    if not np.array_equal(p_dist.xs, q_dist.xs):
        raise ValueError("grid metrics require identical grid nodes")


def kl_grid(p_dist: GridDensity, q_dist: GridDensity) -> float:
    """KL(p || q) over a shared grid; raises AbsoluteContinuityError when
    p has mass at a node where q has none."""
    _require_same_grid(p_dist, q_dist)
    pw, qw = p_dist.ws, q_dist.ws
    active = pw > 0.0
    if np.any(active & (qw <= 0.0)):
        raise AbsoluteContinuityError(
            "p is not absolutely continuous with respect to q on this grid"
        )
    # A difference of logs: the ratio overflows where a q mass is subnormal.
    log_ratio = np.log(pw[active]) - np.log(qw[active])
    return max(0.0, float(np.sum(pw[active] * log_ratio)))


def lindley_normal(prior, post) -> float:
    """Signed Lindley information H(prior) - H(post) between normals or
    truncated normals, with entropy H = log(sigma Z sqrt(2 pi)) + E[z^2] / 2
    (Z and z as in ``kl_normal``); ln(sigma_prior / sigma_post) for normals.

    Positive when uncertainty shrinks; display layers show the magnitude.
    """
    log_mass_prior, sq_prior = _log_mass_and_sq(prior, prior)
    log_mass_post, sq_post = _log_mass_and_sq(post, post)
    return (math.log(prior.sigma / post.sigma) + (log_mass_prior - log_mass_post)
            + 0.5 * (sq_prior - sq_post))


def _neg_entropy_grid(d: GridDensity) -> float:
    # E[ln density] with density = mass / cell width; zero-mass nodes drop out.
    # A difference of logs: a subnormal mass over a wide cell rounds to 0.
    ws, widths = d.ws[d.ws > 0.0], d.cell_widths()[d.ws > 0.0]
    return float(np.sum(ws * (np.log(ws) - np.log(widths))))


def lindley_grid(prior: GridDensity, post: GridDensity) -> float:
    """Lindley information between grids: the change in E[ln density]."""
    return _neg_entropy_grid(post) - _neg_entropy_grid(prior)


def log_surprisal(prior: Distribution1D, model: SamplingModel, ybar: float) -> float:
    """ln S(ybar) = -ln p(ybar); safe for outcomes deep in the tails."""
    return -log_predictive_density(prior, model, ybar)


def surprisal(prior: Distribution1D, model: SamplingModel, ybar: float) -> float:
    """Reciprocal predictive density S(ybar) = 1 / p(ybar). Diagnostic only."""
    return math.exp(log_surprisal(prior, model, ybar))


def quadratic_expectation(d: Distribution1D, action: float) -> float:
    """E[(action - theta)^2] = (mean - action)^2 + sd^2, exact via moments."""
    mean, sd = d.moments()
    return (mean - float(action)) ** 2 + sd**2


@dataclass(frozen=True)
class LearningReport:
    """All learning values for one prior-to-posterior transition.

    ``kl_*`` are None when either side's support is not inside the
    other's. ``kl_*`` and ``lindley`` are None for pairs with a mixture,
    grids on different nodes, and a continuous side that leaves more than
    1e-6 of its mass off the other side's grid; absent beats silently
    approximated. ``decomposition_exact`` holds only for normals and
    truncated normals with equal standardized bounds: the pair shares a
    location-scale family and w2^2 = mean_shift_sq + sd_shift_sq exactly.
    """

    w2: float
    mean_shift_sq: float
    sd_shift_sq: float
    normalized_w2: float
    kl_forward: Optional[float]
    kl_reverse: Optional[float]
    kl_sym: Optional[float]
    lindley: Optional[float]
    decomposition_exact: bool

    CSV_COLUMNS = (
        "w2",
        "mean_shift_sq",
        "sd_shift_sq",
        "normalized_w2",
        "kl_forward",
        "kl_reverse",
        "kl_sym",
        "lindley",
        "decomposition_exact",
    )


def _same_std_bounds(prior, post) -> bool:
    """Whether two normals or truncated normals share standardized bounds,
    so each is a location-scale image of the other. An infinite bound
    matches only the same infinity."""
    bounds = [tuple((x - d.mu) / d.sigma for x in d.support()) for d in (prior, post)]
    return all(x == y or (math.isfinite(x - y)
                          and abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y)))
               for x, y in zip(*bounds))


def _as_shared_grids(prior, post) -> Optional[tuple[GridDensity, GridDensity]]:
    """Put a pair with a grid on one grid for KL / Lindley, or None if the
    pair has no faithful shared-grid representation."""
    if isinstance(prior, MixtureDist) or isinstance(post, MixtureDist):
        return None
    if isinstance(prior, GridDensity) and isinstance(post, GridDensity):
        return (prior, post) if np.array_equal(prior.xs, post.xs) else None
    grid = prior if isinstance(prior, GridDensity) else post
    other = post if isinstance(prior, GridDensity) else prior
    regridded = _discretize_onto(other, grid)
    if regridded is None:
        return None
    return (grid, regridded) if isinstance(prior, GridDensity) else (regridded, grid)


def _discretize_onto(d, grid: GridDensity) -> Optional[GridDensity]:
    clipped = 1.0 - (d.cdf(grid.xs[-1]) - d.cdf(grid.xs[0]))
    if clipped > 1e-6:
        return None
    raw = d.pdf(grid.xs) * grid.cell_widths()
    total = raw.sum()
    if not (total > 0.0):
        return None
    return GridDensity(grid.xs, raw / total)


def learning_report(prior: Distribution1D, post: Distribution1D) -> LearningReport:
    """Assemble every learning value for the transition prior -> post.

    Pairs of normals and truncated normals take KL and Lindley in closed
    form (``kl_normal``, ``lindley_normal``); those with equal standardized
    bounds also get W2 from the exact moment decomposition. Other pairs use
    the quantile route for W2, and a pair with a grid takes KL / Lindley on
    that grid where one fits both sides.
    """
    prior_mean, prior_sd = prior.moments()
    post_mean, post_sd = post.moments()
    mean_shift_sq = (post_mean - prior_mean) ** 2
    sd_shift_sq = (post_sd - prior_sd) ** 2

    normal_family = all(isinstance(d, (NormalDist, TruncatedNormalDist)) for d in (prior, post))
    decomposition_exact = normal_family and _same_std_bounds(prior, post)
    if decomposition_exact:
        w2 = math.sqrt(mean_shift_sq + sd_shift_sq)
    else:
        w2 = wp_quantile(prior, post, p=2.0)

    kl_forward = kl_reverse = lindley = None
    try:
        if normal_family:
            lindley = lindley_normal(prior, post)
            kl_forward, kl_reverse = kl_normal(post, prior), kl_normal(prior, post)
        elif isinstance(prior, GridDensity) or isinstance(post, GridDensity):
            grids = _as_shared_grids(prior, post)
            if grids is not None:
                gp, gq = grids
                lindley = lindley_grid(gp, gq)
                kl_forward, kl_reverse = kl_grid(gq, gp), kl_grid(gp, gq)
    except AbsoluteContinuityError:
        kl_forward = kl_reverse = None

    kl_sym = None if kl_forward is None else kl_forward + kl_reverse
    normalized = w2 / prior_sd if prior_sd > 0.0 else math.inf
    return LearningReport(
        w2=w2,
        mean_shift_sq=mean_shift_sq,
        sd_shift_sq=sd_shift_sq,
        normalized_w2=normalized,
        kl_forward=kl_forward,
        kl_reverse=kl_reverse,
        kl_sym=kl_sym,
        lindley=lindley,
        decomposition_exact=decomposition_exact,
    )
