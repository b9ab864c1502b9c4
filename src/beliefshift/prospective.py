"""Expected learning from a study that has not happened yet.

A decision maker blends a consensus prior with a pioneer prior, imagines
the data a proposed design would produce, and asks how far beliefs are
expected to move. The Monte Carlo engine draws each replicate from its
own counter-based RNG stream keyed by (seed, replicate index), so runs
are deterministic. Normal-mixture replicates run on all available cores
in fixed-size chunks, with identical results on any core count; the
all-normal identity case has an exact closed form to check the machinery
against. ``scipy.special`` loads on the engine's first call, before any
worker thread starts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    Distribution1D,
    MixtureDist,
    NormalDist,
    norm_logpdf,
)
from .metrics import t_nodes, w2_normal, wp_quantile
from .updating import SamplingModel, Study, _conjugate_moments, update

__all__ = [
    "PioneerSetup",
    "ExpectedLearning",
    "CurvePoint",
    "decision_maker_prior",
    "expected_learning_mc",
    "expected_learning_bound_sq",
    "weight_sweep",
    "curve_points_to_csv",
]

DEFAULT_REPLICATES = 10_000
DEFAULT_W2_NODES = 512

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)

# Mixture-quantile kernel. The chunk size fixes which rows share a BLAS
# call, so it must not depend on the worker count.
_CHUNK_ROWS = 64
_TABLE_POINTS = 256
_WINDOW_SDS = 8.0
_MIN_SWEEPS = 2
_MAX_SWEEPS = 8
_STEP_TOL = 1e-6  # times the smallest posterior component sd
_MAX_STEP_CELLS = 4.0
# Table logs are clipped to +/- this before the row-offset search; every
# target log tail mass lies far inside it.
_LOG_CLIP = 1000.0


@dataclass(frozen=True)
class PioneerSetup:
    """Consensus prior, pioneer prior, pioneer weight, and the design."""

    consensus: Distribution1D
    pioneer: Distribution1D
    weight: float
    model: SamplingModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("pioneer weight must lie in [0, 1]")


@dataclass(frozen=True)
class ExpectedLearning:
    """Monte Carlo estimate of expected W2 with its sampling uncertainty."""

    estimate: float
    mc_std_error: float
    second_moment: float
    second_moment_std_error: float
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("estimate", "mc_std_error", "second_moment",
                     "second_moment_std_error"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        # Jensen: E[W2] cannot exceed sqrt(E[W2^2]) beyond MC noise.
        ceiling = math.sqrt(self.second_moment) + 3.0 * self.mc_std_error + 1e-12
        if self.estimate > ceiling:
            raise ValueError("estimate exceeds sqrt(second_moment) beyond MC noise")


@dataclass(frozen=True)
class CurvePoint:
    """One (weight, sample size) cell of an expected-learning sweep."""

    w: float
    n: int
    expected_learning: float
    mc_std_error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        if not (math.isfinite(self.expected_learning) and math.isfinite(self.mc_std_error)):
            raise ValueError("curve point values must be finite")


def decision_maker_prior(setup: PioneerSetup) -> Distribution1D:
    """w * pioneer + (1 - w) * consensus; degenerate weights collapse."""
    if setup.weight == 0.0:
        return setup.consensus
    if setup.weight == 1.0:
        return setup.pioneer
    return MixtureDist((
        (setup.weight, setup.pioneer),
        (1.0 - setup.weight, setup.consensus),
    ))


def expected_learning_bound_sq(sigma_prior: float, sigma: float, n: int) -> float:
    """Closed-form E[W2^2] when predictive, update, and reference priors all
    equal Normal(mu, sigma_prior) and the design observes n draws of noise
    sd sigma. n = 0 means no data and returns 0; the n -> inf limit is
    2 * sigma_prior^2."""
    sigma_prior = float(sigma_prior)
    sigma = float(sigma)
    if sigma_prior <= 0.0 or sigma <= 0.0:
        raise ValueError("scale parameters must be positive")
    n = int(n)
    if n < 0:
        raise ValueError("sample size cannot be negative")
    if n == 0:
        return 0.0
    shrink = sigma**2 / (n * sigma_prior**2)
    mean_term = sigma_prior**2 / (shrink + 1.0)
    scale_term = sigma_prior**2 * (1.0 - 1.0 / math.sqrt(1.0 + sigma_prior**2 * n / sigma**2)) ** 2
    return mean_term + scale_term


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, through 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    low_low = m_lo * x_lo
    hi_low = m_hi * x_lo
    # At most 2 * (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1: no wrap.
    cross = (low_low >> np.uint64(32)) + (hi_low & _LOW32) + m_lo * x_hi
    hi = m_hi * x_hi + (hi_low >> np.uint64(32)) + (cross >> np.uint64(32))
    return hi, np.uint64(m) * x


def _replicate_uniforms(seed: int, replicates: int, cols: int) -> np.ndarray:
    """One Philox stream per replicate, keyed (seed, index); fixed column layout.

    Row i equals ``Generator(Philox(key=[seed mod 2^64, i])).random(cols)``
    for cols <= 4: numpy increments the counter before its first block,
    so that block is Philox4x64-10 at counter (1, 0, 0, 0), and doubles
    are (word >> 11) * 2^-53. All rows come from one array pass.
    """
    k0 = np.full(replicates, int(seed) % (1 << 64), dtype=np.uint64)
    k1 = np.arange(replicates, dtype=np.uint64)
    c0 = np.ones(replicates, dtype=np.uint64)
    c1 = np.zeros(replicates, dtype=np.uint64)
    c2 = np.zeros(replicates, dtype=np.uint64)
    c3 = np.zeros(replicates, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3)[:cols], axis=1)
    out = (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    # Quantile transforms need the open interval.
    np.clip(out, 1e-16, 1.0 - 1e-16, out=out)
    return out


def _theta_from_uniforms(predictive_prior: Distribution1D, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf draws of theta. Mixtures burn uniform 0 on the component
    pick and uniform 1 on the component quantile; other priors use uniform 0."""
    if isinstance(predictive_prior, MixtureDist):
        cum_w = np.cumsum(predictive_prior.weights())
        picks = np.searchsorted(cum_w, uniforms[:, 0], side="right")
        picks = np.minimum(picks, len(predictive_prior.components) - 1)
        theta = np.empty(uniforms.shape[0])
        for k, (_, comp) in enumerate(predictive_prior.components):
            mask = picks == k
            if mask.any():
                theta[mask] = comp.quantile(uniforms[mask, 1])
        return theta
    return np.asarray(predictive_prior.quantile(uniforms[:, 0]), dtype=float)


def _w2_normal_update(update_prior: NormalDist, reference: Distribution1D,
                      ybar: np.ndarray, se: float, nodes: int) -> np.ndarray:
    from scipy import special
    post_mu, post_sd = _conjugate_moments(update_prior.mu, update_prior.sigma, ybar, se)
    if isinstance(reference, NormalDist):
        return np.hypot(post_mu - reference.mu, post_sd - reference.sigma)
    t, wq = t_nodes(nodes)
    q_ref = np.asarray(reference.quantile(t), dtype=float)
    q_post = post_mu[:, None] + post_sd * special.ndtri(t)[None, :]
    return np.sqrt((q_post - q_ref[None, :]) ** 2 @ wq)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _invert_tables(tables: np.ndarray, targets: np.ndarray,
                   x_lo: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Where each row's nondecreasing table, sampled at x_lo + cell * j,
    crosses each (increasing) target, by linear interpolation.

    Row r is shifted by r * 4 * _LOG_CLIP so one searchsorted over the
    flattened rows serves every row at once.
    """
    rows, points = tables.shape
    tables = np.clip(tables, -_LOG_CLIP, _LOG_CLIP)
    shift = np.arange(rows)[:, None] * (4.0 * _LOG_CLIP)
    found = np.searchsorted((tables + shift).ravel(), (targets + shift).ravel())
    j = np.clip(found.reshape(rows, -1) - np.arange(rows)[:, None] * points, 1, points - 1)
    below = np.take_along_axis(tables, j - 1, axis=1)
    rise = np.take_along_axis(tables, j, axis=1) - below
    frac = np.divide(targets - below, rise, out=np.zeros_like(rise), where=rise > 0.0)
    return x_lo[:, None] + cell[:, None] * (j - 1 + np.clip(frac, 0.0, 1.0))


def _mixture_quantiles(mu: np.ndarray, w: np.ndarray, sd: np.ndarray,
                       t: np.ndarray) -> np.ndarray:
    """Quantiles at t of each row's mixture sum_k w[r, k] Normal(mu[r, k], sd[k]).

    Nodes below 1/2 solve log F(q) = log t and the rest log S(q) =
    log(1 - t), with S the upper tail mass, so neither tail loses digits to
    cancellation. A table of both log tail masses over each row's own
    window gives the start by inverse interpolation; Newton on the log
    tail mass polishes it, each step clipped to a few table cells.
    """
    from scipy import special
    half = t.size // 2
    targets = np.concatenate([np.log(t[:half]), np.log(1.0 - t[half:])])
    # +1 on lower-tail nodes, -1 on upper-tail ones: mass = sum w * ndtr(sign * z).
    sign = np.concatenate([np.ones(half), -np.ones(t.size - half)])

    x_lo = (mu - _WINDOW_SDS * sd).min(axis=1)
    x_hi = (mu + _WINDOW_SDS * sd).max(axis=1)
    cell = (x_hi - x_lo) / (_TABLE_POINTS - 1)
    xs = x_lo[:, None] + cell[:, None] * np.arange(_TABLE_POINTS)
    lower = np.zeros_like(xs)
    upper = np.zeros_like(xs)
    for k in range(sd.size):
        z = (xs - mu[:, k:k + 1]) / sd[k]
        lower += w[:, k:k + 1] * special.ndtr(z)
        upper += w[:, k:k + 1] * special.ndtr(-z)
    with np.errstate(divide="ignore"):
        q = np.concatenate([
            _invert_tables(np.log(lower), targets[:half], x_lo, cell),
            _invert_tables(-np.log(upper), -targets[half:], x_lo, cell),
        ], axis=1)

    max_step = _MAX_STEP_CELLS * cell[:, None]
    tol = _STEP_TOL * sd.min()
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    for sweep in range(1, _MAX_SWEEPS + 1):
        mass = np.zeros_like(q)
        density = np.zeros_like(q)
        for k in range(sd.size):
            z = (q - mu[:, k:k + 1]) / sd[k]
            mass += w[:, k:k + 1] * special.ndtr(sign * z)
            density += w[:, k:k + 1] * (norm / sd[k]) * np.exp(-0.5 * z * z)
        mass = np.maximum(mass, 1e-300)
        step = sign * (np.log(mass) - targets) * mass / np.maximum(density, 1e-300)
        np.clip(step, -max_step, max_step, out=step)
        q -= step
        if sweep >= _MIN_SWEEPS and np.abs(step).max() <= tol:
            return q
    raise ArithmeticError(
        f"mixture quantile Newton did not settle within {_MAX_SWEEPS} sweeps"
    )


def _w2_mixture_update(update_prior: MixtureDist, reference: Distribution1D,
                       ybar: np.ndarray, se: float, nodes: int) -> np.ndarray:
    """Batched W2 for a mixture-of-normals update prior.

    Per replicate the posterior is again a normal mixture whose component
    sds are replicate-independent. Its quantiles at the t-nodes the scalar
    quantile route uses come from ``_mixture_quantiles``, one fixed-size
    chunk of replicates per task on a thread pool; the tasks run only
    numpy and scipy ufuncs, which release the GIL, and every public call
    happens here first.
    """
    weights = update_prior.weights()
    mus = np.array([comp.mu for _, comp in update_prior.components])
    sds = np.array([comp.sigma for _, comp in update_prior.components])
    post_mu, post_sd = _conjugate_moments(mus, sds, ybar[:, None], se)
    log_w = np.log(weights) + norm_logpdf(ybar[:, None], mus, np.hypot(sds, se))
    log_w -= log_w.max(axis=1, keepdims=True)
    post_w = np.exp(log_w)
    post_w /= post_w.sum(axis=1, keepdims=True)

    t, wq = t_nodes(nodes)
    q_ref = np.asarray(reference.quantile(t), dtype=float)
    w2 = np.empty(ybar.size)

    def solve_chunk(start: int) -> None:
        rows = slice(start, start + _CHUNK_ROWS)
        q = _mixture_quantiles(post_mu[rows], post_w[rows], post_sd, t)
        w2[rows] = np.sqrt((q - q_ref) ** 2 @ wq)

    starts = range(0, ybar.size, _CHUNK_ROWS)
    workers = min(len(starts), _available_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(solve_chunk, starts))  # re-raises any chunk's error
    return w2


def _batched_w2(update_prior: Distribution1D, reference: Distribution1D,
                ybar: np.ndarray, se: float, nodes: int) -> np.ndarray:
    if isinstance(update_prior, NormalDist):
        return _w2_normal_update(update_prior, reference, ybar, se, nodes)
    if isinstance(update_prior, MixtureDist) and all(
        isinstance(comp, NormalDist) for _, comp in update_prior.components
    ):
        return _w2_mixture_update(update_prior, reference, ybar, se, nodes)
    # General fallback: exact per-replicate updates, no silent skipping.
    out = np.empty(ybar.size)
    for i, y in enumerate(ybar):
        post = update(update_prior, Study(float(y), se))
        if isinstance(reference, NormalDist) and isinstance(post, NormalDist):
            out[i] = w2_normal(reference, post)
        else:
            out[i] = wp_quantile(reference, post, p=2.0, nodes=nodes)
    return out


def expected_learning_mc(predictive_prior: Distribution1D,
                         update_prior: Distribution1D,
                         reference_prior: Distribution1D,
                         model: SamplingModel,
                         replicates: int = DEFAULT_REPLICATES,
                         seed: int = 0,
                         w2_nodes: int = DEFAULT_W2_NODES) -> ExpectedLearning:
    """Monte Carlo E[W2(reference, posterior)] over imagined study outcomes.

    Each replicate draws theta from ``predictive_prior``, simulates the
    sample mean ybar ~ Normal(theta, sigma/sqrt(n)), updates
    ``update_prior`` by Study(ybar, sigma/sqrt(n)), and measures W2 from
    ``reference_prior`` to that posterior. Deterministic given the seed;
    a replicate failure aborts the run.
    """
    # Loads scipy.special, if nothing has, before any worker thread needs it.
    from scipy import special
    replicates = int(replicates)
    if replicates < 100:
        raise ValueError("expected_learning_mc needs at least 100 replicates")
    se = model.std_error()
    cols = 3 if isinstance(predictive_prior, MixtureDist) else 2
    uniforms = _replicate_uniforms(seed, replicates, cols)
    theta = _theta_from_uniforms(predictive_prior, uniforms)
    ybar = theta + se * special.ndtri(uniforms[:, -1])
    w2 = _batched_w2(update_prior, reference_prior, ybar, se, w2_nodes)
    root_n = math.sqrt(replicates)
    w2_sq = w2**2
    return ExpectedLearning(
        estimate=float(w2.mean()),
        mc_std_error=float(w2.std(ddof=1)) / root_n,
        second_moment=float(w2_sq.mean()),
        second_moment_std_error=float(w2_sq.std(ddof=1)) / root_n,
        replicates=replicates,
        seed=int(seed),
    )


def weight_sweep(setup: PioneerSetup,
                 weights: Sequence[float],
                 ns: Sequence[int],
                 replicates: int = DEFAULT_REPLICATES,
                 seed: int = 0,
                 w2_nodes: int = DEFAULT_W2_NODES) -> list[CurvePoint]:
    """Expected-learning curve over pioneer weights and sample sizes.

    For each (w, n) the decision-maker prior (weight w) is both the
    predictive and the update prior while the consensus prior is the
    reference. Point seeds are seed + row-major index, so a singleton
    sweep reproduces a direct expected_learning_mc call exactly.
    """
    weights = list(weights)
    ns = list(ns)
    if not weights or not ns:
        raise ValueError("weight_sweep needs nonempty weight and n lists")
    points = []
    index = 0
    for w in weights:
        for n in ns:
            model = SamplingModel(setup.model.sigma, int(n))
            blended = decision_maker_prior(
                PioneerSetup(setup.consensus, setup.pioneer, float(w), model)
            )
            result = expected_learning_mc(
                blended, blended, setup.consensus, model,
                replicates=replicates, seed=seed + index, w2_nodes=w2_nodes,
            )
            points.append(CurvePoint(float(w), int(n), result.estimate, result.mc_std_error))
            index += 1
    return points


def curve_points_to_csv(points: Sequence[CurvePoint]) -> str:
    """CSV with the declared header, one row per curve point."""
    lines = ["w,n,expected_learning,mc_std_error"]
    for pt in points:
        lines.append(f"{pt.w!r},{pt.n},{pt.expected_learning!r},{pt.mc_std_error!r}")
    return "\n".join(lines) + "\n"
