"""Expected learning from a study that has not happened yet.

A decision maker blends a consensus prior with a pioneer prior, imagines
the data a proposed design would produce, and asks how far beliefs are
expected to move. The Monte Carlo engine draws each replicate from its
own counter-based RNG stream keyed by (seed, replicate index), so runs
are deterministic. A normal or normal-mixture update prior against a
normal, truncated-normal or mixture reference without grid components
gets W2 from the 1-D optimal map, E_P[(X - G^-1(F_P(X)))^2], on 9-point
Gauss-Legendre panels laid out from each posterior component's mean and
sd, with the posterior cdf only evaluated forward, one pass per component,
in fixed-size blocks of replicates on one thread. With more than 257
replicates that kernel runs at nested Chebyshev-Lobatto nodes in ybar (65,
129, then 257) rather than at every draw. The nodes span the inner draws;
the 0.5% at each end run the kernel in the first level's call. The first
level whose trailing coefficients put the error in W2 at most 1e-11 of the
largest W2 is summed at the inner draws, and a cell where none does runs the
kernel on them. Figure 5's cells at 2,500 replicates move by at most
1.5e-13 of their ``mc_std_error``. A normal pair is closed form, and
everything else takes exact per-replicate updates and quantile quadrature.
The all-normal identity case has an exact closed form to check the
machinery against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._normal import lower_tail, ndtri, ndtri_lower
from .distributions import (
    Distribution1D,
    GridDensity,
    MixtureDist,
    NormalDist,
    _mixture_quantiles,
)
from .errors import DegenerateError
from .metrics import wp_quantile
from .updating import SamplingModel, Study, _bayes, _conjugate_moments, _reweight

__all__ = [
    "ExpectedLearning",
    "decision_maker_prior",
    "expected_learning_mc",
    "expected_learning_bound_sq",
    "weight_sweep",
]

DEFAULT_REPLICATES = 10_000
MIN_REPLICATES = 100  # also the floor of scenario files and --replicates
DEFAULT_W2_NODES = 512

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)

# Transport-map quadrature: panel breaks at each posterior component's mean
# +/- these sds (a mixture reference's own breaks are 1 sd apart), 9-point
# Gauss-Legendre in each panel, 117 nodes for two components. Where one
# component's tail gives way to a lighter, distant component's mass, the
# map G^-1(F_P) has a knee (2 to 6 sd out for weight ratios 1e-2 to 1e-9),
# and a panel across it loses digits as it widens: on 4,080 random mixture
# rows, breaks at +/- 2.75 and 4.5 sd read 5e-9 off, these 3.5e-10. Rows go
# in blocks of a fixed size, one thread, so the results do not depend on
# the machine.
_BREAK_SDS = np.array([-7.5, -4.25, -2.25, 0.0, 2.25, 4.25, 7.5])
_REF_BREAK_SDS = np.arange(-8.0, 9.0)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(9)
_BLOCK_ROWS = 64
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TINY = np.finfo(float).tiny  # levels are floored here: the map's far tail has no mass
_TOP = 1.0 - 2.0**-53  # the largest double below 1
# Chebyshev route in ybar: nested Chebyshev-Lobatto levels, and the error
# target on W2 relative to the largest W2 on the inner draws' range.
_CHEB_LEVELS = (64, 128, 256)
_CHEB_RTOL = 1e-11
# The series is fitted on the inner draws; ceil(draws / _CHEB_ENDS) at each
# end (0.5%) run the kernel. On Figure 5 at 500 replicates the extreme draws
# stretched [min, max] from about [-5.8, 5.6] to [-8, 10], and 17 of the 27
# mixture cells needed 257 nodes there; on the inner range all take 129, and
# the kernel rows fall from 5,659 to 3,645.
_CHEB_ENDS = 200
_CHUNK_DRAWS = 4096  # streams and Clenshaw sums take cells in runs of this many draws


@dataclass(frozen=True)
class ExpectedLearning:
    """Monte Carlo estimate of expected W2 with its sampling uncertainty.

    The estimate and its standard error are finite; E[W2^2] and its
    standard error read inf where they pass the largest double."""

    estimate: float
    mc_std_error: float
    second_moment: float
    second_moment_std_error: float

    def __post_init__(self) -> None:
        for name in ("estimate", "mc_std_error", "second_moment",
                     "second_moment_std_error"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not (math.isfinite(self.estimate) and math.isfinite(self.mc_std_error)):
            raise ValueError("estimate and mc_std_error must be finite")
        # Cauchy-Schwarz: a sample mean never exceeds the root of the
        # sample mean square, so only rounding may put it above, by ulps.
        if self.estimate > math.sqrt(self.second_moment) * (1.0 + 1e-12):
            raise ValueError("estimate exceeds sqrt(second_moment) beyond rounding")


def decision_maker_prior(consensus: Distribution1D, pioneer: Distribution1D,
                         weight: float) -> Distribution1D:
    """weight * pioneer + (1 - weight) * consensus; weights 0 and 1 collapse,
    and MixtureDist rejects a weight outside [0, 1]."""
    if weight == 0.0:
        return consensus
    if weight == 1.0:
        return pioneer
    return MixtureDist(((weight, pioneer), (1.0 - weight, consensus)))


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


def _replicate_uniforms(seeds: Sequence[int], replicates: int, cols: int) -> np.ndarray:
    """One Philox stream per replicate, keyed (seed, index); fixed column layout.

    Row c * replicates + i equals
    ``Generator(Philox(key=[seeds[c] mod 2^64, i])).random(cols)`` for
    cols <= 4: numpy increments the counter before its first block, so that
    block is Philox4x64-10 at counter (1, 0, 0, 0), and doubles are
    (word >> 11) * 2^-53. All rows come from one array pass.
    """
    k0 = np.repeat(np.array([int(s) % (1 << 64) for s in seeds], dtype=np.uint64), replicates)
    k1 = np.tile(np.arange(replicates, dtype=np.uint64), len(seeds))
    c0, c1, c2, c3 = np.ones(k0.size, dtype=np.uint64), *np.zeros((3, k0.size), dtype=np.uint64)
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


def _theta_from_uniforms(priors: Sequence[Distribution1D], uniforms: np.ndarray) -> np.ndarray:
    """Inverse-cdf draws of theta, one equal block of rows per prior. Mixtures
    burn uniform 0 on the component pick and uniform 1 on the component
    quantile; other priors use uniform 0. Each component's quantile runs once."""
    laws, picks, levels = {}, [], []  # laws: id(component) -> (index, component)
    for prior, u in zip(priors, np.split(uniforms, len(priors))):
        comps = _components(prior)  # a one-component mixture picks 0 on every row
        ids = np.array([laws.setdefault(id(c), (len(laws), c))[0] for _, c in comps])
        k = np.searchsorted(np.cumsum([w for w, _ in comps]), u[:, 0], side="right")
        picks.append(ids[np.minimum(k, ids.size - 1)])
        levels.append(u[:, 1 if isinstance(prior, MixtureDist) else 0])
    pick, level = np.concatenate(picks), np.concatenate(levels)
    theta = np.empty(pick.size)
    for j, law in laws.values():
        theta[pick == j] = law.quantile(level[pick == j])
    return theta


def _components(d: Distribution1D):
    return d.components if isinstance(d, MixtureDist) else ((1.0, d),)


def _w2_normal_update(update_prior: NormalDist, reference: NormalDist,
                      ybar: np.ndarray, se: float) -> np.ndarray:
    post_mu, post_sd, _ = _conjugate_moments(update_prior.mu, update_prior.sigma, ybar, se)
    return np.hypot(post_mu - reference.mu, post_sd - reference.sigma)


def _sides(x, w, mu, sd):
    """P(X <= x), P(X > x) and the pdf at x of each row's normal mixture
    (weights w, means mu and sds sd per row)."""
    for k in range(sd.shape[1]):
        wk, sdk = w[:, k:k + 1], sd[:, k:k + 1]
        a = x - mu[:, k:k + 1]
        a /= sdk
        above = a > 0.0
        np.abs(a, out=a)
        e = a * a
        e *= -0.5
        np.exp(e, out=e)
        # One tail per component, from the density's own exponential: the
        # smaller tail keeps every digit, and the larger side, w minus that
        # tail, is near w and needs none.
        tail = lower_tail(a, e)
        tail *= wk
        rest = wk - tail
        e *= wk / sdk
        if k == 0:
            lower, upper, dens = np.where(above, rest, tail), np.where(above, tail, rest), e
        else:
            lower += np.where(above, rest, tail)
            upper += np.where(above, tail, rest)
            dens += e
    dens *= _INV_SQRT_2PI
    return lower, upper, dens


def _transport_w2(w, mu, sd, inverse, ref_levels) -> np.ndarray:
    """W2 from the reference to each row's posterior mixture, E_P[(X - T(X))^2]
    with T = G^-1(F_P), by Gauss-Legendre on the panels between breaks."""
    rows = mu.shape[0]
    breaks = (mu[:, :, None] + sd[:, :, None] * _BREAK_SDS).reshape(rows, -1)
    breaks.sort(axis=1)
    if ref_levels is not None:
        def tails(x, upper, slope):
            lower, above, dens = _sides(x, w, mu, sd)
            return np.where(upper, above, lower), dens
        breaks = np.concatenate([breaks, _mixture_quantiles(tails, ref_levels, breaks)], axis=1)
        breaks.sort(axis=1)
    half = 0.5 * (breaks[:, 1:] - breaks[:, :-1])
    x = ((breaks[:, :-1] + half)[:, :, None] + half[:, :, None] * _GL_NODES).reshape(rows, -1)
    quad = (half[:, :, None] * _GL_WEIGHTS).reshape(rows, -1)
    lower, upper, dens = _sides(x, w, mu, sd)
    below = lower <= upper
    level = np.where(below, lower, upper)
    np.maximum(level, _TINY, out=level)
    x -= inverse(level, below)
    x *= x
    x *= dens
    x *= quad
    return np.sqrt(x.sum(axis=1))


def _w2_mixture_update(reference: Distribution1D, priors: Sequence[Distribution1D],
                       ybar: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Batched W2 for normal or normal-mixture update priors, by the 1-D
    optimal map: W2^2(P, G) = E_P[(X - G^-1(F_P(X)))^2], where ybar[c] and
    se[c] are the outcomes and standard error of a study updating priors[c].

    The monotone rearrangement is the optimal map in 1-D (Villani 2003,
    Topics in Optimal Transportation, ch. 2). Per outcome the posterior P is
    again a normal mixture; a normal update prior is the one-component case.
    F_P is only evaluated forward, and G^-1 is taken from the smaller tail:
    mu + sigma * ndtri for a normal reference, ``quantile`` otherwise. The
    integral runs over panels between each posterior component's mean +/- 0,
    2.25, 4.25 and 7.5 sds, 9-point Gauss-Legendre in each (see
    ``_BREAK_SDS``); a mixture reference adds its components' mean +/- 0, 1,
    ..., 8 sds, where G^-1 bends, carried to x through F_P by
    ``_mixture_quantiles``. The rows of all priors with K components go in
    fixed-size blocks on one thread; no row's value depends on its block.
    """
    if isinstance(reference, NormalDist):
        def inverse(level, below):  # level <= 1/2: the lower side of Phi^-1 alone
            sign = np.where(below, 1.0, -1.0)
            return reference.mu + reference.sigma * sign * ndtri_lower(level)
    else:
        def inverse(level, below):
            return reference.quantile(np.where(below, level, np.minimum(1.0 - level, _TOP)))
    ref_levels = None
    if isinstance(reference, MixtureDist):
        breaks = [np.clip(c.mu + c.sigma * _REF_BREAK_SDS, *c.support())
                  for _, c in reference.components]
        levels = reference.cdf(np.concatenate(breaks))
        ref_levels = levels[(levels > 0.0) & (levels < 1.0)]  # 0 and 1 have no quantile
    out = np.empty(ybar.shape)
    counts = np.array([len(_components(prior)) for prior in priors])
    for count in set(counts):
        cells = np.flatnonzero(counts == count)
        params = np.array([[(w, c.mu, c.sigma) for w, c in _components(priors[i])] for i in cells])
        weights, mus, sds = params[:, None].transpose(3, 0, 1, 2)  # each cells x 1 x K
        y, s = ybar[cells, :, None], se[cells, None, None]
        post_mu, post_sd, log_marginal = _conjugate_moments(mus, sds, y, s)
        post_w, _ = _reweight(np.log(weights) + log_marginal)
        post_w, post_mu, post_sd = (np.broadcast_to(a, post_w.shape).reshape(-1, count)
                                    for a in (post_w, post_mu, post_sd))  # rows x K
        w2 = np.empty(y.size)
        for start in range(0, y.size, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            w2[rows] = _transport_w2(post_w[rows], post_mu[rows], post_sd[rows],
                                     inverse, ref_levels)
        out[cells] = w2.reshape(cells.size, -1)
    return out


def _chebyshev_w2(reference: Distribution1D, priors: Sequence[Distribution1D], ybar: np.ndarray,
                  se: np.ndarray, out: np.ndarray, open_: np.ndarray) -> np.ndarray:
    """The transport kernel at Chebyshev-Lobatto nodes in ybar, not at the draws.

    The posterior depends on the study only through ybar, and W2^2 is
    analytic in ybar (W2 itself has a near-kink where the posterior's sd
    crosses the reference's), so its Chebyshev series converges
    geometrically, at a rate set by how far the nearest complex singularity
    lies from the interval relative to its half-width (Trefethen,
    Approximation Theory and Approximation Practice, ch. 8). The series is
    fitted on the range of each row's inner draws: the ceil(draws /
    _CHEB_ENDS) draws at each end, picked by a stable argsort, run the kernel
    themselves, in the first level's call. Levels of 65, 129 and 257 nodes
    are nested: each adds the odd nodes. The coefficients come from a DCT-I
    by FFT. Twice the sum of the last eighth of them estimates the error in
    W2^2, the series' tail aliased onto the nodes; the largest of the last 8
    alone read slowly converging series 20-30x low. A level is accepted when
    that error, carried through the square root where W2 is smallest, is at
    most _CHEB_RTOL of the largest W2. The series is then summed at the inner
    draws by Clenshaw, which never leaves [-1, 1].

    Each level runs the kernel once, on the new nodes of the rows still open,
    and Clenshaw once per _CHUNK_DRAWS draws of the rows it passes. Accepted
    rows are written to out; the rows no level accepts run the kernel on
    their inner draws, in one more call. The rows of open_ whose inner draws
    are all equal have no range to fit, and are returned untouched.
    """
    if not open_.size:
        return open_
    ends = -(-ybar.shape[1] // _CHEB_ENDS)
    inner, edges = slice(ends, -ends), np.r_[:ends, -ends:0]
    ys = ybar[open_]
    order = ys.argsort(axis=1, kind="stable")
    ys = np.take_along_axis(ys, order, axis=1)
    lo, hi = ys[:, ends], ys[:, -1 - ends]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    live = np.flatnonzero(hi > lo)  # positions in open_ of the rows still open

    def kernel(rows, y):
        return _w2_mixture_update(reference, [priors[i] for i in open_[rows]], y, se[open_[rows]])

    def write(rows, cols, w2):
        out[open_[rows, None], order[rows][:, cols]] = w2

    sq = None
    for n in _CHEB_LEVELS:
        if not live.size:
            break
        j = np.arange(n + 1) if sq is None else np.arange(1, n, 2)
        nodes = mid[live, None] + half[live, None] * np.cos(np.pi * j / n)
        if sq is None:
            new = kernel(live, np.concatenate([nodes, ys[live][:, edges]], axis=1))
            write(live, edges, new[:, n + 1:])
            sq = new[:, :n + 1]**2
        else:
            sq = np.insert(sq, np.arange(1, sq.shape[1]), kernel(live, nodes)**2, axis=1)
        coef = np.fft.rfft(np.concatenate([sq, sq[:, -2:0:-1]], axis=1)).real / n
        coef[:, [0, -1]] *= 0.5
        err = 2.0 * np.abs(coef[:, -(n // 8):]).sum(axis=1)
        budget = _CHEB_RTOL * np.sqrt(sq.max(axis=1))
        # Smallest W2^2 at the nodes first; the series is summed at the draws
        # only then, and the test repeated on its smallest value there.
        low = sq.min(axis=1)
        passed = np.flatnonzero(err <= budget * (np.sqrt(low) + np.sqrt(low + err)))
        accepted = np.zeros(live.size, dtype=bool)
        step = max(1, _CHUNK_DRAWS // ybar.shape[1])
        for p in (passed[start:start + step] for start in range(0, passed.size, step)):
            rows = live[p]
            x = (ys[rows, inner] - mid[rows, None]) / half[rows, None]
            np.clip(x, -1.0, 1.0, out=x)  # rounding only: the inner draws span [lo, hi]
            at = np.polynomial.chebyshev.chebval(x, coef[p].T[:, :, None], tensor=False)
            low = np.maximum(at, 0.0, out=at).min(axis=1)
            ok = err[p] <= budget[p] * (np.sqrt(low) + np.sqrt(low + err[p]))
            write(rows[ok], inner, np.sqrt(at[ok]))
            accepted[p[ok]] = True
        live, sq = live[~accepted], sq[~accepted]
    if live.size:
        write(live, inner, kernel(live, ys[live, inner]))
    return open_[hi <= lo]


def _batched_w2(reference: Distribution1D, priors: Sequence[Distribution1D],
                ybar: np.ndarray, se: np.ndarray) -> np.ndarray:
    """W2 from the reference to each posterior (cells as in ``_w2_mixture_update``):
    closed form for normal pairs; the kernel for the rows it takes, all at once and on
    Chebyshev nodes where even the finest level costs fewer rows than the draws;
    otherwise an exact update per outcome and the quantile formula."""
    out = np.empty(ybar.shape)
    kernel = not any(isinstance(c, GridDensity) for _, c in _components(reference))
    nodes, draws = [], []
    for i, prior in enumerate(priors):
        if isinstance(prior, NormalDist) and isinstance(reference, NormalDist):
            out[i] = _w2_normal_update(prior, reference, ybar[i], se[i])
        elif kernel and all(isinstance(c, NormalDist) for _, c in _components(prior)):
            (nodes if ybar.shape[1] > _CHEB_LEVELS[-1] + 1 else draws).append(i)
        else:  # general fallback: an exact Bayes step per replicate, no silent skipping
            for j, y in enumerate(ybar[i]):
                post, _ = _bayes(prior, Study(float(y), float(se[i])))
                if post is None:
                    raise DegenerateError(f"posterior mass underflowed everywhere at ybar {y:g}")
                out[i, j] = wp_quantile(reference, post, nodes=DEFAULT_W2_NODES)
    # A row whose inner draws are all equal runs the kernel on its draws.
    draws += list(_chebyshev_w2(reference, priors, ybar, se, out, np.array(nodes, dtype=int)))
    if draws:
        out[draws] = _w2_mixture_update(reference, [priors[i] for i in draws],
                                        ybar[draws], se[draws])
    return out


def _expected_learning(reference: Distribution1D, cells,
                        replicates: int) -> list[ExpectedLearning]:
    """The Monte Carlo engine over cells (predictive prior, update prior, se, seed)
    that share a reference. Each stage runs once for all cells, the streams, theta
    and ybar per run of _CHUNK_DRAWS draws; no cell's numbers depend on the others."""
    replicates = int(replicates)
    if replicates < MIN_REPLICATES:
        raise ValueError(f"expected_learning_mc needs at least {MIN_REPLICATES} replicates")
    predictive, updates, se, seeds = zip(*cells)
    se = np.array(se)
    ybar = np.empty((len(cells), replicates))
    step = max(1, _CHUNK_DRAWS // replicates)
    for run in (slice(start, start + step) for start in range(0, len(cells), step)):
        uniforms = _replicate_uniforms(seeds[run], replicates, 3)
        theta = _theta_from_uniforms(predictive[run], uniforms).reshape(-1, replicates)
        # ybar's uniform follows theta's: column 2 after a mixture's pick, else 1.
        cols = [2 if isinstance(pred, MixtureDist) else 1 for pred in predictive[run]]
        noise = ndtri(uniforms.reshape(-1, replicates, 3)[np.arange(len(cols)), :, cols])
        ybar[run] = theta + se[run, None] * noise
    return [_summary(w2) for w2 in _batched_w2(reference, updates, ybar, se)]


def _summary(w2: np.ndarray) -> ExpectedLearning:
    """The mean and second moment of one cell's W2 draws, with their standard
    errors. The moments are taken at unit scale, w2 over the power of two at
    its largest value, so that squares near the largest double do not
    overflow; in range a power of two moves no bit."""
    _, exp = math.frexp(float(w2.max()))
    unit = np.ldexp(w2, -exp)
    sq = unit * unit
    root_n = math.sqrt(w2.size)
    with np.errstate(over="ignore"):  # E[W2^2] past the largest double is inf
        return ExpectedLearning(float(np.ldexp(unit.mean(), exp)),
                                float(np.ldexp(unit.std(ddof=1), exp)) / root_n,
                                float(np.ldexp(sq.mean(), 2 * exp)),
                                float(np.ldexp(sq.std(ddof=1), 2 * exp)) / root_n)


def expected_learning_mc(predictive_prior: Distribution1D,
                         update_prior: Distribution1D,
                         reference_prior: Distribution1D,
                         model: SamplingModel,
                         replicates: int = DEFAULT_REPLICATES,
                         seed: int = 0) -> ExpectedLearning:
    """Monte Carlo E[W2(reference, posterior)] over imagined study outcomes.

    Each replicate draws theta from ``predictive_prior``, simulates the
    sample mean ybar ~ Normal(theta, sigma/sqrt(n)), updates
    ``update_prior`` by Study(ybar, sigma/sqrt(n)), and measures W2 from
    ``reference_prior`` to that posterior. Deterministic given the seed;
    a replicate failure aborts the run.

    W2 is closed form for a normal update prior against a normal
    reference, and the transport-map kernel for normal or normal-mixture
    update priors against references without grid components. With more
    than 257 replicates the kernel runs at Chebyshev nodes spanning the inner
    draws and at the 0.5% of draws at each end, and the series of W2^2 is
    summed at the inner draws when its trailing coefficients put the error
    in W2 at most 1e-11 of the largest W2; otherwise the kernel runs on
    every draw. Update priors with truncated or grid components, and
    references with grid components, take the per-replicate route: an exact
    update each, and the quantile formula on ``DEFAULT_W2_NODES`` nodes.
    """
    cell = (predictive_prior, update_prior, model.std_error(), seed)
    return _expected_learning(reference_prior, [cell], replicates)[0]


def weight_sweep(consensus: Distribution1D,
                 pioneer: Distribution1D,
                 sigma: float,
                 weights: Sequence[float],
                 ns: Sequence[int],
                 replicates: int = DEFAULT_REPLICATES,
                 seed: int = 0) -> list[ExpectedLearning]:
    """Expected-learning curve over pioneer weights and sample sizes, one
    result per (w, n) cell, w outer and n inner.

    For each (w, n) the decision-maker prior (weight w) is both the
    predictive and the update prior while the consensus prior is the
    reference; the design observes n draws of noise sd ``sigma``. Cell seeds
    are seed + row-major index, and all cells run in one pass of the engine:
    each result equals a direct expected_learning_mc call exactly.
    """
    ns = list(ns)
    grid = [(float(w), int(n)) for w in weights for n in ns]
    if not grid:
        raise ValueError("weight_sweep needs nonempty weight and n lists")
    cells = []
    for w, n in grid:
        blended = decision_maker_prior(consensus, pioneer, w)
        cells.append((blended, blended, SamplingModel(sigma, n).std_error(), seed + len(cells)))
    return _expected_learning(consensus, cells, replicates)
