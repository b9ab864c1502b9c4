"""Tests for the distribution layer: densities, cdfs, quantiles, draws by
inverse cdf, moments, discretization, and the scenario-literal round trip."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from scipy import special, stats

import oracles
from beliefshift import (
    GridDensity,
    MixtureDist,
    NormalDist,
    TailMassError,
    TruncatedNormalDist,
    dist_from_literal,
    to_grid,
)
from beliefshift import distributions
from literals import dist_to_literal

STD_NORMAL = NormalDist(0.0, 1.0)
TRUNC = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
# Truncated cases as constructor arguments, so that a constructor that
# refuses one fails its tests, not the collection of this module.
TRUNC_CASES = {
    "body": (0.2, 0.4, 0.0, math.inf),
    # A posterior core of TRUNC (ybar = -1.7, n = 50): the bound sits 11.8
    # latent sd above the mean, where ndtr(b) - ndtr(a) rounds to 0.
    "far_tail": (-1.574641270607759, 0.13333333333333336, 0.0, math.inf),
    "two_sided": (1.0, 2.0, -3.0, 4.0),
    "narrow_far": (0.0, 1.0, -35.79, -35.789),
}


def trunc_cases(*names):
    return pytest.mark.parametrize("args", [TRUNC_CASES[n] for n in names], ids=names)
BIMODAL = MixtureDist(((0.5, NormalDist(0.0, 1.0)), (0.5, NormalDist(10.0, 1.0))))
THREE_POINT = GridDensity([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])


def random_dist(rng):
    """A random leaf or mixture distribution for property tests."""
    kind = rng.integers(0, 4)
    mu = float(rng.uniform(-5.0, 5.0))
    sigma = float(rng.uniform(0.2, 3.0))
    if kind == 0:
        return NormalDist(mu, sigma)
    if kind == 1:
        return TruncatedNormalDist(mu, sigma, mu - 2.0 * sigma, mu + 3.0 * sigma)
    if kind == 2:
        xs = np.sort(rng.uniform(-5.0, 5.0, size=12))
        while np.any(np.diff(xs) <= 0.0):
            xs = np.sort(rng.uniform(-5.0, 5.0, size=12))
        ws = rng.uniform(0.1, 1.0, size=12)
        return GridDensity(xs, ws / ws.sum())
    w = float(rng.uniform(0.2, 0.8))
    return MixtureDist(((w, NormalDist(mu, sigma)), (1.0 - w, NormalDist(mu + 2.0, sigma))))


class TestPdf:
    def test_standard_normal_at_zero(self):
        np.testing.assert_allclose(STD_NORMAL.pdf(0.0), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-12)
        assert abs(STD_NORMAL.pdf(0.0) - 0.39894) < 5e-6

    def test_truncated_zero_outside_support(self):
        assert TRUNC.pdf(-0.1) == 0.0
        assert TRUNC.pdf(-1e-9) == 0.0

    def test_truncated_renormalizes_inside(self):
        # Mass kept by the truncation is 1 - Phi(-0.5).
        keep = 1.0 - special.ndtr(-0.5)
        expected = oracles.normal_pdf(0.2, 0.2, 0.4) / keep
        np.testing.assert_allclose(TRUNC.pdf(0.2), expected, rtol=1e-12)

    @pytest.mark.parametrize("lower, upper", [(10.0, 10.0 + 1e-9), (-5e-10, 5e-10)])
    def test_razor_thin_truncation_keeps_its_mass(self, lower, upper):
        # A difference of two cdf values lost 1e-7 of the kept mass here.
        dist = TruncatedNormalDist(0.0, 1.0, lower, upper)
        xs = lower + (upper - lower) * np.array([0.0, 0.25, 0.5, 0.75])
        exact_pdf, exact_cdf = oracles.truncnorm_pdf_cdf_exact(0.0, 1.0, lower, upper, xs)
        np.testing.assert_allclose(dist.pdf(xs), exact_pdf, rtol=1e-12)
        np.testing.assert_allclose(dist.cdf(xs), exact_cdf, rtol=1e-12, atol=1e-15)
        mid = 0.5 * (lower + upper)
        assert abs(dist.pdf(mid) * (upper - lower) - 1.0) <= 1e-12
        assert abs(dist.cdf(upper) - 1.0) <= 1e-12

    def test_narrow_truncation_far_from_mu_matches_exact_inputs(self):
        # Standardizing x and each bound separately cost 1.1e-12 of the cdf.
        dist = TruncatedNormalDist(0.0, 1000.0, 9000.0, 9001.0)
        xs = np.linspace(9000.0, 9001.0, 41)
        exact_pdf, exact_cdf = oracles.truncnorm_pdf_cdf_exact(
            0.0, 1000.0, 9000.0, 9001.0, xs)
        np.testing.assert_allclose(dist.pdf(xs), exact_pdf, rtol=1e-13)
        np.testing.assert_allclose(dist.cdf(xs), exact_cdf, rtol=0.0, atol=1e-13)

    def test_mixture_is_weighted_sum(self):
        xs = np.linspace(-3.0, 13.0, 23)
        expected = 0.5 * NormalDist(0.0, 1.0).pdf(xs) + 0.5 * NormalDist(10.0, 1.0).pdf(xs)
        np.testing.assert_allclose(BIMODAL.pdf(xs), expected, rtol=1e-12)

    def test_grid_density_is_mass_over_cell_width(self):
        g = GridDensity([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        # Interior cell width is half the span of the two neighbours.
        np.testing.assert_allclose(g.pdf(1.0), 0.3 / 1.5, rtol=1e-12)
        assert g.pdf(-0.5) == 0.0
        assert g.pdf(3.5) == 0.0

    def test_grid_pdf_integrates_to_one(self):
        g = to_grid(STD_NORMAL, -8.0, 8.0, 512)
        xs = np.linspace(-8.0, 8.0, 20001)
        integral = np.trapezoid(g.pdf(xs), xs)
        np.testing.assert_allclose(integral, 1.0, atol=1e-3)


class TestCdf:
    def test_standard_normal_median(self):
        np.testing.assert_allclose(STD_NORMAL.cdf(0.0), 0.5, atol=1e-15)

    def test_shifted_normal_at_zero(self):
        np.testing.assert_allclose(NormalDist(0.2, 0.4).cdf(0.0), special.ndtr(-0.5), rtol=1e-12)
        assert abs(NormalDist(0.2, 0.4).cdf(0.0) - 0.3085) < 5e-5

    def test_balanced_mixture_midpoint(self):
        np.testing.assert_allclose(BIMODAL.cdf(5.0), 0.5, atol=1e-12)

    def test_mixture_cdf_pointwise_sum(self):
        rng = default_rng(42)
        xs = rng.uniform(-6.0, 16.0, size=100)
        expected = 0.5 * NormalDist(0.0, 1.0).cdf(xs) + 0.5 * NormalDist(10.0, 1.0).cdf(xs)
        np.testing.assert_allclose(BIMODAL.cdf(xs), expected, atol=1e-12)

    def test_cdf_monotone_everywhere(self):
        rng = default_rng(42)
        for _ in range(20):
            d = random_dist(rng)
            xs = np.sort(rng.uniform(-12.0, 12.0, size=200))
            vals = d.cdf(xs)
            assert np.all(np.diff(vals) >= -1e-13)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_narrow_truncated_cdf_alone_equals_in_an_array(self):
        # A BLAS product summed the 16 Gauss-Legendre terms with a rounding
        # that depends on the array's size: 279 of these 12,800 values moved.
        rng = default_rng(3)
        for _ in range(200):
            lower = rng.uniform(-3.0, 3.0)
            width = 10.0 ** rng.uniform(-6.0, 0.0)
            dist = TruncatedNormalDist(0.0, 1.0, lower, lower + width)
            xs = lower + width * rng.random(64)
            alone = np.array([dist.cdf(x) for x in xs])
            assert dist.cdf(xs).tobytes() == alone.tobytes()

    def test_grid_cdf_step_values(self):
        np.testing.assert_allclose(THREE_POINT.cdf(1.0), 1 / 3, rtol=1e-12)
        np.testing.assert_allclose(THREE_POINT.cdf(2.5), 2 / 3, rtol=1e-12)
        assert THREE_POINT.cdf(0.5) == 0.0
        assert THREE_POINT.cdf(3.0) == 1.0


class TestQuantile:
    def test_standard_normal_median(self):
        assert STD_NORMAL.quantile(0.5) == 0.0

    def test_wide_normal_upper_tail(self):
        q = NormalDist(0.0, 10.0).quantile(0.975)
        assert abs(q - 19.6) < 0.01
        oracle = oracles.bisect_quantile(NormalDist(0.0, 10.0).cdf, 0.975, -80.0, 80.0)
        np.testing.assert_allclose(q, oracle, atol=1e-9)

    def test_grid_generalized_inverse(self):
        assert THREE_POINT.quantile(0.4) == 2.0
        for t in (0.05, 1 / 3, 0.34, 0.999):
            expected = oracles.grid_quantile_bruteforce(THREE_POINT.xs, THREE_POINT.ws, t)
            assert THREE_POINT.quantile(t) == expected

    def test_rejects_boundary_levels(self):
        for t in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                STD_NORMAL.quantile(t)

    def test_galois_inequalities(self):
        rng = default_rng(42)
        for _ in range(15):
            d = random_dist(rng)
            ts = rng.uniform(0.01, 0.99, size=50)
            qs = d.quantile(ts)
            # cdf(quantile(t)) >= t and quantile(cdf(x)) <= x.
            assert np.all(d.cdf(qs) >= ts - 1e-9)
            xs = d.quantile(rng.uniform(0.05, 0.95, size=50))
            ps = np.clip(d.cdf(xs), 1e-12, 1.0 - 1e-12)
            assert np.all(d.quantile(ps) <= xs + 1e-9 * (1.0 + np.abs(xs)))

    @trunc_cases("body", "far_tail", "two_sided", "narrow_far")
    def test_truncated_matches_oracle_into_both_tails(self, args):
        dist = TruncatedNormalDist(*args)
        ts = np.array([1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
        expected = oracles.truncnorm_quantile(dist.mu, dist.sigma, dist.lower, dist.upper, ts)
        np.testing.assert_allclose(dist.quantile(ts), expected, rtol=1e-13, atol=1e-15)

    def test_mixture_quantile_inverts_cdf(self):
        ts = np.linspace(0.01, 0.99, 25)
        qs = BIMODAL.quantile(ts)
        np.testing.assert_allclose(BIMODAL.cdf(qs), ts, atol=1e-9)
        assert np.all(np.diff(qs) >= 0.0)

    # (weight, mu, sigma, lower) parts; the second blend is the prospective
    # truncated cell's decision-maker prior at w = 0.5.
    @pytest.mark.parametrize("parts", [
        [(0.3, 0.0, 3.0, -math.inf), (0.7, 3.0, 1.0, -math.inf)],
        [(0.5, 0.2, 0.4, 0.0), (0.5, 0.0, 1.0, -math.inf)],
    ], ids=["normal_normal", "truncated_normal"])
    def test_mixture_matches_exact_tail_root(self, parts):
        # Reading the upper tail as 1 - cdf lost 1.2e-5 at 1 - 1e-12.
        mix = MixtureDist(tuple(
            (w, NormalDist(mu, sigma) if math.isinf(lower)
             else TruncatedNormalDist(mu, sigma, lower)) for w, mu, sigma, lower in parts))
        ts = np.array([1e-12, 1e-6, 0.3, 0.5, 0.7, 1.0 - 1e-6, 1.0 - 1e-12])
        expected = [oracles.mixture_quantile_exact(parts, t) for t in ts]
        np.testing.assert_allclose(mix.quantile(ts), expected, rtol=0.0,
                                   atol=1e-13 * mix.moments()[1])

    # Nodes 1e12 apart make the table cells 8e9 wide and put the top node at
    # the window's end.
    @pytest.mark.parametrize("xs", [[0.0, 1.0, 2.0], [-1e12, 0.0, 1e12]],
                             ids=["unit_nodes", "nodes_1e12_apart"])
    def test_mixture_jumps_match_bruteforce_inverse(self, xs):
        ws = [1 / 3, 1 / 3, 1 / 3]
        mix = MixtureDist(((0.5, STD_NORMAL), (0.5, GridDensity(xs, ws))))
        # Levels just above the foot, in the middle and just below the top of
        # each jump, where the cdf has no slope for Newton to follow.
        foot = 0.5 * special.ndtr(np.array(xs)) + 0.5 * np.array([0.0, 1 / 3, 2 / 3])
        ts = (foot[:, None] + (0.5 / 3) * np.array([1e-9, 0.5, 1.0 - 1e-9])).ravel()
        expected = [oracles.normal_grid_jump_quantile(0.5, 0.0, 1.0, xs, ws, t) for t in ts]
        np.testing.assert_allclose(mix.quantile(ts), expected, rtol=1e-14, atol=1e-14)

    def test_mixture_flat_stretches_give_their_left_end(self):
        # Where the cdf is flat at t, inf{x : F(x) >= t} is the stretch's
        # left end; Newton sees no slope there and a zero step.
        grid = MixtureDist(((1.0, GridDensity([0.0, 1.0, 2.0, 3.0], [0.25] * 4)),))
        np.testing.assert_allclose(grid.quantile([0.25, 0.5, 0.75]), [0.0, 1.0, 2.0],
                                   rtol=0.0, atol=1e-14)
        apart = MixtureDist(((0.5, TruncatedNormalDist(0.0, 1.0, -1.0, 0.0)),
                             (0.5, TruncatedNormalDist(0.0, 1.0, 1.0, 2.0))))
        assert abs(apart.quantile(0.5)) <= 1e-14
        assert abs(apart.quantile([0.5, 0.25, 0.75])[0]) <= 1e-14

    def test_mixture_solver_raises_at_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(distributions, "_MAX_SWEEPS", 1)
        with pytest.raises(ArithmeticError):
            BIMODAL.quantile(np.linspace(0.1, 0.9, 8))


class TestSample:
    def test_zero_count_is_empty(self):
        for d in (STD_NORMAL, TRUNC, BIMODAL, THREE_POINT):
            draws = d.quantile(np.empty(0))
            assert draws.shape == (0,)

    def test_normal_mean_converges(self):
        draws = NormalDist(3.0, 1.0).quantile(default_rng(42).random(100_000))
        assert abs(draws.mean() - 3.0) < 0.02

    def test_truncated_respects_support(self):
        draws = TRUNC.quantile(default_rng(42).random(50_000))
        assert draws.min() >= 0.0

    def test_truncated_draws_invert_the_same_uniforms_as_scipy(self):
        for name in ("body", "far_tail", "two_sided"):
            d = TruncatedNormalDist(*TRUNC_CASES[name])
            oracle = oracles.truncnorm_frozen(d.mu, d.sigma, d.lower, d.upper)
            np.testing.assert_allclose(d.quantile(default_rng(3).random(1000)),
                                       oracle.rvs(size=1000, random_state=default_rng(3)),
                                       rtol=1e-12, atol=1e-15)

    def test_deterministic_given_seed(self):
        for d in (STD_NORMAL, TRUNC, BIMODAL, THREE_POINT):
            a = d.quantile(default_rng(7).random(1000))
            b = d.quantile(default_rng(7).random(1000))
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "dist",
        [STD_NORMAL, TRUNC, BIMODAL, NormalDist(-2.0, 0.5)],
        ids=["normal", "truncated", "mixture", "shifted"],
    )
    def test_continuous_draws_pass_ks(self, dist):
        draws = dist.quantile(default_rng(42).random(100_000))
        stat = stats.kstest(draws, dist.cdf)
        assert stat.pvalue > 1e-3

    def test_grid_draw_frequencies_match_masses(self):
        g = GridDensity([0.0, 1.0, 2.0, 5.0], [0.1, 0.2, 0.3, 0.4])
        draws = g.quantile(default_rng(42).random(100_000))
        for x, w in zip(g.xs, g.ws):
            freq = np.mean(draws == x)
            assert abs(freq - w) < 5.0 * math.sqrt(w * (1.0 - w) / draws.size)


class TestMoments:
    def test_normal_exact(self):
        assert NormalDist(3.0, 1.5).moments() == (3.0, 1.5)

    def test_truncated_matches_closed_form(self):
        mean, sd = TRUNC.moments()
        keep = 1.0 - special.ndtr(-0.5)
        expected_mean = 0.2 + 0.4 * oracles.normal_pdf(-0.5, 0.0, 1.0) / keep
        np.testing.assert_allclose(mean, expected_mean, rtol=1e-9)
        quad_mean, quad_sd = oracles.pdf_moments_quad(TRUNC.pdf, 0.0, 4.0)
        np.testing.assert_allclose(mean, quad_mean, atol=1e-7)
        np.testing.assert_allclose(sd, quad_sd, atol=1e-7)

    @trunc_cases("far_tail", "two_sided", "narrow_far")
    def test_truncated_matches_exact_oracle(self, args):
        dist = TruncatedNormalDist(*args)
        mean, sd = dist.moments()
        exact_mean, exact_sd = oracles.truncnorm_moments_exact(
            dist.mu, dist.sigma, dist.lower, dist.upper)
        # mean = mu + sigma * m1 cancels when the bound is far out; scale by
        # the terms, not the result.
        np.testing.assert_allclose(mean, exact_mean, rtol=0.0,
                                   atol=1e-13 * (abs(dist.mu) + dist.sigma * abs(mean - dist.mu)))
        np.testing.assert_allclose(sd, exact_sd, rtol=1e-10)

    def test_narrow_sd_far_from_a_wide_latent(self):
        # Bounds 9 latent sds out and 1e-3 apart: the width must come from
        # the raw bounds, not from two standardized ones.
        dist = TruncatedNormalDist(0.0, 1000.0, 9000.0, 9001.0)
        exact_sd = oracles.truncnorm_moments_exact(0.0, 1000.0, 9000.0, 9001.0)[1]
        np.testing.assert_allclose(dist.moments()[1], exact_sd, rtol=1e-14)

    @pytest.mark.parametrize("args", [
        (5.0, 3.0, -1e4, -9999.5),
        (-2.0, 0.01, 5.0, 5.0001),
        (0.0, 1.0, 5000.0, math.inf),
        (3.0, 0.5, -math.inf, -2000.0),
    ], ids=["two_sided_3335_sd_out", "two_sided_700_sd_out", "one_sided_5000_sd_out",
            "one_sided_upper_4006_sd_out"])
    def test_sd_far_in_a_tail_keeps_every_digit(self, args):
        # The closed form cancels to 1/lo^2 here and read these sds 1.2%,
        # 1.3e-5, 2.1e-3 and 1.7% off; the continued fraction gives them
        # to rounding.
        dist = TruncatedNormalDist(*args)
        exact_mean, exact_sd = oracles.truncnorm_moments_exact(*args)
        mean, sd = dist.moments()
        np.testing.assert_allclose(sd, exact_sd, rtol=1e-12)
        np.testing.assert_allclose(mean, exact_mean, rtol=1e-15)

    def test_mixture_matches_sampling_oracle(self):
        mix = MixtureDist(((0.3, NormalDist(-1.0, 0.5)), (0.7, TruncatedNormalDist(2.0, 1.0, 0.0, math.inf))))
        mean, sd = mix.moments()
        draws = mix.quantile(default_rng(42).random(1_000_000))
        se_mean = draws.std() / math.sqrt(draws.size)
        assert abs(mean - draws.mean()) < 5.0 * se_mean
        # sd of the sample sd is roughly sd / sqrt(2n) for light tails.
        assert abs(sd - draws.std()) < 5.0 * sd / math.sqrt(2.0 * draws.size)

    def test_grid_moments_are_weighted_sums(self):
        mean, sd = THREE_POINT.moments()
        np.testing.assert_allclose(mean, 2.0, rtol=1e-12)
        np.testing.assert_allclose(sd, math.sqrt(2.0 / 3.0), rtol=1e-12)


@st.composite
def truncations(draw):
    """Latent scales 1e-3 to 1e3; one lower, one upper or two bounds up to
    40 latent sd on either side of the mean; intervals down to 1e-3 sd."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    mu = sigma * draw(st.floats(-5.0, 5.0))
    a = draw(st.floats(-40.0, 40.0))
    kind = draw(st.sampled_from(["lower", "upper", "both"]))
    if kind == "lower":
        return TruncatedNormalDist(mu, sigma, mu + sigma * a, math.inf)
    if kind == "upper":
        return TruncatedNormalDist(mu, sigma, -math.inf, mu + sigma * a)
    width = 10.0 ** draw(st.floats(-3.0, math.log10(80.0)))
    return TruncatedNormalDist(mu, sigma, mu + sigma * a, mu + sigma * (a + width))


LEVELS = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


class TestTruncatedProperties:
    """Quantiles against scipy's truncnorm, pdf, cdf and moments against
    60- and 80-digit arithmetic, from the body of the latent normal out to
    40 sd."""

    @PROPERTY_SETTINGS
    @given(truncations())
    def test_quantile_matches_oracle(self, dist):
        expected = oracles.truncnorm_quantile(dist.mu, dist.sigma, dist.lower, dist.upper, LEVELS)
        np.testing.assert_allclose(dist.quantile(LEVELS), expected,
                                   rtol=1e-12, atol=1e-12 * dist.sigma)

    @PROPERTY_SETTINGS
    @given(truncations())
    def test_pdf_and_cdf_match_oracle(self, dist):
        xs = oracles.truncnorm_quantile(dist.mu, dist.sigma, dist.lower, dist.upper, LEVELS)
        # Off the support too, on both sides.
        lo, hi = dist.support()
        xs = np.concatenate([xs, [lo - dist.sigma, hi + dist.sigma]])
        exact_pdf, exact_cdf = oracles.truncnorm_pdf_cdf_exact(
            dist.mu, dist.sigma, dist.lower, dist.upper, xs)
        np.testing.assert_allclose(dist.pdf(xs), exact_pdf, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(dist.cdf(xs), exact_cdf, rtol=0.0, atol=1e-12)

    @PROPERTY_SETTINGS
    # Narrow, 34 sd out: the closed-form quantile at 0.99 read 4.9 ulps off.
    @example(TruncatedNormalDist(2.0, 1.0, -31.77447868322823, -31.772850569844024))
    @given(truncations())
    def test_cdf_inverts_quantile(self, dist):
        qs = dist.quantile(LEVELS)
        # A level is only as sharp as the spacing of doubles near its quantile.
        slack = 4.0 * np.spacing(np.abs(qs)) * dist.pdf(qs)
        assert np.all(np.abs(dist.cdf(qs) - LEVELS) <= 1e-12 + slack)

    @PROPERTY_SETTINGS
    @given(truncations())
    def test_moments_match_exact_oracle(self, dist):
        mean, sd = dist.moments()
        exact_mean, exact_sd = oracles.truncnorm_moments_exact(
            dist.mu, dist.sigma, dist.lower, dist.upper)
        # mean = mu + sigma * m1 may cancel.
        assert abs(mean - exact_mean) <= 1e-13 * (abs(dist.mu) + abs(mean - dist.mu)) + 1e-12 * sd
        np.testing.assert_allclose(sd, exact_sd, rtol=1e-12)


@st.composite
def mixtures(draw):
    """Two or three components, each a normal, a truncation from truncations()
    (narrow ones included) or a three-node grid, with random weights."""
    comps = []
    for _ in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(["normal", "truncated", "grid"]))
        if kind == "normal":
            comps.append(NormalDist(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 3.0))))
        elif kind == "truncated":
            comps.append(draw(truncations()))
        else:
            nodes = draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3, unique=True))
            comps.append(GridDensity(sorted(nodes), [0.2, 0.5, 0.3]))
    raw = [draw(st.floats(0.05, 1.0)) for _ in comps]
    return MixtureDist(tuple((r / sum(raw), c) for r, c in zip(raw, comps)))


OPEN_LEVELS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestMixtureQuantileProperties:
    @settings(max_examples=100, deadline=None)
    @given(mixtures(), st.lists(OPEN_LEVELS, min_size=1, max_size=6),
           st.lists(OPEN_LEVELS, max_size=40))
    def test_a_level_reads_the_same_bits_in_any_call(self, mix, levels, others):
        # The start table spanned the call's extreme levels, and settled
        # levels kept taking Newton steps until the last one settled.
        alone = np.array([mix.quantile(t) for t in levels]).tobytes()
        for rest in (others, [1e-300, 1.0 - 1e-16]):
            assert mix.quantile(np.array(levels + rest))[:len(levels)].tobytes() == alone


class TestToGrid:
    def test_wide_window_preserves_moments(self):
        g = to_grid(STD_NORMAL, -8.0, 8.0, 2048)
        mean, sd = g.moments()
        assert abs(mean - 0.0) < 1e-4
        assert abs(sd - 1.0) < 1e-4

    def test_narrow_window_raises(self):
        with pytest.raises(TailMassError):
            to_grid(STD_NORMAL, -1.0, 1.0, 256)

    def test_grid_input_idempotent(self):
        g = to_grid(STD_NORMAL, -8.0, 8.0, 512)
        again = to_grid(g, -9.0, 9.0, 4096)
        assert again is g
        np.testing.assert_allclose(again.xs, g.xs, atol=1e-12)
        np.testing.assert_allclose(again.ws, g.ws, atol=1e-12)

    def test_grid_input_clipping_guard(self):
        g = GridDensity([0.0, 1.0, 2.0], [0.5, 0.4, 0.1])
        with pytest.raises(TailMassError):
            to_grid(g, 0.5, 2.5, 256)

    def test_truncated_window_respects_support(self):
        g = to_grid(TRUNC, 0.0, 3.0, 1024)
        assert g.xs.min() >= 0.0
        mean, sd = g.moments()
        exact_mean, exact_sd = TRUNC.moments()
        assert abs(mean - exact_mean) < 1e-3
        assert abs(sd - exact_sd) < 1e-3

    def test_rejects_bad_window_or_resolution(self):
        with pytest.raises(ValueError):
            to_grid(STD_NORMAL, 2.0, -2.0, 512)
        with pytest.raises(ValueError):
            to_grid(STD_NORMAL, -8.0, 8.0, 16)


class TestValidation:
    def test_normal_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            NormalDist(0.0, 0.0)
        with pytest.raises(ValueError):
            NormalDist(0.0, -1.0)
        with pytest.raises(ValueError):
            NormalDist(math.nan, 1.0)

    def test_truncated_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            TruncatedNormalDist(0.0, 1.0, 2.0, 1.0)

    def test_truncated_far_from_the_mass_is_accepted(self):
        # 11.8 sd out the kept mass is 2e-32: small, not absent.
        d = TruncatedNormalDist(*TRUNC_CASES["far_tail"])
        mean, sd = d.moments()
        assert 0.0 < mean < 0.02 and 0.0 < sd < mean
        # Only an interval whose mass underflows the log is refused.
        with pytest.raises(ValueError, match="no mass"):
            TruncatedNormalDist(0.0, 1.0, 1e160, math.inf)

    def test_grid_requires_increasing_nodes_and_unit_mass(self):
        with pytest.raises(ValueError):
            GridDensity([0.0, 0.0, 1.0], [0.3, 0.3, 0.4])
        with pytest.raises(ValueError):
            GridDensity([0.0, 1.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            GridDensity([0.0, 1.0], [1.2, -0.2])

    def test_mixture_requires_unit_weight(self):
        with pytest.raises(ValueError):
            MixtureDist(((0.5, STD_NORMAL), (0.4, NormalDist(1.0, 1.0))))
        with pytest.raises(ValueError):
            MixtureDist(((-0.5, STD_NORMAL), (1.5, NormalDist(1.0, 1.0))))

    def test_nested_mixture_flattens(self):
        inner = MixtureDist(((0.5, NormalDist(0.0, 1.0)), (0.5, NormalDist(1.0, 1.0))))
        outer = MixtureDist(((0.4, inner), (0.6, NormalDist(5.0, 2.0))))
        assert len(outer.components) == 3
        np.testing.assert_allclose(outer.weights(), [0.2, 0.2, 0.6], atol=1e-15)


class TestLiterals:
    @pytest.mark.parametrize(
        "dist",
        [
            NormalDist(0.3, 1.7),
            TruncatedNormalDist(0.2, 0.4, 0.0, math.inf),
            TruncatedNormalDist(-1.0, 2.0, -3.0, 4.0),
            MixtureDist(((0.25, NormalDist(0.0, 3.0)), (0.75, NormalDist(3.0, 1.0)))),
            GridDensity([0.0, 0.5, 1.0], [0.2, 0.5, 0.3]),
        ],
        ids=["normal", "half_line", "interval", "mixture", "grid"],
    )
    def test_round_trip_identity(self, dist):
        assert dist_from_literal(dist_to_literal(dist)) == dist

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            dist_from_literal({"type": "gamma", "shape": 2.0})

    def test_rejects_extra_keys(self):
        with pytest.raises(ValueError):
            dist_from_literal({"type": "normal", "mu": 0.0, "sigma": 1.0, "skew": 2.0})

    def test_rejects_non_numeric_fields(self):
        with pytest.raises(ValueError):
            dist_from_literal({"type": "normal", "mu": "zero", "sigma": 1.0})
        with pytest.raises(ValueError):
            dist_from_literal({"type": "normal", "mu": True, "sigma": 1.0})
