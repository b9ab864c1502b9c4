"""Tests for Bayesian updating: conjugate, mixture, and grid routes,
sequential chains, and the predictive density."""

import math
import warnings

import numpy as np
import pytest
from numpy.random import default_rng
from scipy import stats

import oracles
from beliefshift import (
    DegenerateError,
    GridDensity,
    MixtureDist,
    NormalDist,
    SamplingModel,
    Study,
    TailMassError,
    TruncatedNormalDist,
    UnsupportedPriorError,
    log_predictive_density,
    log_surprisal,
    sequential_update,
    to_grid,
    update,
    update_grid,
)
from beliefshift.updating import _bayes, _conjugate_moments

APPF_STUDY = Study(0.074, 0.121)
LAWN_PRIOR = NormalDist(0.0, 5.0)
LAWN_STUDIES = (Study(2.5, 1.7), Study(-1.4, 5.7), Study(1.8, 0.9), Study(-1.2, 2.6))
# One component of each family a mixture takes.
THREE_FAMILY_MIX = MixtureDist((
    (0.3, NormalDist(0.0, 3.0)),
    (0.3, TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)),
    (0.4, GridDensity(np.linspace(-1.0, 3.0, 9), np.array([1, 2, 4, 6, 7, 6, 4, 2, 1]) / 33.0)),
))


def predictive_oracle(comp, ybar: float, se: float) -> float:
    """Marginal density of ybar under one prior component, from the oracles."""
    if isinstance(comp, NormalDist):
        return oracles.normal_pdf(ybar, comp.mu, math.hypot(comp.sigma, se))
    if isinstance(comp, TruncatedNormalDist):
        return math.exp(oracles.truncnorm_log_predictive_exact(
            comp.mu, comp.sigma, comp.lower, comp.upper, ybar, se))
    return oracles.riemann_predictive(comp.xs, comp.ws, ybar, se)


class TestStudyAndModel:
    def test_study_rejects_bad_std_error(self):
        with pytest.raises(ValueError):
            Study(1.0, 0.0)
        with pytest.raises(ValueError):
            Study(1.0, -2.0)
        with pytest.raises(ValueError):
            Study(math.inf, 1.0)

    def test_sampling_model_std_error(self):
        assert SamplingModel(2.0, 4).std_error() == 1.0
        np.testing.assert_allclose(SamplingModel(1.0, 50).std_error(), 1.0 / math.sqrt(50.0))

    def test_sampling_model_validation(self):
        with pytest.raises(ValueError):
            SamplingModel(0.0, 10)
        with pytest.raises(ValueError):
            SamplingModel(1.0, 0)
        # sigma / sqrt(n) underflows to 0, or sqrt(n) is past the doubles.
        for sigma, n in ((1e-300, 10**300), (1.0, 10**400)):
            with pytest.raises(ValueError, match="positive finite double"):
                SamplingModel(sigma, n)


class TestConjugate:
    def test_vaccine_example(self):
        post = update(NormalDist(0.0, 10.0), Study(6.67, 5.77))
        assert abs(post.mu - 5.00) < 0.01
        assert abs(post.sigma - 5.00) < 0.01

    def test_lawn_sign_first_step(self):
        post = update(LAWN_PRIOR, Study(2.5, 1.7))
        assert abs(post.mu - 2.24) < 0.005
        assert abs(post.sigma - 1.61) < 0.005

    def test_equal_precision_symmetric(self):
        post = update(NormalDist(0.0, 1.0), Study(0.0, 1.0))
        assert post.mu == 0.0
        np.testing.assert_allclose(post.sigma, 1.0 / math.sqrt(2.0), rtol=1e-15)

    def test_matches_precision_oracle(self):
        rng = default_rng(42)
        for _ in range(50):
            prior = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 4.0))
            study = Study(rng.uniform(-5, 5), rng.uniform(0.2, 4.0))
            post = update(prior, study)
            mean, sd = oracles.conjugate_posterior(prior.mu, prior.sigma,
                                                   study.estimate, study.std_error)
            np.testing.assert_allclose(post.mu, mean, rtol=1e-12)
            np.testing.assert_allclose(post.sigma, sd, rtol=1e-12)

    def test_extreme_scales_match_precision_oracle(self):
        # Scaling every input by c scales the posterior by c, so the oracle
        # runs at unit scale, where its squared scales stay representable.
        rng = default_rng(7)
        for c in (1e-300, 1e300):
            for _ in range(20):
                mu, est = rng.uniform(-5, 5, size=2)
                sd, se = rng.uniform(0.2, 4.0, size=2)
                post = update(NormalDist(c * mu, c * sd), Study(c * est, c * se))
                mean, post_sd = oracles.conjugate_posterior(mu, sd, est, se)
                np.testing.assert_allclose(post.mu, c * mean, rtol=1e-12)
                np.testing.assert_allclose(post.sigma, c * post_sd, rtol=1e-12)
        # Scales 1e300 apart: the narrower side wins outright.
        assert update(NormalDist(0.0, 1e-300), Study(0.5, 1.0)) \
            == NormalDist(0.0, 1e-300)
        assert update(NormalDist(0.0, 1e300), Study(0.5, 1.0)) \
            == NormalDist(0.5, 1.0)

    def test_scales_whose_hypot_overflows(self):
        # hypot(sd, se) passes the largest double once both are past about
        # 1.27e308; the posterior's own scales stay finite. The oracle runs
        # at unit scale, as above.
        c = 1e308
        for mu, sd, est, se in ((0.0, 1.5, 0.0, 1.5), (0.3, 1.5, -0.2, 1.7), (0.0, 1.79, 1.0, 1.3)):
            post = update(NormalDist(c * mu, c * sd), Study(c * est, c * se))
            mean, post_sd = oracles.conjugate_posterior(mu, sd, est, se)
            np.testing.assert_allclose(post.mu, c * mean, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(post.sigma, c * post_sd, rtol=1e-12)
        # The predictive sd, hypot(1.5e308, 1.5e308) = 2.1e308, is past the
        # largest double; -log(sqrt(2 pi) * 2.1e308) by 30-digit mpmath.
        value = log_predictive_density(NormalDist(0.0, 1.5e308), SamplingModel(1.5e308, 1), 0.0)
        np.testing.assert_allclose(value, -710.867185873759, rtol=1e-12)
        prior = TruncatedNormalDist(0.0, 1.5e308, 2e307, math.inf)
        value = log_predictive_density(prior, SamplingModel(1.5e308, 1), 1e308)
        expected = oracles.truncnorm_log_predictive_exact(
            prior.mu, prior.sigma, prior.lower, prior.upper, 1e308, 1.5e308)
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_overflow_rescue_leaves_finite_entries_bits(self):
        sd, se = np.array([2.0, 1.5e308, 0.7]), np.array([3.0, 1.5e308, 1e-3])
        got = _conjugate_moments(np.array([1.0, 0.0, -2.0]), sd, 0.5, se)
        for i in (0, 2):  # mean, sd and log marginal
            assert tuple(a[i] for a in got) == _conjugate_moments([1.0, 0.0, -2.0][i], sd[i],
                                                                  0.5, se[i])
        assert got[1][1] == 1.5e308 * (1.0 / math.sqrt(2.0))

    def test_sd_strictly_decreases(self):
        rng = default_rng(42)
        for _ in range(50):
            prior = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 4.0))
            study = Study(rng.uniform(-5, 5), rng.uniform(0.2, 50.0))
            assert update(prior, study).sigma < prior.sigma

    def test_mean_strictly_between(self):
        rng = default_rng(42)
        for _ in range(50):
            prior = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 4.0))
            est = float(rng.uniform(-5, 5))
            if est == prior.mu:
                continue
            post = update(prior, Study(est, rng.uniform(0.2, 4.0)))
            lo, hi = sorted((prior.mu, est))
            assert lo < post.mu < hi


class TestUpdateGrid:
    def test_appendix_normal_example_default_window(self):
        post = update_grid(NormalDist(0.3, 0.3), APPF_STUDY)
        mean, sd = post.moments()
        assert abs(mean - 0.106) < 0.002
        assert abs(sd - 0.112) < 0.002

    def test_appendix_normal_example_explicit_window(self):
        # [-2.5, 2] covers both prior and likelihood beyond the 1e-6 budget.
        post = update_grid(NormalDist(0.3, 0.3), APPF_STUDY, -2.5, 2.0, 4096)
        mean, sd = post.moments()
        assert abs(mean - 0.106) < 0.002
        assert abs(sd - 0.112) < 0.002

    def test_pinned_narrow_windows_violate_tail_budget(self):
        # The [-1.5, 1.5] window leaves ~3e-5 prior mass outside and the
        # [0, 2] window ~5e-6, so the declared 1e-6 budget rejects both.
        with pytest.raises(TailMassError):
            update_grid(NormalDist(0.3, 0.3), APPF_STUDY, -1.5, 1.5, 4096)
        with pytest.raises(TailMassError):
            update_grid(TruncatedNormalDist(0.2, 0.4, 0.0, math.inf), APPF_STUDY, 0.0, 2.0, 4096)

    def test_truncated_prior_support_preserved(self):
        trunc = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
        for post in (
            update_grid(trunc, APPF_STUDY),
            update_grid(trunc, APPF_STUDY, 0.0, 2.5, 4096),
        ):
            assert isinstance(post, GridDensity)
            assert post.xs.min() >= 0.0

    def test_uninformative_likelihood_returns_prior(self):
        prior = GridDensity([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
        post = update_grid(prior, Study(0.0, 1e6))
        np.testing.assert_allclose(post.ws, prior.ws, atol=1e-6)
        np.testing.assert_array_equal(post.xs, prior.xs)

    def test_matches_conjugate_moments(self):
        rng = default_rng(42)
        for _ in range(10):
            prior = NormalDist(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
            study = Study(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
            grid_post = update_grid(prior, study)
            exact = update(prior, study)
            mean, sd = grid_post.moments()
            assert abs(mean - exact.mu) < 1e-3
            assert abs(sd - exact.sigma) < 1e-3

    def test_truncated_posterior_matches_analytic_form(self):
        # Truncating the conjugate core at the same bounds gives the exact
        # posterior; the grid route must agree on moments.
        trunc = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
        core_mean, core_sd = oracles.conjugate_posterior(0.2, 0.4, 0.074, 0.121)
        exact = oracles.truncnorm_frozen(core_mean, core_sd, 0.0, math.inf)
        post = update_grid(trunc, APPF_STUDY)
        mean, sd = post.moments()
        assert abs(mean - float(exact.mean())) < 1e-3
        assert abs(sd - float(exact.std())) < 1e-3

    def test_estimate_far_below_the_support(self):
        # 12 se below the bound the likelihood keeps 2e-33 of its mass on
        # the support: small, not none, so the window check passes.
        trunc = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
        study = Study(-12.0, 1.0)
        core_mean, core_sd = oracles.conjugate_posterior(0.2, 0.4, study.estimate, study.std_error)
        exact_mean, exact_sd = oracles.truncnorm_moments_exact(core_mean, core_sd, 0.0, math.inf)
        mean, sd = update_grid(trunc, study).moments()
        assert abs(mean - exact_mean) < 1e-5
        assert abs(sd - exact_sd) < 1e-5

    @pytest.mark.parametrize("lo, hi", [
        (2.0, -2.0), (1.0, 1.0), (-math.inf, 5.0), (0.0, math.inf), (math.nan, 1.0),
        (-2.0, None), (None, 2.0),
    ], ids=["reversed", "empty", "lo_-inf", "hi_inf", "lo_nan", "lo_only", "hi_only"])
    def test_window_is_two_finite_ordered_edges(self, lo, hi):
        # A ValueError, raised before any mass check; a missing edge is not
        # filled in.
        with pytest.raises(ValueError):
            update_grid(NormalDist(0.0, 1.0), Study(0.5, 1.0), lo, hi)

    def test_window_clipping_likelihood_raises(self):
        with pytest.raises(TailMassError):
            update_grid(NormalDist(0.0, 1.0), Study(20.0, 0.5), -8.0, 8.0, 1024)

    def test_underflow_everywhere_raises(self):
        prior = GridDensity([0.0, 0.5, 1.0], [0.3, 0.4, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DegenerateError):
                update_grid(prior, Study(1e200, 1.0))


class TestUpdateMixture:
    MIX = MixtureDist(((0.4, NormalDist(0.0, 3.0)), (0.6, NormalDist(3.0, 1.0))))

    def test_component_weights_match_marginal_likelihoods(self):
        study = Study(2.0, 1.5)
        post = update(self.MIX, study)
        raw = np.array([
            w * oracles.normal_pdf(study.estimate, comp.mu,
                                   math.hypot(comp.sigma, study.std_error))
            for w, comp in self.MIX.components
        ])
        np.testing.assert_allclose(post.weights(), raw / raw.sum(), rtol=1e-12)
        for (_, comp), (_, prior_comp) in zip(post.components, self.MIX.components):
            exact = update(prior_comp, study)
            np.testing.assert_allclose(comp.mu, exact.mu, rtol=1e-12)
            np.testing.assert_allclose(comp.sigma, exact.sigma, rtol=1e-12)

    def test_agrees_with_grid_route(self):
        study = Study(2.0, 1.5)
        post = update(self.MIX, study)
        grid_prior = to_grid(self.MIX, -25.0, 28.0, 8192)
        grid_post = update_grid(grid_prior, study)
        m1, s1 = post.moments()
        m2, s2 = grid_post.moments()
        assert abs(m1 - m2) < 1e-3
        assert abs(s1 - s2) < 1e-3
        xs = np.linspace(-3.0, 6.0, 41)
        np.testing.assert_allclose(post.cdf(xs), grid_post.cdf(xs), atol=1e-3)

    def test_truncated_component_keeps_bounds(self):
        mix = MixtureDist(((0.5, TruncatedNormalDist(1.0, 1.0, 0.0, math.inf)),
                           (0.5, NormalDist(0.0, 2.0))))
        post = update(mix, Study(1.5, 1.0))
        trunc_post = post.components[0][1]
        assert isinstance(trunc_post, TruncatedNormalDist)
        assert trunc_post.lower == 0.0
        assert trunc_post.upper == math.inf

    def test_weights_of_truncated_and_grid_components_match_marginal_likelihoods(self):
        study = Study(0.6, 0.5)
        post = update(THREE_FAMILY_MIX, study)
        raw = np.array([w * predictive_oracle(comp, study.estimate, study.std_error)
                        for w, comp in THREE_FAMILY_MIX.components])
        np.testing.assert_allclose(post.weights(), raw / raw.sum(), rtol=1e-12)

    def test_all_marginals_underflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DegenerateError):
                update(self.MIX, Study(1e200, 1.0))

    def test_grid_component_that_underflows_drops(self):
        # The grid's likelihood underflows at both nodes, so its weight is 0;
        # the normal component carries the study.
        study = Study(1e200, 1.0)
        mix = MixtureDist(((0.5, NormalDist(0.0, 1e160)),
                           (0.5, GridDensity([0.0, 1.0], [0.5, 0.5]))))
        assert update(mix, study).components == (
            (1.0, update(NormalDist(0.0, 1e160), study)),)

    def test_every_component_underflowing_raises(self):
        mix = MixtureDist(((0.5, NormalDist(0.0, 1.0)),
                           (0.5, GridDensity([0.0, 1.0], [0.5, 0.5]))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DegenerateError):
                update(mix, Study(1e200, 1.0))


class TestSequential:
    def test_lawn_sign_chain_values(self):
        posts = sequential_update(LAWN_PRIOR, LAWN_STUDIES)
        assert len(posts) == 4
        expected = [(2.24, 1.61), (1.97, 1.55), (1.84, 0.78), (1.59, 0.74)]
        for post, (mean, sd) in zip(posts, expected):
            assert abs(post.mu - mean) < 0.01
            assert abs(post.sigma - sd) < 0.01
        # Exact check: each step equals pooling the studies seen so far.
        for k, post in enumerate(posts):
            seen = [(s.estimate, s.std_error) for s in LAWN_STUDIES[: k + 1]]
            pool_mean, pool_se = oracles.pooled_study(seen)
            exact = oracles.conjugate_posterior(0.0, 5.0, pool_mean, pool_se)
            np.testing.assert_allclose((post.mu, post.sigma), exact, rtol=1e-12)

    def test_single_study_equals_conjugate(self):
        assert sequential_update(LAWN_PRIOR, [Study(2.5, 1.7)]) == [
            update(LAWN_PRIOR, Study(2.5, 1.7))]

    def test_permutation_invariance(self):
        base = sequential_update(LAWN_PRIOR, LAWN_STUDIES)[-1]
        rng = default_rng(42)
        for _ in range(5):
            order = rng.permutation(4)
            shuffled = sequential_update(LAWN_PRIOR, [LAWN_STUDIES[i] for i in order])[-1]
            assert abs(shuffled.mu - base.mu) < 1e-9
            assert abs(shuffled.sigma - base.sigma) < 1e-9

    def test_empty_studies_rejected(self):
        with pytest.raises(ValueError):
            sequential_update(LAWN_PRIOR, [])

    def test_each_posterior_updates_the_one_before(self):
        posts = sequential_update(LAWN_PRIOR, LAWN_STUDIES[:2])
        assert isinstance(posts, list)
        assert posts == [update(LAWN_PRIOR, LAWN_STUDIES[0]), update(posts[0], LAWN_STUDIES[1])]

    def test_truncated_prior_goes_through_grid(self):
        trunc = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
        posts = sequential_update(trunc, [APPF_STUDY, Study(0.3, 0.2)])
        assert all(isinstance(post, GridDensity) for post in posts)
        assert posts[-1].xs.min() >= 0.0

    def test_mixture_prior_stays_mixture(self):
        mix = MixtureDist(((0.5, NormalDist(0.0, 3.0)), (0.5, NormalDist(3.0, 1.0))))
        posts = sequential_update(mix, [Study(1.0, 1.0), Study(2.0, 0.5)])
        assert all(isinstance(post, MixtureDist) for post in posts)


class TestUpdateDispatch:
    MIX = MixtureDist(((0.5, NormalDist(0.0, 3.0)), (0.5, NormalDist(3.0, 1.0))))
    TRUNC = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)

    GRID = THREE_FAMILY_MIX.components[2][1]

    def test_routes_by_family(self):
        study = Study(1.0, 1.0)
        for prior in (LAWN_PRIOR, self.MIX, self.GRID):
            assert update(prior, study) == _bayes(prior, study)[0]
        assert update(self.GRID, study) == update_grid(self.GRID, study)
        # A bare truncated prior still goes through the default grid window.
        assert update(self.TRUNC, study) == update_grid(self.TRUNC, study)

    def test_a_window_sends_every_prior_to_the_grid(self):
        study = Study(1.0, 1.0)
        for prior in (LAWN_PRIOR, self.MIX, self.TRUNC):
            post = update(prior, study, -40.0, 40.0, 512)
            assert post == update_grid(prior, study, -40.0, 40.0, 512)


class TestPredictive:
    def test_normal_sample_mean_scaling(self):
        # sigma 2 over n = 4 gives se 1, so ybar ~ N(3, sqrt(1 + 1)).
        model = SamplingModel(2.0, 4)
        for ybar in (-1.0, 3.0, 4.5):
            value = log_predictive_density(NormalDist(3.0, 1.0), model, ybar)
            np.testing.assert_allclose(
                value, math.log(oracles.normal_pdf(ybar, 3.0, math.sqrt(2.0))), rtol=1e-12)

    def test_mixture_predictive_matches_simulation(self):
        mix = MixtureDist(((0.5, NormalDist(0.0, 3.0)), (0.5, NormalDist(3.0, 1.0))))
        model = SamplingModel(1.0, 1)
        rng = default_rng(42)
        thetas = mix.quantile(rng.random(100_000))
        ybars = thetas + rng.normal(0.0, model.std_error(), size=thetas.size)
        # The predictive cdf by the trapezoid rule on a grid 0.01 apart.
        xs = np.linspace(-25.0, 25.0, 5001)
        dens = np.exp([log_predictive_density(mix, model, x) for x in xs])
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))))
        assert stats.kstest(ybars, lambda x: np.interp(x, xs, cum)).pvalue > 1e-3

    def test_density_normal_prior(self):
        value = math.exp(log_predictive_density(NormalDist(0.0, 3.0), SamplingModel(1.0, 1), 0.0))
        np.testing.assert_allclose(value, oracles.normal_pdf(0.0, 0.0, math.sqrt(10.0)),
                                   rtol=1e-12)

    def test_density_grid_prior_matches_riemann_oracle(self):
        grid = to_grid(NormalDist(0.5, 1.5), -12.0, 13.0, 2048)
        model = SamplingModel(1.0, 4)
        for ybar in (-1.0, 0.0, 0.7, 2.5):
            value = math.exp(log_predictive_density(grid, model, ybar))
            expected = oracles.riemann_predictive(grid.xs, grid.ws, ybar, model.std_error())
            np.testing.assert_allclose(value, expected, rtol=1e-6)

    def test_density_mixture_prior(self):
        mix = MixtureDist(((0.5, NormalDist(0.0, 3.0)), (0.5, NormalDist(3.0, 1.0))))
        model = SamplingModel(1.0, 1)
        value = math.exp(log_predictive_density(mix, model, 1.0))
        expected = 0.5 * oracles.normal_pdf(1.0, 0.0, math.sqrt(10.0)) \
            + 0.5 * oracles.normal_pdf(1.0, 3.0, math.sqrt(2.0))
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    @pytest.mark.parametrize("prior, se, ybars", [
        (TruncatedNormalDist(0.2, 0.4, 0.0, math.inf), 1.0 / math.sqrt(10.0), (-0.3, 0.7)),
        # All kept mass 12 latent sds out, about 2e-33 of the latent normal.
        (TruncatedNormalDist(0.0, 1.0, 12.0, math.inf), 0.5, (0.0, 12.3)),
        (TruncatedNormalDist(2.0, 1.0, 12.0, 12.001), 0.5, (12.0, 20.0)),
    ], ids=["half_line", "far_latent_tail", "narrow_far_interval"])
    def test_density_truncated_prior_matches_quadrature(self, prior, se, ybars):
        for ybar in ybars:
            value = log_predictive_density(prior, SamplingModel(se, 1), ybar)
            expected = oracles.truncnorm_log_predictive_exact(
                prior.mu, prior.sigma, prior.lower, prior.upper, ybar, se)
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_density_mixture_of_every_family(self):
        model = SamplingModel(1.0, 4)
        for ybar in (-1.0, 0.6, 2.5):
            value = math.exp(log_predictive_density(THREE_FAMILY_MIX, model, ybar))
            expected = sum(w * predictive_oracle(comp, ybar, model.std_error())
                           for w, comp in THREE_FAMILY_MIX.components)
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_ybar_whose_z_squares_past_the_doubles_reads_minus_inf(self):
        # The log density at 1e308 is about -5e615: -inf is the nearest double,
        # and no overflow warning is printed on the way.
        prior, model = NormalDist(0.0, 1.0), SamplingModel(1.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_predictive_density(prior, model, 1e308) == -math.inf
            assert log_surprisal(prior, model, 1e308) == math.inf

    def test_far_tail_stays_positive(self):
        prior = NormalDist(0.0, 3.0)
        model = SamplingModel(1.0, 1)
        pred_sd = math.sqrt(10.0)
        for z in (10.0, 20.0, 30.0):
            log_value = log_predictive_density(prior, model, z * pred_sd)
            assert math.exp(log_value) > 0.0
            expected = -0.5 * z * z - math.log(pred_sd) - 0.5 * math.log(2.0 * math.pi)
            np.testing.assert_allclose(log_value, expected, rtol=1e-9)

    def test_prior_outside_the_families_is_unsupported(self):
        with pytest.raises(UnsupportedPriorError):
            log_predictive_density(oracles.CauchyStub(), SamplingModel(1, 1), 0.0)
