"""Tests for learning metrics: Wasserstein routes, KL, Lindley, log
surprisal, quadratic loss, and the assembled learning report."""

import math

import numpy as np
import pytest
from numpy.random import default_rng

import oracles
from beliefshift import (
    AbsoluteContinuityError,
    GridDensity,
    MixtureDist,
    MomentError,
    NormalDist,
    SamplingModel,
    Study,
    TruncatedNormalDist,
    kl_grid,
    kl_normal,
    learning_report,
    lindley_grid,
    lindley_normal,
    log_surprisal,
    quadratic_expectation,
    to_grid,
    update_grid,
    w2_normal,
    wasserstein_discrete,
    wp_quantile,
)
from beliefshift import distributions, metrics
from beliefshift.metrics import t_nodes

INF = math.inf
# (prior, posterior) as (mu, sigma, lower, upper), and the tolerance of KL
# and Lindley against 50-digit quadrature; infinite bounds make a normal.
NORMAL_FAMILY_PAIRS = [
    pytest.param((0.0, 2.0, 0.0, INF), (0.0, 0.5, 0.0, INF), 1e-12, 1e-11,
                 id="same_std_bounds"),
    pytest.param((0.2, 0.4, 0.0, INF), (0.1, 0.2, 0.0, INF), 1e-12, 1e-11, id="same_bounds"),
    pytest.param((0.0, 1.0, -1.0, INF), (0.3, 0.8, -0.5, INF), 1e-12, 1e-11,
                 id="different_bounds"),
    pytest.param((0.0, 1.0, -2.0, 2.0), (0.5, 0.7, -1.0, 1.5), 1e-12, 1e-11,
                 id="nested_two_sided"),
    pytest.param((0.0, 1.0, -INF, INF), (0.0, 1.0, -3.0, INF), 1e-12, 1e-11,
                 id="normal_vs_truncated"),
    pytest.param((0.2, 0.4, 0.0, 1.0), (0.3, 0.5, -INF, INF), 1e-12, 1e-11,
                 id="truncated_vs_normal"),
    pytest.param((0.0, 1e-3, 0.0, INF), (2e-4, 5e-4, 0.0, INF), 1e-12, 1e-11, id="scale_1e-3"),
    pytest.param((0.0, 1.0, 38.0, INF), (0.5, 1.2, 38.0, INF), 1e-12, 1e-11,
                 id="bound_38_sd_out"),
    pytest.param((0.0, 1.0, 80.0, INF), (-1.0, 1.1, 80.0, 81.0), 1e-12, 1e-11,
                 id="bound_80_sd_out"),
    # A 1/6-sd interval 3,335 sd out: log Z and E[z^2] / 2 are each of
    # order 1e7 and must cancel by algebra, not in floating point.
    pytest.param((5.0, 3.0, -1e4, -9999.5), (5.0, 2.0, -1e4, -9990.0), 1e-11, 0.0,
                 id="narrow_3335_sd_out"),
    pytest.param((0.0, 1.0, 1500.0, INF), (0.5, 1.1, 1500.0, INF), 1e-11, 0.0,
                 id="upper_tail_1363_sd_out"),
    # An interval 1,999 sd below one latent mean and 1,333 sd above the other.
    pytest.param((0.0, 1.0, -2000.0, -1999.0), (-4000.0, 1.5, -2001.0, -1998.0), 1e-11, 0.0,
                 id="opposite_tails_1333_sd_out"),
    # Intervals of 1e-3 sd 3,000 sd out, and of 5e-4 sd 3,000 sd below the
    # mean: both are narrow, so the cancelling lo^2 / 2 terms must come from
    # the Gauss-Legendre frame (5.6e-10 to 2.1e-8 off through the generic form).
    pytest.param((0.0, 1.0, 3000.0, 3000.001), (0.2, 1.1, 3000.0, 3000.0012), 1e-12, 1e-11,
                 id="narrow_3000_sd_out"),
    pytest.param((0.0, 2.0, -6000.0, -5999.999), (1.0, 2.0, -6000.0, -5999.9985), 1e-12, 1e-11,
                 id="narrow_below_3000_sd_out"),
    pytest.param((0.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.0, 2.0), 1e-12, 1e-11,
                 id="supports_not_nested"),
]


def normal_family(mu, sigma, lower, upper):
    if math.isinf(lower) and math.isinf(upper):
        return NormalDist(mu, sigma)
    return TruncatedNormalDist(mu, sigma, lower, upper)


class TestW2Normal:
    def test_table_values(self):
        assert abs(w2_normal(NormalDist(0, 10), NormalDist(5, 5)) - 7.07) < 0.005
        np.testing.assert_allclose(w2_normal(NormalDist(0, 10), NormalDist(0, 1)), 9.0, rtol=1e-15)
        assert abs(w2_normal(NormalDist(0, 5), NormalDist(1.6, 0.7)) - 4.59) < 0.005

    def test_matches_closed_form_oracle(self):
        rng = default_rng(42)
        for _ in range(50):
            mu = rng.uniform(-5, 5, size=2)
            sd = rng.uniform(0.2, 3.0, size=2)
            a, b = NormalDist(mu[0], sd[0]), NormalDist(mu[1], sd[1])
            np.testing.assert_allclose(
                w2_normal(a, b), oracles.normal_w2(mu[0], sd[0], mu[1], sd[1]), rtol=1e-12
            )

    def test_metric_axioms_spot(self):
        a, b, c = NormalDist(0, 1), NormalDist(2, 3), NormalDist(-1, 0.5)
        assert w2_normal(a, a) == 0.0
        assert w2_normal(a, b) == w2_normal(b, a)
        assert w2_normal(a, c) <= w2_normal(a, b) + w2_normal(b, c) + 1e-12

    def test_affine_equivariance(self):
        a, b = NormalDist(1.0, 2.0), NormalDist(-0.5, 0.7)
        base = w2_normal(a, b)
        for c, off in ((2.5, 1.0), (0.3, -4.0)):
            mapped = w2_normal(
                NormalDist(c * a.mu + off, c * a.sigma),
                NormalDist(c * b.mu + off, c * b.sigma),
            )
            np.testing.assert_allclose(mapped, abs(c) * base, rtol=1e-12)
        shifted = w2_normal(NormalDist(a.mu + 3, a.sigma), NormalDist(b.mu + 3, b.sigma))
        np.testing.assert_allclose(shifted, base, rtol=1e-12)


class TestWpQuantile:
    def test_pure_location_shift(self):
        value = wp_quantile(NormalDist(0, 1), NormalDist(2, 1))
        np.testing.assert_allclose(value, 2.0, rtol=1e-6)

    def test_table_row_two(self):
        value = wp_quantile(NormalDist(0, 10), NormalDist(5, 2.5))
        assert abs(value - 9.01) < 0.005
        np.testing.assert_allclose(value, math.sqrt(25.0 + 56.25), rtol=1e-4)

    def test_normal_pairs_match_closed_form(self):
        rng = default_rng(42)
        for _ in range(20):
            mu = rng.uniform(-5, 5, size=2)
            sd = rng.uniform(0.2, 3.0, size=2)
            a, b = NormalDist(mu[0], sd[0]), NormalDist(mu[1], sd[1])
            np.testing.assert_allclose(wp_quantile(a, b), w2_normal(a, b), rtol=1e-4)

    def test_symmetry(self):
        a, b = NormalDist(0, 10), NormalDist(5, 2.5)
        assert wp_quantile(a, b) == wp_quantile(b, a)

    def test_truncated_prior_vs_grid_posterior_oracle(self):
        prior = TruncatedNormalDist(0.0, 2.0, 0.0, math.inf)
        post = update_grid(prior, Study(2.5, 1.7))
        value = wp_quantile(prior, post, nodes=4096)
        oracle = oracles.trapezoid_wp(prior.quantile, post.quantile)
        assert abs(value - oracle) < 1e-3

    def test_w1_between_grids_is_cdf_area(self):
        # A pure shift by 1: W2 equals W1, the area between the cdfs.
        a = GridDensity([0.0, 1.0], [0.5, 0.5])
        b = GridDensity([1.0, 2.0], [0.5, 0.5])
        np.testing.assert_allclose(wp_quantile(a, b), 1.0, atol=1e-12)

    def test_grid_masses_summing_just_below_one(self):
        # Six masses of 1/6 sum to the largest double below 1, so the top
        # merged level, 1, has no double strictly inside its step.
        w = np.full(6, 1.0 / 6.0)
        assert np.cumsum(w)[-1] == np.nextafter(1.0, 0.0)
        a, b = GridDensity(np.arange(6.0), w), GridDensity(np.arange(6.0) + 0.5, w)
        assert wp_quantile(a, b) == 0.5

    def test_rejects_bad_order_or_nodes(self):
        # W2 is the one metric: neither route takes an order.
        with pytest.raises(TypeError):
            wp_quantile(NormalDist(0, 1), NormalDist(1, 1), p=2)
        with pytest.raises(TypeError):
            wasserstein_discrete([0.0], [1.0], p=2)
        with pytest.raises(ValueError):
            wp_quantile(NormalDist(0, 1), NormalDist(1, 1), nodes=128)

    def test_heavy_tails_raise_moment_error(self):
        with pytest.raises(MomentError):
            wp_quantile(oracles.CauchyStub(), NormalDist(0, 1))
        with pytest.raises(MomentError):
            wp_quantile(oracles.StudentTStub(2.0), NormalDist(0, 1))

    def test_finite_moment_tails_do_not_raise(self):
        # Student t with df=3 has a finite second moment: W2 exists.
        value = wp_quantile(oracles.StudentTStub(3.0, loc=1.0), oracles.StudentTStub(3.0))
        assert math.isfinite(value) and value > 0.0
        # High node counts probe deeper tails but must not false-alarm.
        fine = wp_quantile(NormalDist(0, 1), NormalDist(2, 1), nodes=16384)
        np.testing.assert_allclose(fine, 2.0, rtol=1e-7)

    def test_node_weights_are_a_partition(self):
        t, w = t_nodes(512)
        assert np.all((t > 0.0) & (t < 1.0))
        assert np.all(np.diff(t) > 0.0)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)
        # Symmetric layout around 1/2.
        np.testing.assert_allclose(t, 1.0 - t[::-1], atol=1e-15)


class TestWassersteinDiscrete:
    def test_point_masses(self):
        value = wasserstein_discrete([0.0], [3.0])
        np.testing.assert_allclose(value, 3.0, rtol=1e-12)

    def test_overlapping_uniforms(self):
        value = wasserstein_discrete([0.0, 1.0], [1.0, 2.0])
        np.testing.assert_allclose(value, 1.0, atol=1e-9)
        oracle = oracles.assignment_wp(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(value, oracle, atol=1e-9)

    def test_empirical_agreement_across_methods(self):
        rng = default_rng(42)
        xa = np.sort(NormalDist(0, 1).quantile(rng.random(50)))
        xb = np.sort(NormalDist(2, 1).quantile(rng.random(50)))
        assert np.all(np.diff(xa) > 0) and np.all(np.diff(xb) > 0)
        w = np.full(50, 1.0 / 50.0)
        value = wasserstein_discrete(xa, xb)
        grid_value = wp_quantile(GridDensity(xa, w), GridDensity(xb, w))
        sort_value = oracles.sorted_matching_wp(xa, xb)
        assert abs(value - grid_value) < 1e-9
        assert abs(value - sort_value) < 1e-9

    @pytest.mark.parametrize("case", range(30))
    def test_matches_assignment_oracle_with_ties(self, case):
        # Every third case rounds its points to integers: tied points must
        # still give an optimal cost.
        rng = default_rng([21, case])
        n = int(rng.integers(1, 61))
        a = rng.normal(size=n) * 3.0
        b = rng.normal(1.0, 2.0, size=n) * 3.0
        if case % 3 == 0:
            a, b = np.round(a), np.round(b)
        value = wasserstein_discrete(a, b)
        np.testing.assert_allclose(value, oracles.assignment_wp(a, b), rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            wasserstein_discrete([[0.0, 0.0]], [1.0])

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2)], ids=["n_by_1", "n_by_2"])
    def test_clouds_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError, match="shape"):
            wasserstein_discrete(np.zeros(shape), np.ones(shape))

    @pytest.mark.parametrize("a, b", [
        ([0.0, 1.0], [0.0]),
        ([], []),
        (np.zeros((0, 2)), np.zeros((0, 2))),
    ], ids=["unequal_counts", "empty", "empty_2d"])
    def test_counts_must_match_and_be_nonzero(self, a, b):
        with pytest.raises(ValueError, match="shape"):
            wasserstein_discrete(a, b)

    @pytest.mark.parametrize("a, b, value", [
        ([1e155, -1e155], [-1e155, 1e155], 0.0),
        # Only the unmatched pairs' costs, (2e200)^2, pass the largest double.
        ([1e200, -1e200], [-1e200, 1e200], 0.0),
        # The matched cost, (2e200)^2, passes it: the gaps are scaled first.
        ([1e200], [-1e200], 2e200),
    ], ids=["1d_swap", "unmatched_costs_overflow", "cost_overflows"])
    def test_distances_whose_squares_overflow(self, a, b, value):
        # Every distance fits in a double though its square does not.
        assert wasserstein_discrete(a, b) == value

    @pytest.mark.parametrize("a, b, message", [
        ([math.nan, 0.0], [0.0, 1.0], "points must be finite"),
        ([[0.0, INF]], [[0.0, 1.0]], "points must be finite"),
        ([1.5e308], [-1.5e308], "the transport cost overflows"),
    ], ids=["nan_point", "inf_point", "difference_overflows"])
    def test_nonfinite_input_raises_before_the_solver(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            wasserstein_discrete(a, b)


# Each W2 route on a pair built at unit scale and scaled by `scale`.
W2_ROUTES = {
    "quantile": lambda s: wp_quantile(NormalDist(0.0, s), NormalDist(s, s)),
    "grid": lambda s: wp_quantile(GridDensity([0.0, s], [0.5, 0.5]),
                                  GridDensity([s, 3.0 * s], [0.25, 0.75])),
    "discrete": lambda s: wasserstein_discrete([0.0, s, -2.0 * s], [s, s, 3.0 * s]),
}


class TestW2AtExtremeScales:
    @pytest.mark.parametrize("scale", [1e-200, 1e160, 1e200],
                             ids=["squares_underflow", "squares_overflow", "squares_overflow_far"])
    @pytest.mark.parametrize("route", list(W2_ROUTES))
    def test_w2_scales_with_its_inputs(self, route, scale):
        # Under warnings-as-errors: an overflowing square would also raise here.
        value, unit = W2_ROUTES[route](scale), W2_ROUTES[route](1.0)
        np.testing.assert_allclose(value, scale * unit, rtol=1e-12)


class TestKl:
    def test_symmetric_sums_match_table(self):
        pairs = [
            (NormalDist(0, 10), NormalDist(5, 5), 1.75),
            (NormalDist(0, 10), NormalDist(0, 1), 49.0),
        ]
        for prior, post, expected in pairs:
            total = kl_normal(post, prior) + kl_normal(prior, post)
            assert abs(total - expected) < 0.01

    def test_identity_and_nonnegativity(self):
        assert kl_normal(NormalDist(3, 2), NormalDist(3, 2)) == 0.0
        rng = default_rng(42)
        for _ in range(50):
            a = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 3))
            b = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 3))
            assert kl_normal(a, b) >= 0.0
            np.testing.assert_allclose(
                kl_normal(a, b), oracles.normal_kl(a.mu, a.sigma, b.mu, b.sigma), atol=1e-12
            )

    def test_asymmetry_witness(self):
        fwd = kl_normal(NormalDist(0, 1), NormalDist(0, 10))
        rev = kl_normal(NormalDist(0, 10), NormalDist(0, 1))
        assert fwd != rev

    @pytest.mark.parametrize("p_sd, q_sd", [(1.0, 1e300), (1e-300, 1e300)],
                             ids=["squared_ratio_underflows", "ratio_underflows"])
    def test_sd_ratio_past_the_doubles(self, p_sd, q_sd):
        # KL = log(q_sd / p_sd) + p_sd^2 / (2 q_sd^2) - 1/2, and the middle term is 0 here.
        expected = math.log(q_sd) - math.log(p_sd) - 0.5
        np.testing.assert_allclose(kl_normal(NormalDist(0, p_sd), NormalDist(0, q_sd)),
                                   expected, rtol=1e-15)

    def test_grid_identity(self):
        g = to_grid(NormalDist(0, 1), -8, 8, 512)
        assert kl_grid(g, g) == 0.0

    def test_grid_matches_normal_oracle(self):
        p = to_grid(NormalDist(5, 5), -80, 80, 4096)
        q = to_grid(NormalDist(0, 10), -80, 80, 4096)
        expected = oracles.normal_kl(5, 5, 0, 10)
        assert abs(kl_grid(p, q) - expected) < 0.005

    def test_absolute_continuity_enforced(self):
        xs = [0.0, 1.0, 2.0]
        p = GridDensity(xs, [0.5, 0.25, 0.25])
        q = GridDensity(xs, [0.5, 0.5, 0.0])
        with pytest.raises(AbsoluteContinuityError):
            kl_grid(p, q)
        # The reverse direction is fine: q puts mass only where p does.
        assert kl_grid(q, p) >= 0.0

    def test_grid_with_a_subnormal_mass_stays_finite(self):
        # 0.5 / 5e-324 overflows a double; log p - log q does not.
        xs = [0.0, 1.0, 2.0]
        p = GridDensity(xs, [0.25, 0.25, 0.5])
        q = GridDensity(xs, [0.5, 0.5 - 5e-324, 5e-324])
        expected = 2 * 0.25 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(5e-324))
        np.testing.assert_allclose(kl_grid(p, q), expected, rtol=1e-14)

    @pytest.mark.parametrize("prior_args, post_args, rtol, atol", NORMAL_FAMILY_PAIRS)
    def test_normal_family_matches_mpmath(self, prior_args, post_args, rtol, atol):
        prior, post = normal_family(*prior_args), normal_family(*post_args)
        report = learning_report(prior, post)
        expected = (oracles.truncnorm_entropy_exact(*prior_args)
                    - oracles.truncnorm_entropy_exact(*post_args))
        np.testing.assert_allclose(lindley_normal(prior, post), expected, rtol=rtol, atol=atol)
        assert report.lindley == lindley_normal(prior, post)
        kls = []
        for p, q, p_args, q_args in ((post, prior, post_args, prior_args),
                                     (prior, post, prior_args, post_args)):
            if q_args[2] <= p_args[2] and p_args[3] <= q_args[3]:
                kls.append(kl_normal(p, q))
                np.testing.assert_allclose(kls[-1], oracles.truncnorm_kl_exact(p_args, q_args),
                                           rtol=rtol, atol=atol)
            else:
                with pytest.raises(AbsoluteContinuityError):
                    kl_normal(p, q)
                kls.append(None)
        if None in kls:
            assert report.kl_forward is None and report.kl_reverse is None
            assert report.kl_sym is None
        else:
            assert [report.kl_forward, report.kl_reverse] == kls

    def test_normal_pairs_keep_the_written_out_forms(self):
        rng = default_rng(11)
        for _ in range(200):
            prior = NormalDist(rng.uniform(-50, 50), math.exp(rng.uniform(-8, 8)))
            post = NormalDist(rng.uniform(-50, 50), math.exp(rng.uniform(-8, 8)))
            report = learning_report(prior, post)
            for kl, p, q in ((report.kl_forward, post, prior), (report.kl_reverse, prior, post)):
                var_ratio = (p.sigma / q.sigma) ** 2
                mean_term = ((q.mu - p.mu) / q.sigma) ** 2
                assert kl == max(0.0, 0.5 * (mean_term + var_ratio - math.log(var_ratio) - 1.0))
            assert report.lindley == math.log(prior.sigma / post.sigma)

    def test_requires_identical_grids(self):
        p = GridDensity([0.0, 1.0], [0.5, 0.5])
        q = GridDensity([0.0, 1.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_grid(p, q)


class TestLindley:
    def test_normal_values(self):
        assert abs(lindley_normal(NormalDist(0, 10), NormalDist(5, 5)) - 0.69) < 0.005
        assert abs(lindley_normal(NormalDist(0, 10), NormalDist(0, 1)) - 2.30) < 0.005

    def test_mean_insensitive(self):
        a = lindley_normal(NormalDist(0, 10), NormalDist(5, 5))
        b = lindley_normal(NormalDist(0, 10), NormalDist(3, 5))
        assert a == b

    def test_additivity(self):
        rng = default_rng(42)
        for _ in range(20):
            sds = rng.uniform(0.2, 3.0, size=3)
            mus = rng.uniform(-5, 5, size=3)
            chain = [NormalDist(m, s) for m, s in zip(mus, sds)]
            total = lindley_normal(chain[0], chain[1]) + lindley_normal(chain[1], chain[2])
            assert abs(total - lindley_normal(chain[0], chain[2])) < 1e-12

    def test_sd_ratio_past_the_doubles(self):
        # The ratio 1e-300 / 1e300 underflows to 0; the log difference does not.
        value = lindley_normal(NormalDist(0, 1e-300), NormalDist(0, 1e300))
        np.testing.assert_allclose(value, math.log(1e-300) - math.log(1e300), rtol=1e-15)

    def test_grid_identity(self):
        g = to_grid(NormalDist(0, 1), -8, 8, 512)
        assert lindley_grid(g, g) == 0.0

    def test_grid_matches_closed_form(self):
        prior = to_grid(NormalDist(0, 10), -80, 80, 4096)
        post = to_grid(NormalDist(5, 2.5), -80, 80, 4096)
        assert abs(lindley_grid(prior, post) - math.log(4.0)) < 0.01

    def test_grid_sign_when_uncertainty_grows(self):
        prior = to_grid(NormalDist(0, 1), -16, 16, 4096)
        post = to_grid(NormalDist(0, 2), -16, 16, 4096)
        value = lindley_grid(prior, post)
        assert abs(value - (-math.log(2.0))) < 0.01
        assert value < 0.0

    def test_grid_with_a_subnormal_mass_stays_finite(self):
        # 5e-324 over a cell 2 wide rounds to 0; its log less the width's does not.
        xs = [0.0, 2.0, 4.0]
        prior = GridDensity(xs, [0.25, 0.5, 0.25])
        post = GridDensity(xs, [0.5, 5e-324, 0.5])
        neg_entropy_prior = 0.5 * math.log(0.25) + 0.5 * (math.log(0.5) - math.log(2.0))
        neg_entropy_post = 2 * 0.5 * math.log(0.5) + 5e-324 * (math.log(5e-324) - math.log(2.0))
        np.testing.assert_allclose(lindley_grid(prior, post), neg_entropy_post - neg_entropy_prior,
                                   rtol=1e-14)


class TestSurprisal:
    MODEL = SamplingModel(1.0, 1)
    PRIOR = NormalDist(0.0, 3.0)

    def test_matches_predictive_oracle(self):
        value = log_surprisal(self.PRIOR, self.MODEL, 0.0)
        expected = -math.log(oracles.normal_pdf(0.0, 0.0, math.sqrt(10.0)))
        # An absolute 1e-12 on the log is a relative 1e-12 on the surprisal.
        np.testing.assert_allclose(value, expected, rtol=0.0, atol=1e-12)
        assert math.log(7.925) < value < math.log(7.935)

    def test_minimized_at_predictive_mode(self):
        at_mode = log_surprisal(self.PRIOR, self.MODEL, 0.0)
        assert at_mode < log_surprisal(self.PRIOR, self.MODEL, 1.0)
        assert at_mode < log_surprisal(self.PRIOR, self.MODEL, -1.0)

    def test_tail_blowup(self):
        pred_sd = math.sqrt(10.0)
        assert log_surprisal(self.PRIOR, self.MODEL, 5.0 * pred_sd) > math.log(1e5)

    def test_log_form_safe_far_out(self):
        value = log_surprisal(self.PRIOR, self.MODEL, 30.0 * math.sqrt(10.0))
        assert math.isfinite(value) and value > 0.0


class TestQuadraticExpectation:
    def test_closed_forms(self):
        np.testing.assert_allclose(quadratic_expectation(NormalDist(5, 5), 5.0), 25.0, rtol=1e-15)
        np.testing.assert_allclose(quadratic_expectation(NormalDist(0, 10), 5.0), 125.0, rtol=1e-15)

    def test_grid_matches_closed_form(self):
        grid = to_grid(NormalDist(0, 10), -80, 80, 4096)
        exact = quadratic_expectation(NormalDist(0, 10), 5.0)
        assert abs(quadratic_expectation(grid, 5.0) - exact) < 1e-3 * exact


class TestLearningReport:
    def test_vaccine_report(self):
        report = learning_report(NormalDist(0, 10), NormalDist(5, 5))
        assert abs(report.w2 - 7.07) < 0.005
        np.testing.assert_allclose(report.mean_shift_sq, 25.0, rtol=1e-12)
        np.testing.assert_allclose(report.sd_shift_sq, 25.0, rtol=1e-12)
        assert abs(report.kl_sym - 1.75) < 0.005
        assert abs(report.lindley - 0.69) < 0.005
        assert abs(report.normalized_w2 - 0.707) < 0.0005
        assert report.decomposition_exact
        np.testing.assert_allclose(report.kl_sym, report.kl_forward + report.kl_reverse,
                                   atol=1e-12)

    def test_identity_report_is_zero(self):
        report = learning_report(NormalDist(0, 10), NormalDist(0, 10))
        assert report.w2 == 0.0
        assert report.mean_shift_sq == 0.0
        assert report.sd_shift_sq == 0.0
        assert report.normalized_w2 == 0.0
        assert report.kl_forward == 0.0 and report.kl_reverse == 0.0 and report.kl_sym == 0.0
        assert report.lindley == 0.0

    def test_appendix_truncated_report(self):
        prior = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
        post = update_grid(prior, Study(0.074, 0.121))
        report = learning_report(prior, post)
        assert abs(report.w2 - 0.34) < 0.02
        assert not report.decomposition_exact
        assert report.kl_sym is None or report.kl_sym >= 0.0

    def test_decomposition_invariant_when_exact(self):
        rng = default_rng(42)
        for _ in range(20):
            prior = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 3))
            post = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 3))
            report = learning_report(prior, post)
            assert report.decomposition_exact
            assert abs(report.w2**2 - (report.mean_shift_sq + report.sd_shift_sq)) < 1e-9

    def test_same_family_truncated_pair_is_exact(self):
        prior = TruncatedNormalDist(0.0, 2.0, 0.0, math.inf)
        # Standardized lower bound differs ((0.25-1)/0.5 = -1.5 vs 0).
        assert not learning_report(
            prior, TruncatedNormalDist(1.0, 0.5, 0.25, math.inf)
        ).decomposition_exact
        # Same nominal bound but different standardized one (-0.5 vs 0).
        assert not learning_report(
            prior, TruncatedNormalDist(0.5, 1.0, 0.0, math.inf)
        ).decomposition_exact
        # Pure rescaling keeps the standardized bounds: exact decomposition.
        scaled = TruncatedNormalDist(0.0, 0.5, 0.0, math.inf)
        report = learning_report(prior, scaled)
        assert report.decomposition_exact
        assert abs(report.w2**2 - (report.mean_shift_sq + report.sd_shift_sq)) < 1e-9
        oracle = oracles.quad_wp(prior.quantile, scaled.quantile)
        np.testing.assert_allclose(report.w2, oracle, rtol=1e-5)
        # A finite standardized bound never matches an infinite one.
        for prior, post in ((TruncatedNormalDist(0.2, 0.4, 0.0, 1.0), NormalDist(0.3, 0.5)),
                            (NormalDist(0.0, 1.0), TruncatedNormalDist(0.0, 1.0, -3.0, INF))):
            report = learning_report(prior, post)
            assert not report.decomposition_exact
            assert abs(report.w2 - oracles.w2_quantile_gl4(prior, post)) < 1e-5

    @pytest.mark.parametrize("prior_args, post_args, rtol, atol", NORMAL_FAMILY_PAIRS)
    def test_normal_family_pairs_are_never_discretized(self, monkeypatch, prior_args,
                                                        post_args, rtol, atol):
        def refuse(*args, **kwargs):
            raise AssertionError("a normal-family pair reached a grid")

        # metrics imports no to_grid; one patched in there would catch its return.
        for owner in (distributions, metrics):
            monkeypatch.setattr(owner, "to_grid", refuse, raising=False)
        monkeypatch.setattr(metrics, "_discretize_onto", refuse)
        report = learning_report(normal_family(*prior_args), normal_family(*post_args))
        assert report.lindley is not None

    def test_mixture_fields_flagged_absent(self):
        post = MixtureDist(((0.5, NormalDist(0, 1)), (0.5, NormalDist(3, 1))))
        report = learning_report(NormalDist(0, 3), post)
        assert report.kl_forward is None
        assert report.kl_reverse is None
        assert report.kl_sym is None
        assert report.lindley is None
        assert not report.decomposition_exact
        assert report.w2 > 0.0

    @pytest.mark.parametrize("scale, mean_shift_sq", [(1e160, INF), (1e-200, 0.0)],
                             ids=["square_overflows", "square_underflows"])
    def test_mean_shift_of_one_prior_sd_at_extreme_scales(self, scale, mean_shift_sq):
        # W2 is the mean shift, one prior sd, though its square passes the
        # largest double or falls below the smallest.
        report = learning_report(NormalDist(0.0, scale), NormalDist(scale, scale))
        assert report.decomposition_exact
        assert report.w2 == scale
        assert report.normalized_w2 == 1.0
        assert report.mean_shift_sq == mean_shift_sq
        assert report.sd_shift_sq == 0.0

    def test_collapse_limit_normalized_to_one(self):
        report = learning_report(NormalDist(2, 3), NormalDist(2, 3e-6))
        assert abs(report.normalized_w2 - 1.0) < 1e-5

    def test_continuity_bound_at_quadratic_loss(self):
        rng = default_rng(42)
        for _ in range(200):
            prior = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 3))
            post = NormalDist(rng.uniform(-5, 5), rng.uniform(0.2, 3))
            action = float(rng.uniform(-6, 6))
            qa = quadratic_expectation(prior, action)
            qb = quadratic_expectation(post, action)
            bound = w2_normal(prior, post) * math.sqrt(2.0 * (qa + qb))
            assert abs(qa - qb) <= bound + 1e-9
