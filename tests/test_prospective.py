"""Tests for prospective expected learning: decision-maker priors, the
closed-form E[W2^2], the Monte Carlo estimator, and weight sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

import oracles
from beliefshift import (
    CurvePoint,
    ExpectedLearning,
    GridDensity,
    MixtureDist,
    NormalDist,
    SamplingModel,
    Study,
    TruncatedNormalDist,
    decision_maker_prior,
    expected_learning_bound_sq,
    expected_learning_mc,
    update,
    update_grid,
    update_mixture,
    weight_sweep,
    wp_quantile,
)
from beliefshift import prospective
from beliefshift.prospective import (
    DEFAULT_W2_NODES,
    MIN_REPLICATES,
    _batched_w2,
    _expected_learning,
    _replicate_uniforms,
    _theta_from_uniforms,
    _w2_mixture_update,
)

CONSENSUS = NormalDist(3.0, 1.0)
PIONEER = NormalDist(0.0, 3.0)
BASE_SE = SamplingModel(2.0, 5).std_error()


def simulated_ybar(prior, se, seed, replicates):
    uniforms = _replicate_uniforms([seed], replicates, 3)
    return _theta_from_uniforms([prior], uniforms) + se * ndtri(uniforms[:, -1])


def batched_w2(update_prior, reference, ybar, se):
    """The engine's W2 stage on one cell."""
    return _batched_w2(reference, [update_prior], ybar[None], np.array([se]))[0]


def kernel_w2(update_prior, reference, ybar, se):
    """The transport kernel on one cell, at every draw."""
    return _w2_mixture_update(reference, [update_prior], ybar[None], np.array([se]))[0]


class QuantilesOnce:
    """A distribution whose quantile is solved once per level array, for an
    oracle that asks for the same levels at every draw."""

    def __init__(self, dist):
        self.dist, self.solved = dist, {}

    def quantile(self, t):
        key = t.tobytes()
        if key not in self.solved:
            self.solved[key] = self.dist.quantile(t)
        return self.solved[key]


MIX_04 = decision_maker_prior(CONSENSUS, PIONEER, 0.4)
# (update prior, se, ybar as prior-sd offsets from the prior mean or None
# for simulated outcomes). The component sds are 1 and 3.
MIXTURE_ROUTE_CASES = [
    pytest.param(MIX_04, BASE_SE, None, id="base"),
    pytest.param(MIX_04, BASE_SE, np.linspace(-12.0, 12.0, 9), id="ybar_12_sd_out"),
    pytest.param(MIX_04, 1e-3, None, id="se_1e-3_x_sd"),
    pytest.param(MIX_04, 300.0, None, id="se_1e2_x_sd"),
    pytest.param(decision_maker_prior(CONSENSUS, PIONEER, 1e-6), BASE_SE, None,
                 id="pioneer_weight_1e-6"),
    pytest.param(decision_maker_prior(CONSENSUS, PIONEER, 1.0 - 1e-6), BASE_SE, None,
                 id="pioneer_weight_1-1e-6"),
    pytest.param(MixtureDist(((0.2, NormalDist(-2.0, 0.5)), (0.5, NormalDist(1.0, 1.0)),
                              (0.3, NormalDist(4.0, 2.0)))),
                 BASE_SE, None, id="three_components"),
]


class TestDecisionMakerPrior:
    def test_degenerate_weights_collapse(self):
        assert decision_maker_prior(CONSENSUS, PIONEER, 0.0) is CONSENSUS
        assert decision_maker_prior(CONSENSUS, PIONEER, 1.0) is PIONEER

    def test_interior_weight_builds_mixture(self):
        prior = decision_maker_prior(CONSENSUS, PIONEER, 0.4)
        assert isinstance(prior, MixtureDist)
        (w_p, comp_p), (w_c, comp_c) = prior.components
        assert (w_p, comp_p) == (0.4, PIONEER)
        assert (w_c, comp_c) == (0.6, CONSENSUS)

    def test_weight_validation(self):
        for bad in (-0.1, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="mixture weights must be positive"):
                decision_maker_prior(CONSENSUS, PIONEER, bad)


class TestBoundSq:
    def test_spot_value(self):
        value = expected_learning_bound_sq(1.0, 1.0, 1)
        np.testing.assert_allclose(value, 0.5 + (1.0 - 1.0 / math.sqrt(2.0)) ** 2, rtol=1e-15)
        assert abs(value - 0.58579) < 1e-5

    def test_no_data_is_zero(self):
        assert expected_learning_bound_sq(1.0, 1.0, 0) == 0.0

    def test_large_n_limit(self):
        value = expected_learning_bound_sq(1.0, 0.01, 10**9)
        assert abs(value / 2.0 - 1.0) < 1e-6

    def test_strictly_increasing_in_n(self):
        values = [expected_learning_bound_sq(1.0, 1.0, n) for n in range(1, 200)]
        assert np.all(np.diff(values) > 0.0)

    def test_strictly_increasing_in_sigma_prior(self):
        sps = np.linspace(0.2, 5.0, 40)
        values = [expected_learning_bound_sq(sp, 1.0, 10) for sp in sps]
        assert np.all(np.diff(values) > 0.0)

    def test_strictly_decreasing_in_sigma(self):
        sigmas = np.linspace(0.2, 5.0, 40)
        values = [expected_learning_bound_sq(1.0, s, 10) for s in sigmas]
        assert np.all(np.diff(values) < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_learning_bound_sq(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            expected_learning_bound_sq(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            expected_learning_bound_sq(1.0, 1.0, -1)


class TestExpectedLearningMc:
    def test_large_n_matches_quadrature_oracle(self):
        prior = NormalDist(3.0, 1.0)
        result = expected_learning_mc(prior, prior, prior, SamplingModel(1.0, 10**6),
                                      replicates=10_000, seed=0)
        oracle = oracles.expected_w2_large_n(3.0, 1.0)
        assert abs(result.estimate - oracle) <= 3.0 * result.mc_std_error

    def test_second_moment_matches_identity(self):
        prior = NormalDist(3.0, 1.0)
        result = expected_learning_mc(prior, prior, prior, SamplingModel(1.0, 1),
                                      replicates=10_000, seed=0)
        bound = expected_learning_bound_sq(1.0, 1.0, 1)
        assert abs(result.second_moment - bound) <= 3.0 * result.second_moment_std_error

    def test_identity_holds_off_grid(self):
        prior = NormalDist(-2.0, 1.5)
        result = expected_learning_mc(prior, prior, prior, SamplingModel(0.8, 7),
                                      replicates=4000, seed=11)
        bound = expected_learning_bound_sq(1.5, 0.8, 7)
        assert abs(result.second_moment - bound) <= 3.0 * result.second_moment_std_error

    def test_deterministic_given_seed(self):
        args = (PIONEER, CONSENSUS, CONSENSUS, SamplingModel(1.0, 5))
        a = expected_learning_mc(*args, replicates=100, seed=42)
        b = expected_learning_mc(*args, replicates=100, seed=42)
        assert a == b
        c = expected_learning_mc(*args, replicates=100, seed=43)
        assert c != a

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            expected_learning_mc(PIONEER, PIONEER, PIONEER, SamplingModel(1.0, 1),
                                 replicates=99)

    def test_jensen_across_configs(self):
        # The constructor enforces the Jensen ceiling; these runs must build.
        configs = [
            (PIONEER, CONSENSUS, CONSENSUS, SamplingModel(2.0, 3)),
            (CONSENSUS, CONSENSUS, PIONEER, SamplingModel(0.5, 20)),
            (decision_maker_prior(CONSENSUS, PIONEER, 0.3), CONSENSUS, CONSENSUS,
             SamplingModel(1.0, 10)),
        ]
        for i, (pred, upd, ref, model) in enumerate(configs):
            result = expected_learning_mc(pred, upd, ref, model, replicates=500, seed=i)
            assert result.estimate <= math.sqrt(result.second_moment) \
                + 3.0 * result.mc_std_error + 1e-12

    def test_truncated_priors_use_grid_fallback(self):
        trunc = TruncatedNormalDist(0.5, 1.0, 0.0, math.inf)
        result = expected_learning_mc(trunc, trunc, trunc, SamplingModel(1.0, 4),
                                      replicates=100, seed=3)
        assert result.estimate > 0.0
        assert math.isfinite(result.mc_std_error)

    def test_validation_of_fields(self):
        # The result holds what the call computed, not its replicates or seed.
        assert [f.name for f in dataclasses.fields(ExpectedLearning)] == [
            "estimate", "mc_std_error", "second_moment", "second_moment_std_error"]
        with pytest.raises(ValueError):
            ExpectedLearning(-0.1, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            # estimate far above sqrt(second_moment): Jensen violated.
            ExpectedLearning(2.0, 1e-6, 1.0, 1e-6)


class TestReplicateStreams:
    def test_philox_key_layout(self):
        # 2**63 + 5 sets the top key bit; -1 wraps to 2**64 - 1.
        for seed in (0, 7, 2**63 + 5, -1):
            for cols in (2, 3):
                direct = np.array([
                    Generator(Philox(key=np.array([seed % 2**64, i], dtype=np.uint64)))
                    .random(cols)
                    for i in range(1000)
                ])
                np.testing.assert_array_equal(_replicate_uniforms([seed], 1000, cols),
                                              np.clip(direct, 1e-16, 1.0 - 1e-16))

    def test_negative_seed_wraps(self):
        u = _replicate_uniforms([-1], 2, 2)
        key = np.array([(1 << 64) - 1, 0], dtype=np.uint64)
        direct = Generator(Philox(key=key)).random(2)
        np.testing.assert_array_equal(u[0], np.clip(direct, 1e-16, 1.0 - 1e-16))

    def test_mixture_theta_uses_component_pick(self):
        mix = decision_maker_prior(CONSENSUS, PIONEER, 0.4)
        uniforms = np.array([[0.1, 0.5, 0.5], [0.9, 0.5, 0.5]])
        theta = _theta_from_uniforms([mix], uniforms)
        # u0 = 0.1 < 0.4 picks the pioneer median, u0 = 0.9 the consensus one.
        np.testing.assert_allclose(theta, [PIONEER.mu, CONSENSUS.mu], atol=1e-12)


class TestBatchedW2:
    @pytest.mark.parametrize("mix, se, sd_offsets", MIXTURE_ROUTE_CASES)
    def test_mixture_route_matches_scalar_route(self, mix, se, sd_offsets):
        # The scalar side is the quantile formula converged to 1e-10
        # (4-point Gauss-Legendre, 4096 panels).
        if sd_offsets is None:
            ybar = simulated_ybar(mix, se, seed=3, replicates=64)
        else:
            mean, sd = mix.moments()
            ybar = mean + sd * sd_offsets
        batched = batched_w2(mix, CONSENSUS, ybar, se)
        scalar = np.array([
            oracles.w2_quantile_gl4(CONSENSUS, update_mixture(mix, Study(float(y), se)))
            for y in ybar
        ])
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    @pytest.mark.parametrize("mix, se", [
        # At 512 nodes the midpoint quantile route reads this one 0.29 off,
        # 4-point Gauss-Legendre 0.09: the quantile jumps between components.
        (MixtureDist(((0.5, NormalDist(-50.0, 0.5)), (0.5, NormalDist(50.0, 2.0)))), 1000.0),
        (MixtureDist(((0.5, NormalDist(0.0, 0.1)), (0.5, NormalDist(1.0, 3.0)))), BASE_SE),
    ], ids=["separated_components", "sd_ratio_30"])
    def test_mixture_route_matches_dense_transport(self, mix, se):
        ybar = simulated_ybar(mix, se, seed=3, replicates=64)
        batched = batched_w2(mix, CONSENSUS, ybar, se)
        dense = []
        for y in ybar:
            post = update_mixture(mix, Study(float(y), se))
            parts = [(w, comp.mu, comp.sigma) for w, comp in post.components]
            dense.append(oracles.transport_w2_dense(parts, CONSENSUS.mu, CONSENSUS.sigma))
        np.testing.assert_allclose(batched, dense, atol=1e-9)

    def test_mixture_route_matches_dense_transport_on_random_mixtures(self):
        # 120 mixtures of 2 or 3 components with Dirichlet(1) weights, means
        # U(-20, 20) times 0.1, 1 or 3, sds 0.05 to 5 and se 0.01 to 100
        # (log-uniform), three outcomes each about 1.5 mixture sd from the
        # mean. Components far apart with unequal weights put a knee in the
        # map where one tail gives way to the other (the +/- 0, 2, ..., 8 sd
        # layout read 1.2e-9 off here). The oracle's 1,000 panels agree with
        # its default 4,000 to 1.4e-14 on such rows, at a quarter of the cost.
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(120):
            k = rng.integers(2, 4)
            weights = rng.dirichlet(np.ones(k))
            mus = rng.uniform(-20.0, 20.0, k) * rng.choice([0.1, 1.0, 3.0])
            sds = np.exp(rng.uniform(math.log(0.05), math.log(5.0), k))
            se = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
            mix = MixtureDist(tuple((float(w), NormalDist(float(m), float(s)))
                                    for w, m, s in zip(weights, mus, sds)))
            mean, sd = mix.moments()
            ybar = mean + 1.5 * sd * rng.standard_normal(3)
            for y, got in zip(ybar, batched_w2(mix, CONSENSUS, ybar, se)):
                post = update_mixture(mix, Study(float(y), se))
                parts = [(w, comp.mu, comp.sigma) for w, comp in post.components]
                dense = oracles.transport_w2_dense(parts, CONSENSUS.mu, CONSENSUS.sigma,
                                                   panels=1000)
                worst = max(worst, abs(got - dense))
        assert worst <= 1e-9

    @pytest.mark.parametrize("update_prior, reference, atol", [
        # Tolerances just above the largest gap measured (1.5e-10, 9.1e-11, 4.0e-11).
        (MIX_04, decision_maker_prior(CONSENSUS, PIONEER, 0.3), 5e-10),
        (PIONEER, decision_maker_prior(CONSENSUS, PIONEER, 0.3), 5e-10),
        (MIX_04, TruncatedNormalDist(0.2, 0.4, 0.0, math.inf), 2e-10),
        (PIONEER, TruncatedNormalDist(0.2, 0.4, 0.0, math.inf), 2e-10),
        # Breaks clipped to the bound both components share sit at level 0.
        (NormalDist(0.5, 1.0), MixtureDist(((0.5, TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)),
                                            (0.5, TruncatedNormalDist(1.0, 1.0, 0.0, math.inf)))),
         1e-10),
    ], ids=["mixture_reference", "normal_update_mixture_reference",
            "truncated_reference", "normal_update_truncated_reference",
            "truncated_mixture_reference"])
    def test_non_normal_references_match_scalar_route(self, update_prior, reference, atol):
        ybar = simulated_ybar(update_prior, BASE_SE, seed=3, replicates=64)
        batched = batched_w2(update_prior, reference, ybar, BASE_SE)
        once = QuantilesOnce(reference)
        scalar = [oracles.w2_quantile_gl4(once, update(update_prior, Study(float(y), BASE_SE)))
                  for y in ybar]
        np.testing.assert_allclose(batched, scalar, atol=atol)

    @pytest.mark.parametrize("reference", [
        CONSENSUS,
        # A mixture reference's quantiles, and the breaks it carries to x,
        # moved with the other levels of their call, so with the block.
        decision_maker_prior(CONSENSUS, PIONEER, 0.3),
        MixtureDist(((0.5, CONSENSUS), (0.5, TruncatedNormalDist(2.0, 1.0, 1.5, 2.5)))),
    ], ids=["norm", "blend", "truncated_blend"])
    def test_mixture_route_is_bitwise_independent_of_block_size(self, monkeypatch, reference):
        ybar = simulated_ybar(MIX_04, BASE_SE, seed=9, replicates=1000)
        results = []
        for rows in (1000, 37):
            monkeypatch.setattr(prospective, "_BLOCK_ROWS", rows)
            results.append(kernel_w2(MIX_04, reference, ybar, BASE_SE).tobytes())
        assert results[0] == results[1]

    def test_grid_references_take_the_per_replicate_route(self):
        grid = GridDensity([2.0, 3.0, 4.0], [0.25, 0.5, 0.25])
        reference = MixtureDist(((0.5, CONSENSUS), (0.5, grid)))
        ybar = simulated_ybar(MIX_04, BASE_SE, seed=3, replicates=4)
        batched = batched_w2(MIX_04, reference, ybar, BASE_SE)
        scalar = [wp_quantile(reference, update_mixture(MIX_04, Study(float(y), BASE_SE)),
                              nodes=DEFAULT_W2_NODES) for y in ybar]
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("ybar", [-1.7, -0.3, 0.5, 2.5])
    def test_truncated_blend_matches_grid_route(self, ybar):
        # The consensus core sits 11.8 sd below its bound after ybar = -1.7.
        consensus = TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)
        blended = decision_maker_prior(consensus, NormalDist(0.0, 1.0), 0.5)
        se = SamplingModel(1.0, 50).std_error()
        batched = batched_w2(blended, consensus, np.array([ybar]), se)
        grid_post = update_grid(blended, Study(ybar, se), -6.0, 6.0, 20001)
        np.testing.assert_allclose(batched[0], wp_quantile(consensus, grid_post), atol=5e-4)

    def test_normal_route_matches_closed_form(self):
        se = SamplingModel(1.0, 4).std_error()
        ybar = np.linspace(-2.0, 8.0, 32)
        batched = batched_w2(CONSENSUS, PIONEER, ybar, se)
        scalar = []
        for y in ybar:
            mean, sd = oracles.conjugate_posterior(
                CONSENSUS.mu, CONSENSUS.sigma, float(y), se)
            scalar.append(oracles.normal_w2(PIONEER.mu, PIONEER.sigma, mean, sd))
        np.testing.assert_allclose(batched, scalar, rtol=1e-12)


# A reference with two far-apart components: on the cell below the trailing
# Chebyshev coefficients of W2^2 still read 5e-9 at 257 nodes, above target.
SEPARATED_REFERENCE = MixtureDist(((0.5, NormalDist(-5.0, 0.5)), (0.5, NormalDist(5.0, 1.0))))


@st.composite
def kernel_cases(draw):
    """A normal or 2-3 component normal-mixture update prior (means within 5,
    sds 0.2 to 3), a reference that sends it to the kernel, se 1e-3 to 1e3
    prior sd, and a seed."""
    comps = [NormalDist(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.2, 3.0)))
             for _ in range(draw(st.integers(1, 3)))]
    raw = [draw(st.floats(0.05, 1.0)) for _ in comps]
    prior = comps[0] if len(comps) == 1 else MixtureDist(
        tuple((r / sum(raw), c) for r, c in zip(raw, comps)))
    references = [decision_maker_prior(CONSENSUS, PIONEER, 0.3),
                  TruncatedNormalDist(0.2, 0.4, 0.0, math.inf)]
    if len(comps) > 1:
        references.append(CONSENSUS)
    se = prior.moments()[1] * 10.0 ** draw(st.floats(-3.0, 3.0))
    return prior, draw(st.sampled_from(references)), se, draw(st.integers(0, 2**32 - 1))


def count_kernel_rows(monkeypatch):
    """Patch the kernel to record the rows of each call, over all its cells;
    returns that list."""
    rows = []
    kernel = prospective._w2_mixture_update

    def counted(reference, priors, ybar, se):
        rows.append(ybar.size)
        return kernel(reference, priors, ybar, se)

    monkeypatch.setattr(prospective, "_w2_mixture_update", counted)
    return rows


class TestChebyshevRoute:
    @settings(max_examples=50, deadline=None)
    # Pioneer weight 1e-6 at se 300: the posterior barely leaves the
    # consensus, W2 is about 1e-3, and the square root amplifies errors.
    @example((decision_maker_prior(CONSENSUS, PIONEER, 1e-6), CONSENSUS, 300.0, 3))
    @given(kernel_cases())
    def test_matches_kernel_on_every_draw(self, case):
        prior, reference, se, seed = case
        ybar = simulated_ybar(prior, se, seed, replicates=600)
        np.testing.assert_allclose(batched_w2(prior, reference, ybar, se),
                                   kernel_w2(prior, reference, ybar, se),
                                   rtol=0.0, atol=2e-10)

    @pytest.mark.xfail(strict=True, reason=(
        "the 65-node level's trailing coefficients estimate 1.57e-10 in W2^2 "
        "against a 1.67e-10 budget, so the level is accepted, but its series is "
        "1.3e-9 off the kernel at the draws and W2 reads 2.70e-10 off"))
    def test_matches_kernel_where_the_error_estimate_reads_low(self):
        # A case hypothesis found for the test above; it fails every time.
        prior = MixtureDist(((0.5, NormalDist(-2.0, 0.5)), (0.5, NormalDist(1.0, 0.25))))
        reference = decision_maker_prior(CONSENSUS, PIONEER, 0.3)
        se = 4.9053542175871465
        ybar = simulated_ybar(prior, se, seed=0, replicates=600)
        np.testing.assert_allclose(batched_w2(prior, reference, ybar, se),
                                   kernel_w2(prior, reference, ybar, se),
                                   rtol=0.0, atol=2e-10)

    def test_runs_the_kernel_on_nodes_not_draws(self, monkeypatch):
        # A Figure 5 cell (w = 0.5, n = 50) at the benchmark's 500 replicates.
        prior = decision_maker_prior(CONSENSUS, PIONEER, 0.5)
        se = SamplingModel(3.0, 50).std_error()
        ybar = simulated_ybar(prior, se, seed=7, replicates=500)
        want = kernel_w2(prior, CONSENSUS, ybar, se)
        rows = count_kernel_rows(monkeypatch)
        got = batched_w2(prior, CONSENSUS, ybar, se)
        assert sum(rows) <= 257
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_separated_reference_falls_back_to_the_kernel_bytes(self, monkeypatch):
        ybar = simulated_ybar(MIX_04, BASE_SE, seed=7, replicates=500)
        want = kernel_w2(MIX_04, SEPARATED_REFERENCE, ybar, BASE_SE)
        rows = count_kernel_rows(monkeypatch)
        got = batched_w2(MIX_04, SEPARATED_REFERENCE, ybar, BASE_SE)
        # Every level was tried, then the draws: 757 rows against 500.
        assert rows == [65, 64, 128, 500]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("replicates", [MIN_REPLICATES, 257])
    def test_no_route_at_or_below_the_finest_level(self, monkeypatch, replicates):
        # The floor keeps every byte (and tests/golden/ with it).
        ybar = simulated_ybar(MIX_04, BASE_SE, seed=7, replicates=replicates)
        want = kernel_w2(MIX_04, CONSENSUS, ybar, BASE_SE)
        rows = count_kernel_rows(monkeypatch)
        assert batched_w2(MIX_04, CONSENSUS, ybar, BASE_SE).tobytes() == want.tobytes()
        assert rows == [replicates]


TRUNCATED_BLEND = decision_maker_prior(TruncatedNormalDist(0.2, 0.4, 0.0, math.inf),
                                       NormalDist(0.0, 1.0), 0.5)
THREE_COMPONENTS = MixtureDist(((0.2, NormalDist(-2.0, 0.5)), (0.5, NormalDist(1.0, 1.0)),
                                (0.3, NormalDist(4.0, 2.0))))
# (reference, cells as (prior, model, seed)): the prior predicts and updates.
# Against the normal reference: the closed form, the kernel with 2 and 3
# components on Chebyshev nodes, and the per-replicate route. Against the
# separated one: one component, and the base cell, which falls back to the
# draws after every level.
MIXED_SWEEPS = [
    pytest.param(CONSENSUS, [(PIONEER, SamplingModel(3.0, 10), 1),
                             (MIX_04, SamplingModel(3.0, 10), 2),
                             (MIX_04, SamplingModel(3.0, 200), 3),
                             (THREE_COMPONENTS, SamplingModel(3.0, 50), 4),
                             (TRUNCATED_BLEND, SamplingModel(1.0, 50), 5)], id="normal_reference"),
    pytest.param(SEPARATED_REFERENCE, [(PIONEER, SamplingModel(3.0, 10), 1),
                                       (MIX_04, SamplingModel(2.0, 5), 7)], id="separated_reference"),
]


def engine(reference, cells, replicates=300):
    return _expected_learning(reference, [(p, p, m.std_error(), seed) for p, m, seed in cells],
                              replicates)


def result_bytes(results):
    return np.array([dataclasses.astuple(r) for r in results]).tobytes()


class TestSweepEngine:
    @pytest.mark.parametrize("reference, cells", MIXED_SWEEPS)
    def test_each_cell_equals_its_one_cell_call(self, monkeypatch, reference, cells):
        rows = count_kernel_rows(monkeypatch)
        pooled = engine(reference, cells)
        # Each kernel pass took every cell still open: no cell ran alone.
        assert len(rows) == (3 if reference is CONSENSUS else 4)
        alone = [expected_learning_mc(p, p, reference, m, replicates=300, seed=seed)
                 for p, m, seed in cells]
        assert result_bytes(pooled) == result_bytes(alone)

    def test_a_cells_bytes_do_not_depend_on_its_company(self):
        cells = MIXED_SWEEPS[0].values[1][:4]  # the kernel and closed-form cells
        forward = engine(CONSENSUS, cells)
        assert result_bytes(engine(CONSENSUS, cells[::-1])[::-1]) == result_bytes(forward)
        odd, even = engine(CONSENSUS, cells[::2]), engine(CONSENSUS, cells[1::2])
        assert result_bytes([odd[0], even[0], odd[1], even[1]]) == result_bytes(forward)

    def test_figure5_pools_each_level_into_one_kernel_call(self, monkeypatch):
        rows = count_kernel_rows(monkeypatch)
        weight_sweep(CONSENSUS, PIONEER, 3.0, [i / 10 for i in range(11)], [10, 50, 200],
                     replicates=500, seed=7)
        # 27 mixture cells at 65 nodes, all 27 at 64 more, 17 at 128 more:
        # 5,659 kernel rows, as when each cell ran alone.
        assert rows == [27 * 65, 27 * 64, 17 * 128]
        assert sum(rows) == 5659


class TestWeightSweep:
    def test_singleton_equals_direct_call(self):
        points = weight_sweep(CONSENSUS, PIONEER, 1.0, [0.3], [20], replicates=300, seed=5)
        assert len(points) == 1
        blended = decision_maker_prior(CONSENSUS, PIONEER, 0.3)
        direct = expected_learning_mc(blended, blended, CONSENSUS,
                                      SamplingModel(1.0, 20), replicates=300, seed=5)
        assert points[0] == CurvePoint(0.3, 20, direct.estimate, direct.mc_std_error)

    def test_grid_shape_and_order(self):
        points = weight_sweep(CONSENSUS, PIONEER, 3.0, [0.0, 1.0], [10, 50],
                              replicates=150, seed=0)
        assert [(pt.w, pt.n) for pt in points] == [(0.0, 10), (0.0, 50), (1.0, 10), (1.0, 50)]

    def test_learning_increases_with_pioneer_weight(self):
        points = weight_sweep(CONSENSUS, PIONEER, 3.0, [0.0, 0.5, 1.0], [10],
                              replicates=600, seed=0)
        values = [pt.expected_learning for pt in points]
        gates = [3.0 * math.hypot(points[i].mc_std_error, points[i + 1].mc_std_error)
                 for i in range(2)]
        assert values[1] > values[0] - gates[0]
        assert values[2] > values[1] - gates[1]
        assert values[2] > values[0]

    def test_positive_learning_at_zero_weight(self):
        points = weight_sweep(CONSENSUS, PIONEER, 3.0, [0.0], [10],
                              replicates=600, seed=0)
        assert points[0].expected_learning > 3.0 * points[0].mc_std_error

    def test_w0_estimate_respects_jensen_bound(self):
        points = weight_sweep(CONSENSUS, PIONEER, 1.0, [0.0], [10],
                              replicates=2000, seed=0)
        ceiling = math.sqrt(expected_learning_bound_sq(CONSENSUS.sigma, 1.0, 10))
        assert points[0].expected_learning <= ceiling + 3.0 * points[0].mc_std_error

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            weight_sweep(CONSENSUS, PIONEER, 1.0, [], [10])
        with pytest.raises(ValueError):
            weight_sweep(CONSENSUS, PIONEER, 1.0, [0.5], [])

    def test_curve_point_validation(self):
        with pytest.raises(ValueError):
            CurvePoint(0.5, 10, math.inf, 0.1)
