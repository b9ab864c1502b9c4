"""Self-checking replication harness.

Every published value the library claims to reproduce runs here as a
named check with an explicit tolerance, alongside the property suites
(metric axioms, equivariance, additivity, continuity, determinism).
Checks are deterministic given the seed. Known rounding discrepancies in
the source tables are reported as notes, never silently patched into the
checked expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions import GridDensity, MixtureDist, NormalDist, TruncatedNormalDist
from ..metrics import (
    kl_normal,
    learning_report,
    lindley_normal,
    w2_normal,
    wasserstein_discrete,
    wp_quantile,
    quadratic_expectation,
)
from ..prospective import (
    DEFAULT_REPLICATES,
    MIN_REPLICATES,
    expected_learning_bound_sq,
    expected_learning_mc,
    weight_sweep,
)
from ..updating import SamplingModel, Study, sequential_update, update, update_grid

__all__ = ["ReplicationResult", "make_check", "run_replicate_paper"]


@dataclass(frozen=True)
class ReplicationResult:
    """One named check; it passes when |expected - actual| <= tolerance."""

    check_name: str
    expected: float
    actual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(abs(self.expected - self.actual) <= self.tolerance)


def make_check(name: str, expected: float, actual: float, tolerance: float) -> ReplicationResult:
    return ReplicationResult(name, float(expected), float(actual), float(tolerance))


def _random_normals(rng: np.random.Generator, count: int) -> list[NormalDist]:
    mus = rng.uniform(-5.0, 5.0, size=count)
    sigmas = rng.uniform(0.2, 3.0, size=count)
    return [NormalDist(m, s) for m, s in zip(mus, sigmas)]


def run_replicate_paper(seed: int = 0, replicates: int = DEFAULT_REPLICATES
                        ) -> tuple[list[ReplicationResult], list[str]]:
    """Run every replication check; returns (results, notes).

    ``replicates`` drives the prospective-identity cells; the Figure 5
    sweep covers 33 design points, so it runs replicates // 4 (at least
    MIN_REPLICATES).
    """
    replicates = int(replicates)
    sweep_replicates = max(MIN_REPLICATES, replicates // 4)
    results: list[ReplicationResult] = []
    notes: list[str] = []
    add = results.append

    # --- Section 3.1 / Table 1 / Table 3: four stylized posteriors.
    prior_31 = NormalDist(0.0, 10.0)
    posts_31 = [NormalDist(5.0, 5.0), NormalDist(5.0, 2.5),
                NormalDist(3.0, 5.0), NormalDist(0.0, 1.0)]
    for i, (post, w2_pub) in enumerate(zip(posts_31, [7.1, 9.0, 5.8, 9.0]), start=1):
        add(make_check(f"table1_row{i}_w2", w2_pub, w2_normal(prior_31, post), 0.05))
    notes.append(
        "Table 1 row 3 prints (mu1-mu0)^2 = 49 and W2^2 = 74; the checked values use "
        "(3-0)^2 = 9 and W2 = sqrt(34) = 5.831, which matches the running-text value 5.8."
    )

    post_conj = update(prior_31, Study(6.67, 5.77))
    add(make_check("conjugate_posterior_mean", 5.00, post_conj.mu, 0.01))
    add(make_check("conjugate_posterior_sd", 5.00, post_conj.sigma, 0.01))

    # --- Lawn-sign chain: four field experiments folded sequentially.
    lawn_prior = NormalDist(0.0, 5.0)
    lawn_studies = [Study(2.5, 1.7), Study(-1.4, 5.7), Study(1.8, 0.9), Study(-1.2, 2.6)]
    lawn_posts = sequential_update(lawn_prior, lawn_studies)
    published_posts = [(2.2, 1.6), (1.9, 1.6), (1.9, 0.8), (1.6, 0.7)]
    published_w2 = [4.0, 0.3, 0.8, 0.3]
    stepwise_sum = 0.0
    current = lawn_prior
    for i, post in enumerate(lawn_posts, start=1):
        pub_mean, pub_sd = published_posts[i - 1]
        add(make_check(f"lawnsign_step{i}_mean", pub_mean, post.mu, 0.15))
        add(make_check(f"lawnsign_step{i}_sd", pub_sd, post.sigma, 0.15))
        step_w2 = w2_normal(current, post)
        add(make_check(f"lawnsign_step{i}_w2", published_w2[i - 1], step_w2, 0.15))
        stepwise_sum += step_w2
        current = post
    end_w2 = w2_normal(lawn_prior, lawn_posts[-1])
    add(make_check("lawnsign_end_to_end_w2", 4.6, end_w2, 0.1))
    add(make_check("lawnsign_stepwise_sum_exceeds_end", 1.0,
                   float(stepwise_sum > end_w2), 0.0))

    # --- Table 3 comparators: symmetrized KL and |Lindley|.
    kl_pub = [1.75, 9.16, 1.35, 49.0]
    lindley_expected = [0.69, 1.386, 0.69, 2.3]
    for i, post in enumerate(posts_31, start=1):
        kl_sym = kl_normal(post, prior_31) + kl_normal(prior_31, post)
        add(make_check(f"table3_row{i}_kl_sym", kl_pub[i - 1], kl_sym, 0.02))
        add(make_check(f"table3_row{i}_lindley_abs", lindley_expected[i - 1],
                       abs(lindley_normal(prior_31, post)), 0.01))
    notes.append(
        "Table 3 row 2 prints |Lindley| = 1.37; the exact value is ln(10/2.5) = "
        "ln 4 = 1.38629, which misses the published figure by 0.016. The counted "
        "check asserts the exact value within 0.01."
    )

    # --- Appendix F, normal reading: grid update against the conjugate form.
    appf_prior = NormalDist(0.3, 0.3)
    appf_study = Study(0.074, 0.121)
    appf_grid_post = update_grid(appf_prior, appf_study)
    appf_w2 = wp_quantile(appf_prior, appf_grid_post)
    add(make_check("appendixF_normal_w2", 0.27, appf_w2, 0.01))
    conj_w2 = w2_normal(appf_prior, update(appf_prior, appf_study))
    add(make_check("appendixF_normal_grid_matches_conjugate", conj_w2, appf_w2, 1e-3))

    # --- Appendix F, truncated reading.
    trunc_prior = TruncatedNormalDist(0.2, 0.4, lower=0.0)
    trunc_post = update_grid(trunc_prior, appf_study)
    trunc_w2 = wp_quantile(trunc_prior, trunc_post)
    add(make_check("appendixF_truncated_w2", 0.34, trunc_w2, 0.02))

    # --- Cross-method consistency.
    rng = np.random.default_rng([seed, 1])
    worst_rel = 0.0
    for _ in range(50):
        a, b = _random_normals(rng, 2)
        exact = w2_normal(a, b)
        approx = wp_quantile(a, b)
        if exact > 0.0:
            worst_rel = max(worst_rel, abs(approx - exact) / exact)
    add(make_check("crosscheck_quantile_vs_closed_form_max_rel", 0.0, worst_rel, 1e-4))

    rng = np.random.default_rng([seed, 2])
    worst_abs = 0.0
    for _ in range(20):
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=100)
        y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=100)
        value = wasserstein_discrete(x, y)
        # The same law as two empirical grids, summed over merged cumulative levels.
        mass = np.full(x.size, 1.0 / x.size)
        grid = wp_quantile(GridDensity(np.sort(x), mass), GridDensity(np.sort(y), mass))
        worst_abs = max(worst_abs, abs(value - grid))
    add(make_check("crosscheck_discrete_vs_sorted_matching_max_abs", 0.0, worst_abs, 1e-9))

    # --- Prospective identity: MC second moment vs the closed-form bound.
    worst_z = 0.0
    for sigma_prior in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            for n in (1, 10, 100):
                shared = NormalDist(0.0, sigma_prior)
                mc = expected_learning_mc(shared, shared, shared,
                                          SamplingModel(sigma, n),
                                          replicates=replicates, seed=seed)
                bound = expected_learning_bound_sq(sigma_prior, sigma, n)
                z = abs(mc.second_moment - bound) / mc.second_moment_std_error
                worst_z = max(worst_z, z)
    add(make_check("prospective_identity_worst_z_27cells", 0.0, worst_z, 3.0))

    spot_expected = 0.5 + (1.0 - 1.0 / math.sqrt(2.0)) ** 2
    add(make_check("bound_sq_spot_value_1_1_1", spot_expected,
                   expected_learning_bound_sq(1.0, 1.0, 1), 1e-9))
    notes.append(
        "The spot value prints as 0.58579; the check asserts the exact expression "
        "0.5 + (1 - 1/sqrt(2))^2 = 0.5857864376... to 1e-9."
    )
    large_n = expected_learning_bound_sq(1.0, 0.01, 10**9)
    add(make_check("bound_sq_large_n_rel_gap", 0.0, abs(large_n - 2.0) / 2.0, 1e-6))

    # --- Figure 5 qualitative shape: nondecreasing in w, positive at w = 0.
    fig5_weights = [i / 10 for i in range(11)]
    fig5_ns = [10, 50, 200]
    points = weight_sweep(NormalDist(3.0, 1.0), NormalDist(0.0, 3.0), 3.0, fig5_weights, fig5_ns,
                          replicates=sweep_replicates, seed=seed)
    notes.append(
        "Figure 5 prints no y-values and no observation noise sd; the sweep fixes "
        "sigma = 3 and checks shape only (monotone in w at 3 MC sigma, positive at w = 0)."
    )
    for j, n in enumerate(fig5_ns):
        curve = points[j::len(fig5_ns)]  # w outer, n inner
        worst_drop = 0.0
        for left, right in zip(curve, curve[1:]):
            drop = left.estimate - right.estimate
            margin = 3.0 * math.hypot(left.mc_std_error, right.mc_std_error)
            worst_drop = max(worst_drop, drop - margin)
        add(make_check(f"figure5_monotone_in_w_n{n}", 0.0, max(0.0, worst_drop), 0.0))
        at_zero = curve[0]
        shortfall = max(0.0, 3.0 * at_zero.mc_std_error - at_zero.estimate)
        add(make_check(f"figure5_positive_at_w0_n{n}", 0.0, shortfall, 0.0))

    # --- Metric axioms on random normal triples.
    rng = np.random.default_rng([seed, 3])
    min_value = math.inf
    max_identity = 0.0
    max_symmetry_gap = 0.0
    worst_triangle_closed = 0.0
    worst_triangle_quantile = 0.0
    for _ in range(40):
        a, b, c = _random_normals(rng, 3)
        ab, bc, ac = w2_normal(a, b), w2_normal(b, c), w2_normal(a, c)
        min_value = min(min_value, ab, bc, ac)
        max_identity = max(max_identity, w2_normal(a, a), wp_quantile(a, a, nodes=512))
        qab = wp_quantile(a, b, nodes=512)
        qba = wp_quantile(b, a, nodes=512)
        max_symmetry_gap = max(max_symmetry_gap, abs(qab - qba))
        worst_triangle_closed = max(worst_triangle_closed, ac - ab - bc)
        qbc = wp_quantile(b, c, nodes=512)
        qac = wp_quantile(a, c, nodes=512)
        worst_triangle_quantile = max(worst_triangle_quantile, qac - qab - qbc)
    add(make_check("axioms_nonnegativity_min_w2", 0.0, max(0.0, -min_value), 0.0))
    add(make_check("axioms_identity_max_w2", 0.0, max_identity, 1e-12))
    add(make_check("axioms_symmetry_max_gap", 0.0, max_symmetry_gap, 1e-9))
    add(make_check("axioms_triangle_worst_violation_closed_form", 0.0,
                   max(0.0, worst_triangle_closed), 1e-12))
    add(make_check("axioms_triangle_worst_violation_quantile", 0.0,
                   max(0.0, worst_triangle_quantile), 1e-3))

    # --- Affine equivariance of the closed form.
    rng = np.random.default_rng([seed, 4])
    worst_scale_gap = 0.0
    worst_shift_gap = 0.0
    for _ in range(50):
        a, b = _random_normals(rng, 2)
        scale = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        shift = rng.uniform(-5.0, 5.0)
        mapped = [NormalDist(scale * d.mu + shift, abs(scale) * d.sigma) for d in (a, b)]
        worst_scale_gap = max(worst_scale_gap,
                              abs(w2_normal(*mapped) - abs(scale) * w2_normal(a, b)))
        shifted = [NormalDist(d.mu + shift, d.sigma) for d in (a, b)]
        worst_shift_gap = max(worst_shift_gap,
                              abs(w2_normal(*shifted) - w2_normal(a, b)))
    add(make_check("affine_equivariance_max_gap", 0.0, worst_scale_gap, 1e-12))
    add(make_check("affine_shift_invariance_max_gap", 0.0, worst_shift_gap, 1e-12))

    # --- Normalized learning approaches 1 as the posterior collapses in place.
    collapse = learning_report(NormalDist(2.0, 3.0), NormalDist(2.0, 3.0e-6))
    add(make_check("normalized_w2_collapse_limit", 1.0, collapse.normalized_w2, 1e-5))

    # --- Lindley additivity along chains.
    rng = np.random.default_rng([seed, 5])
    worst_additivity = 0.0
    for _ in range(100):
        d0, d1, d2 = _random_normals(rng, 3)
        gap = abs(lindley_normal(d0, d1) + lindley_normal(d1, d2) - lindley_normal(d0, d2))
        worst_additivity = max(worst_additivity, gap)
    add(make_check("lindley_additivity_max_gap", 0.0, worst_additivity, 1e-12))

    # --- KL properties.
    rng = np.random.default_rng([seed, 6])
    min_kl = math.inf
    max_kl_identity = 0.0
    for _ in range(100):
        a, b = _random_normals(rng, 2)
        min_kl = min(min_kl, kl_normal(a, b), kl_normal(b, a))
        max_kl_identity = max(max_kl_identity, kl_normal(a, a))
    add(make_check("kl_nonnegativity_min", 0.0, max(0.0, -min_kl), 0.0))
    add(make_check("kl_identity_max", 0.0, max_kl_identity, 0.0))
    narrow, wide = NormalDist(0.0, 1.0), NormalDist(0.0, 10.0)
    asym_gap = abs(kl_normal(narrow, wide) - kl_normal(wide, narrow))
    add(make_check("kl_asymmetry_witness", 1.0, float(asym_gap > 1e-9), 0.0))

    # --- Quadratic-loss continuity bound on 1000 random instances.
    rng = np.random.default_rng([seed, 7])
    worst_violation = 0.0
    for _ in range(1000):
        a, b = _random_normals(rng, 2)
        action = rng.uniform(-8.0, 8.0)
        qe_a = quadratic_expectation(a, action)
        qe_b = quadratic_expectation(b, action)
        bound = w2_normal(a, b) * math.sqrt(2.0 * (qe_a + qe_b))
        worst_violation = max(worst_violation, abs(qe_a - qe_b) - bound)
    add(make_check("continuity_bound_worst_violation", 0.0,
                   max(0.0, worst_violation), 1e-9))

    # --- Seed determinism: bit-identical reruns.
    shared = NormalDist(0.0, 1.0)
    model = SamplingModel(1.0, 4)
    first = expected_learning_mc(shared, shared, shared, model, replicates=200, seed=seed)
    second = expected_learning_mc(shared, shared, shared, model, replicates=200, seed=seed)
    add(make_check("determinism_normal_path", 1.0, float(first == second), 0.0))
    blend = MixtureDist(((0.4, NormalDist(0.0, 3.0)), (0.6, NormalDist(3.0, 1.0))))
    first = expected_learning_mc(blend, blend, NormalDist(3.0, 1.0), model,
                                 replicates=200, seed=seed)
    second = expected_learning_mc(blend, blend, NormalDist(3.0, 1.0), model,
                                  replicates=200, seed=seed)
    add(make_check("determinism_mixture_path", 1.0, float(first == second), 0.0))

    return results, notes
