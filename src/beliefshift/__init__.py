"""beliefshift: quantify scientific learning as the distance between beliefs.

The package measures how much a study taught us by the Wasserstein-2
distance between prior and posterior beliefs about an effect parameter,
with KL divergence and Lindley information as comparators, Bayesian
updating to produce the posteriors, and a Monte Carlo engine for the
expected learning of studies not yet run.
"""

from .distributions import (
    Distribution1D,
    GridDensity,
    MixtureDist,
    NormalDist,
    TruncatedNormalDist,
    dist_from_literal,
    to_grid,
)
from .errors import (
    AbsoluteContinuityError,
    BeliefShiftError,
    DegenerateError,
    MomentError,
    NumericError,
    ScenarioError,
    TailMassError,
    UnsupportedPriorError,
)
from .metrics import (
    LearningReport,
    kl_grid,
    kl_normal,
    learning_report,
    lindley_grid,
    lindley_normal,
    log_surprisal,
    quadratic_expectation,
    w2_normal,
    wasserstein_discrete,
    wp_quantile,
)
from .prospective import (
    CurvePoint,
    ExpectedLearning,
    decision_maker_prior,
    expected_learning_bound_sq,
    expected_learning_mc,
    weight_sweep,
)
from .updating import (
    SamplingModel,
    Study,
    log_predictive_density,
    sequential_update,
    update,
    update_grid,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "Distribution1D",
    "NormalDist",
    "TruncatedNormalDist",
    "GridDensity",
    "MixtureDist",
    "to_grid",
    "dist_from_literal",
    # errors
    "BeliefShiftError",
    "NumericError",
    "TailMassError",
    "MomentError",
    "AbsoluteContinuityError",
    "DegenerateError",
    "UnsupportedPriorError",
    "ScenarioError",
    # updating
    "Study",
    "SamplingModel",
    "update_grid",
    "update",
    "sequential_update",
    "log_predictive_density",
    # metrics
    "LearningReport",
    "w2_normal",
    "wp_quantile",
    "wasserstein_discrete",
    "kl_normal",
    "kl_grid",
    "lindley_normal",
    "lindley_grid",
    "log_surprisal",
    "quadratic_expectation",
    "learning_report",
    # prospective
    "ExpectedLearning",
    "CurvePoint",
    "decision_maker_prior",
    "expected_learning_mc",
    "expected_learning_bound_sq",
    "weight_sweep",
]
