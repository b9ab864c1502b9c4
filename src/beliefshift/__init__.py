"""beliefshift: quantify scientific learning as the distance between beliefs.

The package measures how much a study taught us by the Wasserstein-2
distance between prior and posterior beliefs about an effect parameter,
with KL divergence and Lindley information as comparators, Bayesian
updating to produce the posteriors, and a Monte Carlo engine for the
expected learning of studies not yet run.

Each public name is listed once, in its submodule's ``__all__``; the
package re-exports those lists and adds ``__version__``.
"""

from . import distributions, errors, metrics, prospective, updating
from .distributions import *  # noqa: F403
from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .prospective import *  # noqa: F403
from .updating import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *distributions.__all__, *errors.__all__, *updating.__all__,
           *metrics.__all__, *prospective.__all__]
