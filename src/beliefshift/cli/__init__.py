"""Command-line surface: scenario files, analyses, and the replication harness.

Each public name is listed once, in its submodule's ``__all__``, and
re-exported here; ``beliefshift.cli.main`` is the entry-point function.
"""

from . import main as _main, replication, scenarios
from .main import *  # noqa: F403
from .replication import *  # noqa: F403
from .scenarios import *  # noqa: F403

__all__ = [*scenarios.__all__, *replication.__all__, *_main.__all__]
