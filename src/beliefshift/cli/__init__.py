"""Command-line surface: scenario files, analyses, and the replication harness."""

from .main import main, run_compare, run_prospective, run_retrospective
from .replication import ReplicationResult, run_replicate_paper
from .scenarios import (
    GridSpec,
    PosteriorSpec,
    ProspectiveConfig,
    Scenario,
    load_scenario,
    parse_scenario,
)

__all__ = [
    "GridSpec",
    "PosteriorSpec",
    "ProspectiveConfig",
    "Scenario",
    "ReplicationResult",
    "load_scenario",
    "parse_scenario",
    "run_replicate_paper",
    "run_retrospective",
    "run_prospective",
    "run_compare",
    "main",
]
