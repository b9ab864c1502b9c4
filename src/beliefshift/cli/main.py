"""Argparse command dispatch.

Subcommands: retro (stepwise learning along a study sequence), prospect
(expected-learning sweep), compare (metric table for one prior against
several posteriors), and replicate-paper (the self-checking harness).
Human-readable tables go to standard output; machine CSV/JSON goes to
--out. Exit codes: 0 success, 1 validation or replication failure,
2 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from ..errors import NumericError, ScenarioError
from ..metrics import LearningReport, learning_report
from ..prospective import DEFAULT_REPLICATES, MIN_REPLICATES, CurvePoint, weight_sweep
from ..updating import sequential_update, update
from .replication import run_replicate_paper
from .scenarios import Scenario, load_scenario

__all__ = ["build_parser", "main", "run_retrospective", "run_prospective", "run_compare"]

_METRIC_COLUMNS = {
    "w2": ("w2", "mean_shift_sq", "sd_shift_sq", "normalized_w2", "decomposition_exact"),
    "kl": ("kl_forward", "kl_reverse", "kl_sym"),
    "lindley": ("lindley",),
    "all": LearningReport.CSV_COLUMNS,
}


# retro and compare draw no random numbers; they accept --seed so that every
# command takes the same flags.
_UNREAD_SEED = "accepted but not read: this command draws no random numbers"


def _add_io_flags(sub: argparse.ArgumentParser, seed_help: str,
                  scenario_required: bool = True) -> None:
    if scenario_required:
        sub.add_argument("--scenario", required=True, help="scenario JSON file")
    sub.add_argument("--out", help="write machine-readable output to this path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="format for --out (default csv)")
    sub.add_argument("--seed", type=int, default=None, help=seed_help)


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid-lo", type=float, default=None,
                     help="override the grid window lower edge")
    sub.add_argument("--grid-hi", type=float, default=None,
                     help="override the grid window upper edge")
    sub.add_argument("--grid-nodes", type=int, default=None,
                     help="override the grid node count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefshift",
        description="Quantify belief change between priors and posteriors "
                    "with the Wasserstein-2 learning metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    retro = sub.add_parser("retro", help="stepwise learning along a study sequence")
    _add_io_flags(retro, _UNREAD_SEED)
    _add_grid_flags(retro)

    prospect = sub.add_parser("prospect", help="expected learning from future studies")
    _add_io_flags(prospect, "override the scenario seed")
    prospect.add_argument("--replicates", type=int, default=None,
                          help="override the Monte Carlo replicate count")

    compare = sub.add_parser("compare", help="metric table for prior vs posteriors")
    _add_io_flags(compare, _UNREAD_SEED)
    _add_grid_flags(compare)
    compare.add_argument("--metric", choices=("w2", "kl", "lindley", "all"),
                         default="all", help="which metric columns to emit")

    rep = sub.add_parser("replicate-paper", help="run every replication check")
    _add_io_flags(rep, "seed of the Monte Carlo checks (default 0)", scenario_required=False)
    rep.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES,
                     help="Monte Carlo replicates per prospective cell")

    return parser


def _print_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line.rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _fmt(value, digits: int = 6) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.{digits}g}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _json_value(value):
    # RFC 8259 has no Infinity or NaN: a value with no finite reading is null.
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_out(path: str, fmt: str, header: Sequence[str], rows) -> None:
    """Write ``rows``, tuples in ``header`` order, to ``path``: CSV cells by
    ``_csv_cell``, or a JSON list of objects keyed by the header."""
    if fmt == "csv":
        content = "".join(",".join(map(_csv_cell, row)) + "\n" for row in (header, *rows))
    else:
        content = json.dumps([{h: _json_value(v) for h, v in zip(header, row)} for row in rows],
                             indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise ScenarioError(f"--out {path}: {exc}") from exc


def _report_rows(rows: list[tuple[str, LearningReport]], columns: Sequence[str]) -> list[tuple]:
    return [(label, *(getattr(report, c) for c in columns)) for label, report in rows]


def run_retrospective(scenario: Scenario) -> list[tuple[str, LearningReport]]:
    """Per-step learning reports plus the end-to-end (cumulative) report."""
    grid = scenario.grid
    posteriors = sequential_update(scenario.prior, scenario.studies, grid.lo, grid.hi, grid.nodes)
    beliefs = [scenario.prior, *posteriors]
    rows = [(f"step_{i}", learning_report(before, after))
            for i, (before, after) in enumerate(zip(beliefs, posteriors), start=1)]
    rows.append(("cumulative", learning_report(scenario.prior, posteriors[-1])))
    return rows


def run_prospective(scenario: Scenario) -> list[CurvePoint]:
    """Weight/sample-size sweep using the scenario's prospective config and seed."""
    cfg = scenario.prospective_config
    return weight_sweep(cfg.consensus, cfg.pioneer, cfg.sigma, cfg.weights, cfg.ns,
                        replicates=cfg.replicates, seed=scenario.seed)


def run_compare(scenario: Scenario) -> list[tuple[str, LearningReport]]:
    """One learning report per posterior spec (direct or via a study)."""
    grid = scenario.grid
    rows: list[tuple[str, LearningReport]] = []
    for spec in scenario.posteriors:
        post = spec.dist
        if post is None:
            post = update(scenario.prior, spec.study, grid.lo, grid.hi, grid.nodes)
        rows.append((spec.label, learning_report(scenario.prior, post)))
    return rows


def _request(args, kind: str) -> Scenario:
    """The scenario file of ``kind`` with the command's flags folded in:
    --grid-lo, --grid-hi and --grid-nodes into ``grid``, --replicates into
    ``prospective_config``, --seed into ``seed``. The scenario's own checks
    run once on the result."""
    scenario = load_scenario(args.scenario)
    if scenario.kind != kind:
        raise ScenarioError(f"kind: expected {kind}, got {scenario.kind}")
    try:
        if kind == "prospective":
            cfg = scenario.prospective_config
            if args.replicates is not None:
                cfg = replace(cfg, replicates=args.replicates)
            changes = {"prospective_config": cfg}
        else:
            flags = {"lo": args.grid_lo, "hi": args.grid_hi, "nodes": args.grid_nodes}
            changes = {"grid": replace(scenario.grid,
                                       **{k: v for k, v in flags.items() if v is not None})}
        return replace(scenario, seed=scenario.seed if args.seed is None else args.seed,
                       **changes)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _cmd_retro(args) -> int:
    rows = run_retrospective(_request(args, "retrospective"))
    columns = LearningReport.CSV_COLUMNS
    _print_table(
        ["step", "w2", "normalized_w2", "kl_sym", "lindley", "decomposition_exact"],
        [[label, _fmt(r.w2), _fmt(r.normalized_w2), _fmt(r.kl_sym),
          _fmt(r.lindley), _fmt(r.decomposition_exact)] for label, r in rows],
    )
    stepwise = [r.w2 for label, r in rows if label != "cumulative"]
    end_to_end = rows[-1][1].w2
    if sum(stepwise) >= end_to_end:
        print(f"note: stepwise W2 values sum to {sum(stepwise):.6g}, at or above the "
              f"end-to-end W2 {end_to_end:.6g}; learning along a path is not cumulative.")
    if args.out:
        _write_out(args.out, args.format, ("step", *columns), _report_rows(rows, columns))
    return 0


def _cmd_prospect(args) -> int:
    points = run_prospective(_request(args, "prospective"))
    _print_table(
        ["w", "n", "expected_learning", "mc_std_error"],
        [[_fmt(pt.w), str(pt.n), _fmt(pt.expected_learning), _fmt(pt.mc_std_error)]
         for pt in points],
    )
    if args.out:
        _write_out(args.out, args.format, ("w", "n", "expected_learning", "mc_std_error"),
                   [(pt.w, pt.n, pt.expected_learning, pt.mc_std_error) for pt in points])
    return 0


def _cmd_compare(args) -> int:
    rows = run_compare(_request(args, "compare"))
    columns = _METRIC_COLUMNS[args.metric]
    headers = ["posterior"] + list(columns)
    table_rows = []
    for label, report in rows:
        cells = [label]
        for name in columns:
            value = getattr(report, name)
            # Tables display |lindley|; the CSV/JSON keeps the signed value.
            if name == "lindley" and value is not None:
                value = abs(value)
            cells.append(_fmt(value))
        table_rows.append(cells)
    _print_table(headers, table_rows)
    if args.out:
        _write_out(args.out, args.format, ("posterior", *columns), _report_rows(rows, columns))
    return 0


def _cmd_replicate_paper(args) -> int:
    seed = 0 if args.seed is None else args.seed
    results, notes = run_replicate_paper(seed=seed, replicates=args.replicates)
    _print_table(
        ["check", "expected", "actual", "tolerance", "status"],
        [[r.check_name, _fmt(r.expected, 8), _fmt(r.actual, 8), _fmt(r.tolerance, 3),
          "pass" if r.passed else "FAIL"] for r in results],
    )
    for note in notes:
        print(f"note: {note}")
    passed = sum(r.passed for r in results)
    print(f"result: {passed}/{len(results)} checks passed")
    if args.out:
        _write_out(args.out, args.format,
                   ("check_name", "expected", "actual", "tolerance", "passed"),
                   [(r.check_name, r.expected, r.actual, r.tolerance, r.passed)
                    for r in results])
    return 0 if passed == len(results) else 1


_COMMANDS = {
    "retro": _cmd_retro,
    "prospect": _cmd_prospect,
    "compare": _cmd_compare,
    "replicate-paper": _cmd_replicate_paper,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "replicates", None) is not None and args.replicates < MIN_REPLICATES:
            raise ScenarioError(f"--replicates: must be at least {MIN_REPLICATES}")
        return _COMMANDS[args.command](args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2

