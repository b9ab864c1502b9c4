#!/usr/bin/env python3
"""beliefshift benchmark: CLI operations end to end, and a traced run by layer.

Run from the repository root (Python 3.10+, numpy and scipy; nothing to build):

    python3 bench/run.py --workload cli-short --seed 7 --seconds 34 --trace 0

With ``--trace 0`` every operation is a real ``beliefshift`` command run as a
fresh process, one at a time from this one process: a closed loop with one
client.  Whole cycles of the workload's operations run while the next cycle
still fits in ``--seconds`` (at least one cycle always runs).  Each
operation's ``--out`` file is checked against a reference in
``bench/reference/`` captured with ``bench/capture_reference.py``; a mismatch,
a nonzero exit or a timeout makes the operation a failed one.

With ``--trace 1`` a child interpreter runs the workload's operations in
process through ``beliefshift.cli.main.main``, once plain and once with the
public functions and methods of every module wrapped from outside (see
``bench/tracer.py``), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it is
the run record: machine, versions, commit, ``src/`` line count and the thread
variables given to child processes.

Seeds: 7 is the default.  11 is the second seed, kept unused while a change
is written, so that a claim made on seed 7 can be checked on a fresh one.
The seed is passed to every command through ``--seed`` and is also the
scenario seed of the generated truncated-prior cell.

Workloads:

* ``cli-short``: ``retro`` and two ``compare`` commands, whose run time is
  almost all import, plus one generated ``prospect`` cell with a truncated
  consensus prior (w=0.5, n=50).  That cell exits 1 at the parent commit
  ("latent normal carries no mass between the bounds", a known defect) and
  counts as a failed operation until it is fixed.
* ``prospect-mixture``: ``prospect`` on the 33-cell Figure 5 sweep, where the
  normal-mixture W2 kernel takes most of the time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from tracer import PER_LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_build" / "bench"

DEFAULT_SEED = 7
SECOND_SEED = 11
SETUP_REPEATS = 5
# Every run must end well inside 180 s; child timeouts count down to this.
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Scaled down from the scenario's 2,500 replicates so that several sweeps fit
# in one run; the mixture kernel still takes three quarters of an operation.
MIXTURE_REPLICATES = 500

# The truncated-prior cell of cli-short: consensus trunc_normal(0.2, 0.4,
# lower 0), pioneer normal(0, 1), sigma 1, 100 replicates (the engine's
# minimum).  At the parent commit it exits 1 at every seed tried (0-31).
DEFECT_CELL = (0.5, 50)
TRUNCATED_REPLICATES = 100

# MC rows must match a same-seed reference to this fraction of their own
# standard error.  For a seed with no stored reference the row must lie
# within POOLED_Z standard errors of the mean over the stored seeds.
MC_SE_FRACTION = 0.01
POOLED_Z = 5.0
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-12

# name -> unit; every workload reports all of them with --trace 0.
E2E_METRICS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "replicates_per_s": "1/s",
    "mc_precision_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class CheckError(Exception):
    """An operation's output does not match its reference."""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Op:
    """One CLI command: arguments after the program name, its --out file, and
    the check that returns (work, precision) from that file or raises."""

    label: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[Path], tuple[float, float]]


@dataclass(frozen=True)
class OpResult:
    label: str
    wall_s: float
    ok: bool
    work: float = 0.0
    precision: float = 0.0
    error: str = ""
    wrong_output: bool = False


# ---------------------------------------------------------------- checks

def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _same_cell(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return abs(g - w) <= EXACT_ATOL + EXACT_RTOL * abs(w)


def check_exact_csv(reference: Path) -> Callable[[Path], tuple[float, float]]:
    """Closed-form and grid rows: every cell within a tight relative tolerance.
    These commands run no Monte Carlo, so each counts as one unit of work and
    of precision; per-row units would make the per-op rates of the cycle's
    5-, 4- and 1-row commands three separate clusters, and their median jumpy."""
    def check(out: Path) -> tuple[float, float]:
        want = read_csv(reference)
        got = read_csv(out)
        if len(got) != len(want) or got[0] != want[0]:
            raise CheckError(f"{out.name}: header or row count differs from {reference.name}")
        for g_row, w_row in zip(got[1:], want[1:]):
            if len(g_row) != len(w_row) or not all(map(_same_cell, g_row, w_row)):
                raise CheckError(f"{out.name}: row {g_row[:1]} differs from {reference.name}")
        return 1.0, 1.0

    return check


def cell_key(w: float, n: int) -> str:
    return f"{float(w)!r},{int(n)}"


def mc_rows(out: Path, cells: list[str]) -> list[tuple[str, float, float]]:
    """(cell, expected_learning, mc_std_error) of each row, which must be the
    given cells in order, with finite values and a positive standard error."""
    got = read_csv(out)
    if got[0] != ["w", "n", "expected_learning", "mc_std_error"]:
        raise CheckError(f"{out.name}: unexpected header {got[0]}")
    keys = [cell_key(float(r[0]), int(r[1])) for r in got[1:]]
    if keys != cells:
        raise CheckError(f"{out.name}: cells {keys} differ from {cells}")
    rows = []
    for key, row in zip(keys, got[1:]):
        el, se = float(row[2]), float(row[3])
        if not (math.isfinite(el) and math.isfinite(se) and se > 0.0):
            raise CheckError(f"{out.name}: cell {key} is not finite and positive")
        rows.append((key, el, se))
    return rows


def check_mc_csv(workload: str, seed: int, cells: list[str],
                 replicates: int) -> Callable[[Path], tuple[float, float]]:
    """MC rows against the reference of the same seed, to MC_SE_FRACTION of
    their standard error; against the mean over the stored seeds when the
    seed has none.  Work is replicates.  Precision is the sum over cells of
    1 / se^2, with se^2 pooled over the stored seeds, so that the precision
    of a run does not swing with one seed's estimate of each cell's variance;
    the check above pins each run's se to its reference anyway."""
    def check(out: Path) -> tuple[float, float]:
        reference = load_reference(workload)
        same_seed = reference["seeds"].get(str(seed), {})
        precision = 0.0
        for key, el, se in mc_rows(out, cells):
            stored = [by_cell[key] for by_cell in reference["seeds"].values() if key in by_cell]
            var_sum = math.fsum(s * s for _, s in stored)
            if key in same_seed:
                el_ref, se_ref = same_seed[key]
                tol = MC_SE_FRACTION * se_ref
                if abs(el - el_ref) > tol or abs(se - se_ref) > tol:
                    raise CheckError(f"{out.name}: cell {key} gives ({el!r}, {se!r}), "
                                     f"reference ({el_ref!r}, {se_ref!r})")
            else:
                mean = math.fsum(e for e, _ in stored) / len(stored)
                se_mean = math.sqrt(var_sum) / len(stored)
                if abs(el - mean) > POOLED_Z * math.hypot(se, se_mean):
                    raise CheckError(f"{out.name}: cell {key} gives {el!r}, "
                                     f"pooled reference {mean!r} +- {se_mean!r}")
            precision += len(stored) / var_sum
        return float(replicates * len(cells)), precision

    return check


def check_unreferenced_mc_csv(cells: list[str],
                              replicates: int) -> Callable[[Path], tuple[float, float]]:
    """MC rows with no stored reference (the defect cell has never completed):
    only finite values and a positive standard error are required."""
    def check(out: Path) -> tuple[float, float]:
        rows = mc_rows(out, cells)
        return float(replicates * len(rows)), math.fsum(1.0 / (se * se) for _, _, se in rows)

    return check


# ------------------------------------------------------------- workloads

@functools.lru_cache(maxsize=None)
def load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def truncated_scenario(w: float, n: int, seed: int) -> dict:
    return {
        "kind": "prospective",
        "seed": seed,
        "prospective_config": {
            "consensus": {"type": "trunc_normal", "mu": 0.2, "sigma": 0.4, "lower": 0},
            "pioneer": {"type": "normal", "mu": 0, "sigma": 1},
            "weights": [w],
            "ns": [n],
            "sigma": 1,
            "replicates": TRUNCATED_REPLICATES,
        },
    }


def truncated_op(w: float, n: int, seed: int, out_dir: Path) -> Op:
    """One generated truncated-prior cell, written under out_dir."""
    label = f"truncated_w{w}_n{n}"
    scenario = out_dir / f"{label}.json"
    scenario.write_text(json.dumps(truncated_scenario(w, n, seed), indent=2) + "\n",
                        encoding="utf-8")
    out = out_dir / f"{label}.csv"
    argv = ("prospect", "--scenario", str(scenario), "--seed", str(seed), "--out", str(out))
    return Op(label, argv, out, check_unreferenced_mc_csv([cell_key(w, n)],
                                                          TRUNCATED_REPLICATES))


def mixture_cells() -> list[str]:
    """The cells of figure5_sweep.json, in the order prospect writes them."""
    return [cell_key(w, n) for w in [i / 10 for i in range(11)] for n in (10, 50, 200)]


def make_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """The workload's cycle of operations, writing outputs under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    s = str(seed)

    def out(label: str) -> Path:
        return out_dir / f"{label}.csv"

    if workload == "cli-short":
        ref = REFERENCE / "cli-short"
        specs = [
            ("retro_lawn_signs", ["retro", "--scenario", "scenarios/lawn_signs.json"]),
            ("compare_table3", ["compare", "--scenario", "scenarios/table3_compare.json",
                                "--metric", "all"]),
            ("compare_citizenship", ["compare", "--scenario",
                                     "scenarios/citizenship_truncated.json"]),
        ]
        ops = [Op(label, (*argv, "--seed", s, "--out", str(out(label))), out(label),
                  check_exact_csv(ref / f"{label}.csv"))
               for label, argv in specs]
        return ops + [truncated_op(*DEFECT_CELL, seed, out_dir)]
    if workload == "prospect-mixture":
        label = "figure5_sweep"
        argv = ("prospect", "--scenario", "scenarios/figure5_sweep.json",
                "--replicates", str(MIXTURE_REPLICATES), "--seed", s, "--out", str(out(label)))
        return [Op(label, argv, out(label),
                   check_mc_csv(workload, seed, mixture_cells(), MIXTURE_REPLICATES))]
    raise BenchError(f"unknown workload {workload!r}")


WORKLOADS = ("cli-short", "prospect-mixture")


# --------------------------------------------------------------- running

def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's src/ first on the path and
    the BLAS/OpenMP thread variables capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, cap))
        except ValueError:
            wanted = cap
        env[var] = str(min(max(wanted, 1), cap))
    return env


def run_child(argv: list[str], env: dict[str, str], timeout: float,
              stdin: str | None = None) -> tuple[float, int, str, str]:
    """Run one child process to completion; (wall s, exit code, stdout, stderr).
    subprocess.run kills and reaps the child if it overruns the timeout."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, input=stdin, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def cli_argv(op: Op) -> list[str]:
    """A timed operation: a fresh interpreter running the beliefshift CLI."""
    return [sys.executable, "-m", "beliefshift.cli", *op.argv]


def run_op(op: Op, env: dict[str, str], timeout: float) -> OpResult:
    if op.out.exists():
        op.out.unlink()
    try:
        wall, code, _, err = run_child(cli_argv(op), env, timeout)
    except subprocess.TimeoutExpired:
        return OpResult(op.label, math.inf, False, error="timed out")
    if code != 0:
        return OpResult(op.label, wall, False, error=f"exit {code}: {err.strip()[-300:]}")
    return checked(op, wall)


def checked(op: Op, wall: float) -> OpResult:
    try:
        work, precision = op.check(op.out)
    except (CheckError, OSError, ValueError, IndexError) as exc:
        return OpResult(op.label, wall, False, error=f"output check: {exc}", wrong_output=True)
    return OpResult(op.label, wall, True, work, precision)


def measure_setup(env: dict[str, str], timeout: float) -> list[float]:
    """Fresh interpreters running `import beliefshift`: the set-up every CLI call pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _, err = run_child([sys.executable, "-c", "import beliefshift"], env, timeout)
        if code != 0:
            raise BenchError(f"import beliefshift failed: {err.strip()[-300:]}")
        times.append(wall)
    return times


def run_cycles(ops: list[Op], env: dict[str, str], seconds: float,
               deadline: float) -> list[OpResult]:
    """Whole cycles while the next one is expected to fit in `seconds`."""
    results: list[OpResult] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in ops:
            results.append(run_op(op, env, deadline - time.perf_counter()))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds or time.perf_counter() + elapsed / cycles > deadline:
            return results


def summarize(results: list[OpResult], setup_times: list[float],
              peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics.  A failed operation counts as zero work and
    infinite latency, so turning a failure into a success never reads as a
    regression."""
    latency = [r.wall_s if r.ok else math.inf for r in results]
    work_rate = [r.work / r.wall_s if r.ok else 0.0 for r in results]
    precision_rate = [r.precision / r.wall_s if r.ok else 0.0 for r in results]
    op_p50 = statistics.median(latency)
    if not math.isfinite(op_p50):
        raise BenchError(f"{sum(not r.ok for r in results)} of {len(results)} operations "
                         "failed, so the median operation has no finite time")
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": op_p50,
        "replicates_per_s": statistics.median(work_rate),
        "mc_precision_per_s": statistics.median(precision_rate),
        "ok_ratio": sum(r.ok for r in results) / len(results),
        "peak_rss_mb": peak_rss_mb,
    }


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_record(args, env: dict[str, str]) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": git_commit(), "src_lines": src_lines(),
        "thread_env": {var: env[var] for var in THREAD_VARS},
    }


def outcome(results: list[OpResult], values: dict[str, float], units: dict[str, str]) -> dict:
    """The result line; failed operations are also listed on standard error."""
    for r in results:
        if not r.ok:
            print(f"failed op {r.label}: {r.error}", file=sys.stderr)
    return {"correct": not any(r.wrong_output for r in results),
            "attempted": len(results), "failed": sum(not r.ok for r in results),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def timed_run(args, env: dict[str, str], deadline: float) -> dict:
    ops = make_ops(args.workload, args.seed, WORK / "timed")
    setup_times = measure_setup(env, deadline - time.perf_counter())
    results = run_cycles(ops, env, args.seconds, deadline)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return outcome(results, summarize(results, setup_times, peak), E2E_METRICS)


def traced_run(args, env: dict[str, str], deadline: float) -> dict:
    plain = make_ops(args.workload, args.seed, WORK / "plain")
    traced = make_ops(args.workload, args.seed, WORK / "traced")
    spec = {"plain": [list(op.argv) for op in plain], "traced": [list(op.argv) for op in traced]}
    try:
        _, code, out, err = run_child([sys.executable, str(BENCH / "tracer.py")], env,
                                      deadline - time.perf_counter(), stdin=json.dumps(spec))
    except subprocess.TimeoutExpired:
        raise BenchError("traced run timed out") from None
    if code != 0:
        raise BenchError(f"traced run exited {code}: {err.strip()[-500:]}")
    data = json.loads(out.strip().splitlines()[-1])
    results = []
    for ops, runs in ((plain, data["plain"]), (traced, data["traced"])):
        for op, run in zip(ops, runs):
            if run["exit"] != 0:
                results.append(OpResult(op.label, run["s"], False, error=f"exit {run['exit']}"))
            else:
                results.append(checked(op, run["s"]))
    return outcome(results, data["metrics"], PER_LAYER_METRICS)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "beliefshift" / "__init__.py").is_file():
        print(f"error: no beliefshift sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    deadline = started + HARD_LIMIT_S
    try:
        result = (traced_run if args.trace else timed_run)(args, env, deadline)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("run record: " + json.dumps(run_record(args, env)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
