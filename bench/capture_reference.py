#!/usr/bin/env python3
"""Capture the output references that bench/run.py checks operations against.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/capture_reference.py --seeds 0-31

It runs each workload's operations as fresh ``beliefshift`` processes and
writes ``bench/reference/cli-short/*.csv`` (seed-independent, captured at the
default seed) and ``bench/reference/prospect-mixture.json``, which maps each
seed to its cells' ``[expected_learning, mc_std_error]``.  Cells that exit
nonzero are listed under ``failed`` for that seed and have no reference row.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run


def run_ops(workload: str, seed: int, env: dict[str, str]) -> list[tuple[run.Op, int, str]]:
    ops = run.make_ops(workload, seed, run.WORK / "capture" / f"{workload}-{seed}")
    results = []
    for op in ops:
        _, code, _, err = run.run_child(run.cli_argv(op), env, run.HARD_LIMIT_S)
        results.append((op, code, err.strip()[-200:]))
    return results


def reference_rows(out) -> dict[str, list[float]]:
    rows = run.read_csv(out)[1:]
    return {run.cell_key(float(r[0]), int(r[1])): [float(r[2]), float(r[3])] for r in rows}


def capture_mc(workload: str, seeds: list[int], env: dict[str, str], workers: int) -> None:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_seed = list(pool.map(lambda s: run_ops(workload, s, env), seeds))
    table = {"seeds": {}, "failed": {}}
    for seed, results in zip(seeds, per_seed):
        rows, failed = {}, []
        for op, code, err in results:
            if code == 0:
                rows.update(reference_rows(op.out))
            else:
                failed.append(op.label)
                print(f"{workload} seed {seed}: {op.label} exits {code}: {err}")
        table["seeds"][str(seed)] = rows
        if failed:
            table["failed"][str(seed)] = failed
    path = run.REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")


def capture_cli_short(env: dict[str, str]) -> None:
    target = run.REFERENCE / "cli-short"
    target.mkdir(parents=True, exist_ok=True)
    for op, code, err in run_ops("cli-short", run.DEFAULT_SEED, env):
        if op.label.startswith("truncated_"):
            continue  # the defect cell has never completed, so it has no reference
        if code != 0:
            raise SystemExit(f"cli-short {op.label} exits {code}: {err}")
        shutil.copyfile(op.out, target / f"{op.label}.csv")
    print(f"wrote {target.relative_to(run.ROOT)}")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-31"),
                        help="inclusive seed range, as 0-31")
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                        choices=run.WORKLOADS)
    parser.add_argument("--workers", type=int, default=2,
                        help="operations run at once (at most nproc)")
    args = parser.parse_args()
    workers = max(1, min(args.workers, run.nproc()))
    env = run.child_env()
    for workload in args.workloads:
        if workload == "cli-short":
            capture_cli_short(env)
        else:
            capture_mc(workload, args.seeds, env, workers)
    shutil.rmtree(run.WORK / "capture", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
