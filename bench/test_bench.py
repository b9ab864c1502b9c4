"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_metric_names_and_units_follow_the_charset():
    metrics = list(run.E2E_METRICS.items()) + list(tracer.PER_LAYER_METRICS.items())
    for name, unit in metrics:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _ok(wall, work):
    return run.OpResult("ok", wall, True, work, work)


def _failed(wall):
    return run.OpResult("failed", wall, False, error="exit 1")


def test_failed_op_counts_as_zero_work_and_infinite_latency():
    m = run.summarize([_ok(2.0, 10.0), _failed(0.5), _ok(3.0, 30.0)], [1.0, 1.2, 1.1], 100.0)
    assert m["op_p50_s"] == 3.0  # the failure ranks above every completed op
    assert m["replicates_per_s"] == 5.0  # rates 5, 0 and 10
    assert m["ok_ratio"] == pytest.approx(2 / 3)
    assert m["setup_s"] == 1.1


@pytest.mark.parametrize("fixed_wall", [0.1, 2.5, 100.0])
def test_fixing_a_failure_never_reads_as_a_regression(fixed_wall):
    before = run.summarize([_ok(2.0, 10.0), _failed(0.5), _ok(3.0, 30.0)], [1.0], 100.0)
    after = run.summarize([_ok(2.0, 10.0), _ok(fixed_wall, 10.0), _ok(3.0, 30.0)], [1.0], 100.0)
    assert after["op_p50_s"] <= before["op_p50_s"]
    assert after["replicates_per_s"] >= before["replicates_per_s"]
    assert after["mc_precision_per_s"] >= before["mc_precision_per_s"]
    assert after["ok_ratio"] > before["ok_ratio"]


def test_only_a_wrong_output_makes_the_run_incorrect():
    exit_1 = _failed(1.0)
    wrong = run.OpResult("wrong", 1.0, False, error="output check", wrong_output=True)
    values = {"op_p50_s": 1.0}
    assert run.outcome([_ok(1.0, 1.0), exit_1], values, {"op_p50_s": "s"})["correct"]
    result = run.outcome([_ok(1.0, 1.0), wrong], values, {"op_p50_s": "s"})
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_a_run_whose_median_op_failed_has_no_result():
    with pytest.raises(run.BenchError):
        run.summarize([_failed(1.0), _failed(1.0), _ok(2.0, 1.0)], [1.0], 100.0)


def test_self_time_subtracts_direct_children():
    spans = [
        Span("cli.command.prospect", "cli", 0.0, 10.0, -1),
        Span("prospective.weight_sweep", "prospective", 1.0, 9.0, 0),
        Span("prospective.mc.other_prior", "prospective", 2.0, 8.0, 1, replicates=100),
        Span("metrics.wp_quantile", "metrics", 3.0, 5.0, 2),
        Span("distributions.MixtureDist.quantile", "distributions", 3.5, 4.5, 3),
        Span("distributions.MixtureDist.cdf", "distributions", 3.625, 3.75, 4),
        Span("distributions.MixtureDist.quantile", "distributions", 6.0, 7.0, 2),
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["prospective.self_s"] == 2.0 + 3.0
    assert m["metrics.self_s"] == 1.0
    assert m["distributions.self_s"] == 0.875 + 0.125 + 1.0
    assert sum(m[f"{layer}.self_s"] for layer in
               ("cli", "updating", "distributions", "metrics", "prospective")) == 10.0
    assert m["cli.command.prospect.s"] == 10.0
    assert m["distributions.mixture_quantile.calls"] == 2
    assert m["distributions.mixture_quantile.s"] == 2.0
    assert m["distributions.mixture_cdf_per_quantile"] == 0.5
    assert m["metrics.quantile_evals_per_wp"] == 1.0
    assert m["prospective.mc.other_prior.replicates"] == 100
    assert m["prospective.mc.other_prior.us_per_replicate"] == 6.0e6 / 100


def test_nested_calls_of_one_name_count_their_time_once():
    spans = [Span("distributions.TruncatedNormalDist.cdf", "distributions", 0.0, 4.0, -1),
             Span("distributions.TruncatedNormalDist.pdf", "distributions", 1.0, 2.0, 0)]
    m = tracer.layer_metrics(spans)
    assert m["distributions.truncated.calls"] == 2
    assert m["distributions.truncated.s"] == 4.0


def test_update_prior_labels():
    from beliefshift import MixtureDist, NormalDist, TruncatedNormalDist
    normal = NormalDist(0.0, 1.0)
    truncated = TruncatedNormalDist(0.2, 0.4, lower=0.0)
    assert tracer.update_prior_label(normal) == "normal_prior"
    assert tracer.update_prior_label(
        MixtureDist(((0.5, normal), (0.5, NormalDist(3.0, 1.0))))) == "normal_mixture_prior"
    assert tracer.update_prior_label(MixtureDist(((0.5, normal), (0.5, truncated)))) == "other_prior"
    assert tracer.update_prior_label(truncated) == "other_prior"


def _namespaces():
    import beliefshift  # noqa: F401
    for module_name in tracer.LAYER_MODULES:
        __import__(module_name)
    owners = [m for n, m in sys.modules.items() if n.startswith("beliefshift")]
    owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_wrappers_are_gone_after_a_traced_run():
    from beliefshift import NormalDist
    before = _namespaces()
    cli_main = sys.modules["beliefshift.cli.main"]  # beliefshift.cli.main is also a function
    metrics = sys.modules["beliefshift.metrics"]
    original = metrics.w2_normal
    t = tracer.Tracer()
    t.install()
    try:
        assert cli_main.learning_report is not before[(id(cli_main), "learning_report")]
        assert metrics.w2_normal is not original
        metrics.w2_normal(NormalDist(0.0, 1.0), NormalDist(1.0, 1.0))
        NormalDist(0.0, 1.0).quantile(0.5)
    finally:
        t.uninstall()
    assert [s.name for s in t.spans] == ["metrics.w2_normal", "distributions.NormalDist.quantile"]
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_timed_runs_are_fresh_cli_processes(tmp_path):
    for workload in run.WORKLOADS:
        for op in run.make_ops(workload, run.DEFAULT_SEED, tmp_path / workload):
            argv = run.cli_argv(op)
            assert argv[:3] == [sys.executable, "-m", "beliefshift.cli"]
            assert not any("tracer" in a for a in argv)
    # run.py itself never imports beliefshift, so no wrapper can leak.
    probe = ("import sys; sys.path.insert(0, 'bench'); import run; "
             "print(any(m.startswith('beliefshift') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=BENCH.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_defect_cell_follows_the_seed(tmp_path):
    defect = run.make_ops("cli-short", run.SECOND_SEED, tmp_path)[-1]
    assert defect.label == "truncated_w0.5_n50"  # the known-defect cell stays in the cycle
    scenario = json.loads(Path(defect.argv[2]).read_text())
    assert scenario["seed"] == run.SECOND_SEED
    config = scenario["prospective_config"]
    assert (config["weights"], config["ns"]) == ([0.5], [50])
    assert defect.argv[defect.argv.index("--seed") + 1] == str(run.SECOND_SEED)


def _write_rows(path, rows):
    path.write_text("w,n,expected_learning,mc_std_error\n"
                    + "".join(f"{w!r},{n},{el!r},{se!r}\n" for w, n, el, se in rows))


def test_mc_rows_match_to_a_fraction_of_their_standard_error(tmp_path):
    reference = run.load_reference("prospect-mixture")
    cells = run.mixture_cells()
    rows = reference["seeds"][str(run.DEFAULT_SEED)]

    def write(shift_z=0.0):
        values = [(*map(float, key.split(",")), *rows[key]) for key in cells]
        values[0] = (*values[0][:2], values[0][2] + shift_z * values[0][3], values[0][3])
        _write_rows(out, [(w, int(n), el, se) for w, n, el, se in values])

    out = tmp_path / "sweep.csv"
    check = run.check_mc_csv("prospect-mixture", run.DEFAULT_SEED, cells, 500)
    write()
    pooled = [[by_cell[key] for by_cell in reference["seeds"].values()] for key in cells]
    precision = sum(len(p) / sum(s * s for _, s in p) for p in pooled)
    assert check(out) == pytest.approx((500.0 * len(cells), precision))
    write(shift_z=0.02)
    with pytest.raises(run.CheckError):
        check(out)
    # A seed without a stored reference is checked against the pooled mean.
    unseen = run.check_mc_csv("prospect-mixture", 10**6, cells, 500)
    write()
    unseen(out)
    write(shift_z=50.0)
    with pytest.raises(run.CheckError):
        unseen(out)


def test_the_defect_cell_is_only_checked_for_finite_values(tmp_path):
    check = run.check_unreferenced_mc_csv(["0.5,50"], 100)
    out = tmp_path / "cell.csv"
    _write_rows(out, [(0.5, 50, 0.3, 0.05)])
    assert check(out) == pytest.approx((100.0, 400.0))
    _write_rows(out, [(0.5, 50, float("nan"), 0.05)])
    with pytest.raises(run.CheckError):
        check(out)
    _write_rows(out, [(0.5, 10, 0.3, 0.05)])
    with pytest.raises(run.CheckError):
        check(out)


def test_exact_rows_reject_a_small_relative_change(tmp_path):
    reference = BENCH / "reference" / "cli-short" / "compare_table3.csv"
    check = run.check_exact_csv(reference)
    out = tmp_path / "compare.csv"
    text = reference.read_text()
    out.write_text(text)
    assert check(out) == (1.0, 1.0)
    out.write_text(text.replace("7.0710678118654755", "7.0710678"))
    with pytest.raises(run.CheckError):
        check(out)
