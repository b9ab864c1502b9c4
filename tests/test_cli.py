"""Tests for the CLI layer: scenario schema, command wiring, exit codes,
output formats, and the replication harness plumbing."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from beliefshift import LearningReport, ScenarioError
from beliefshift.cli import (
    ReplicationResult,
    load_scenario,
    main,
    parse_scenario,
    run_compare,
    run_prospective,
    run_retrospective,
    serialize_scenario,
)
from beliefshift.cli import replication
from beliefshift.cli.replication import make_check

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

TABLE3_DICT = {
    "kind": "compare",
    "prior": {"type": "normal", "mu": 0.0, "sigma": 10.0},
    "posteriors": [
        {"label": "vaccine", "dist": {"type": "normal", "mu": 5.0, "sigma": 2.5}},
    ],
}


def lawn_scenario():
    return load_scenario(str(SCENARIO_DIR / "lawn_signs.json"))


class TestScenarioSchema:
    @pytest.mark.parametrize(
        "name",
        ["lawn_signs.json", "table3_compare.json", "figure5_sweep.json",
         "citizenship_truncated.json"],
    )
    def test_round_trip_identity(self, name):
        scenario = load_scenario(str(SCENARIO_DIR / name))
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario

    def test_missing_kind(self):
        with pytest.raises(ScenarioError, match="kind"):
            parse_scenario({"prior": {"type": "normal", "mu": 0, "sigma": 1}})

    def test_unknown_root_key(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            parse_scenario({"kind": "compare", "priur": {}})

    def test_retrospective_requires_studies(self):
        with pytest.raises(ScenarioError, match="studies"):
            parse_scenario({
                "kind": "retrospective",
                "prior": {"type": "normal", "mu": 0, "sigma": 5},
                "studies": [],
            })

    def test_study_path_in_error(self):
        with pytest.raises(ScenarioError, match=r"studies\[1\]"):
            parse_scenario({
                "kind": "retrospective",
                "prior": {"type": "normal", "mu": 0, "sigma": 5},
                "studies": [
                    {"estimate": 2.5, "std_error": 1.7},
                    {"estimate": 1.0, "std_error": -1.0},
                ],
            })

    def test_weight_path_in_error(self):
        with pytest.raises(ScenarioError, match=r"prospective_config\.weights\[1\]"):
            parse_scenario({
                "kind": "prospective",
                "prospective_config": {
                    "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                    "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                    "weights": [0.0, 1.5],
                    "ns": [10],
                    "sigma": 1.0,
                },
            })

    def test_posterior_needs_exactly_one_source(self):
        base = {
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
        }
        with pytest.raises(ScenarioError, match=r"posteriors\[0\]"):
            parse_scenario({**base, "posteriors": [{
                "label": "both",
                "dist": {"type": "normal", "mu": 5, "sigma": 5},
                "study": {"estimate": 6.67, "std_error": 5.77},
            }]})
        with pytest.raises(ScenarioError, match=r"posteriors\[0\]"):
            parse_scenario({**base, "posteriors": [{"label": "neither"}]})

    def test_grid_validation(self):
        with pytest.raises(ScenarioError, match="grid"):
            parse_scenario({**TABLE3_DICT, "grid": {"lo": 2.0, "hi": -2.0}})
        with pytest.raises(ScenarioError, match=r"grid\.nodes: must be at least 64"):
            parse_scenario({**TABLE3_DICT, "grid": {"lo": -2.0, "hi": 2.0, "nodes": 10}})

    def test_boolean_rejected_as_number(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario({**TABLE3_DICT, "seed": True})

    def test_load_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="scenario file"):
            load_scenario(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(bad))


class TestRunRetrospective:
    def test_lawn_sign_chain(self):
        rows = run_retrospective(lawn_scenario())
        labels = [label for label, _ in rows]
        assert labels == ["step_1", "step_2", "step_3", "step_4", "cumulative"]
        stepwise = [report.w2 for label, report in rows[:-1]]
        for got, published in zip(stepwise, [4.0, 0.3, 0.8, 0.3]):
            assert abs(got - published) < 0.15
        cumulative = rows[-1][1].w2
        assert abs(cumulative - 4.6) < 0.1
        assert sum(stepwise) > cumulative

    def test_single_study(self):
        scenario = parse_scenario({
            "kind": "retrospective",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "studies": [{"estimate": 6.67, "std_error": 5.77}],
        })
        rows = run_retrospective(scenario)
        assert len(rows) == 2
        assert abs(rows[0][1].w2 - 7.07) < 0.01
        assert rows[0][1].w2 == rows[1][1].w2


class TestRunCompare:
    def test_table3_values(self):
        scenario = parse_scenario({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "posteriors": [
                {"label": "r1", "dist": {"type": "normal", "mu": 5, "sigma": 5}},
                {"label": "r2", "dist": {"type": "normal", "mu": 5, "sigma": 2.5}},
                {"label": "r3", "dist": {"type": "normal", "mu": 3, "sigma": 5}},
                {"label": "r4", "dist": {"type": "normal", "mu": 0, "sigma": 1}},
            ],
        })
        rows = run_compare(scenario)
        w2s = [r.w2 for _, r in rows]
        for got, expected in zip(w2s, [7.071, 9.014, 5.831, 9.0]):
            assert abs(got - expected) < 0.005
        for (_, r), expected in zip(rows, [1.75, 9.156, 1.35, 49.005]):
            assert abs(r.kl_sym - expected) < 0.005
        for (_, r), expected in zip(rows, [math.log(2), math.log(4),
                                           math.log(2), math.log(10)]):
            assert abs(abs(r.lindley) - expected) < 1e-9
        for (_, r), (mean_sq, sd_sq) in zip(rows, [(25, 25), (25, 56.25),
                                                   (9, 25), (0, 81)]):
            assert abs(r.mean_shift_sq - mean_sq) < 1e-9
            assert abs(r.sd_shift_sq - sd_sq) < 1e-9

    def test_identical_posterior_all_zero(self):
        scenario = parse_scenario({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "posteriors": [{"label": "same",
                            "dist": {"type": "normal", "mu": 0, "sigma": 10}}],
        })
        report = run_compare(scenario)[0][1]
        assert report.w2 == 0.0
        assert report.kl_sym == 0.0
        assert report.lindley == 0.0

    def test_study_posterior_equals_conjugate(self):
        scenario = parse_scenario({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "posteriors": [{"label": "conj",
                            "study": {"estimate": 6.67, "std_error": 5.77}}],
        })
        report = run_compare(scenario)[0][1]
        mean, sd = oracles.conjugate_posterior(0.0, 10.0, 6.67, 5.77)
        expected = oracles.normal_w2(0.0, 10.0, mean, sd)
        assert abs(report.w2 - expected) < 1e-9


class TestRunProspective:
    def test_point_grid_size(self):
        scenario = parse_scenario({
            "kind": "prospective",
            "seed": 3,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.0, 1.0],
                "ns": [10, 50],
                "sigma": 3.0,
                "replicates": 150,
            },
        })
        points = run_prospective(scenario)
        assert len(points) == 4
        assert all(pt.expected_learning > 0.0 for pt in points)


class TestReplicationResult:
    def test_boundary_counts_as_pass(self):
        check = make_check("edge", 1.0, 1.5, 0.5)
        assert check.passed

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            ReplicationResult("bad", 1.0, 2.0, 0.5, True)
        with pytest.raises(ValueError):
            ReplicationResult("bad", 1.0, 1.1, 0.5, False)

    def test_harness_detects_tampering(self, monkeypatch):
        def broken_w2(a, b):
            return math.sqrt(abs((a.mu - b.mu) ** 2 - (a.sigma - b.sigma) ** 2))

        monkeypatch.setattr(replication, "w2_normal", broken_w2)
        results, _ = replication.run_replicate_paper(seed=0, replicates=100,
                                                     sweep_replicates=100)
        by_name = {r.check_name: r for r in results}
        assert not by_name["table1_row1_w2"].passed
        assert not all(r.passed for r in results)


class TestCommandLine:
    def test_retro_command(self, tmp_path, capsys):
        out = tmp_path / "lawn.csv"
        code = main(["retro", "--scenario", str(SCENARIO_DIR / "lawn_signs.json"),
                     "--out", str(out)])
        assert code == 0
        assert "not cumulative" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step," + ",".join(LearningReport.CSV_COLUMNS)
        assert len(lines) == 6

    def test_compare_command_metric_selection(self, tmp_path, capsys):
        out = tmp_path / "kl.csv"
        code = main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--metric", "kl", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "posterior,kl_forward,kl_reverse,kl_sym"
        assert len(lines) == 5

    def test_compare_json_output(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 4
        assert abs(rows[0]["w2"] - 7.071) < 0.005
        assert rows[0]["decomposition_exact"] is True

    def test_kind_mismatch_exits_one(self, capsys):
        code = main(["retro", "--scenario", str(SCENARIO_DIR / "table3_compare.json")])
        assert code == 1
        assert "expected retrospective" in capsys.readouterr().err

    def test_missing_scenario_exits_one(self, tmp_path, capsys):
        code = main(["retro", "--scenario", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "empty_studies.json"
        bad.write_text(json.dumps({
            "kind": "retrospective",
            "prior": {"type": "normal", "mu": 0, "sigma": 5},
            "studies": [],
        }), encoding="utf-8")
        code = main(["retro", "--scenario", str(bad)])
        assert code == 1
        assert "studies" in capsys.readouterr().err

    def test_half_grid_flags_exit_one(self, capsys):
        code = main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--grid-lo", "0"])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["0.5", True], ids=["string", "bool"])
    def test_mixture_weight_must_be_a_number(self, tmp_path, capsys, weight):
        # A string weight used to run with exit 0, and true read as 1.0.
        scenario = tmp_path / "weights.json"
        scenario.write_text(json.dumps({
            "kind": "compare",
            "prior": {"type": "mixture", "components": [
                {"weight": weight, "dist": {"type": "normal", "mu": 0, "sigma": 1}},
                {"weight": 0.5, "dist": {"type": "normal", "mu": 1, "sigma": 1}},
            ]},
            "posteriors": [{"study": {"estimate": 1.0, "std_error": 1.0}}],
        }), encoding="utf-8")
        assert main(["compare", "--scenario", str(scenario)]) == 1
        assert "components[0].weight" in capsys.readouterr().err

    @pytest.mark.parametrize("change, argv, field", [
        ({"sigma": math.nan}, [], "prospective_config.sigma"),
        ({"sigma": math.inf}, [], "prospective_config.sigma"),
        ({"weights": []}, [], "prospective_config.weights"),
        ({"ns": []}, [], "prospective_config.ns"),
        ({}, ["--replicates", "5"], "--replicates"),
    ], ids=["sigma_nan", "sigma_inf", "weights_empty", "ns_empty", "replicates_flag"])
    def test_prospective_range_errors_name_the_field(self, tmp_path, capsys, change, argv, field):
        scenario = tmp_path / "cell.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.5],
                "ns": [10],
                "sigma": 1.0,
                "replicates": 100,
                **change,
            },
        }), encoding="utf-8")
        assert main(["prospect", "--scenario", str(scenario), *argv]) == 1
        assert f"error: {field}: " in capsys.readouterr().err

    def test_numeric_error_exits_two(self, capsys):
        code = main(["compare",
                     "--scenario", str(SCENARIO_DIR / "citizenship_truncated.json"),
                     "--grid-lo", "0", "--grid-hi", "2"])
        assert code == 2
        assert "numeric error" in capsys.readouterr().err

    def test_extreme_prior_scales_exit_cleanly(self, tmp_path, capsys):
        # sigma**2 underflows (1e-300) or overflows (1e300) in a naive update.
        outcomes = {}
        for sigma in (1e-300, 1e300):
            scenario = tmp_path / f"scale_{sigma:g}.json"
            scenario.write_text(json.dumps({
                "kind": "compare",
                "prior": {"type": "normal", "mu": 0, "sigma": sigma},
                "posteriors": [{"label": "a", "study": {"estimate": 0.5, "std_error": 1.0}}],
            }), encoding="utf-8")
            out = tmp_path / f"scale_{sigma:g}.json.out"
            code = main(["compare", "--scenario", str(scenario), "--format", "json",
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            outcomes[sigma] = (code, err, out)
        # A 1e-300 prior swamps the study: the posterior is the prior, so
        # nothing is learned.
        code, err, out = outcomes[1e-300]
        assert code == 0 and err == ""
        row = json.loads(out.read_text(encoding="utf-8"))[0]
        assert row["w2"] == 0.0 and row["kl_sym"] == 0.0 and row["lindley"] == 0.0
        # A 1e300 prior shrinks to sd 1, and sd_shift_sq is out of range.
        code, err, _ = outcomes[1e300]
        assert code == 2
        assert err.startswith("numeric error:")

    def test_truncated_consensus_cell_runs(self, tmp_path, capsys):
        # Some replicates move the consensus core 11.8 sd below its bound.
        scenario = tmp_path / "truncated.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "seed": 7,
            "prospective_config": {
                "consensus": {"type": "trunc_normal", "mu": 0.2, "sigma": 0.4, "lower": 0},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 1},
                "weights": [0.5],
                "ns": [50],
                "sigma": 1,
                "replicates": 100,
            },
        }), encoding="utf-8")
        out = tmp_path / "cell.csv"
        code = main(["prospect", "--scenario", str(scenario), "--seed", "7", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header == "w,n,expected_learning,mc_std_error"
        assert len(rows) == 1
        assert all(math.isfinite(float(v)) for v in rows[0].split(","))

    def test_import_loads_neither_scipy_stats_nor_optimize(self):
        probe = ("import sys, beliefshift, beliefshift.cli.main; "
                 "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        probe = ("import sys, beliefshift, beliefshift.cli.main; "
                 "print('concurrent.futures' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "False"

    def test_import_loads_neither_scipy_nor_numpy_random(self):
        probe = ("import sys, beliefshift, beliefshift.cli.main; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["retro", "--scenario", str(SCENARIO_DIR / "lawn_signs.json")],
        ["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"), "--metric", "all"],
        ["prospect", "--scenario", str(SCENARIO_DIR / "figure5_sweep.json"),
         "--replicates", "100"],
        ["compare", "--scenario", str(SCENARIO_DIR / "citizenship_truncated.json")],
    ], ids=["retro", "compare", "prospect", "compare_truncated"])
    def test_normal_readings_leave_scipy_special_unloaded(self, argv):
        probe = ("import sys; from beliefshift.cli.main import main; code = main(sys.argv[1:]); "
                 "sys.stderr.write(str(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]"

    def test_fresh_mixture_prospect_matches_in_process_run(self, tmp_path, capsys):
        # A fresh process runs the MC engine with nothing warmed up by the
        # tests before it; its bytes must not depend on that.
        scenario = tmp_path / "mixture.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "seed": 5,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.2, 0.5, 0.8],
                "ns": [10],
                "sigma": 3.0,
                "replicates": 300,
            },
        }), encoding="utf-8")
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "beliefshift.cli", "prospect",
             "--scenario", str(scenario), "--out", str(fresh)],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["prospect", "--scenario", str(scenario), "--out", str(here)]) == 0
        capsys.readouterr()
        assert fresh.read_bytes() == here.read_bytes()
        assert len(fresh.read_text(encoding="utf-8").splitlines()) == 4

    def test_prospect_runs_are_byte_identical(self, tmp_path):
        scenario = tmp_path / "sweep.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "seed": 3,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.0, 0.5, 1.0],
                "ns": [10],
                "sigma": 3.0,
                "replicates": 150,
            },
        }), encoding="utf-8")
        outputs = []
        for run in range(2):
            out = tmp_path / f"curve_{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "beliefshift.cli", "prospect",
                 "--scenario", str(scenario), "--out", str(out)],
                capture_output=True, cwd=str(REPO_ROOT),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0] == "w,n,expected_learning,mc_std_error"
        assert len(lines) == 4

    def test_replicate_paper_runs_are_byte_identical(self, tmp_path, capsys):
        outputs = []
        for run in range(2):
            out = tmp_path / f"report_{run}.csv"
            code = main(["replicate-paper", "--replicates", "400", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 0
            assert "checks passed" in captured.out
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0] == "check_name,expected,actual,tolerance,passed"
        assert all(line.endswith(",true") for line in lines[1:])
