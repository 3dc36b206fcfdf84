"""CLI behavior: exit codes, determinism, file outputs."""

import csv
import gc
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from darkspec import Exponential, bias_term, variance_gap_term
from darkspec.cli import ReportRow, main, write_report_csv
from darkspec.config import engine_config, load_config_file, parse_components
from darkspec.engine import read_ledger, replay_ledger, write_ledger
from darkspec.estimation import estimate_from_observation, write_estimates_csv
from darkspec.oracles import ORACLE_BLOCK
from darkspec.process import (
    PATH_BLOCK, derive_seed, sample_blocks, simulate_block, write_paths_csv,
)


REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER_V1 = REPO_ROOT / "tests" / "data" / "ledger_v1.jsonl"
LEDGER_V2 = REPO_ROOT / "tests" / "data" / "ledger_v2.jsonl"
LEDGER_EXAMPLE = REPO_ROOT / "tests" / "data" / "ledger_example.jsonl"
STOPPING_SCENARIO = REPO_ROOT / "scenarios" / "stopping.cfg"
RUN_SCENARIO = REPO_ROOT / "scenarios" / "run.cfg"
GAP_SCENARIO = REPO_ROOT / "scenarios" / "gap.cfg"


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SIMULATE_DETERMINISTIC = """
horizon = 5.0
component.a.drift = 1.0
component.a.diffusion = 0.0
component.a.jump_rate = 0.0
component.a.severity = degenerate
component.a.severity_value = 1.0
"""

SIMULATE_MC = """
horizon = 50.0
component.a.drift = 0.0
component.a.diffusion = 0.5
component.a.jump_rate = 2.0
component.a.severity = exponential
component.a.severity_mean = 3.0
"""

GAP_FULL_DETECTION = """
window = 1.0
component.a.jump_rate = 2.0
component.a.severity = exponential
component.a.severity_mean = 3.0
component.a.pi = 1.0
"""

GAP_BAD_PI = """
component.a.jump_rate = 2.0
component.a.severity = exponential
component.a.severity_mean = 3.0
component.a.pi = 1.5
"""

EXPONENTIAL_A = "component.a.severity = exponential\ncomponent.a.severity_mean = 3.0"


def pareto_a(shape: float) -> str:
    return (f"component.a.severity = pareto\ncomponent.a.severity_scale = 1.0\n"
            f"component.a.severity_shape = {shape}")


RUN_PROCESS = """
cost.c_write = 1.0
cost.c_spec = 2.0
redline.nu_star = 8.0
round.1.lambda_hat = 0.5
round.1.xi_hat = 10.0
round.2.lambda_hat = 1.0
round.2.xi_hat = 2.0
round.3.lambda_hat = 0.25
round.3.xi_hat = 8.0
"""

TWO_COMPONENTS = """
horizon = 8.0
component.a.drift = 0.5
component.a.diffusion = 1.0
component.a.jump_rate = 1.5
component.a.severity = exponential
component.a.severity_mean = 2.0
component.b.diffusion = 0.3
component.b.jump_rate = 0.4
component.b.severity = pareto
component.b.severity_scale = 1.0
component.b.severity_shape = 3.0
component.b.commencement = 2.0
"""

# scenarios/simulate.cfg with component b commencing at the horizon: an empty window
EMPTY_WINDOW = (REPO_ROOT / "scenarios" / "simulate.cfg").read_text(encoding="utf-8").replace(
    "horizon = 8.0", "horizon = 2.0")

STOPPING_GEOMETRIC = """
cost.c_write = 1.0
cost.c_spec = 1.0
stopping.rho = 1.0
stopping.R_max = 20
stopping.delta_initial = 10.0
stopping.delta_decay = 0.5
"""


class TestSimulate:
    def test_deterministic_single_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_DETERMINISTIC)
        code = main([
            "simulate", "--config", cfg, "--reps", "1", "--seed", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        rows = (tmp_path / "out" / "paths.csv").read_text().splitlines()
        assert len(rows) == 2  # header plus the single terminal row
        assert rows[1].split(",")[4] == repr(5.0)

    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["simulate", "--config", str(missing)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_monte_carlo_moments_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC)
        code = main([
            "simulate", "--config", cfg, "--reps", "10000", "--seed", "7",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        report = (tmp_path / "out" / "moment_report.csv").read_text().splitlines()
        assert report[0] == (
            "name,formula_value,oracle_value,abs_error,rel_error,tolerance,pass"
        )
        assert all(line.endswith("true") for line in report[1:])

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC)
        for sub in ("one", "two"):
            # small runs may miss the variance tolerance (exit 1); identity
            # of the outputs is what matters here
            assert main([
                "simulate", "--config", cfg, "--reps", "400", "--seed", "99",
                "--out", str(tmp_path / sub),
            ]) in (0, 1)
        for name in ("paths.csv", "moment_report.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_long_format_flag(self, tmp_path):
        # drift only, so that the exit status does not rest on Monte Carlo luck
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_DETERMINISTIC)
        assert main([
            "simulate", "--config", cfg, "--reps", "200", "--seed", "3",
            "--out", str(tmp_path / "out"), "--long",
        ]) == 0
        lines = (tmp_path / "out" / "moment_report.csv").read_text().splitlines()
        assert lines[0] == "name,field,value"
        assert "a.mean,oracle_value,5.0" in lines


class TestReportCsv:
    ROWS = [
        ReportRow("a.mean", 1.0, 1.05, 0.1),
        ReportRow("b.variance", 2.0, 3.5, 0.5),
        ReportRow("c.var_gap", float("-inf"), 0.0, float("inf")),
    ]

    @pytest.mark.parametrize(
        "long_format, expected",
        [
            (
                False,
                "name,formula_value,oracle_value,abs_error,rel_error,tolerance,pass\n"
                "a.mean,1.0,1.05,0.050000000000000044,0.050000000000000044,0.1,true\n"
                "b.variance,2.0,3.5,1.5,0.75,0.5,false\n"
                "c.var_gap,-inf,0.0,inf,nan,inf,false\n",
            ),
            (
                True,
                "name,field,value\n"
                "a.mean,formula_value,1.0\na.mean,oracle_value,1.05\n"
                "a.mean,abs_error,0.050000000000000044\n"
                "a.mean,rel_error,0.050000000000000044\n"
                "a.mean,tolerance,0.1\na.mean,pass,true\n"
                "b.variance,formula_value,2.0\nb.variance,oracle_value,3.5\n"
                "b.variance,abs_error,1.5\nb.variance,rel_error,0.75\n"
                "b.variance,tolerance,0.5\nb.variance,pass,false\n"
                "c.var_gap,formula_value,-inf\nc.var_gap,oracle_value,0.0\n"
                "c.var_gap,abs_error,inf\nc.var_gap,rel_error,nan\n"
                "c.var_gap,tolerance,inf\nc.var_gap,pass,false\n",
            ),
        ],
        ids=["wide", "long"],
    )
    def test_pinned_bytes(self, long_format, expected):
        out = io.StringIO()
        write_report_csv(self.ROWS, out, long_format=long_format)
        assert out.getvalue() == expected

    @pytest.mark.parametrize("long_format", [False, True], ids=["wide", "long"])
    def test_a_name_holding_a_carriage_return_reads_back(self, long_format):
        out = io.StringIO()
        write_report_csv([ReportRow("a\rb.mean", 1.0, 1.05, 0.1)], out, long_format=long_format)
        rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
        assert {row[0] for row in rows[1:]} == {"a\rb.mean"}
        assert len(rows) == (7 if long_format else 2)


class TestEstimate:
    def test_pooled_estimates_recover_parameters(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg", SIMULATE_MC.replace("horizon = 50.0", "horizon = 20.0")
        )
        code = main([
            "estimate", "--config", cfg, "--reps", "300", "--seed", "11",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        with open(tmp_path / "out" / "estimates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["component_id"] == "a"
        assert rows[0]["source"] == "observed"
        assert float(rows[0]["window"]) == 300 * 20.0


class TestLibraryStreams:
    """simulate and estimate draw, for each component, the blocks
    simulate_block(component, horizon, derive_seed(seed, id, b), ...) gives
    for b = 0, 1, ..., each PATH_BLOCK paths but the last."""

    HORIZON = 8.0
    REPS = 2 * PATH_BLOCK + 40
    SEED = 17

    def run(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.cfg", TWO_COMPONENTS)
        out = tmp_path / command
        code = main([
            command, "--config", cfg, "--reps", str(self.REPS),
            "--seed", str(self.SEED), "--out", str(out),
        ])
        assert code in (0, 1)  # a tolerance FAIL does not matter here
        components = [
            spec.component for spec in parse_components(load_config_file(cfg))
        ]
        blocks = [
            [
                simulate_block(
                    component, self.HORIZON, derive_seed(self.SEED, component.component_id, b),
                    min(PATH_BLOCK, self.REPS - first),
                )
                for b, first in enumerate(range(0, self.REPS, PATH_BLOCK))
            ]
            for component in components
        ]
        return out, components, blocks

    def test_simulate_paths_csv(self, tmp_path):
        out, components, blocks = self.run(tmp_path, "simulate")
        expected = io.StringIO()
        write_paths_csv(
            [path for component_blocks in blocks for block in component_blocks
             for path in block.paths()],
            expected,
        )
        assert (out / "paths.csv").read_bytes() == expected.getvalue().encode("utf-8")
        # the library's sample_blocks is the same stream, components in id order
        library = io.StringIO()
        write_paths_csv(
            [path for component in components
             for block in sample_blocks(component, self.HORIZON, self.SEED, self.REPS)
             for path in block.paths()],
            library,
        )
        assert (out / "paths.csv").read_bytes() == library.getvalue().encode("utf-8")

    def test_estimate_estimates_csv(self, tmp_path):
        out, components, blocks = self.run(tmp_path, "estimate")
        estimates = [
            estimate_from_observation(
                component.component_id,
                np.concatenate([block.jump_sizes for block in component_blocks]),
                self.REPS * (self.HORIZON - component.commencement),
            )
            for component, component_blocks in zip(components, blocks)
        ]
        expected = io.StringIO()
        write_estimates_csv(estimates, expected)
        assert (out / "estimates.csv").read_bytes() == expected.getvalue().encode("utf-8")


class TestGapStudy:
    def test_full_detection_all_zero_rows_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", GAP_FULL_DETECTION)
        code = main([
            "gap-study", "--config", cfg, "--reps", "4000", "--seed", "5",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        with open(tmp_path / "out" / "gap_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["bias_formula"]) == 0.0
        assert float(row["bias_mc"]) == 0.0
        assert float(row["var_gap_formula"]) == 0.0
        assert float(row["var_gap_mc"]) == 0.0

    def test_pinned_gap_report_columns(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", GAP_FULL_DETECTION)
        main([
            "gap-study", "--config", cfg, "--reps", "1000", "--seed", "5",
            "--out", str(tmp_path / "out"),
        ])
        header = (tmp_path / "out" / "gap_report.csv").read_text().splitlines()[0]
        assert header == (
            "component_id,pi,bias_formula,bias_mc,var_gap_formula,var_gap_mc,"
            "abs_error,rel_error"
        )

    def test_two_component_mixed_pi_within_tolerance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "window = 1.0\n"
            "component.a.jump_rate = 3.0\ncomponent.a.severity = exponential\n"
            "component.a.severity_mean = 2.0\ncomponent.a.pi = 0.25\n"
            "component.b.jump_rate = 2.0\ncomponent.b.severity = degenerate\n"
            "component.b.severity_value = 4.0\ncomponent.b.pi = 0.75\n",
        )
        code = main([
            "gap-study", "--config", cfg, "--reps", "30000", "--seed", "12",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        with open(tmp_path / "out" / "gap_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["component_id"] for r in rows] == ["a", "b"]
        for row in rows:
            assert float(row["rel_error"]) <= 0.05

    def test_measurement_error_widens_the_gap(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg",
            "window = 1.0\n"
            "component.a.jump_rate = 1.0\ncomponent.a.severity = degenerate\n"
            "component.a.severity_value = 10.0\ncomponent.a.pi = 0.5\n"
            "component.a.sigma_eps = 1.0\n",
        )
        code = main([
            "gap-study", "--config", cfg, "--reps", "30000", "--seed", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        with open(tmp_path / "out" / "gap_report.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        # (0.5 - 1) * 1 * 100 minus the 1 * 1^2 noise term
        assert float(row["var_gap_formula"]) == pytest.approx(-51.0)
        assert float(row["rel_error"]) <= 0.05

    def test_non_finite_row_fails(self, tmp_path, capsys):
        # window = 1e-320 makes the variance-gap formula -inf and its tolerance inf
        cfg = write_config(
            tmp_path / "c.cfg",
            "window = 1e-320\n"
            "component.a.jump_rate = 2.0\ncomponent.a.severity = exponential\n"
            "component.a.severity_mean = 3.0\ncomponent.a.pi = 0.5\n",
        )
        code = main([
            "gap-study", "--config", cfg, "--reps", "2000", "--seed", "1",
            "--out", str(tmp_path / "out"),
        ])
        out = capsys.readouterr().out
        assert "[PASS] a.bias" in out
        assert "[FAIL] a.var_gap: formula=-inf" in out
        assert code == 1

    @pytest.mark.parametrize("window, fixtures", [
        ("1.0", "gap_study"),
        # at window 7 each nearby operand order of the variance gap gives other bits
        ("7.0", "gap_study_window7"),
    ], ids=["window-1", "window-7"])
    def test_scenario_matches_the_fixtures(self, tmp_path, window, fixtures):
        text = re.sub(r"^window = .*$", f"window = {window}", GAP_SCENARIO.read_text(),
                      flags=re.MULTILINE)
        cfg = write_config(tmp_path / "gap.cfg", text)
        assert main(["gap-study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        for name in ("gap_report.csv", "gap_summary.csv"):
            fixture = REPO_ROOT / "tests" / "data" / fixtures / name
            assert (tmp_path / "out" / name).read_bytes() == fixture.read_bytes()

    def test_window_four_writes_the_library_terms(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg",
            "window = 4.0\n"
            "component.a.jump_rate = 3.0\ncomponent.a.severity = exponential\n"
            "component.a.severity_mean = 2.0\ncomponent.a.pi = 0.25\n"
            "component.a.sigma_eps = 0.5\n",
        )
        assert main(["gap-study", "--config", cfg, "--reps", "1000", "--seed", "3",
                     "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "gap_report.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        severity = Exponential.from_mean(2.0)
        mean, var = severity.mean(), severity.variance()
        assert row["bias_formula"] == repr(bias_term(0.25, 3.0, mean))
        assert row["var_gap_formula"] == repr(variance_gap_term(0.25, 3.0, mean, var, 0.5, 4.0))

    def test_malformed_pi_fails_before_simulation(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", GAP_BAD_PI)
        code = main([
            "gap-study", "--config", cfg, "--reps", "10", "--seed", "5",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert not (tmp_path / "out" / "gap_report.csv").exists()


class TestNarrativeCheck:
    def test_valid_scenarios_pass(self, scenario_paths, capsys):
        code = main([
            "narrative-check", str(scenario_paths["atlanta"]),
            str(scenario_paths["bioweapon"]),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "atlanta" in out and "ok" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.licain"
        bad.write_text(
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            'HAPPENING h2 stage=2 actualized "y"\n'
            "EDGE h2 -> h1 actor=a action=go\n",
            encoding="utf-8",
        )
        code = main(["narrative-check", str(bad)])
        assert code == 1
        assert "flow-restriction-2" in capsys.readouterr().out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.licain"
        bad.write_text("GIBBERISH\n", encoding="utf-8")
        assert main(["narrative-check", str(bad)]) == 2


class TestRunProcess:
    def test_scripted_rounds_and_ledger(self, tmp_path, capsys, scenario_paths):
        cfg = write_config(tmp_path / "c.cfg", RUN_PROCESS)
        out_dir = tmp_path / "out"
        code = main([
            "run-process", "--config", cfg, "--out", str(out_dir),
            str(scenario_paths["atlanta"]),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "round 1" in output and "round 3" in output
        ledger = read_ledger(out_dir / "ledger.jsonl")
        # one file is one risk: rounds 2 and 3 re-speculate it, replacing
        # its estimate (0.5 * 10.0, then 1.0 * 2.0, then 0.25 * 8.0)
        records = ledger.records
        assert [r.risk_id for r in records] == ["atlanta-rdd"] * 3
        assert [r.k_imagined for r in records] == [1, 1, 1]
        assert [r.newly_imagined for r in records] == [True, False, False]
        assert ledger.pkre_history() == [5.0, 2.0, 2.0]
        assert [r.red_line for r in records] == [False, False, False]

    def test_single_round_summary_matches_script(self, tmp_path, capsys, scenario_paths):
        cfg = write_config(
            tmp_path / "c.cfg",
            "cost.c_write = 1.0\ncost.c_spec = 2.0\n"
            "round.1.lambda_hat = 0.5\nround.1.xi_hat = 10.0\n",
        )
        code = main([
            "run-process", "--config", cfg, "--out", str(tmp_path / "out"),
            str(scenario_paths["bioweapon"]),
        ])
        assert code == 0
        ledger = read_ledger(tmp_path / "out" / "ledger.jsonl")
        assert ledger.records[0].pkre.total == 5.0

    def test_invalid_narrative_aborts_before_round_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.licain"
        bad.write_text(
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            'HAPPENING h2 stage=2 actualized "y"\n'
            "EDGE h2 -> h1 actor=a action=go\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "c.cfg",
            "cost.c_write = 1.0\ncost.c_spec = 2.0\n"
            "round.1.lambda_hat = 0.5\nround.1.xi_hat = 10.0\n",
        )
        code = main([
            "run-process", "--config", cfg, "--out", str(tmp_path / "out"), str(bad),
        ])
        assert code == 2
        assert "flow-restriction-2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ledger.jsonl").exists()

    def test_observed_feed_enters_every_round(self, tmp_path, scenario_paths):
        from darkspec import estimate_from_observation
        from darkspec.estimation import write_estimates_csv

        observed = estimate_from_observation("grid-hazard", [3.0, 5.0], 4.0)
        obs_path = tmp_path / "observed.csv"
        with open(obs_path, "w", encoding="utf-8") as fh:
            write_estimates_csv([observed], fh)
        cfg = write_config(
            tmp_path / "c.cfg",
            "cost.c_write = 1.0\ncost.c_spec = 2.0\n"
            f"observed_csv = {obs_path}\n"
            "round.1.lambda_hat = 0.5\nround.1.xi_hat = 10.0\n",
        )
        assert main([
            "run-process", "--config", cfg, "--out", str(tmp_path / "out"),
            str(scenario_paths["atlanta"]),
        ]) == 0
        record = read_ledger(tmp_path / "out" / "ledger.jsonl").records[0]
        assert record.pkre.observed == 2.0  # (3+5)/4
        assert record.pkre.total == 7.0

    def test_variable_cost_mode_charges_log_happenings(self, tmp_path, scenario_paths):
        import math

        cfg = write_config(
            tmp_path / "c.cfg",
            "cost.variable = true\ncost.c_write = 1.0\n"
            "quality.sigma2_max = 5.0\nquality.sigma2_min = 1.0\nquality.eta = 0.2\n"
            "round.1.lambda_hat = 0.5\nround.1.xi_hat = 10.0\n",
        )
        assert main([
            "run-process", "--config", cfg, "--out", str(tmp_path / "out"),
            str(scenario_paths["atlanta"]),
        ]) == 0
        record = read_ledger(tmp_path / "out" / "ledger.jsonl").records[0]
        assert record.costs.speculation == pytest.approx(math.log(6.0))  # ln(1+5)

    def test_ten_round_run_replays_identically(self, tmp_path, scenario_paths):
        lines = ["cost.c_write = 1.0", "cost.c_spec = 2.0", "redline.nu_star = 20.0"]
        for i in range(1, 11):
            lines += [
                f"round.{i}.lambda_hat = {0.1 * i}",
                f"round.{i}.xi_hat = {2.0 + i}",
                f"round.{i}.mitigation = {0.5 * i}",
                f"round.{i}.option = 0.25",
            ]
        cfg = write_config(tmp_path / "c.cfg", "\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        assert main([
            "run-process", "--config", cfg, "--out", str(out_dir),
            str(scenario_paths["bioweapon"]),
        ]) == 0
        persisted = read_ledger(out_dir / "ledger.jsonl")
        assert len(persisted.records) == 10
        engine = engine_config(load_config_file(cfg))
        assert replay_ledger(persisted, engine) == persisted

    def test_ledger_records_are_schema_versioned_json(self, tmp_path, scenario_paths):
        cfg = write_config(
            tmp_path / "c.cfg",
            "cost.c_write = 1.0\ncost.c_spec = 2.0\n"
            "round.1.lambda_hat = 0.5\nround.1.xi_hat = 10.0\n",
        )
        main([
            "run-process", "--config", cfg, "--out", str(tmp_path / "out"),
            str(scenario_paths["atlanta"]),
        ])
        lines = (tmp_path / "out" / "ledger.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["schema_version"] == 2
        assert record["pkre"]["total"] == 5.0


SIMULATE_SCENARIO = str(REPO_ROOT / "scenarios" / "simulate.cfg")


def log_draws(monkeypatch, log):
    """Patch simulate's per-block draw, which its forked workers inherit, to
    append the drawing process's pid to the file ``log``; returns a function
    that lists the pids logged so far, one per block drawn."""
    import darkspec.cli as cli

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return simulate_block(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_block", logged)
    return lambda: log.read_text(encoding="utf-8").split()


def log_workers(monkeypatch, log):
    """Patch simulate's worker initializer, which runs once in each worker as
    it starts, to append the worker's pid to the file ``log``; returns a
    function that lists the pids logged."""
    import darkspec.cli as cli

    start = cli._start_worker

    def logged(*args):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        start(*args)

    monkeypatch.setattr(cli, "_start_worker", logged)
    return lambda: log.read_text(encoding="utf-8").split()


def fault_second_block(monkeypatch, fault):
    """Patch simulate's per-block draw so that the stream's second block
    raises a DomainError (``fault`` "raise") or ends its worker with exit
    code 1 ("exit")."""
    import darkspec.cli as cli
    from darkspec.errors import DomainError

    faulty_seed = derive_seed(1, "a", 1)

    def faulty(component, horizon, seed, n):
        if seed == faulty_seed:
            if fault == "raise":
                raise DomainError("the second block faulted")
            os._exit(1)
        return simulate_block(component, horizon, seed, n)

    monkeypatch.setattr(cli, "simulate_block", faulty)


class Hung(BaseException):
    """Raised by a timer in a test whose command should have returned; not an
    Exception, so main does not turn it into exit 2."""


class TestSimulateScenario:
    """What simulate and estimate write for ``scenarios/simulate.cfg``: the
    three CSVs against fixtures, paths.csv (1.78 MB) by its SHA-256."""

    PATHS_SHA256 = "7aa41353f9ec8772a1614e195d80dec99451e6dd5a9cbd6b28cf88ab8af073b2"

    def assert_simulate_fixtures(self, out):
        fixture = REPO_ROOT / "tests" / "data" / "simulate" / "moment_report.csv"
        assert (out / "moment_report.csv").read_bytes() == fixture.read_bytes()
        digest = hashlib.sha256((out / "paths.csv").read_bytes()).hexdigest()
        assert digest == self.PATHS_SHA256

    def test_scenario_matches_the_fixtures(self, tmp_path):
        for command in ("simulate", "estimate"):
            assert main([command, "--config", SIMULATE_SCENARIO, "--out", str(tmp_path)]) == 0
        for name in ("estimates.csv", "estimate_report.csv"):
            fixture = REPO_ROOT / "tests" / "data" / "simulate" / name
            assert (tmp_path / name).read_bytes() == fixture.read_bytes()
        self.assert_simulate_fixtures(tmp_path)

    def test_one_cpu_gives_one_worker_and_the_same_bytes(self, tmp_path):
        run_python(f"""
import os
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from darkspec import cli
assert cli._worker_count() == 1
assert cli.main(["simulate", "--config", {SIMULATE_SCENARIO!r}, "--out", {str(tmp_path)!r}]) == 0
""")
        self.assert_simulate_fixtures(tmp_path)

    @pytest.mark.parametrize("workers", [2, 3, 8])  # 8: more workers than CPUs or blocks
    def test_more_workers_give_the_same_bytes(self, tmp_path, monkeypatch, workers):
        import darkspec.cli as cli

        monkeypatch.setattr(cli, "_worker_count", lambda: workers)
        started = log_workers(monkeypatch, tmp_path / "workers.log")
        pids = log_draws(monkeypatch, tmp_path / "draws.log")
        out = tmp_path / "out"
        assert main(["simulate", "--config", SIMULATE_SCENARIO, "--out", str(out)]) == 0
        self.assert_simulate_fixtures(out)
        # 3 blocks of each of 2 components, each drawn once, in a worker;
        # which worker draws which block is up to which is free first
        assert len(started()) == min(workers, 6) and str(os.getpid()) not in started()
        assert len(pids()) == 6 and set(pids()) <= set(started())

    def test_a_slow_block_holds_no_other_worker_back(self, tmp_path, monkeypatch):
        # the stream's first block takes a second: the other worker draws the
        # three blocks handed out with it, 2W = 4, which come before their
        # turn, and the next two only once the first is written
        import time

        import darkspec.cli as cli

        seeds = [derive_seed(1, cid, b) for cid in ("a", "b") for b in range(3)]
        log = tmp_path / "done.log"

        def slow_first(component, horizon, seed, n):
            if seed == seeds[0]:
                time.sleep(1.0)
            block = simulate_block(component, horizon, seed, n)
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{seeds.index(seed)}\n")
            return block

        monkeypatch.setattr(cli, "_worker_count", lambda: 2)
        monkeypatch.setattr(cli, "simulate_block", slow_first)
        out = tmp_path / "out"
        assert main(["simulate", "--config", SIMULATE_SCENARIO, "--out", str(out)]) == 0
        self.assert_simulate_fixtures(out)
        done = [int(b) for b in log.read_text(encoding="utf-8").split()]
        assert done[:4] == [1, 2, 3, 0] and sorted(done[4:]) == [4, 5]

    def test_more_workers_than_blocks_and_a_partial_block(self, tmp_path, monkeypatch):
        import darkspec.cli as cli

        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC + f"seed = 3\nreps = {PATH_BLOCK + 5}\n")
        monkeypatch.setattr(cli, "_worker_count", lambda: 1)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(cli, "_worker_count", lambda: 3)
        started = log_workers(monkeypatch, tmp_path / "workers.log")
        pids = log_draws(monkeypatch, tmp_path / "draws.log")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "three")]) == 0
        assert len(started()) == 2  # at most one worker a block
        assert len(pids()) == 2 and set(pids()) <= set(started())
        (component,) = (spec.component for spec in parse_components(load_config_file(cfg)))
        expected = io.StringIO()
        write_paths_csv(
            [path for block in sample_blocks(component, 50.0, 3, PATH_BLOCK + 5)
             for path in block.paths()],
            expected,
        )
        for name in ("paths.csv", "moment_report.csv"):
            assert (tmp_path / "three" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "three" / "paths.csv").read_bytes() == expected.getvalue().encode()

    def test_simulate_holds_at_most_one_earlier_block(self, tmp_path, monkeypatch):
        # each worker sends a block as soon as it is formatted: when it draws
        # the next, at most the one just sent may still be alive. The check
        # runs in the forked workers, where a failed assert is exit 2
        import darkspec.cli as cli

        drawn = []

        def tracked(*args, **kwargs):
            gc.collect()
            alive = sum(ref() is not None for ref in drawn)
            assert alive <= 1, f"{alive} earlier blocks alive at a draw"
            block = draw(*args, **kwargs)
            drawn.append(weakref.ref(block))
            return block

        pids = log_draws(monkeypatch, tmp_path / "draws.log")
        draw = cli.simulate_block
        monkeypatch.setattr(cli, "simulate_block", tracked)
        assert main(["simulate", "--config", SIMULATE_SCENARIO,
                     "--reps", "5000", "--out", str(tmp_path / "out")]) == 0
        assert len(pids()) == 10  # 5 blocks of each of 2 components
        assert str(os.getpid()) not in pids()

    @pytest.mark.parametrize("fault", ["raise", "exit"])
    def test_worker_fault_is_one_error_line(self, tmp_path, capfd, monkeypatch, fault):
        # the stream's second block faults while other blocks are in flight;
        # capfd, not capsys, so that what a worker writes is seen too
        import signal

        def hung(*_):
            raise Hung

        fault_second_block(monkeypatch, fault)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            expect_one_error_line(
                capfd, ["simulate", "--config", SIMULATE_SCENARIO, "--out", str(tmp_path)],
                "the second block faulted" if fault == "raise" else "a simulate worker ended",
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault", [None, "raise", "exit"])
    def test_simulate_leaves_no_thread_or_child(self, tmp_path, monkeypatch, fault):
        # the worker pool runs threads in the parent besides its workers:
        # simulate returns with each of them ended, whether it passes or not
        import threading

        if fault:
            fault_second_block(monkeypatch, fault)
        before = threading.enumerate(), multiprocessing.active_children()
        argv = ["simulate", "--config", SIMULATE_SCENARIO, "--out", str(tmp_path)]
        assert main(argv) == (2 if fault else 0)
        assert (threading.enumerate(), multiprocessing.active_children()) == before


class TestReadmeExample:
    """The README's ``run-process`` example writes ``ledger_example.jsonl``,
    where rounds 3 and 4 re-speculate the risks of rounds 1 and 2. The v1
    and v2 fixtures are the read-compatibility pair: what the example wrote
    when every round imagined a new risk, before and after the feed was
    carried over; both read as the same ledger."""

    def test_example_writes_the_fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main([
            "run-process", "--config", "scenarios/run.cfg", "--out", str(tmp_path),
            "scenarios/atlanta.licain", "scenarios/bioweapon.licain",
        ]) == 0
        assert (tmp_path / "ledger.jsonl").read_bytes() == LEDGER_EXAMPLE.read_bytes()

    def test_example_runs_from_the_scenarios_directory(self, tmp_path, monkeypatch):
        # observed_csv is relative to the config file, not the working directory
        monkeypatch.chdir(REPO_ROOT / "scenarios")
        assert main([
            "run-process", "--config", "run.cfg", "--out", str(tmp_path),
            "atlanta.licain", "bioweapon.licain",
        ]) == 0
        assert (tmp_path / "ledger.jsonl").read_bytes() == LEDGER_EXAMPLE.read_bytes()

    @pytest.mark.parametrize("fixture", [LEDGER_V2, LEDGER_EXAMPLE], ids=["v2", "example"])
    def test_fixture_rewrites_to_the_same_bytes(self, tmp_path, fixture):
        write_ledger(read_ledger(fixture), tmp_path / "ledger.jsonl")
        assert (tmp_path / "ledger.jsonl").read_bytes() == fixture.read_bytes()

    @pytest.mark.parametrize("fixture", [LEDGER_V2, LEDGER_EXAMPLE], ids=["v2", "example"])
    def test_fixture_replays_to_the_same_bytes(self, tmp_path, monkeypatch, fixture):
        # bytes, not ==: -0.0 == 0.0, and a nan equals no value
        monkeypatch.chdir(REPO_ROOT)
        engine = engine_config(load_config_file("scenarios/run.cfg"))
        write_ledger(replay_ledger(read_ledger(fixture), engine), tmp_path / "ledger.jsonl")
        assert (tmp_path / "ledger.jsonl").read_bytes() == fixture.read_bytes()

    def test_config_example_loads(self, tmp_path):
        # one file mixes the keys of several commands, and every one is known
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        values = load_config_file(write_config(tmp_path / "c.cfg", example))
        assert {"horizon", "component.a.sigma_eps", "round.1.sponsored", "observed_csv",
                "stopping.utilities"} <= values.keys()

    def test_v1_and_v2_fixtures_hold_the_same_ledger(self):
        assert read_ledger(LEDGER_V1) == read_ledger(LEDGER_V2)

    @pytest.mark.parametrize("fixture", [LEDGER_V1, LEDGER_EXAMPLE], ids=["v1", "example"])
    def test_fixture_replays_bit_for_bit(self, monkeypatch, fixture):
        monkeypatch.chdir(REPO_ROOT)
        persisted = read_ledger(fixture)
        engine = engine_config(load_config_file("scenarios/run.cfg"))
        assert replay_ledger(persisted, engine) == persisted


def run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter at the repository root."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout


README_ROUNDS = """
from darkspec.cli import main
narratives = ["scenarios/atlanta.licain", "scenarios/bioweapon.licain"]
assert main(["narrative-check", *narratives]) == 0
assert main(["run-process", "--config", "scenarios/run.cfg", "--out", OUT, *narratives]) == 0
assert main(["stopping", "--config", "scenarios/stopping.cfg", "--out", OUT]) == 0
"""


class TestNumpyFreeStart:
    """narrative-check, run-process, stopping and ledger replay draw no number,
    so they run without numpy: only the functions that compute with it import it."""

    def test_package_imports_leave_numpy_out(self):
        code = ("import sys, darkspec, darkspec.cli, darkspec.engine, darkspec.narrative\n"
                "print('numpy' in sys.modules, 'multiprocessing' in sys.modules)")
        assert run_python(code) == "False False\n"

    def test_round_ledger_commands_leave_numpy_out_and_simulate_loads_it(self, tmp_path):
        code = f"import sys\nOUT = {str(tmp_path)!r}\n" + README_ROUNDS + """
from darkspec.config import engine_config, load_config_file
from darkspec.engine import read_ledger, replay_ledger
persisted = read_ledger(OUT + "/ledger.jsonl")
assert replay_ledger(persisted, engine_config(load_config_file("scenarios/run.cfg"))) == persisted
before = "numpy" in sys.modules
main(["simulate", "--config", "scenarios/simulate.cfg", "--reps", "10", "--out", OUT])
print(before, "numpy" in sys.modules)
"""
        assert run_python(code).splitlines()[-1] == "False True"

    def test_blocked_numpy_writes_the_same_bytes(self, tmp_path):
        code = f"import sys\nsys.modules['numpy'] = None\nOUT = {str(tmp_path)!r}\n" + README_ROUNDS
        run_python(code)
        assert (tmp_path / "ledger.jsonl").read_bytes() == LEDGER_EXAMPLE.read_bytes()
        for name in ("stopping.csv", "stopping_report.csv"):
            fixture = REPO_ROOT / "tests" / "data" / "stopping_geometric" / name
            assert (tmp_path / name).read_bytes() == fixture.read_bytes()


class TestStopping:
    def test_explicit_utilities(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "stopping.rho = 1.0\nstopping.utilities = 5,3,1,-1,-3\n",
        )
        code = main(["stopping", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "tau_star = 3" in capsys.readouterr().out

    def test_geometric_gate_agreement(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", STOPPING_GEOMETRIC)
        code = main(["stopping", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "gate_vs_brute" in (tmp_path / "out" / "stopping_report.csv").read_text()

    @pytest.mark.parametrize("case", ["utilities", "geometric", "discounted"])
    def test_outputs_match_the_fixtures(self, tmp_path, case):
        # geometric is scenarios/stopping.cfg, the one config with a gate row
        scenario = STOPPING_SCENARIO.read_text(encoding="utf-8")
        config = {
            "utilities": "stopping.rho = 1.0\nstopping.utilities = 5,3,1,-1,-3\n",
            "geometric": scenario,
            "discounted": scenario.replace("stopping.rho = 1.0", "stopping.rho = 0.9"),
        }[case]
        cfg = write_config(tmp_path / "c.cfg", config)
        assert main(["stopping", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        for name in ("stopping.csv", "stopping_report.csv"):
            fixture = REPO_ROOT / "tests" / "data" / f"stopping_{case}" / name
            assert (tmp_path / "out" / name).read_bytes() == fixture.read_bytes()

    def test_r_max_defaults_to_20(self, tmp_path, capsys):
        without_r_max = STOPPING_GEOMETRIC.replace("stopping.R_max = 20\n", "")
        cfg = write_config(tmp_path / "c.cfg", without_r_max)
        code = main(["stopping", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "horizon 20" in capsys.readouterr().out


FEED_HEADER = b"component_id,source,round,lambda_hat,xi_hat,severity_var,window,n_events\n"
FEED_ROW = b"obs,observed,,2.0,3.0,1.0,10.0,20\n"


def expect_one_error_line(capsys, argv, *names):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    for name in names:
        assert name in err
    assert "Traceback" not in err
    # main's last resort for an unforeseen fault names the exception's type
    assert not re.match(r"^error: \w+(Error|Exception): ", err)


class TestBadInput:
    @pytest.mark.parametrize(
        "command, config, narrative, names",
        [
            ("stopping", "stopping.utilities = 1,,2\n", None, "stopping.utilities"),
            ("run-process", RUN_PROCESS + "round.x.lambda_hat = 1.0\n", "atlanta", "round.x"),
            ("narrative-check", None, b"NARRATIVE \xff\n", "bad.licain"),
            ("run-process", RUN_PROCESS, b"NARRATIVE \xff\n", "bad.licain"),
            ("stopping", b"stopping.rho = 1.0\n# \xff\n", None, "c.cfg:2"),
            ("simulate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = nan"), None,
             "component.a.jump_rate"),
            ("simulate", SIMULATE_MC.replace("horizon = 50.0", "horizon = nan"), None,
             "horizon"),
            ("simulate", SIMULATE_MC.replace("drift = 0.0", "drift = inf"), None,
             "component.a.drift"),
            ("simulate", SIMULATE_MC + "tolerance = inf\n", None, "tolerance"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 20", "= 31"), None, "stopping.R_max"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 20", "= 1000000"), None,
             "stopping.R_max"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 20", "= 2.5"), None, "stopping.R_max"),
            ("stopping", "stopping.utilities = " + ",".join(["1"] * 31) + "\n", None,
             "stopping.utilities"),
            ("stopping", "stopping.utilities = 1,nan,2\n", None, "stopping.utilities"),
            ("stopping", "stopping.utilities = 1,inf,2\n", None, "stopping.utilities"),
            # finite utilities whose running value overflows: stopping.csv would hold inf
            ("stopping", "stopping.utilities = 1e308,1e308\n", None, "stopping.utilities"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 20", "= 30")
             .replace("= 10.0", "= 1e307").replace("= 0.5", "= 1.0"), None,
             ("stopping.delta_initial", "after round 18 overflows")),
            ("stopping", "stopping.utilities = 1,2\nstopping.rho = 2\n", None, "stopping.rho"),
            ("stopping", STOPPING_GEOMETRIC.replace("rho = 1.0", "rho = 0"), None,
             "stopping.rho"),
            ("gap-study", GAP_FULL_DETECTION.replace("window = 1.0", "window = 0"), None,
             "'window'"),
            # past the int64 the bias oracle counts reps in
            ("gap-study", GAP_FULL_DETECTION + "reps = 100000000000000000000\n", None,
             "'reps'"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 20", "= 3")
             .replace("= 10.0", "= 1e300").replace("= 0.5", "= 1e200"), None,
             "stopping.delta_initial"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 20", "= 30")
             .replace("= 10.0", "= 1e300").replace("= 0.5", "= 10"), None,
             "stopping.delta_decay"),
            ("stopping", STOPPING_GEOMETRIC.replace("= 1.0\ncost.c_spec = 1.0",
             "= 1e308\ncost.c_spec = 1e308"), None, "cost.c_spec"),
            # rejected from the expected jump count, before any draw or allocation
            ("estimate", SIMULATE_MC.replace("horizon = 50.0", "horizon = 1e308"), None,
             "'horizon'"),
            ("estimate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = 1e9"), None,
             "component.a.jump_rate"),
            ("simulate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = 1e9"), None,
             "component.a.jump_rate"),
            ("gap-study", GAP_FULL_DETECTION.replace("jump_rate = 2.0", "jump_rate = 1e9"),
             None, "component.a.jump_rate"),
            ("gap-study", GAP_FULL_DETECTION + "component.a.sigma_eps = 0.5\n"
             "component.b.jump_rate = 2.0\ncomponent.b.severity = degenerate\n"
             "component.b.severity_value = 4.0\ncomponent.b.pi = 0.75\n"
             "component.b.sigma_eps = -1.0\n", None, "component.b.sigma_eps"),
            ("gap-study", GAP_BAD_PI, None, "component.a.pi"),
            ("gap-study", GAP_BAD_PI.replace("pi = 1.5", "pi = -0.1"), None,
             ("key 'component.a.pi': detection probability must lie in [0, 1], got -0.1")),
            ("stopping", STOPPING_GEOMETRIC.replace("c_write = 1.0", "c_write = -1.0")
             .replace("rho = 1.0", "rho = 0.9"), None, "cost.c_write"),
            ("run-process", RUN_PROCESS.replace("c_write = 1.0", "c_write = -1.0"), "atlanta",
             "cost.c_write"),
            ("run-process", RUN_PROCESS + "weights.D1 = -1\n", "atlanta", "weights.D1"),
            ("simulate", SIMULATE_MC.replace("diffusion = 0.5", "diffusion = -1"), None,
             "component.a.diffusion"),
            ("simulate", SIMULATE_MC.replace(EXPONENTIAL_A, pareto_a(0.5)), None,
             "component.a.severity_shape"),
            # utilities mode reads none of the geometric mode's keys
            ("stopping", "stopping.utilities = 5,3,1,-1,-3\nstopping.R_max = 31\n", None,
             ("stopping.utilities", "stopping.R_max")),
            ("stopping", "stopping.utilities = 5,3\nstopping.delta_initial = 10.0\n", None,
             ("stopping.utilities", "stopping.delta_initial")),
            ("run-process", RUN_PROCESS + "observed_csv =\n", "atlanta", "observed_csv"),
            # relative to the config file's directory, so a directory
            ("run-process", RUN_PROCESS + "observed_csv = .\n", "atlanta", "observed_csv"),
            # a key outside the config grammar, not read and so not silently ignored
            ("stopping", STOPPING_GEOMETRIC + "stopping.rhoo = 0.5\n", None,
             ("c.cfg:8", "unknown key 'stopping.rhoo'")),
            ("simulate", SIMULATE_MC + "component.a.category = exponential\n", None,
             ("c.cfg:8", "unknown key 'component.a.category'")),
            ("run-process", RUN_PROCESS + "weights.psi_shape = cubic\n", "atlanta",
             ("'weights.psi_shape'", "'cubic'")),
            ("simulate", SIMULATE_MC.replace("severity = exponential", "severity = weibull"),
             None, ("'component.a.severity'", "'weibull'")),
            # no jump count bounds the reps at jump_rate 0
            ("simulate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = 0.0")
             + "reps = 1000000000000\n", None, "'reps'"),
            ("estimate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = 0.0")
             + "reps = 1000000000000\n", None, "'reps'"),
        ],
        ids=[
            "utilities-gap", "round-index", "narrative-check-utf8", "run-process-utf8",
            "config-utf8", "jump-rate-nan", "horizon-nan", "drift-inf", "tolerance-key-inf",
            "r-max-31", "r-max-million", "r-max-fraction", "utilities-31", "utilities-nan",
            "utilities-inf", "utilities-overflow", "deltas-overflow", "rho-2", "rho-0", "window-0",
            "gap-study-reps-1e20", "delta-overflow",
            "delta-inf", "cost-inf", "estimate-horizon-1e308", "estimate-jump-rate-1e9",
            "simulate-jump-rate-1e9", "gap-study-jump-rate-1e9", "sigma-eps-negative",
            "pi-1.5", "pi-negative", "stopping-c-write-negative", "run-process-c-write-negative",
            "weights-d1-negative", "diffusion-negative", "pareto-shape-0.5",
            "utilities-with-r-max", "utilities-with-delta-initial", "observed-csv-empty",
            "observed-csv-directory", "unknown-stopping-key", "unknown-component-field",
            "psi-shape-unknown", "severity-family-unknown", "simulate-reps-1e12",
            "estimate-reps-1e12",
        ],
    )
    def test_exit_two_with_one_line(
        self, tmp_path, capsys, scenario_paths, command, config, narrative, names
    ):
        argv = [command, "--out", str(tmp_path / "out")]
        if isinstance(config, bytes):
            (tmp_path / "c.cfg").write_bytes(config)
            argv += ["--config", str(tmp_path / "c.cfg")]
        elif config is not None:
            argv += ["--config", write_config(tmp_path / "c.cfg", config)]
        if narrative in scenario_paths:
            argv.append(str(scenario_paths[narrative]))
        elif narrative is not None:
            path = tmp_path / "bad.licain"
            path.write_bytes(narrative)
            argv.append(str(path))
        expect_one_error_line(capsys, argv, *(names if isinstance(names, tuple) else (names,)))

    @pytest.mark.parametrize("command, config, key", [
        # a finite mean but no variance: simulate's and gap-study's formulas need one
        ("simulate", SIMULATE_MC.replace(EXPONENTIAL_A, pareto_a(1.5)),
         "component.a.severity_shape"),
        ("gap-study", GAP_FULL_DETECTION.replace(EXPONENTIAL_A, pareto_a(1.5)),
         "component.a.severity_shape"),
        ("run-process", RUN_PROCESS.replace("lambda_hat = 1.0", "lambda_hat = -1"),
         "round.2.lambda_hat"),
        ("run-process", RUN_PROCESS + "round.2.window = 0\n", "round.2.window"),
        ("simulate", SIMULATE_MC + "component.a.commencement = 60.0\n",
         "component.a.commencement"),
        ("simulate", SIMULATE_MC + "seed = -1\n", "seed"),
        ("gap-study", GAP_FULL_DETECTION + "seed = -1\n", "seed"),
        ("gap-study", GAP_FULL_DETECTION + "reps = 1\n", "'reps'"),
        ("estimate", EMPTY_WINDOW, "keys 'horizon' and 'component.b.commencement'"),
        # 3 x 1e308 overflows: estimates.csv would hold a window of inf
        ("estimate", SIMULATE_MC.replace("horizon = 50.0", "horizon = 1e308")
         .replace("jump_rate = 2.0", "jump_rate = 0.0") + "reps = 3\n",
         "keys 'horizon' and 'component.a.commencement'"),
        # one past the bound, with no jumps to count
        ("simulate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = 0.0")
         + "reps = 10000001\n", "'reps'"),
        ("estimate", SIMULATE_MC.replace("jump_rate = 2.0", "jump_rate = 0.0")
         + "reps = 10000001\n", "'reps'"),
        ("gap-study", GAP_FULL_DETECTION + "reps = 10000001\n", "'reps'"),
        ("gap-study", GAP_FULL_DETECTION + f"reps = {2**63 - 1}\n", "'reps'"),
    ], ids=["simulate-variance", "gap-study-variance", "round-lambda-hat", "round-window",
            "simulate-commencement", "simulate-seed-negative", "gap-study-seed-negative",
            "gap-study-reps-1", "estimate-empty-window", "estimate-window-overflow",
            "simulate-reps-past-bound", "estimate-reps-past-bound",
            "gap-study-reps-past-bound", "gap-study-reps-2**63-1"])
    def test_rejected_before_any_draw_or_round(self, tmp_path, capsys, monkeypatch,
                                               scenario_paths, command, config, key):
        import darkspec.cli as cli

        def reached(*args, **kwargs):
            raise AssertionError("drew or ran a round before the check")

        monkeypatch.setattr(cli, "sample_blocks", reached)  # estimate
        monkeypatch.setattr(cli, "simulate_block", reached)  # simulate's workers
        monkeypatch.setattr(cli.oracles, "bias_thinning_mc", reached)
        monkeypatch.setattr(cli.oracles, "variance_gap_mc", reached)
        monkeypatch.setattr(cli, "run_round", reached)
        argv = [command, "--config", write_config(tmp_path / "c.cfg", config),
                "--out", str(tmp_path / "out")]
        if command == "run-process":
            argv.append(str(scenario_paths["atlanta"]))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no round line, no report
        assert key in captured.err and len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["stopping", "--config", str(STOPPING_SCENARIO), "scenarios/atlanta.licain"],
         "unrecognized arguments"),
        (["simulate", "scenarios/atlanta.licain", "nonexist.licain"], "unrecognized arguments"),
        (["narrative-check"], "required: files"),
        (["run-process", "--config", "scenarios/run.cfg"], "required: files"),
    ], ids=["stopping-stray-file", "simulate-stray-files", "narrative-check-no-file",
            "run-process-no-file"])
    def test_narrative_files_only_where_read(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", [("narrative-check", None),
                                                 ("run-process", RUN_PROCESS)],
                             ids=["narrative-check", "run-process"])
    def test_parse_error_names_its_file(self, tmp_path, capsys, scenario_paths, command,
                                        config):
        bad = tmp_path / "bad.licain"
        bad.write_text("NARRATIVE round=1 risk=r\nBOGUS a\n", encoding="utf-8")
        argv = [command, "--out", str(tmp_path / "out")]
        if config is not None:
            argv += ["--config", write_config(tmp_path / "c.cfg", config)]
        argv += [str(scenario_paths["atlanta"]), str(bad)]
        expect_one_error_line(capsys, argv, "bad.licain", "line 2")

    def test_simulate_draws_an_empty_window(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", EMPTY_WINDOW)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_estimate_needs_no_severity_variance(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC.replace(EXPONENTIAL_A, pareto_a(1.5)))
        assert main(["estimate", "--config", cfg, "--reps", "20",
                     "--out", str(tmp_path / "out")]) in (0, 1)

    def test_stopping_costs_checked_before_any_output(self, tmp_path, capsys):
        # rho = 1 runs the gate too, but the costs are checked once, up front
        config = STOPPING_GEOMETRIC.replace("c_write = 1.0", "c_write = -1.0")
        argv = ["stopping", "--config", write_config(tmp_path / "c.cfg", config),
                "--out", str(tmp_path / "out")]
        expect_one_error_line(capsys, argv, "cost.c_write")
        assert not (tmp_path / "out" / "stopping.csv").exists()

    def test_unforeseen_exception_is_one_line_exit_two(self, tmp_path, capsys, monkeypatch):
        import darkspec.cli as cli

        def broken(cfg):
            raise RuntimeError("kernel fault")

        monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_DETERMINISTIC)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: RuntimeError: kernel fault\n"

    @pytest.mark.parametrize("command, config, reps, expected, window_key", [
        # component a expects 2.0 * 50.0 * 3 = 300 jumps
        ("simulate", SIMULATE_MC, 3, 300, "'horizon'"),
        ("estimate", SIMULATE_MC, 3, 300, "'horizon'"),
        # the gap oracles hold one block of reps at a time: 2.0 * 1.0 * ORACLE_BLOCK
        ("gap-study", GAP_FULL_DETECTION, ORACLE_BLOCK + 1, 2 * ORACLE_BLOCK, "'window'"),
    ], ids=["simulate", "estimate", "gap-study"])
    def test_expected_jump_limit_is_inclusive(self, tmp_path, capsys, monkeypatch, command,
                                              config, reps, expected, window_key):
        import darkspec.cli as cli

        monkeypatch.setattr(cli, "MAX_EXPECTED_JUMPS", expected)
        cfg = write_config(tmp_path / "c.cfg", config)
        argv = [command, "--config", cfg, "--reps", str(reps), "--out", str(tmp_path / "out")]
        assert main(argv) in (0, 1)
        monkeypatch.setattr(cli, "MAX_EXPECTED_JUMPS", expected - 1)
        expect_one_error_line(capsys, argv, "component.a.jump_rate", window_key)

    def test_expected_jumps_checked_once_per_component(self, tmp_path, monkeypatch):
        import darkspec.cli as cli

        checked = []
        check = cli._check_expected_jumps

        def counted(component, *rest):
            checked.append(component.component_id)
            return check(component, *rest)

        monkeypatch.setattr(cli, "_check_expected_jumps", counted)
        two = SIMULATE_MC + SIMULATE_MC.replace("component.a.", "component.b.").replace(
            "horizon = 50.0", "")
        cfg = write_config(tmp_path / "c.cfg", two)
        main(["estimate", "--config", cfg, "--reps", "20", "--out", str(tmp_path / "out")])
        assert checked == ["a", "b"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_flag(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC)
        argv = ["simulate", "--config", cfg, "--reps", "10", "--tolerance", value,
                "--out", str(tmp_path / "out")]
        expect_one_error_line(capsys, argv, "tolerance")

    # scenarios/gap.cfg's report would FAIL rows whose tolerance overflows to inf
    @pytest.mark.parametrize("value", ["1e308", "1.5", "0", "-0.5"])
    def test_tolerance_lies_in_zero_one(self, tmp_path, capsys, value):
        argv = ["gap-study", "--config", str(GAP_SCENARIO), "--tolerance", value,
                "--out", str(tmp_path / "out")]
        expect_one_error_line(capsys, argv, "tolerance must lie in (0, 1]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values, names", [
        ({"round.1.lambda_hat": "1e300", "round.1.xi_hat": "1e300"},
         ("round 1: ", "expected loss of 'atlanta-rdd' is inf")),
        # a finite PKRE, but a statistical delta of (1e100 * 1e100)^2
        ({"round.1.lambda_hat": "1e100", "round.1.xi_hat": "1e100"},
         ("round 1: ", "statistical delta is inf")),
        # absolute gaps scaled down keep the delta finite: the PKRE sum overflows
        ({"round.1.lambda_hat": "1.7e308", "round.1.xi_hat": "1.0",
          "round.1.severity_var": "0.0", "round.2.lambda_hat": "1.7e308",
          "round.2.xi_hat": "1.0", "weights.psi_shape": "absolute", "weights.phi": "0.001"},
         ("round 2: ", "PKRE passes the largest float")),
        # finite benefits whose round-on-round change overflows
        ({"round.1.mitigation": "-1.7e308", "round.2.mitigation": "1.7e308"},
         ("round 2: ", "mitigation delta is inf")),
    ], ids=["loss-term", "statistical-delta", "pkre-sum", "mitigation-delta"])
    def test_a_round_past_the_float_range(self, tmp_path, capsys, values, names):
        # scenarios/run.cfg with these keys set: the ledger would hold Infinity
        lines = [line for line in RUN_SCENARIO.read_text(encoding="utf-8").splitlines()
                 if line.split("=")[0].strip() not in values]
        lines += [f"{key} = {value}" for key, value in values.items()]
        cfg = write_config(tmp_path / "c.cfg", "\n".join(lines) + "\n")
        # observed_csv names a file beside the config
        (tmp_path / "observed.csv").write_bytes((RUN_SCENARIO.parent / "observed.csv").read_bytes())
        argv = ["run-process", "--config", cfg, "--out", str(tmp_path / "out"),
                str(REPO_ROOT / "scenarios" / "atlanta.licain"),
                str(REPO_ROOT / "scenarios" / "bioweapon.licain")]
        expect_one_error_line(capsys, argv, *names)
        assert not (tmp_path / "out" / "ledger.jsonl").exists()

    @pytest.mark.parametrize("name", ["a.licain", "c.cfg", "feed.csv"])
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                     "\x1e", "\x85", "\u2028", "\u2029"], ids=ascii)
    def test_bad_byte_on_line_three_after_any_line_break(self, tmp_path, capsys,
                                                          scenario_paths, name, brk):
        # str.splitlines' line breaks, which the parsers number lines by
        inputs = {"a.licain": scenario_paths["atlanta"].read_bytes(),
                  "c.cfg": (RUN_PROCESS + "observed_csv = feed.csv\n").encode("utf-8"),
                  "feed.csv": FEED_HEADER + FEED_ROW}
        inputs[name] = f"# one{brk}# two{brk}# ".encode("utf-8") + b"\xff\n"
        for file, data in inputs.items():
            (tmp_path / file).write_bytes(data)
        argv = ["run-process", "--config", str(tmp_path / "c.cfg"),
                "--out", str(tmp_path / "out"), str(tmp_path / "a.licain")]
        expect_one_error_line(capsys, argv, f"{name}:3: not UTF-8")

    @pytest.mark.parametrize(
        "feed, names",
        [
            (FEED_HEADER + b"obs\xff,observed,,2.0,3.0,1.0,10.0,20\n",
             ["feed.csv:2", "not UTF-8"]),
            (FEED_HEADER + FEED_ROW.replace(b"2.0", b"abc"), ["line 2", "'lambda_hat'"]),
            (FEED_HEADER + FEED_ROW + FEED_ROW.replace(b"3.0", b"nan"),
             ["line 3", "'xi_hat'"]),
            (FEED_HEADER.replace(b"xi_hat,", b"") + b"obs,observed,,2.0,1.0,10.0,20\n",
             ["line 1", "xi_hat"]),
            (FEED_HEADER + FEED_ROW.replace(b",20", b",21"), ["line 2", "lambda_hat"]),
            (FEED_HEADER + FEED_ROW + FEED_ROW, ["line 3", "duplicate", "'obs'"]),
        ],
        ids=["utf8", "non-numeric", "non-finite", "missing-column", "inconsistent",
             "duplicate-id"],
    )
    def test_malformed_observed_csv(self, tmp_path, capsys, scenario_paths, feed, names):
        (tmp_path / "feed.csv").write_bytes(feed)
        cfg = write_config(
            tmp_path / "c.cfg", RUN_PROCESS + f"observed_csv = {tmp_path / 'feed.csv'}\n"
        )
        argv = ["run-process", "--config", cfg, "--out", str(tmp_path / "out"),
                str(scenario_paths["atlanta"])]
        expect_one_error_line(capsys, argv, "feed.csv", *names)

    @pytest.mark.parametrize("name", ["a.licain", "c.cfg", "feed.csv"])
    def test_byte_order_mark_is_ignored(self, tmp_path, scenario_paths, name):
        # the same run-process inputs with and without a leading UTF-8 BOM on one file
        def run(bom, out):
            inputs = {
                "a.licain": scenario_paths["atlanta"].read_bytes(),
                "c.cfg": ("observed_csv = feed.csv\n" + RUN_PROCESS).encode("utf-8"),
                "feed.csv": FEED_HEADER + FEED_ROW,
            }
            inputs[name] = bom + inputs[name]
            for file, data in inputs.items():
                (tmp_path / file).write_bytes(data)
            assert main(["run-process", "--config", str(tmp_path / "c.cfg"),
                         "--out", str(tmp_path / out), str(tmp_path / "a.licain")]) == 0
            return (tmp_path / out / "ledger.jsonl").read_bytes()

        assert run(b"\xef\xbb\xbf", "bom") == run(b"", "plain")

    @pytest.mark.parametrize("name, bad_line", [("a.licain", b"# \xff\n"),
                                                ("feed.csv", b"obs\xff" + FEED_ROW[3:])],
                             ids=["a.licain", "feed.csv"])
    def test_bad_byte_names_its_line(self, tmp_path, capsys, scenario_paths, name, bad_line):
        # 2,000 good rows put the feed's bad byte far past a text reader's first chunk
        rows = b"".join(FEED_ROW.replace(b"obs,", b"obs%d," % i) for i in range(2000))
        inputs = {"a.licain": scenario_paths["atlanta"].read_bytes(),
                  "feed.csv": FEED_HEADER + rows}
        inputs[name] += bad_line
        for file, data in inputs.items():
            (tmp_path / file).write_bytes(data)
        cfg = write_config(tmp_path / "c.cfg", RUN_PROCESS + "observed_csv = feed.csv\n")
        argv = ["run-process", "--config", cfg, "--out", str(tmp_path / "out"),
                str(tmp_path / "a.licain")]
        lines = inputs[name].count(b"\n")
        expect_one_error_line(capsys, argv, f"{name}:{lines}: not UTF-8")


class TestFlagPrecedence:
    def test_cli_seed_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC + "seed = 1\n")
        main([
            "simulate", "--config", cfg, "--reps", "50", "--seed", "123",
            "--out", str(tmp_path / "a"),
        ])
        main([
            "simulate", "--config", cfg, "--reps", "50",
            "--out", str(tmp_path / "b"),
        ])
        a = (tmp_path / "a" / "paths.csv").read_bytes()
        b = (tmp_path / "b" / "paths.csv").read_bytes()
        assert a != b  # different effective seeds

    def test_reps_below_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", SIMULATE_MC)
        assert main(["simulate", "--config", cfg, "--reps", "0"]) == 2
