"""Self-tests for the benchmark: the generator, the output checks and the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from darkspec import cli  # noqa: E402
from darkspec.narrative import parse_narrative, validate  # noqa: E402

SMALL = {
    "paths-export": {"reps": 40},
    "pool-estimate": {"reps": 40, "gap_reps": 200},
    "round-ledger": {"files": 60, "rounds": 12, "run_files": 5, "feed": 10},
}


def _generate(workload, seed, dest):
    return generate.generate(workload, seed, dest, sizes=SMALL[workload])


def _run(argv, cwd, monkeypatch, capsys):
    monkeypatch.chdir(cwd)
    status = cli.main(argv)
    return status, capsys.readouterr().out


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(tmp_path, workload):
    a = _generate(workload, 5, tmp_path / "a")
    b = _generate(workload, 5, tmp_path / "b")
    c = _generate(workload, 6, tmp_path / "c")
    assert a["input_sha256"] == b["input_sha256"]
    assert a["input_sha256"] != c["input_sha256"]
    assert a["program_seed"] == b["program_seed"] != c["program_seed"]


@pytest.mark.parametrize("defect", (None, *generate.DEFECTS))
def test_planted_defect_gives_exactly_its_code(defect):
    for seed in range(25):
        text = generate.narrative_text(random.Random(seed), "r", defect)
        codes = validate(parse_narrative(text)).codes()
        assert codes == (set() if defect is None else {defect}), (seed, text)


def test_paths_check_catches_a_truncated_csv(tmp_path, monkeypatch, capsys):
    m = _generate("paths-export", 1, tmp_path)
    status, out = _run(["simulate", "--config", m["config"], "--out", "out"],
                       tmp_path, monkeypatch, capsys)
    assert status == (1 if checks.fail_rows(out) else 0)
    paths = tmp_path / "out" / "paths.csv"
    shape = (m["reps"], m["horizon"], m["commencements"])
    assert checks.check_paths_csv(paths, *shape) == []
    lines = paths.read_text().splitlines(keepends=True)
    paths.write_text("".join(lines[: len(lines) - 3]))
    assert checks.check_paths_csv(paths, *shape)


def test_estimates_check_catches_a_changed_rate(tmp_path, monkeypatch, capsys):
    m = _generate("pool-estimate", 1, tmp_path)
    _run(["estimate", "--config", m["config"], "--out", "out"], tmp_path, monkeypatch, capsys)
    estimates = tmp_path / "out" / "estimates.csv"
    shape = (m["reps"], m["horizon"], m["commencements"])
    assert checks.check_estimates_csv(estimates, *shape) == []
    header, first, *rest = estimates.read_text().splitlines()
    fields = first.split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-15) + 1e-300)
    estimates.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    assert checks.check_estimates_csv(estimates, *shape)


def test_ledger_checks_catch_one_changed_pkre_digit(tmp_path, monkeypatch, capsys):
    m = _generate("round-ledger", 1, tmp_path)
    status, out = _run(
        ["run-process", "--config", m["config"], "--out", "out", *m["run_files"]],
        tmp_path, monkeypatch, capsys,
    )
    assert status == 0
    ledger = tmp_path / "out" / "ledger.jsonl"
    assert checks.check_run_process(out, ledger, m["rounds"]) == []

    import replay

    replay.replay(m["config"], str(ledger), str(tmp_path / "replay.jsonl"))
    assert checks.check_same_bytes(tmp_path / "replay.jsonl", ledger) == []

    lines = ledger.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    total = repr(record["pkre"]["total"])
    digit = next(i for i in range(len(total) - 1, -1, -1) if total[i].isdigit())
    changed = total[:digit] + str((int(total[digit]) + 1) % 10) + total[digit + 1:]
    assert lines[2].count(f'"total": {total}') == 1
    lines[2] = lines[2].replace(f'"total": {total}', f'"total": {changed}')
    ledger.write_text("".join(lines))
    assert checks.check_run_process(out, ledger, m["rounds"])
    assert checks.check_same_bytes(tmp_path / "replay.jsonl", ledger)


def test_narrative_check_catches_a_mislabelled_narrative(tmp_path, monkeypatch, capsys):
    m = _generate("round-ledger", 3, tmp_path)
    labels = m["labels"]
    status, out = _run(["narrative-check", *m["corpus"]], tmp_path, monkeypatch, capsys)
    assert status == (1 if set(labels.values()) != {"ok"} else 0)
    assert checks.check_narrative_verdicts(out, labels) == []
    for name, label in labels.items():
        wrong = "ok" if label != "ok" else "partial-acyclicity"
        assert checks.check_narrative_verdicts(out, {**labels, name: wrong})


def test_stopping_check_needs_the_gate_row(tmp_path, monkeypatch, capsys):
    m = _generate("round-ledger", 1, tmp_path)
    status, _ = _run(["stopping", "--config", m["config"], "--out", "out"],
                     tmp_path, monkeypatch, capsys)
    report = tmp_path / "out" / "stopping_report.csv"
    assert status == 0
    assert checks.check_report_csv(report, ("gate_vs_brute",)) == []
    report.write_text(report.read_text().replace("gate_vs_brute", "something_else"))
    assert checks.check_report_csv(report, ("gate_vs_brute",))


def test_tracer_restores_every_attribute(tmp_path, monkeypatch, capsys):
    m = _generate("pool-estimate", 2, tmp_path)
    before = tracing.attribute_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.sample_path is not before[("cli", "sample_path")]
        _run(["gap-study", "--config", m["config"], "--out", "out"], tmp_path, monkeypatch, capsys)
    finally:
        tracer.uninstall()
    assert tracing.same_snapshot(before, tracing.attribute_snapshot())
    metrics = tracer.metrics({"cli.check_fail_rows": 0, "trace.overhead_ratio": 1.0})
    assert metrics["oracles.bias_thinning_mc.reps"] == m["reps"] * len(m["commencements"])
    assert metrics["oracles.variance_gap_mc.jumps"] > 0
    assert metrics["cli.gap_study.busy_s"] >= metrics["cli.gap_study.self_s"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)


def test_unreadable_output_is_a_failed_check_not_a_crash(tmp_path):
    m = _generate("round-ledger", 1, tmp_path)
    step = next(s for s in run.plan(m)[0] if s.name == "run-process")
    out = tmp_path / "out" / "run-process"
    out.mkdir(parents=True)
    (out / "ledger.jsonl").write_text("not json\n")
    _, problems = run.finish_step(step, tmp_path, 0, "", check=True)
    assert problems and problems[-1].startswith("unreadable output")
