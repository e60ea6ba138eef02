"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.experiment import run_experiment
from repro.core.scenarios import edge_scale
from repro.obs import EventBus, TraceRecorder, trace_jsonl


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_models_command(capsys):
    code, out = run_cli(capsys, "models", "--rtt", "0.02", "--p", "0.001")
    assert code == 0
    assert "mathis" in out and "cubic" in out and "Mbps" in out


def test_models_json(capsys):
    code, out = run_cli(capsys, "models", "--json")
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert "cubic" in payload


def test_run_edge_small(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "3",
        "--warmup", "1", "--mathis",
    )
    assert code == 0
    assert "util" in out
    assert "mathis[" in out


def test_run_core_scaled_json(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "core", "--flows", "1000", "--scale", "500",
        "--duration", "3", "--warmup", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["scenario"]["groups"][0]["count"] == 2
    assert len(payload["flows"]) == 2
    # Without --store there is no store line and no stats key.
    assert "store:" not in out and "stats" not in payload


def test_compete_command(capsys):
    code, out = run_cli(
        capsys,
        "compete", "--setting", "edge", "--flows", "4",
        "--ccas", "cubic", "newreno", "--duration", "3", "--warmup", "1",
    )
    assert code == 0
    assert "cubic" in out and "newreno" in out


def test_compete_needs_two_ccas(capsys):
    code = main(["compete", "--ccas", "bbr", "--duration", "2", "--warmup", "1"])
    assert code == 2


def test_compete_needs_enough_flows():
    code = main(
        ["compete", "--setting", "edge", "--flows", "1",
         "--ccas", "bbr", "cubic", "--duration", "2", "--warmup", "1"]
    )
    assert code == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lint_list_rules(capsys):
    code, out = run_cli(capsys, "lint", "--list-rules")
    assert code == 0
    assert "RPR001" in out and "RPR006" in out


def test_lint_flags_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    code, out = run_cli(capsys, "lint", str(bad))
    assert code == 1
    assert "RPR001" in out


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("def f(sim):\n    return sim.now\n")
    code, out = run_cli(capsys, "lint", str(good))
    assert code == 0
    assert "clean" in out


def test_lint_select_filters_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f(log=[]):\n    return time.time()\n")
    code, out = run_cli(capsys, "lint", str(bad), "--select", "RPR005")
    assert code == 1
    assert "RPR005" in out and "RPR001" not in out


def test_lint_unknown_select_code_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    code = main(["lint", str(bad), "--select", "RPR123"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule code" in err


def test_lint_missing_path_is_usage_error(tmp_path, capsys):
    code = main(["lint", str(tmp_path / "no_such_dir")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no such file or directory" in err

def test_faults_ls(capsys):
    code, out = run_cli(capsys, "faults", "ls")
    assert code == 0
    for name in ("blackout", "flap", "rtt-spike", "burst-loss"):
        assert name in out


def test_faults_ls_json(capsys):
    code, out = run_cli(capsys, "faults", "ls", "--json", "--duration", "12")
    assert code == 0
    payload = json.loads(out[out.index("["):])
    assert {entry["name"] for entry in payload} == {
        "blackout", "flap", "rtt-spike", "burst-loss",
    }
    for entry in payload:
        assert entry["schedule"]  # every preset expands to >=1 event


def test_run_with_faults_reports_health(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "6",
        "--warmup", "1", "--faults", "down@2+1", "--json",
    )
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    health = payload["health"]
    assert health["ok"] is True
    assert [entry for _, entry in health["fault_timeline"]] == [
        "link down", "link up",
    ]
    assert payload["scenario"]["faults"]


def test_run_without_faults_has_null_health(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "3",
        "--warmup", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["health"] is None


def test_run_faults_with_stall_budget_truncates_dead_run(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "60",
        "--warmup", "1", "--faults", "down@2", "--stall-budget", "6",
        "--json",
    )
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    health = payload["health"]
    assert health["ok"] is False
    assert health["reason"] == "stall"
    assert health["stalled_flows"] == [0, 1]
    assert health["truncated_at"] < 60.0


def test_run_bad_fault_spec_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([
            "run", "--setting", "edge", "--flows", "2", "--duration", "3",
            "--warmup", "1", "--faults", "asteroid@1",
        ])


def test_run_with_profile_prints_report(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "3",
        "--warmup", "1", "--profile",
    )
    assert code == 0
    assert "profile:" in out
    assert "handler" in out


def test_run_with_profile_top_truncates_report(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "3",
        "--warmup", "1", "--profile", "3",
    )
    assert code == 0
    assert "profile:" in out
    assert "ev/s" in out
    assert "more handler(s)" in out
    with pytest.raises(SystemExit):
        main(["run", "--setting", "edge", "--profile", "-1"])


def test_run_with_trace_writes_jsonl(tmp_path, capsys):
    dest = str(tmp_path / "trace.jsonl")
    code, _ = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "3",
        "--warmup", "1", "--trace", dest,
    )
    assert code == 0
    with open(dest) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows
    topics = {row["topic"] for row in rows}
    assert "cwnd" in topics
    # Warm-up cut applies to the trace.
    assert all(row["t"] >= 1.0 for row in rows if "t" in row)
    # The CLI writes exactly what the golden corpus hashes: one renderer.
    scenario = edge_scale(flows=2, duration=3.0, warmup=1.0, seed=1)
    bus = EventBus()
    recorder = TraceRecorder(bus, start_time=scenario.warmup)
    result = run_experiment(scenario, bus=bus)
    with open(dest, "rb") as fh:
        assert fh.read() == trace_jsonl(recorder, result).encode("utf-8")


def test_trace_keeps_a_bounded_number_of_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "TRACE_MAX_EVENTS", 50)
    dest = str(tmp_path / "trace.jsonl")
    code = main([
        "run", "--setting", "edge", "--flows", "2", "--duration", "3",
        "--warmup", "1", "--trace", dest,
    ])
    assert code == 0
    with open(dest) as fh:
        assert len(fh.readlines()) == 50
    assert "--trace: kept the first 50 rows, dropped " in capsys.readouterr().err


def test_profile_and_trace_reject_store(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "run", "--setting", "edge", "--flows", "2", "--duration", "2",
            "--warmup", "1", "--profile", "--store", str(tmp_path / "s"),
        ])
    assert excinfo.value.code == 2
    assert "a --store hit runs none" in capsys.readouterr().err


def test_run_store_serves_second_run_as_hit(tmp_path, capsys):
    argv = (
        "run", "--setting", "edge", "--flows", "2", "--duration", "2",
        "--warmup", "0.5", "--json", "--store", str(tmp_path / "s"),
    )
    code, cold = run_cli(capsys, *argv)
    assert code == 0
    code, warm = run_cli(capsys, *argv)
    assert code == 0
    cold_json = json.loads(cold[cold.index("{"):])
    warm_json = json.loads(warm[warm.index("{"):])
    assert (cold_json["stats"]["misses"], warm_json["stats"]["hits"]) == (1, 1)
    assert warm_json["stats"]["misses"] == 0
    del cold_json["stats"], warm_json["stats"]
    assert cold_json == warm_json


def test_run_progress_without_store_prints_events(capsys):
    code, out = run_cli(
        capsys,
        "run", "--setting", "edge", "--flows", "2", "--duration", "2",
        "--warmup", "0.5", "--progress",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[   start]")
    assert lines[1].startswith("[    done]")


def test_failed_run_exits_1_without_traceback(capsys):
    code = main([
        "run", "--setting", "edge", "--flows", "2", "--duration", "2",
        "--warmup", "0.5", "--cca", "nosuch",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "[error, 1 attempt(s)]" in captured.err
    assert "unknown CCA 'nosuch'" in captured.err
    assert "Traceback" not in captured.err


def test_timeout_applies_without_store(capsys):
    code = main([
        "run", "--setting", "edge", "--flows", "2", "--duration", "2",
        "--warmup", "0.5", "--timeout", "0.0001",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "[timeout, 1 attempt(s)]: timed out after 0.0001s" in captured.err
