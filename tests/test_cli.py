"""Command line interface: exit codes, outputs, and option precedence."""

import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml

from veilstream import cli
from veilstream.cli import BENCH_CSV_COLUMNS, main
from veilstream.pipeline import SimConfig

SOLO_DOC = {
    "schema": {
        "name": "greenhouse",
        "metadata": [{"name": "site", "type": "string"}],
        "attributes": [
            {
                "name": "temperature",
                "aggregates": ["avg"],
                "generator": {"kind": "normal", "mean": 24, "sd": 3, "low": 5, "high": 45},
                "options": [{"kind": "stream-aggregate"}],
            }
        ],
    },
    "select": {"temp_avg": {"attribute": "temperature", "function": "avg"}},
    "holdout_every": 0,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- optimize -------------------------------------------------------------------


def test_optimize_feasible(capsys):
    code, out, err = run_cli(
        capsys, "optimize", "--parties", "1000", "--alpha", "0.5", "--delta", "1e-7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["rounds"] == (128 // doc["b"]) << doc["b"]
    assert doc["bound"] <= 1e-7


def test_optimize_infeasible_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "optimize", "--parties", "2", "--alpha", "0.9", "--delta", "1e-7"
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False
    assert "no feasible" in err


def test_optimize_missing_required_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "optimize", "--parties", "1000")
    assert code == 2
    assert "alpha" in err


def test_optimize_rejects_unparseable_env(capsys, monkeypatch):
    monkeypatch.setenv("VEILSTREAM_ALPHA", "half")
    code, out, err = run_cli(
        capsys, "optimize", "--parties", "1000", "--delta", "1e-7"
    )
    assert code == 2
    assert "--alpha" in err


def test_optimize_reads_env_and_config(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "opt.yaml"
    cfg.write_text(yaml.safe_dump({"parties": 1000, "alpha": 0.5, "delta": 1e-7}))
    code, out, _ = run_cli(capsys, "optimize", "--config", str(cfg))
    assert code == 0
    from_config = json.loads(out)

    monkeypatch.setenv("VEILSTREAM_PARTIES", "100")
    code, out, _ = run_cli(capsys, "optimize", "--config", str(cfg))
    assert code == 0
    from_env = json.loads(out)
    assert from_env["parties"] == 100  # env beats config
    assert from_config["parties"] == 1000


# ---- bench-secagg ------------------------------------------------------------------


def test_bench_clique_writes_exact_csv(capsys, tmp_path):
    out_path = tmp_path / "clique.csv"
    code, out, _ = run_cli(
        capsys,
        "bench-secagg",
        "--parties", "5",
        "--rounds", "3",
        "--protocol", "clique",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["prf_calls_total"] == 12
    assert doc["additions_total"] == 12
    assert doc["mean_degree"] == 4.0
    assert doc["csv"] == str(out_path)
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == BENCH_CSV_COLUMNS
    assert len(rows) == 3
    assert all(r["prf_calls"] == "4" for r in rows)


def test_bench_zeph_counts_setup_in_first_round(capsys, tmp_path):
    out_path = tmp_path / "zeph.csv"
    code, out, _ = run_cli(
        capsys,
        "bench-secagg",
        "--parties", "50",
        "--rounds", "2",
        "--protocol", "zeph",
        "--b", "2",
        "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    first = rows[0]
    assert int(first["prf_calls"]) == 49 + int(first["degree"])
    assert int(rows[1]["prf_calls"]) == int(rows[1]["degree"])


def test_bench_invalid_parameters_exit_one(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "bench-secagg",
        "--parties", "1",
        "--rounds", "3",
        "--protocol", "clique",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "two parties" in err


def test_bench_default_output_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "bench-secagg", "--parties", "4", "--rounds", "2",
        "--protocol", "clique",
    )
    assert code == 0
    assert (tmp_path / "bench_clique_4x2.csv").exists()


# ---- run ----------------------------------------------------------------------------


def test_run_preset_writes_results(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--scenario", "fitness",
        "--producers", "60",
        "--partition-size", "30",
        "--windows", "2",
        "--seed", "5",
        "--protocol", "clique",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shadow_ok"] is True
    csv_path = tmp_path / "run_fitness_5.csv"
    json_path = tmp_path / "run_fitness_5.json"
    assert csv_path.exists() and json_path.exists()
    assert doc["csv"] == str(csv_path)
    rows = list(csv.DictReader(csv_path.open()))
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)
    report = json.loads(json_path.read_text())
    assert report["summary"]["windows_ok"] == 2


def test_run_fails_on_a_wrong_per_user_release(capsys, tmp_path, monkeypatch):
    from veilstream import pipeline

    original = pipeline.token_matrix

    def corrupted(masters, *args, **kwargs):
        values = original(masters, *args, **kwargs)
        if len(masters) == 1:  # the per-user plan's one member
            values[0, 0] += np.uint64(1)
        return values

    monkeypatch.setattr(pipeline, "token_matrix", corrupted)
    code, out, err = run_cli(
        capsys,
        "run",
        "--scenario", "car",
        "--producers", "60",
        "--windows", "2",
        "--seed", "5",
        "--protocol", "clique",
        "--dropout-rate", "0",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert json.loads(out)["shadow_ok"] is False
    assert "diverged from the plaintext shadow" in err
    # the population releases are right; the per-user ones are not
    report = json.loads((tmp_path / "run_car_5.json").read_text())
    windows = report["windows"]
    assert [(w["status"], w["shadow_ok"]) for w in windows] == [("per_user_mismatch", True)] * 2
    assert [w["extras"]["per_user"]["shadow_ok"] for w in windows] == [False] * 2


def test_run_fails_on_a_per_user_decode_warning(capsys, tmp_path, monkeypatch):
    from veilstream import pipeline

    original = pipeline.decode_stats
    warning = "bin count wrapped past M/2; window likely overflowed"

    def warned(values, spec):
        stats = original(values, spec)
        if spec.kind == "histogram":  # on car, only the per-user profile
            return dataclasses.replace(stats, warnings=(warning,))
        return stats

    monkeypatch.setattr(pipeline, "decode_stats", warned)
    code, out, err = run_cli(
        capsys,
        "run",
        "--scenario", "car",
        "--producers", "60",
        "--windows", "2",
        "--seed", "5",
        "--protocol", "clique",
        "--dropout-rate", "0",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert json.loads(out)["shadow_ok"] is True
    assert "decoded statistics wrapped in windows [0, 1]" in err
    # the per-user release's warnings fail its window, and its report lists them
    report = json.loads((tmp_path / "run_car_5.json").read_text())
    windows = report["windows"]
    assert [(w["status"], w["shadow_ok"]) for w in windows] == [("decode_warning", True)] * 2
    assert all("decode_warnings" not in w["extras"] for w in windows)
    per_user = [w["extras"]["per_user"] for w in windows]
    assert [(p["status"], p["shadow_ok"]) for p in per_user] == [("decode_warning", True)] * 2
    assert all(p["decode_warnings"] == {"profile_hist": [warning]} for p in per_user)


def test_run_unknown_scenario_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "banking")
    assert code == 2
    assert "banking" in err


@pytest.mark.parametrize(
    "flag, value, field, expected",
    [
        ("--producers", "17", "producers", 17),
        ("--windows", "3", "windows", 3),
        ("--window-size", "2.5", "window_size", 2.5),
        ("--events-per-window", "6", "events_per_window", 6),
        ("--seed", "11", "seed", 11),
        ("--protocol", "dream", "protocol", "dream"),
        ("--partition-size", "40", "partition_size", 40),
        ("--drop-rate", "0.02", "drop_rate", 0.02),
        ("--dropout-rate", "0.03", "dropout_rate", 0.03),
        ("--latency-mean", "0.4", "latency_mean", 0.4),
        ("--latency-sigma", "0.25", "latency_sigma", 0.25),
        ("--grace", "3.5", "grace", 3.5),
        ("--alpha", "0.3", "colluding_fraction", 0.3),
        ("--delta", "1e-6", "failure_budget", 1e-6),
    ],
)
def test_each_run_flag_reaches_its_config_field(capsys, monkeypatch, flag, value, field, expected):
    seen = []

    def capture(config):
        seen.append(config)
        raise RuntimeError("captured")

    monkeypatch.setattr(cli, "run_scenario", capture)
    code, _, err = run_cli(capsys, "run", "--scenario", "web", flag, value)
    assert code == 1 and "captured" in err
    # the flag sets its field and leaves every other at its default
    assert seen == [dataclasses.replace(SimConfig(preset="web"), **{field: expected})]


def test_run_custom_needs_config(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "custom")
    assert code == 2
    assert "config" in err


def test_run_custom_scenario_and_option_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "solo.yaml"
    doc = dict(SOLO_DOC, producers=1, windows=3, protocol="clique", seed=2,
               dropout_rate=0.0, drop_rate=0.0)
    cfg.write_text(yaml.safe_dump(doc))
    args = ["run", "--scenario", "custom", "--config", str(cfg),
            "--out-dir", str(tmp_path)]

    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["windows"] == 3  # from the config file

    monkeypatch.setenv("VEILSTREAM_WINDOWS", "4")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["windows"] == 4  # env beats config

    code, out, _ = run_cli(capsys, *args, "--windows", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["windows"] == 2  # flag beats env and config
    assert doc["preset"] == "greenhouse"
    assert doc["shadow_ok"] is True
    assert doc["plan_members"] == 1


def test_run_custom_dp_over_options_without_a_budget(capsys, tmp_path):
    # an `aggregate` option sets no epsilon budget: its members' limit is
    # unlimited, for the run as for the planner's ledger
    attribute = dict(SOLO_DOC["schema"]["attributes"][0], options=[{"kind": "aggregate"}])
    cfg = tmp_path / "dp.yaml"
    doc = dict(SOLO_DOC, schema=dict(SOLO_DOC["schema"], attributes=[attribute]),
               dp={"epsilon": 0.1, "sigma": 5}, producers=30, windows=3,
               protocol="clique", seed=2)
    cfg.write_text(yaml.safe_dump(doc))
    code, out, _ = run_cli(capsys, "run", "--scenario", "custom", "--config", str(cfg),
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["shadow_ok"] is True
    report = json.loads((tmp_path / "run_greenhouse_2.json").read_text())
    statuses = [w["status"] for w in report["windows"]]
    assert "ok" in statuses and "suppressed" not in statuses


def test_run_with_a_wrapped_statistic_exits_one(capsys, tmp_path):
    # window sums of squares of 40 values near 3e6 wrap past 2**63
    cfg = tmp_path / "wrap.yaml"
    doc = {
        "schema": {
            "name": "wrap",
            "attributes": [
                {
                    "name": "x",
                    "aggregates": ["var"],
                    "generator": {"kind": "uniform", "low": 2.9e6, "high": 3e6},
                    "options": [{"kind": "aggregate"}],
                }
            ],
        },
        "select": {"x_var": {"attribute": "x", "function": "var"}},
        "producers": 40, "partition_size": 40, "protocol": "clique",
        "seed": 1, "windows": 2,
    }
    cfg.write_text(yaml.safe_dump(doc))
    code, out, err = run_cli(
        capsys, "run", "--scenario", "custom", "--config", str(cfg),
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    summary = json.loads(out)
    assert summary["shadow_ok"] is True and summary["windows_ok"] == 0
    assert "wrapped in windows [0, 1]" in err


def test_run_rejects_invalid_config_values(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--scenario", "fitness", "--producers", "0",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "producer" in err
    code, _, err = run_cli(
        capsys, "run", "--scenario", "fitness", "--grace", "-1",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "grace" in err
    for option, value in (("--windows", "0"), ("--alpha", "1.5"), ("--delta", "7")):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "car", "--protocol", "clique", option, value,
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "scenario failed" in err
    # a malformed custom scenario is refused before it runs, naming the key
    attribute = SOLO_DOC["schema"]["attributes"][0]
    malformed = {
        "'kind'": dict(SOLO_DOC, schema=dict(
            SOLO_DOC["schema"], attributes=[dict(attribute, options=[{"min_population": 1}])]
        )),
        "'name'": dict(SOLO_DOC, schema=dict(SOLO_DOC["schema"], metadata=[{"type": "int"}])),
        "'attribute'": dict(SOLO_DOC, select={"t": {"function": "avg"}}),
        "'function'": dict(SOLO_DOC, select={"t": {"attribute": "temperature"}}),
        "'epsilon'": dict(SOLO_DOC, dp={"sigma": 2.0}),
        "unknown_attribute": dict(SOLO_DOC, select={"t": {"attribute": "humidity", "function": "avg"}}),
        "'temperature' is not a mapping": dict(SOLO_DOC, schema=dict(
            SOLO_DOC["schema"], attributes=["temperature"]
        )),
        "'normal' is not a mapping": dict(SOLO_DOC, schema=dict(
            SOLO_DOC["schema"], attributes=[dict(attribute, generator="normal")]
        )),
    }
    configs = tmp_path / "configs"
    configs.mkdir()
    for named, doc in malformed.items():
        cfg = configs / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code, _, err = run_cli(
            capsys, "run", "--scenario", "custom", "--config", str(cfg),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "scenario failed" in err and named in err
    assert list(tmp_path.iterdir()) == [configs]


@pytest.mark.parametrize("function, param", [("percentile", 150), ("topk", -1), ("topk", 0)])
def test_run_refuses_a_param_outside_its_function_range(capsys, tmp_path, function, param):
    # refused when the query is parsed, before any window runs or any file
    # is written
    attribute = dict(
        SOLO_DOC["schema"]["attributes"][0],
        aggregates=[function],
        bins={"min": 0, "max": 50, "width": 1},
    )
    cfg = tmp_path / "param.yaml"
    doc = dict(SOLO_DOC, schema=dict(SOLO_DOC["schema"], attributes=[attribute]),
               select={"t": {"attribute": "temperature", "function": function, "param": param}})
    cfg.write_text(yaml.safe_dump(doc))
    code, _, err = run_cli(capsys, "run", "--scenario", "custom", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "scenario failed" in err and f"{function} param" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("field, value", [("bucket_width", 10), ("param", 3)])
def test_run_refuses_a_field_its_function_takes_not(capsys, tmp_path, field, value):
    # an avg neither buckets nor takes a param: refused when the query is
    # parsed, before any file is written
    cfg = tmp_path / "field.yaml"
    doc = dict(SOLO_DOC, select={
        "t": {"attribute": "temperature", "function": "avg", field: value},
    })
    cfg.write_text(yaml.safe_dump(doc))
    code, _, err = run_cli(capsys, "run", "--scenario", "custom", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "scenario failed" in err and field in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "optimize", "--config", str(tmp_path / "nope.yaml")
    )
    assert code == 2
