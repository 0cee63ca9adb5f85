"""Tests of the benchmark itself.

The smoke runs take every workload at a tiny population, in seconds. They
check the exit status and that the last stdout line has the result schema
and exactly the metric names and units listed in BENCHMARK.json.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_matches_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_tracer_reports_zero_calls_for_a_missing_function(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    from tracing import Tracer
    from veilstream import ring, secure_agg

    monkeypatch.delattr(secure_agg, "plan_epoch")
    original = ring.derive_key
    with Tracer(logical_window=5) as tracer:
        assert ring.derive_key is not original
    assert ring.derive_key is original
    assert tracer.missing == ["secure_agg.plan_epoch"]
    assert tracer.calls["secure_agg.plan_epoch"] == 0


def test_speed_log_probes_the_run_phase_and_restores_the_scheduler(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    from speed import PROBE_REFERENCE_S, SpeedLog
    from veilstream import pipeline
    from workloads import SMOKE

    config = pipeline.SimConfig(seed=3, **{**WORKLOADS["mask-dense"], **SMOKE})
    original = pipeline.Scheduler.run
    log = SpeedLog()
    log.probe()
    undo = log.install(pipeline, config)
    result = pipeline.run_scenario(config)
    undo()
    log.probe()
    assert pipeline.Scheduler.run is original
    # the scheduler's start, then every quarter window up to the last assembly
    step = config.window_size / 4
    last = config.windows * config.window_size + config.grace
    assert len(log.probes) == 2 + 1 + int(last // step)
    assert 0 < log.inner_seconds() < result.summary["wall_seconds"]
    durations = sorted(e - s for s, e in log.probes)
    assert log.factor() == PROBE_REFERENCE_S / durations[len(durations) // 2]
