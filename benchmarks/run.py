#!/usr/bin/env python3
"""Benchmark of veilstream's end-to-end pipeline and of its layers.

    python3 benchmarks/run.py --workload fleet-wide --seed 1 --seconds 30 --trace 0

Runs `veilstream.pipeline.run_scenario` for one workload (see
workloads.py) in this process, with no threads, repeating the identical
scenario until `--seconds` have passed. Every window is checked against
the plaintext shadow and every repeat must release the same vectors.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json with tracing
off. Their times are speed-adjusted: speed.py probes the host's speed
around and inside every repeat and scales each time to a core running at
the reference speed, because the host's own speed moves by up to 1.9
times for seconds to minutes. `--trace 1` runs untraced and traced
scenarios in pairs and reports the per-layer metrics; the traced run
must release the same vectors and spend the same PRF blocks as the
untraced one, and its block and time attribution must add up.
`--workload all` runs every workload, each in a fresh process. `--smoke`
shrinks every workload to a tiny population.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit status is non-zero when a
released vector differs from the shadow or any other check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import cryptography  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes  # noqa: E402

import veilstream  # noqa: E402
from veilstream import pipeline  # noqa: E402
from veilstream.pipeline import SimConfig, run_scenario  # noqa: E402

from speed import PROBE_REFERENCE_S, SpeedLog  # noqa: E402
from tracing import COUNT_TARGETS, SPAN_TARGETS, Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

if Path(veilstream.__file__).resolve().parent != ROOT / "src" / "veilstream":
    sys.exit(f"veilstream imported from {veilstream.__file__}, not from this checkout's src/")

MIN_REPEATS = 3  # setup_s and first_release_s are medians over repeats
CEILING_BLOCKS = 1 << 20


def aes_ceiling() -> float:
    """Raw AES-128-ECB rate in blocks/s: one `update` over 16 MiB, median of three."""
    enc = Cipher(algorithms.AES(bytes(range(16))), modes.ECB()).encryptor()
    buf = bytes(16 * CEILING_BLOCKS)
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        enc.update(buf)
        rates.append(CEILING_BLOCKS / (time.perf_counter() - t0))
    return statistics.median(rates)


def machine(seed: int) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


# ---- one scenario -----------------------------------------------------------


class Deadline:
    """Allows another repeat only while one as long as the last still fits."""

    def __init__(self, seconds: float):
        self.end = self.mark = time.perf_counter()
        self.end += seconds
        self.last = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        self.last, self.mark = now - self.mark, now
        return now + self.last <= self.end


def run_once(config: SimConfig, speed: SpeedLog | None = None):
    gc.collect()  # every repeat starts from the same heap
    if speed is None:
        t0 = time.perf_counter()
        result = run_scenario(config)
        return result, time.perf_counter() - t0
    speed.probe()
    undo = speed.install(pipeline, config)
    try:
        t0 = time.perf_counter()
        result = run_scenario(config)
        outer = time.perf_counter() - t0
    finally:
        undo()
    speed.probe()
    return result, outer


def check(result, config: SimConfig, problems: list[str]) -> int:
    """Record correctness problems; return the number of failed windows.

    A window fails on a non-ok status or a shadow mismatch, including the
    per-user shadow. A per-user query whose stream sent no complete chain
    that window (`no_data`) releases nothing and is not a failure.
    """
    failed = 0
    for w in result.windows:
        ok = w.status == "ok" and w.shadow_ok is True
        if w.shadow_ok is False:
            problems.append(f"window {w.window}: released vector differs from the shadow")
        per_user = w.extras.get("per_user")
        if per_user and per_user.get("status") == "ok" and per_user.get("shadow_ok") is not True:
            problems.append(f"window {w.window}: per-user release differs from the shadow")
            ok = False
        failed += not ok
    if len(result.windows) != config.windows:
        problems.append(f"{len(result.windows)} windows reported, {config.windows} scheduled")
    tr = result.summary["transport"]
    if tr["sent"] != tr["delivered"] + tr["dropped"]:
        problems.append(f"transport conservation violated: {tr}")
    return failed


def fingerprint(result) -> tuple:
    """What must repeat exactly for a fixed seed, traced or not."""
    return (
        tuple((w.status, tuple(w.released or ())) for w in result.windows),
        tuple(str(w.extras.get("per_user")) for w in result.windows),
        result.summary["prf_calls_total"],
    )


class Run:
    """Repeats one scenario, accumulating attempts, failures and problems."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference = None

    def scenario(self, tracer: Tracer | None = None, speed: SpeedLog | None = None):
        try:
            if tracer is None:
                result, outer = run_once(self.config, speed)
            else:
                with tracer:
                    result, outer = run_once(self.config)
        except Exception:  # the benchmark must still report the failure
            self.attempted += self.config.windows
            self.failed += self.config.windows
            self.problems.append("run_scenario raised:\n" + traceback.format_exc())
            return None
        self.attempted += len(result.windows)
        self.failed += check(result, self.config, self.problems)
        fp = fingerprint(result)
        if self._reference is None:
            self._reference = fp
        elif fp != self._reference:
            what = "traced run" if tracer is not None else "repeat"
            self.problems.append(f"{what} released other vectors or PRF blocks than the first run")
        return result, outer


# ---- end-to-end metrics (tracing off) -----------------------------------------


def released(result) -> list:
    """The windows that released the shadow's vector."""
    return [w for w in result.windows if w.status == "ok" and w.shadow_ok is True]


def measure(run: Run, seconds: float, min_repeats: int) -> tuple[dict, dict]:
    """Repeat the scenario with speed probes; every time is speed-adjusted (speed.py)."""
    cfg = run.config
    offered = cfg.producers * cfg.windows * cfg.logical_window
    setups, rates, firsts, token_bytes, latencies = [], [], [], [], []
    raw = {"setup_s": [], "run_s": [], "release_s": []}
    deadline = Deadline(seconds)
    while True:
        speed = SpeedLog()
        done = run.scenario(speed=speed)
        if done is None:
            break
        result, outer = done
        factor = speed.factor()
        setup_s = outer - result.summary["wall_seconds"]
        run_s = result.summary["wall_seconds"] - speed.inner_seconds()
        setups.append(setup_s * factor)
        rates.append(offered / (run_s * factor))
        raw["setup_s"].append(setup_s)
        raw["run_s"].append(run_s)
        # release latency: controller token time plus server unmask time.
        # Window 0 pays epoch planning and cold caches and is reported on
        # its own; the median is over the windows after it.
        for w in released(result):
            latency = w.t_token + w.t_unmask
            if w.window == 0:
                firsts.append(latency * factor)
            else:
                latencies.append(latency * factor)
                raw["release_s"].append(latency)
        token_bytes.append(result.summary["bytes_controller_total"] / len(result.windows))
        if not deadline.another() and len(setups) >= min_repeats:
            break
    metrics = {
        "setup_s": _median(setups),
        "events_per_s": _median(rates),
        "release_p50_s": _median(latencies),
        "first_release_s": _median(firsts),
        "token_bytes_per_window": _median(token_bytes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "repeats": len(setups),
        "setup_s": setups,
        "events_per_s": rates,
        "first_release_s": firsts,
        "release_s": latencies,
        "token_bytes_per_window": token_bytes,
        "unadjusted": raw,
    }
    return metrics, samples


def tail_line(latencies: list[float]) -> str | None:
    """The highest percentile with at least ten windows beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    value = sorted(latencies)[n - 11]
    return f"release_p{100 * (n - 10) // n}_s {value:.6f} s (n={n}, 10 windows above)"


def _median(values):
    return statistics.median(values) if values else float("nan")


# ---- per-layer metrics (traced run) ---------------------------------------------


def layer_metrics(tracer: Tracer, result, wall: float, ceiling: float) -> dict:
    m: dict = {}
    for name, *_ in SPAN_TARGETS:
        m[f"{name}.calls"] = tracer.calls[name]
        m[f"{name}.s"] = tracer.self_s[name]
    for name, *_ in COUNT_TARGETS:
        m[f"{name}.calls"] = tracer.calls[name]
    m.update(tracer.blocks)

    def ratio(blocks: str, span: str) -> float:
        # share of the span's time that raw AES at the ceiling rate would need
        seconds = tracer.inclusive_s[span]
        return m[blocks] / ceiling / seconds if seconds > 0 else 0.0

    m["ring.keystream.ceiling_ratio"] = ratio("ring.keystream.blocks", "ring.encrypt_next")
    m["tokens.key.ceiling_ratio"] = ratio("tokens.key.blocks", "tokens.single_stream_token")
    m["secure_agg.mask_vector.ceiling_ratio"] = ratio(
        "secure_agg.mask_vector.blocks", "secure_agg.mask_vector"
    )
    m["ring.aes_ceiling_blocks_per_s"] = ceiling
    roots = sum(end - start for _, _, start, end, parent, _, _ in tracer.spans if parent is None)
    m["pipeline.self_s"] = wall - roots
    m["pipeline.assembled_ratio"] = (
        tracer.calls["ring.chain_sum"] / len(tracer.senders) if tracer.senders else 0.0
    )
    tr = result.summary["transport"]
    m["pipeline.transport.drop_ratio"] = tr["dropped"] / tr["sent"] if tr["sent"] else 0.0
    return m


def reconcile(tracer: Tracer, result, metrics: dict, wall: float, problems: list[str]) -> None:
    blocks = sum(tracer.blocks.values())
    if blocks != result.summary["prf_calls_total"]:
        problems.append(
            f"layer PRF blocks {blocks} != prf_calls_total {result.summary['prf_calls_total']}"
        )
    timed = sum(tracer.self_s.values()) + metrics["pipeline.self_s"]
    if tracer.open_spans or metrics["pipeline.self_s"] < 0 or abs(timed - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"layer self times plus pipeline.self_s = {timed} s, traced wall {wall} s")


def measure_traced(run: Run, seconds: float, ceiling: float, counts: set[str]):
    pairs, tracer = [], None
    deadline = Deadline(seconds)
    while True:
        plain = run.scenario()
        tracer = Tracer(run.config.logical_window)
        traced = run.scenario(tracer)
        if plain is None or traced is None:
            break
        result, wall = traced
        m = layer_metrics(tracer, result, wall, ceiling)
        reconcile(tracer, result, m, wall, run.problems)
        m["trace_overhead_s"] = wall - plain[1]
        pairs.append(m)
        if not deadline.another():
            break
    for name in counts:
        if len({p.get(name) for p in pairs}) > 1:
            run.problems.append(f"{name} differs between repeats: {[p.get(name) for p in pairs]}")
    metrics = {name: statistics.median(p[name] for p in pairs) for name in (pairs[0] if pairs else {})}
    for name in counts & metrics.keys():
        metrics[name] = pairs[0][name]
    if tracer is not None and tracer.missing:
        print(f"not found, reported as 0 calls: {', '.join(tracer.missing)}")
    return metrics, {"pairs": pairs}, tracer


# ---- command line -------------------------------------------------------------


def run_workload(args, spec: dict) -> int:
    fields = {**WORKLOADS[args.workload], **(SMOKE if args.smoke else {})}
    config = SimConfig(seed=args.seed, parallel=False, **fields)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ceiling = aes_ceiling()
    host = machine(args.seed)
    print(f"workload {args.workload}: {fields}")
    print(f"machine: {json.dumps(host)}")
    print(f"aes_ceiling_blocks_per_s: {ceiling:.0f}")

    if not args.smoke:
        # warm-up: imports, numpy and cipher first use, preset tables
        run_scenario(SimConfig(seed=args.seed, parallel=False, **{**fields, **SMOKE}))

    run = Run(config)
    tracer = None
    if args.trace:
        counts = {m["name"] for m in wanted if m["unit"] == "count"}
        values, samples, tracer = measure_traced(run, args.seconds, ceiling, counts)
    else:
        values, samples = measure(run, args.seconds, 1 if args.smoke else MIN_REPEATS)
        line = tail_line(samples["release_s"])
        if line:
            print(line)
        raw = {k: _median(v) for k, v in samples["unadjusted"].items()}
        print(f"unadjusted medians (wall clock, probe reference {PROBE_REFERENCE_S} s): {raw}")

    names = [m["name"] for m in wanted]
    unmeasured = sorted(k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v))
    if unmeasured:
        run.problems.append(f"no samples for {unmeasured}")
    if values and set(values) != set(names):
        run.problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values and m["name"] not in unmeasured
    }
    for name, v in metrics.items():
        print(f"{name} {v['value']} {v['unit']}")
    print(f"failed windows {run.failed} of {run.attempted} attempted")
    for p in run.problems:
        print(f"PROBLEM: {p}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    header = {"workload": args.workload, "config": fields, "machine": host, "ceiling": ceiling}
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump({**header, "metrics": metrics, "samples": samples, "problems": run.problems}, f)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl", header)

    correct = not run.problems and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the last line sums them up."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = status or 1
            continue
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({f"{name}/{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": status == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny populations, one repeat")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
