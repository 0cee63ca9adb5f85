"""Command line front end.

Three subcommands cover the operational surface:

    optimize      pick epoch parameters for a deployment size
    bench-secagg  tally one party's per-round protocol costs to CSV
    run           simulate a full scenario, writing CSV and JSON results

Every option resolves from, in order of precedence: the command line
flag, an environment variable (``VEILSTREAM_<FLAG>`` with dashes as
underscores), then a YAML config file given via ``--config``. All
workloads are deterministic for a fixed ``--seed``.

Exit codes: 0 on success, 1 when the invoked workload fails its own
checks (infeasible parameters, rejected plan, result mismatch), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

import yaml

from .pipeline import SimConfig, _json_scalar, run_scenario, scenario_presets
from .secure_agg import optimize_b, simulate_party_counters

__all__ = ["main"]

ENV_PREFIX = "VEILSTREAM_"

BENCH_CSV_COLUMNS = ("round", "active_peers", "degree", "prf_calls", "additions")


class UsageError(Exception):
    pass


class Resolver:
    """Layered option lookup: flags beat environment beats config file."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = os.environ.get(ENV_PREFIX + name.upper())
        if value is None:
            value = self.config.get(name)
        if value is None:
            return default
        if cast is not None:
            try:
                return cast(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value for --{name.replace('_', '-')}: {exc}")
        return value

    def require(self, name: str, cast=None):
        value = self.get(name, cast=cast)
        if value is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return value


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except yaml.YAMLError as exc:
        raise UsageError(f"config file is not valid YAML: {exc}")
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a YAML mapping")
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True, default=_json_scalar))


# ---- subcommands ------------------------------------------------------------


def _cmd_optimize(res: Resolver) -> int:
    parties = res.require("parties", cast=int)
    alpha = res.require("alpha", cast=float)
    delta = res.require("delta", cast=float)
    prf_bits = res.get("prf_bits", default=128, cast=int)
    try:
        result = optimize_b(parties, alpha, delta, prf_bits=prf_bits)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(dataclasses.asdict(result))
    if not result.feasible:
        print(
            f"no feasible segment width: {result.honest_count} honest parties "
            f"cannot stay connected within a {delta} failure budget",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_secagg(res: Resolver) -> int:
    parties = res.require("parties", cast=int)
    rounds = res.require("rounds", cast=int)
    protocol = res.require("protocol")
    dropout = res.get("dropout", default=0.0, cast=float)
    seed = res.get("seed", default=0, cast=int)
    b = res.get("b", cast=int)
    alpha = res.get("alpha", default=0.5, cast=float)
    delta = res.get("delta", default=1e-7, cast=float)
    out = res.get("out")
    if out is None:
        out = f"bench_{protocol}_{parties}x{rounds}.csv"
    try:
        costs = simulate_party_counters(
            parties,
            rounds,
            protocol,
            b=b,
            dropout=dropout,
            seed=seed,
            colluding_fraction=alpha,
            failure_budget=delta,
        )
    except ValueError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = Path(out)
    with path.open("w") as fh:
        fh.write(",".join(BENCH_CSV_COLUMNS) + "\n")
        for c in costs:
            fh.write(
                f"{c.round_index},{c.active_peers},{c.degree},"
                f"{c.prf_calls},{c.additions}\n"
            )
    _emit(
        {
            "protocol": protocol,
            "parties": parties,
            "rounds": rounds,
            "dropout": dropout,
            "seed": seed,
            "prf_calls_total": sum(c.prf_calls for c in costs),
            "additions_total": sum(c.additions for c in costs),
            "mean_degree": sum(c.degree for c in costs) / len(costs),
            "csv": str(path),
        }
    )
    return 0


_RUN_OPTIONS = (
    # (option, SimConfig field, cast)
    ("producers", "producers", int),
    ("windows", "windows", int),
    ("window_size", "window_size", float),
    ("events_per_window", "events_per_window", int),
    ("seed", "seed", int),
    ("protocol", "protocol", str),
    ("partition_size", "partition_size", int),
    ("drop_rate", "drop_rate", float),
    ("dropout_rate", "dropout_rate", float),
    ("latency_mean", "latency_mean", float),
    ("latency_sigma", "latency_sigma", float),
    ("grace", "grace", float),
    ("alpha", "colluding_fraction", float),
    ("delta", "failure_budget", float),
)

# argparse keywords of the `run` flags that take more than a type
_RUN_FLAG_EXTRAS = {
    "protocol": dict(choices=("clique", "dream", "zeph")),
    "alpha": dict(help="colluding fraction"),
    "delta": dict(help="connectivity failure budget"),
}


def _cmd_run(res: Resolver) -> int:
    scenario = res.get("scenario", default="fitness")
    choices = scenario_presets() + ("custom",)
    if scenario not in choices:
        raise UsageError(f"unknown scenario {scenario!r}; choose from {choices}")
    kwargs = {}
    for option, field, cast in _RUN_OPTIONS:
        value = res.get(option, cast=cast)
        if value is not None:
            kwargs[field] = value
    if scenario == "custom":
        if not res.config:
            raise UsageError("scenario 'custom' needs --config with schema and select")
        kwargs["custom"] = res.config
    else:
        kwargs["preset"] = scenario
    try:
        config = SimConfig(**kwargs)
        result = run_scenario(config)
    except (ValueError, RuntimeError) as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(res.get("out_dir", default="."))
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"run_{result.preset}_{config.seed}"
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    csv_path.write_text(result.to_csv())
    json_path.write_text(result.to_json())
    summary = dict(result.summary)
    summary["csv"] = str(csv_path)
    summary["json"] = str(json_path)
    _emit(summary)
    if not summary["shadow_ok"]:
        print("released aggregates diverged from the plaintext shadow", file=sys.stderr)
        return 1
    warned = [w.window for w in result.windows if w.status == "decode_warning"]
    if warned:
        print(f"decoded statistics wrapped in windows {warned}", file=sys.stderr)
        return 1
    return 0


# ---- argument plumbing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veilstream",
        description="Benchmarks and simulations for the encrypted stream pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="pick epoch parameters for a population")
    p_opt.add_argument("--parties", type=int)
    p_opt.add_argument("--alpha", type=float, help="colluding fraction")
    p_opt.add_argument("--delta", type=float, help="connectivity failure budget")
    p_opt.add_argument("--prf-bits", dest="prf_bits", type=int)
    p_opt.add_argument("--config")

    p_bench = sub.add_parser("bench-secagg", help="per-round cost tally for one party")
    p_bench.add_argument("--parties", type=int)
    p_bench.add_argument("--rounds", type=int)
    p_bench.add_argument("--protocol", choices=("clique", "dream", "zeph"))
    p_bench.add_argument("--dropout", type=float)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--b", type=int, help="segment width override")
    p_bench.add_argument("--alpha", type=float)
    p_bench.add_argument("--delta", type=float)
    p_bench.add_argument("--out", help="CSV output path")
    p_bench.add_argument("--config")

    p_run = sub.add_parser("run", help="simulate a scenario end to end")
    p_run.add_argument("--scenario", help="fitness | web | car | custom")
    p_run.add_argument("--config")
    for option, _field, cast in _RUN_OPTIONS:
        p_run.add_argument(
            "--" + option.replace("_", "-"), dest=option, type=cast,
            **_RUN_FLAG_EXTRAS.get(option, {}),
        )
    p_run.add_argument("--out-dir", dest="out_dir")
    return parser


_COMMANDS = {
    "optimize": _cmd_optimize,
    "bench-secagg": _cmd_bench_secagg,
    "run": _cmd_run,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(
            getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
        )
        return _COMMANDS[args.command](Resolver(args, config))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
