"""End-to-end simulation: producers, controllers, and an untrusted server.

The scenario wiring mirrors a deployment. Producers encrypt once and
stream fixed-width encoded events over a lossy transport. The server only
ever adds ciphertexts. Controllers (one per data owner) verify the
transformation plan independently, then release masked transformation
tokens each window; the server unmasks their sum and decodes the released
aggregate. A plaintext shadow computes the same transformation on the
same inputs with the same noise draws, so every window's released vector
can be checked for exact equality.

Timing model: a discrete event scheduler drives producer emissions,
transport latency and loss, and the server's per-window assembly at the
window border plus a grace period. An event lost in transit makes that
stream's window chain incomplete, so the stream drops out of the window's
member set and rejoins later; membership changes travel as compact
deltas. Producers that skip a window emit a neutral catch-up event on
return so their cipher chain stays contiguous at window borders.

Large populations are sharded into partitions that aggregate
independently; their released (already plaintext) outputs are summed
before decoding. Pairwise masking runs inside each partition, with the
protocol selectable per scenario: full pairwise (clique), probabilistic
per-round selection (dream), or the epoch-planned variant (zeph on the
command line) with parameters chosen by the connectivity optimizer.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .encoding import DecodedStats, decode_stats, encode, encode_neutral
from .policy import (
    Rejection,
    StreamAnnotation,
    StreamSchema,
    ReservationLedger,
    parse_query,
    parse_schema,
    plan_query,
    verify_plan,
)
from .ring import (
    RING_MASK,
    AesPrf,
    ChainEncryptor,
    CountingPrf,
    MasterSecret,
    StreamCiphertext,
    ZeroPrf,
    apply_token,
    chain_sum,
    cross_sum,
    encrypt,
    merge_elements,
    serialize_event,
    DOMAIN_EDGE,
    DOMAIN_MASK,
)
from .secure_agg import (
    EpochPlan,
    IdentityRegistry,
    MembershipDelta,
    PartyId,
    StaticKeyAgreement,
    mask_token,
    mask_vector,
    optimize_b,
    plan_epoch,
    round_peers,
    setup_pairwise,
    threshold_for_probability,
    unmask_aggregate,
)
from .tokens import (
    PrivacyBudget,
    Suppressed,
    TokenStore,
    add_dp_noise,
    release,
    single_stream_token,
    stream_set_hash,
)

logger = logging.getLogger(__name__)

__all__ = [
    "SimConfig",
    "Scheduler",
    "SimTransport",
    "WindowResult",
    "ScenarioResult",
    "CSV_COLUMNS",
    "scenario_presets",
    "preset_schema",
    "custom_table",
    "run_scenario",
    "measure_bandwidth",
]

CSV_COLUMNS = (
    "window",
    "status",
    "members",
    "prf_calls",
    "additions",
    "bytes_producer",
    "bytes_controller",
    "bytes_server",
    "t_encrypt",
    "t_token",
    "t_unmask",
    "overhead_factor",
)


@dataclass
class SimConfig:
    """Knobs for one scenario run. Defaults give a healthy deployment."""

    preset: str = "fitness"
    producers: int = 300
    windows: int = 20
    window_size: float = 10.0  # wall-clock ticks per window
    events_per_window: int = 4  # data events; a border event is added
    seed: int = 7
    protocol: str = "zeph"  # clique | dream | zeph
    partition_size: int = 100
    drop_rate: float = 0.001  # per producer message
    dropout_rate: float = 0.01  # producer offline for a whole window
    latency_mean: float = 0.2
    latency_sigma: float = 0.5
    grace: float = 5.0  # assembly waits this long past the border
    parallel: bool = False  # accepted for old callers; partitions run in order
    colluding_fraction: float = 0.5
    failure_budget: float = 1e-7
    custom: Optional[dict] = None  # replaces the preset tables when given

    def __post_init__(self):
        if self.protocol not in ("clique", "dream", "zeph"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.producers < 1:
            raise ValueError("need at least one producer")
        if self.events_per_window < 1:
            raise ValueError("need at least one event per window")
        if self.partition_size < 1:
            raise ValueError("partition_size must be at least 1")
        if self.parallel:
            raise ValueError("parallel execution was removed; partitions run in order")

    @property
    def logical_window(self) -> int:
        """Stream-clock ticks per window: data events plus the border."""
        return self.events_per_window + 1


class Scheduler:
    """Minimal discrete event loop. Ties break by insertion order."""

    def __init__(self):
        self._queue: list = []
        self._seq = 0
        self.now = 0.0

    def at(self, when: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (when, self._seq, fn))
        self._seq += 1

    def run(self) -> None:
        while self._queue:
            when, _, fn = heapq.heappop(self._queue)
            self.now = when
            fn()


class SimTransport:
    """Lossy, latency-sampling message channel feeding the scheduler.

    Every send is either delivered (after a lognormal latency) or dropped;
    the counters always satisfy sent == delivered + dropped once the
    scheduler drains, which run_scenario asserts.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: np.random.Generator,
        *,
        latency_mean: float,
        latency_sigma: float,
        drop_rate: float,
    ):
        self.scheduler = scheduler
        self.rng = rng
        self.latency_mean = latency_mean
        self.latency_sigma = latency_sigma
        self.drop_rate = drop_rate
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.bytes_sent = 0

    def send(self, size: int, deliver: Callable[[], None]) -> None:
        self.sent += 1
        self.bytes_sent += size
        if self.rng.random() < self.drop_rate:
            self.dropped += 1
            return
        latency = float(
            self.rng.lognormal(math.log(self.latency_mean), self.latency_sigma)
        )

        def arrive():
            self.delivered += 1
            deliver()

        self.scheduler.at(self.scheduler.now + latency, arrive)


# ---- scenario presets ------------------------------------------------------


def _norm(mu, sd, lo, hi):
    return lambda r, size: np.clip(r.normal(mu, sd, size), lo, hi)


def _unif(lo, hi):
    return lambda r, size: r.uniform(lo, hi, size)


def _ints(lo, hi):
    return lambda r, size: r.integers(lo, hi, size).astype(np.float64)


def _lognorm(median, sigma, lo, hi):
    return lambda r, size: np.clip(r.lognormal(math.log(median), sigma, size), lo, hi)


def _sparse(p, lo, hi):
    return lambda r, size: np.where(r.random(size) < p, r.uniform(lo, hi, size), 0.0)


_AGG50 = [{"kind": "aggregate", "min_population": 50}, {"kind": "private"}]
_AGG10 = [{"kind": "aggregate", "min_population": 10}, {"kind": "private"}]
_DP50 = [
    {"kind": "dp-aggregate", "min_population": 50, "epsilon": 2.0},
    {"kind": "private"},
]


def _attr(name, aggregates, options, generator, **encoding_fields):
    d = {"name": name, "aggregates": aggregates, "options": options}
    d.update(encoding_fields)
    return d, generator


_FITNESS = [
    _attr("heart_rate", ["avg", "var"], _AGG50, _norm(140, 15, 40, 199)),
    _attr("hr_variability", ["avg", "var"], _AGG10, _norm(60, 20, 5, 150)),
    _attr("speed", ["avg", "var"], _AGG50, _norm(3.2, 0.9, 0, 11.9)),
    _attr("cadence", ["avg"], _AGG10, _norm(165, 10, 60, 219)),
    _attr("power", ["avg", "var"], _AGG10, _norm(210, 40, 0, 599)),
    _attr("temperature", ["avg"], _AGG10, _unif(-5, 35)),
    _attr("humidity", ["avg"], _AGG10, _unif(20, 95)),
    _attr("pressure", ["avg"], _AGG10, _unif(950, 1050)),
    _attr("distance", ["sum"], _AGG10, _unif(5, 25)),
    _attr("calories", ["sum"], _AGG50, _unif(0.1, 1.5)),
    _attr("steps", ["sum"], _AGG50, _ints(0, 40)),
    _attr("elevation_gain", ["sum"], _AGG10, _unif(0, 3)),
    _attr(
        "gps_accuracy",
        ["histogram", "median"],
        _AGG10,
        _unif(0, 49.9),
        bins={"min": 0, "max": 50, "width": 1},
    ),
    _attr("stride_length", ["avg"], _AGG10, _norm(1.1, 0.15, 0.5, 1.99)),
    _attr("vo2", ["avg", "var"], _AGG10, _norm(42, 8, 20, 79)),
    _attr("recovery", ["avg"], _AGG10, _unif(20, 99)),
    _attr(
        "pace",
        ["histogram", "median", "percentile"],
        _AGG10,
        _unif(120, 321.9),
        bins={"min": 120, "max": 322, "width": 1},
    ),
    _attr(
        "altitude",
        ["histogram", "median"],
        _AGG50,
        _unif(0, 1999),
        bins={"min": 0, "max": 2000, "width": 5},
    ),
]

_WEB = [
    _attr("page_views", ["avg"], _DP50, _ints(1, 12)),
    _attr("session_duration", ["avg", "var"], _AGG10, _norm(180, 60, 1, 3600)),
    _attr("bounce", ["avg"], _AGG10, _ints(0, 2)),
    _attr(
        "clicks_x",
        ["histogram"],
        _AGG10,
        _unif(0, 1023.9),
        bins={"min": 0, "max": 1024, "width": 4},
    ),
    _attr(
        "clicks_y",
        ["histogram"],
        _AGG10,
        _unif(0, 719.9),
        bins={"min": 0, "max": 720, "width": 5},
    ),
    _attr(
        "scroll_depth",
        ["histogram", "median", "percentile"],
        _AGG10,
        _unif(0, 99.9),
        bins={"min": 0, "max": 100, "width": 1},
    ),
    _attr(
        "page_id",
        ["histogram", "mode"],
        _AGG10,
        _ints(0, 300),
        bins={"min": 0, "max": 300, "width": 1},
    ),
    _attr("referrer_type", ["histogram", "mode"], _AGG10, _ints(0, 8), domain={"min": 0, "max": 7}),
    _attr("device_type", ["histogram", "mode"], _AGG10, _ints(0, 6), domain={"min": 0, "max": 5}),
    _attr("browser", ["histogram", "mode"], _AGG10, _ints(0, 12), domain={"min": 0, "max": 11}),
    _attr("os", ["histogram", "mode"], _AGG10, _ints(0, 8), domain={"min": 0, "max": 7}),
    _attr(
        "country",
        ["histogram", "mode", "topk"],
        _AGG10,
        _ints(0, 40),
        domain={"min": 0, "max": 39},
    ),
    _attr("language", ["histogram", "mode"], _AGG10, _ints(0, 20), domain={"min": 0, "max": 19}),
    _attr("new_user", ["avg"], _AGG10, _ints(0, 2)),
    _attr("conversions", ["sum"], _DP50, _ints(0, 2)),
    _attr("cart_adds", ["sum"], _AGG10, _ints(0, 3)),
    _attr("purchases", ["sum"], _AGG10, _ints(0, 2)),
    _attr("revenue", ["avg", "var", "sum"], _AGG10, _sparse(0.1, 5, 300)),
    _attr("load_time", ["avg", "var"], _DP50, _lognorm(1.2, 0.4, 0.05, 30)),
    _attr("ttfb", ["avg", "var"], _AGG10, _lognorm(0.3, 0.4, 0.01, 10)),
    _attr("errors", ["avg"], _AGG10, _ints(0, 2)),
    _attr("retries", ["avg"], _AGG10, _ints(0, 3)),
    _attr("engaged_time", ["avg", "var"], _DP50, _norm(90, 40, 0, 1800)),
    _attr(
        "viewport_width",
        ["histogram", "median"],
        _AGG10,
        _unif(320, 999),
        bins={"min": 320, "max": 1000, "width": 20},
    ),
]

_VIBRATION_OPTIONS = [
    {"kind": "stream-aggregate", "min_window": 2},
    {"kind": "aggregate", "min_population": 50},
    {"kind": "private"},
]

_CAR = [
    _attr("rpm", ["avg", "var"], _AGG50, _norm(2200, 600, 600, 6500)),
    _attr("speed", ["avg", "var"], _AGG50, _norm(60, 25, 0, 200)),
    _attr("engine_temp", ["avg", "var"], _AGG50, _norm(92, 6, 40, 130)),
    _attr("oil_pressure", ["avg", "var"], _AGG10, _norm(3.5, 0.6, 1, 8)),
    _attr("fuel_rate", ["avg", "var"], _AGG10, _norm(7.5, 2.5, 0.3, 30)),
    _attr("battery_v", ["avg", "var"], _AGG10, _norm(13.8, 0.4, 10, 15.5)),
    _attr(
        "vibration",
        ["histogram", "median", "max"],
        _VIBRATION_OPTIONS,
        _unif(0, 31.9),
        bins={"min": 0, "max": 32, "width": 1},
    ),
    _attr(
        "error_code",
        ["histogram", "mode"],
        _AGG50,
        _ints(0, 25),
        domain={"min": 0, "max": 24},
    ),
    _attr("gear", ["histogram", "mode"], _AGG10, _ints(0, 8), domain={"min": 0, "max": 7}),
    _attr(
        "throttle",
        ["histogram", "median"],
        _AGG10,
        _unif(0, 99.9),
        bins={"min": 0, "max": 100, "width": 5},
    ),
    _attr("brake_temp", ["avg", "var"], _AGG10, _norm(120, 40, 15, 600)),
    _attr("tire_fl", ["avg"], _AGG10, _norm(2.4, 0.15, 1.5, 3.4)),
    _attr("tire_fr", ["avg"], _AGG10, _norm(2.4, 0.15, 1.5, 3.4)),
    _attr("tire_rl", ["avg"], _AGG10, _norm(2.4, 0.15, 1.5, 3.4)),
    _attr("tire_rr", ["avg"], _AGG10, _norm(2.4, 0.15, 1.5, 3.4)),
    _attr("mileage", ["sum"], _AGG10, _unif(0.05, 1.2)),
    _attr("idle_time", ["sum"], _AGG10, _unif(0, 4)),
    _attr("hard_brakes", ["sum", "avg"], _AGG50, _ints(0, 2)),
    _attr("accel_events", ["sum", "avg"], _AGG10, _ints(0, 3)),
    _attr("coolant", ["avg", "var"], _AGG10, _norm(88, 7, 40, 125)),
    _attr("intake_temp", ["avg", "var"], _AGG10, _norm(35, 10, -10, 80)),
    _attr("lambda", ["avg", "var"], _AGG10, _norm(1.0, 0.05, 0.7, 1.3)),
    _attr(
        "dpf_load",
        ["histogram", "median"],
        _AGG10,
        _unif(0, 99),
        bins={"min": 0, "max": 100, "width": 2.5},
    ),
]


def _preset_tables():
    return {
        "fitness": {
            "metadata": [
                {"name": "region", "type": "string"},
                {"name": "age_group", "type": "string"},
            ],
            "attrs": _FITNESS,
            "select": {
                "hr_avg": {"attribute": "heart_rate", "function": "avg"},
                "speed_var": {"attribute": "speed", "function": "var"},
                "altitude_hist": {
                    "attribute": "altitude",
                    "function": "histogram",
                    "bucket_width": 20,
                },
                "steps_total": {"attribute": "steps", "function": "sum"},
                "calories_total": {"attribute": "calories", "function": "sum"},
            },
            "dp": None,
        },
        "web": {
            "metadata": [
                {"name": "region", "type": "string"},
                {"name": "platform", "type": "string"},
            ],
            "attrs": _WEB,
            "select": {
                "views_avg": {"attribute": "page_views", "function": "avg"},
                "load_var": {"attribute": "load_time", "function": "var"},
                "engaged_avg": {"attribute": "engaged_time", "function": "avg"},
                "conversions_total": {"attribute": "conversions", "function": "sum"},
            },
            "dp": {"epsilon": 0.05, "sigma": 20.0},
        },
        "car": {
            "metadata": [
                {"name": "region", "type": "string"},
                {"name": "model_year", "type": "int"},
            ],
            "attrs": _CAR,
            "select": {
                "rpm_avg": {"attribute": "rpm", "function": "avg"},
                "speed_var": {"attribute": "speed", "function": "var"},
                "temp_avg": {"attribute": "engine_temp", "function": "avg"},
                "errors_hist": {"attribute": "error_code", "function": "histogram"},
                "brakes_total": {"attribute": "hard_brakes", "function": "sum"},
            },
            "dp": None,
            "per_user_attribute": "vibration",
        },
    }


def scenario_presets() -> tuple[str, ...]:
    return tuple(_preset_tables())


def preset_schema(preset: str) -> StreamSchema:
    table = _preset_tables()[preset]
    return parse_schema(
        {
            "name": preset,
            "metadata": table["metadata"],
            "attributes": [spec for spec, _gen in table["attrs"]],
        }
    )


_GENERATOR_KINDS = {
    "normal": (_norm, ("mean", "sd", "low", "high")),
    "uniform": (_unif, ("low", "high")),
    "integers": (_ints, ("low", "high")),
    "lognormal": (_lognorm, ("median", "sigma", "low", "high")),
    "sparse": (_sparse, ("probability", "low", "high")),
}


def _make_generator(spec: Optional[dict]):
    """Build a value generator from a declarative description.

    `spec` is a mapping with a `kind` plus that kind's parameters, e.g.
    {"kind": "normal", "mean": 24, "sd": 3, "low": 5, "high": 45}.
    Omitted entirely, it defaults to uniform over [0, 100).
    """
    if spec is None:
        return _unif(0, 100)
    kind = spec.get("kind")
    entry = _GENERATOR_KINDS.get(kind)
    if entry is None:
        raise ValueError(
            f"unknown generator kind {kind!r}; choose from {sorted(_GENERATOR_KINDS)}"
        )
    factory, params = entry
    missing = [p for p in params if p not in spec]
    if missing:
        raise ValueError(f"generator {kind!r} is missing parameters {missing}")
    return factory(*(spec[p] for p in params))


def custom_table(doc: dict) -> dict:
    """Compile a declarative scenario description into a runnable table.

    `doc` mirrors the built-in presets: a `schema` (name, metadata,
    attributes with inline `generator` specs), a `select` mapping, and
    optionally `dp`, `per_user_attribute`, and `holdout_every` (every
    k-th producer keeps the first queried attribute private; 0 disables
    the holdouts, and built-in presets use 50).
    """
    schema_doc = doc.get("schema")
    if not isinstance(schema_doc, dict):
        raise ValueError("custom scenario needs a 'schema' mapping")
    raw_attrs = schema_doc.get("attributes")
    if not raw_attrs:
        raise ValueError("custom schema needs at least one attribute")
    attrs = []
    for a in raw_attrs:
        spec = {k: v for k, v in a.items() if k != "generator"}
        attrs.append((spec, _make_generator(a.get("generator"))))
    select = doc.get("select")
    if not isinstance(select, dict) or not select:
        raise ValueError("custom scenario needs a non-empty 'select' mapping")
    return {
        "name": schema_doc.get("name", "custom"),
        "metadata": schema_doc.get("metadata", []),
        "attrs": attrs,
        "select": select,
        "dp": doc.get("dp"),
        "per_user_attribute": doc.get("per_user_attribute"),
        "holdout_every": int(doc.get("holdout_every", 0)),
    }


# ---- results ---------------------------------------------------------------


@dataclass
class WindowResult:
    window: int
    status: str
    members: int
    prf_calls: int
    additions: int
    bytes_producer: int
    bytes_controller: int
    bytes_server: int
    t_encrypt: float
    t_token: float
    t_unmask: float
    overhead_factor: float
    outputs: dict = field(default_factory=dict)
    released: Optional[list] = None
    shadow_ok: Optional[bool] = None
    extras: dict = field(default_factory=dict)

    def csv_row(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


@dataclass
class ScenarioResult:
    preset: str
    config: SimConfig
    plan_members: int
    output_width: int
    windows: list[WindowResult]
    summary: dict

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for w in self.windows:
            row = w.csv_row()
            lines.append(
                ",".join(
                    f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c])
                    for c in CSV_COLUMNS
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "preset": self.preset,
            "plan_members": self.plan_members,
            "output_width": self.output_width,
            "summary": self.summary,
            "windows": [
                {
                    **w.csv_row(),
                    "outputs": w.outputs,
                    "shadow_ok": w.shadow_ok,
                    **({"extras": w.extras} if w.extras else {}),
                }
                for w in self.windows
            ],
        }
        return json.dumps(doc, indent=2, default=str)


def _headline(stats: DecodedStats, function: str, param: Optional[float]):
    if function == "avg":
        return stats.mean
    if function == "var":
        return stats.variance
    if function in ("sum", "count"):
        return stats.total
    if function == "median":
        return stats.median
    if function == "percentile":
        return stats.percentile(param if param is not None else 50.0)
    if function == "min":
        return stats.minimum
    if function == "max":
        return stats.maximum
    if function == "range":
        return stats.value_range
    if function == "mode":
        return stats.mode
    if function == "topk":
        return stats.top_bins(int(param) if param else 3)
    if function == "histogram":
        return {"count": stats.count, "mode": stats.mode, "median": stats.median}
    if function == "sum_above":
        return stats.sum_above
    if function == "sum_below":
        return stats.sum_below
    return None


def measure_bandwidth(width: int, released: int = 1) -> dict:
    """Measure actual wire sizes, in bytes, for the protocol's messages."""
    prf = ZeroPrf()
    master = MasterSecret(b"\x00" * 16, "probe")
    ct = encrypt(master, 0, 1, [0] * width, prf=prf)
    event_bytes = len(serialize_event(ct))
    directives = [release()] * released
    token = single_stream_token(master, (0, 1), directives, prf=prf)
    token_bytes = token.wire_size()
    masked = mask_token(
        token, [0] * released, round_index=0, epoch_id=0, party=PartyId(b"\x00" * 32)
    )
    masked_bytes = len(masked.serialize())
    delta = MembershipDelta(
        0, joined=frozenset([PartyId(b"\x01" + b"\x00" * 31)]), dropped=frozenset()
    )
    return {
        "width": width,
        "event_bytes": event_bytes,
        "event_bytes_per_element": 8,
        "token_elements": released,
        "token_bytes": token_bytes,
        "masked_token_bytes": masked_bytes,
        "delta_bytes_per_change": delta.wire_size() - 16,
    }


# ---- the scenario ----------------------------------------------------------


class _Partition:
    """One independently aggregating shard of the population."""

    def __init__(self, index: int, streams: list[str]):
        self.index = index
        self.streams = streams  # sorted stream ids
        self.parties: list[PartyId] = []
        self.party_of: dict[str, PartyId] = {}
        self.stream_of: dict[PartyId, str] = {}
        self.secrets = {}  # PartyId -> PairwiseSecrets
        self.b: Optional[int] = None
        self.threshold: Optional[int] = None  # dream selection threshold
        self.epoch_width = 0
        self.epoch_plans: dict[PartyId, EpochPlan] = {}  # current epoch only


class _Scenario:
    def __init__(self, config: SimConfig):
        self.config = config
        if config.custom is not None:
            self.table = custom_table(config.custom)
        else:
            table = _preset_tables().get(config.preset)
            if table is None:
                raise ValueError(
                    f"unknown preset {config.preset!r}; choose from {scenario_presets()}"
                )
            self.table = table
            self.table["name"] = config.preset
            self.table["holdout_every"] = 50
        self.schema = parse_schema(
            {
                "name": self.table["name"],
                "metadata": self.table["metadata"],
                "attributes": [spec for spec, _gen in self.table["attrs"]],
            }
        )
        self.width = self.schema.width
        self.attr_specs = [(a.name, a.encoding) for a in self.schema.attributes]
        self.slices = self.schema.slices
        self.mask = RING_MASK
        self.mask_np = np.uint64(self.mask)
        self.prf = CountingPrf(AesPrf())
        self.additions = 0
        seq = np.random.SeedSequence(config.seed)
        data_seed, transport_seed = seq.spawn(2)
        self.rng = np.random.default_rng(data_seed)
        self.scheduler = Scheduler()
        self.transport = SimTransport(
            self.scheduler,
            np.random.default_rng(transport_seed),
            latency_mean=config.latency_mean,
            latency_sigma=config.latency_sigma,
            drop_rate=config.drop_rate,
        )
        self._setup_population()
        self._setup_plan()
        self._setup_partitions()
        self.results: list[WindowResult] = []
        self.acc_bytes: dict[int, int] = {}
        self.acc_encrypt: dict[int, float] = {}
        self.last_online: dict[str, int] = {}
        self.server_buffer: dict[str, list[StreamCiphertext]] = {
            s: [] for s in self.streams
        }
        self.prev_owner_set: frozenset = frozenset()
        self.plan_bytes = len(
            json.dumps(
                {
                    "plan": self.plan.plan_id,
                    "members": self.plan.members,
                    "window": self.plan.window,
                    "chain": self.plan.chain,
                    "outputs": [o.name for o in self.plan.outputs],
                }
            ).encode()
        )

    # -- setup ---------------------------------------------------------------

    def _setup_population(self):
        cfg = self.config
        self.streams = [f"{self.schema.name}-{i:04d}" for i in range(cfg.producers)]
        self.generators = {
            spec["name"]: gen for spec, gen in self.table["attrs"]
        }
        agreement = StaticKeyAgreement()
        self.registry = IdentityRegistry()
        self.keypairs = {}
        self.masters = {}
        self.owner_party: dict[str, PartyId] = {}
        regions = ("eu", "us", "ap")
        queried = [body["attribute"] for body in self.table["select"].values()]
        self.queried_attrs = queried
        dp_query = self.table["dp"] is not None
        wanted = "dp-aggregate" if dp_query else "aggregate"
        per_user_attr = self.table.get("per_user_attribute")
        holdout_every = self.table.get("holdout_every", 0)
        offered = {
            a.name: tuple(o.kind for o in a.options) for a in self.schema.attributes
        }

        def pick(attr: str, *preferences: str) -> str:
            kinds = offered[attr]
            for p in preferences:
                if p in kinds:
                    return p
            return kinds[0]

        self.annotations = []
        for i, sid in enumerate(self.streams):
            kp = agreement.generate(sid.encode())
            self.keypairs[sid] = kp
            self.registry.register(kp.public_identity())
            self.owner_party[sid] = kp.party_id
            self.masters[sid] = MasterSecret(
                hashlib.sha256(b"stream-key\x00" + sid.encode()).digest()[:16], sid
            )
            selected = {
                a.name: pick(a.name, "aggregate", "dp-aggregate", "stream-aggregate")
                for a in self.schema.attributes
            }
            for attr in queried:
                selected[attr] = pick(attr, wanted, "aggregate", "stream-aggregate")
            if per_user_attr:
                selected[per_user_attr] = "stream-aggregate"
            if holdout_every and i % holdout_every == 0:
                # a few owners keep the first queried attribute private
                if "private" in offered[queried[0]]:
                    selected[queried[0]] = "private"
            meta = {}
            for fi, f in enumerate(self.table["metadata"]):
                if f["type"] == "int":
                    meta[f["name"]] = int(self.rng.integers(2015, 2026))
                elif fi == 0:
                    meta[f["name"]] = regions[int(self.rng.integers(0, len(regions)))]
                else:
                    meta[f["name"]] = ["a", "b", "c"][int(self.rng.integers(0, 3))]
            self.annotations.append(
                StreamAnnotation(
                    stream_id=sid,
                    schema_name=self.schema.name,
                    owner_id=kp.party_id.value,
                    selected=selected,
                    metadata=meta,
                )
            )

    def _setup_plan(self):
        cfg = self.config
        self.ledger = ReservationLedger()
        query_doc = {
            "name": f"{cfg.preset}-population",
            "select": self.table["select"],
            "window": cfg.logical_window,
            "max_population": 10 * cfg.producers,
        }
        if self.table["dp"]:
            query_doc["dp"] = self.table["dp"]
        self.query = parse_query(query_doc)
        plan = plan_query(
            self.query,
            self.schema,
            self.annotations,
            self.ledger,
            colluding_fraction=cfg.colluding_fraction,
        )
        if isinstance(plan, Rejection):
            raise RuntimeError(f"preset query was rejected: {plan}")
        self.plan = plan
        self.plan_member_set = frozenset(plan.members)
        by_id = {a.stream_id: a for a in self.annotations}
        for sid in plan.members:
            verdict = verify_plan(
                plan, self.schema, {sid: by_id[sid]}, registry=self.registry
            )
            if not verdict.ok:
                raise RuntimeError(f"controller {sid} refused the plan: {verdict.reason}")
        self.annotation_of = by_id
        self.user_plan = None
        self.user_stream = None
        per_user_attr = self.table.get("per_user_attribute")
        if per_user_attr:
            self.user_stream = self.streams[1]  # not a privacy holdout
            user_query = parse_query(
                {
                    "name": "single-driver-profile",
                    "select": {
                        "profile_hist": {
                            "attribute": per_user_attr,
                            "function": "histogram",
                        }
                    },
                    "where": [{"attribute": "stream_id", "equals": self.user_stream}],
                    "window": cfg.logical_window,
                }
            )
            user_plan = plan_query(
                user_query, self.schema, self.annotations, self.ledger
            )
            if isinstance(user_plan, Rejection):
                raise RuntimeError(f"per-user query was rejected: {user_plan}")
            self.user_plan = user_plan
            verdict = verify_plan(
                user_plan,
                self.schema,
                {self.user_stream: by_id[self.user_stream]},
                registry=self.registry,
            )
            if not verdict.ok:
                raise RuntimeError(f"per-user plan refused: {verdict.reason}")

        if self.table["dp"]:
            budget_limit = min(
                self.schema.attribute(a).option("dp-aggregate").epsilon_budget
                for a in self.queried_attrs
            )
        else:
            budget_limit = 0.0
        self.budgets = {
            sid: PrivacyBudget(budget_limit) if budget_limit else None
            for sid in self.plan.members
        }
        self.token_stores = {sid: TokenStore() for sid in self.plan.members}
        if self.user_stream:
            self.token_stores.setdefault(self.user_stream, TokenStore())
        self.encryptors = {
            sid: ChainEncryptor(self.masters[sid], self.width, prf=self.prf)
            for sid in set(self.plan.members)
            | ({self.user_stream} if self.user_stream else set())
        }
        self.sim_streams = sorted(self.encryptors)
        self.window_plain: dict[tuple[str, int], np.ndarray] = {}
        n_attrs = len(self.schema.attributes)
        self.overhead_factor = (16 + 8 * self.width) / (16 + 8 * n_attrs)

    def _setup_partitions(self):
        cfg = self.config
        members = list(self.plan.members)  # already sorted
        self.partitions: list[_Partition] = []
        for start in range(0, len(members), cfg.partition_size):
            part = _Partition(len(self.partitions), members[start : start + cfg.partition_size])
            for sid in part.streams:
                pid = self.owner_party[sid]
                part.party_of[sid] = pid
                part.stream_of[pid] = sid
            part.parties = sorted(part.party_of.values())
            for sid in part.streams:
                peers = [p for p in part.parties if p != part.party_of[sid]]
                part.secrets[part.party_of[sid]] = setup_pairwise(
                    self.keypairs[sid], self.registry, peers
                )
            if cfg.protocol in ("dream", "zeph") and len(part.parties) >= 3:
                res = optimize_b(
                    len(part.parties), cfg.colluding_fraction, cfg.failure_budget
                )
                if res.feasible:
                    part.b = res.b
                    part.epoch_width = res.rounds
                    if cfg.protocol == "dream":
                        part.threshold = threshold_for_probability(res.edge_probability)
            self.partitions.append(part)
        self.partition_of = {
            sid: part for part in self.partitions for sid in part.streams
        }

    # -- producer side --------------------------------------------------------

    def _schedule_window(self, w: int):
        cfg = self.config
        L = cfg.logical_window
        T = cfg.window_size
        online = self.rng.random(len(self.sim_streams)) >= cfg.dropout_rate
        draws = {
            name: gen(self.rng, (len(self.sim_streams), cfg.events_per_window))
            for name, gen in self.generators.items()
        }
        jitter = self.rng.random((len(self.sim_streams), cfg.events_per_window))
        for si, sid in enumerate(self.sim_streams):
            if not online[si]:
                continue
            if w > 0 and self.last_online.get(sid, -1) != w - 1:
                # returning after offline windows: close the chain gap with
                # one neutral event ending exactly on this window's border,
                # so earlier windows never mix into this one
                self._emit(sid, w, w * L, encode_neutral_vector(self.schema))
            self.last_online[sid] = w
            plain = np.zeros(self.width, dtype=np.uint64)
            vectors = []
            for ei in range(cfg.events_per_window):
                vec = np.zeros(self.width, dtype=np.uint64)
                for name, spec in self.attr_specs:
                    value = float(draws[name][si, ei])
                    if spec.kind == "one_hot":
                        value = int(value)
                    lo, hi = self.slices[name]
                    vec[lo:hi] = encode(value, spec)
                vectors.append(vec)
                plain = (plain + vec) & self.mask_np
            self.window_plain[(sid, w)] = plain
            for ei, vec in enumerate(vectors):
                at = w * T + (ei + 0.1 + 0.8 * jitter[si, ei]) * T / (L + 1)
                self.scheduler.at(
                    at,
                    lambda s=sid, t=w * L + ei + 1, v=vec: self._emit(s, w, t, v),
                )
            self.scheduler.at(
                (w + 1) * T,
                lambda s=sid, t=(w + 1) * L: self._emit_border(s, w, t),
            )
        self.scheduler.at((w + 1) * T + cfg.grace, lambda w=w: self._assemble(w))

    def _emit(self, sid: str, w: int, t_logical: int, vec: np.ndarray):
        t0 = time.perf_counter()
        ct = self.encryptors[sid].encrypt_next(t_logical, vec)
        self.acc_encrypt[w] = self.acc_encrypt.get(w, 0.0) + (time.perf_counter() - t0)
        self.acc_bytes[w] = self.acc_bytes.get(w, 0) + ct.wire_size()
        self.transport.send(
            ct.wire_size(), lambda s=sid, c=ct: self.server_buffer[s].append(c)
        )

    def _emit_border(self, sid: str, w: int, t_logical: int):
        self._emit(sid, w, t_logical, np.zeros(self.width, dtype=np.uint64))
        # heartbeat: tiny liveness beacon alongside the border event
        self.acc_bytes[w] = self.acc_bytes.get(w, 0) + 16
        self.transport.send(16, lambda: None)

    # -- server + controllers --------------------------------------------------

    def _assemble(self, w: int):
        cfg = self.config
        L = cfg.logical_window
        lo, hi = w * L, (w + 1) * L
        members: list[str] = []
        window_cts: dict[str, StreamCiphertext] = {}
        for sid in self.sim_streams:
            pieces = sorted(
                (ct for ct in self.server_buffer[sid] if ct.t_prev >= lo and ct.t_curr <= hi),
                key=lambda c: c.t_prev,
            )
            self.server_buffer[sid] = [ct for ct in self.server_buffer[sid] if ct.t_curr > hi]
            if not pieces or pieces[0].t_prev != lo or pieces[-1].t_curr != hi:
                continue
            if any(a.t_curr != b.t_prev for a, b in zip(pieces, pieces[1:])):
                continue
            window_cts[sid] = chain_sum(pieces)
            members.append(sid)

        plan_members = [s for s in members if s in self.plan_member_set]
        owner_set = frozenset(self.owner_party[s] for s in plan_members)
        joined = owner_set - self.prev_owner_set
        dropped = self.prev_owner_set - owner_set
        bytes_server = self.plan_bytes if w == 0 else 0
        if joined or dropped:
            delta = MembershipDelta(w, joined=joined, dropped=dropped)
            bytes_server += delta.wire_size()
        self.prev_owner_set = owner_set

        prf0 = self.prf.calls
        add0 = self.additions
        result = WindowResult(
            window=w,
            status="ok",
            members=len(plan_members),
            prf_calls=0,
            additions=0,
            bytes_producer=self.acc_bytes.pop(w, 0),
            bytes_controller=0,
            bytes_server=bytes_server,
            t_encrypt=self.acc_encrypt.pop(w, 0.0),
            t_token=0.0,
            t_unmask=0.0,
            overhead_factor=self.overhead_factor,
        )

        if len(plan_members) < self.plan.min_members:
            result.status = "failed_min_members"
        else:
            self._release_window(w, plan_members, window_cts, result)

        if self.user_plan is not None:
            self._release_user_window(w, members, window_cts, result)

        result.prf_calls = self.prf.calls - prf0
        result.additions = self.additions - add0
        self.results.append(result)

    def _controller_tokens(self, w: int, part: _Partition, active: list[str]):
        """Build and mask one partition's tokens for window w.

        Returns the masked tokens, the bytes sent and the ring additions
        spent on masks. The window's budgets were checked beforehand, so
        every charge succeeds.
        """
        cfg = self.config
        L = cfg.logical_window
        window = (w * L, (w + 1) * L)
        live = frozenset(part.party_of[s] for s in active)
        epoch = w // part.epoch_width if part.epoch_width else 0
        masked = []
        bytes_out = 0
        additions = 0
        for sid in active:
            party = part.party_of[sid]
            store = self.token_stores[sid]
            token = store.emit(
                self.plan.plan_id,
                window,
                lambda sid=sid: single_stream_token(
                    self.masters[sid],
                    window,
                    self.plan.directives,
                    layout=self.plan.token_layout,
                    prf=self.prf,
                ),
            )
            if self.plan.dp_epsilon is not None:
                token = add_dp_noise(
                    token,
                    self.plan.noise,
                    self.budgets[sid],
                    self.plan.dp_epsilon,
                    self._noise_rng(w, party),
                )
            if isinstance(token, Suppressed):
                raise RuntimeError(f"{sid} was refused a checked budget: {token.reason}")
            plan = self._epoch_plan(part, party, epoch)
            peers = round_peers(
                part.secrets[party],
                w,
                members=live,
                plan=plan,
                threshold=part.threshold,
                prf=self.prf,
            )
            nonces = mask_vector(
                part.secrets[party],
                peers,
                len(token.indices),
                epoch_id=epoch,
                round_index=w,
                domain=DOMAIN_EDGE if plan is None else DOMAIN_MASK,
                prf=self.prf,
            )
            additions += len(peers) * len(token.indices)
            mt = mask_token(token, nonces, round_index=w, epoch_id=epoch, party=party)
            bytes_out += len(mt.serialize())
            masked.append(mt)
        return masked, bytes_out, additions

    def _epoch_plan(self, part: _Partition, party: PartyId, epoch: int):
        """The party's zeph plan for the epoch, derived once and replacing
        its plan for the previous epoch; None for the other protocols and
        for partitions too small to plan."""
        if self.config.protocol != "zeph" or part.b is None:
            return None
        plan = part.epoch_plans.get(party)
        if plan is None or plan.epoch_id != epoch:
            plan = plan_epoch(part.secrets[party], epoch, part.b, prf=self.prf)
            part.epoch_plans[party] = plan
        return plan

    def _noise_rng(self, w: int, party: PartyId) -> np.random.Generator:
        digest = hashlib.sha256(
            b"dp-noise\x00"
            + int(self.config.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            + w.to_bytes(8, "little")
            + party.value
        ).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def _release_window(
        self,
        w: int,
        plan_members: list[str],
        window_cts: dict[str, StreamCiphertext],
        result: WindowResult,
    ):
        eps = self.plan.dp_epsilon
        if eps is not None and not all(
            self.budgets[s].can_charge(eps) for s in plan_members
        ):
            # one exhausted member suppresses the whole window before any
            # token is built, so no other member's budget is charged
            result.status = "suppressed"
            result.extras["suppressed"] = "epsilon budget exhausted"
            return
        live = frozenset(plan_members)
        active_by_part = [
            [s for s in part.streams if s in live] for part in self.partitions
        ]
        t0 = time.perf_counter()
        part_tokens = [
            self._controller_tokens(w, part, active)
            for part, active in zip(self.partitions, active_by_part)
            if active
        ]
        result.t_token = time.perf_counter() - t0

        for _masked, bytes_out, additions in part_tokens:
            result.bytes_controller += bytes_out
            self.additions += additions

        t0 = time.perf_counter()
        released_total = [0] * self.plan.output_width
        pt_i = 0
        for part, active in zip(self.partitions, active_by_part):
            if not active:
                continue
            masked = part_tokens[pt_i][0]
            pt_i += 1
            combined = unmask_aggregate(masked, stream_ids=active)
            agg = cross_sum([window_cts[s] for s in active])
            merged = merge_elements(agg, self.plan.layout)
            opened = apply_token(merged, combined, stream_set_id=stream_set_hash(active))
            for i, v in enumerate(opened):
                released_total[i] = (released_total[i] + v) & self.mask
        result.t_unmask = time.perf_counter() - t0

        result.released = released_total
        result.outputs = {}
        warnings = {}
        for spec in self.plan.outputs:
            stats = decode_stats(released_total[spec.out_start : spec.out_stop], spec.decode)
            result.outputs[spec.name] = _headline(stats, spec.function, spec.param)
            if stats.warnings:
                warnings[spec.name] = list(stats.warnings)
        if warnings:
            # a wrapped count, bin or sum of squares decodes to a wrong value
            result.status = "decode_warning"
            result.extras["decode_warnings"] = warnings
        result.shadow_ok = released_total == self._shadow(w, plan_members)

    def _shadow(self, w: int, plan_members: list[str]) -> list[int]:
        """Plaintext recomputation of the released vector, noise included."""
        zeros = np.zeros(self.width, dtype=np.uint64)
        total = zeros
        for sid in plan_members:
            # a member that spent the window offline contributed one neutral
            # catch-up event, i.e. exactly zeros
            total = (total + self.window_plain.get((sid, w), zeros)) & self.mask_np
        out = []
        for sources in self.plan.layout:
            acc = 0
            for j in sources:
                acc = (acc + int(total[j])) & self.mask
            out.append(acc)
        if self.plan.dp_epsilon is not None:
            sigma = self.plan.noise.per_party_sigma
            for sid in plan_members:
                rng = self._noise_rng(w, self.owner_party[sid])
                samples = rng.normal(0.0, sigma, size=len(out))
                for i, eta in enumerate(samples):
                    out[i] = (out[i] + round(float(eta))) & self.mask
        return out

    def _release_user_window(
        self,
        w: int,
        members: list[str],
        window_cts: dict[str, StreamCiphertext],
        result: WindowResult,
    ):
        cfg = self.config
        sid = self.user_stream
        if sid not in members:
            result.extras["per_user"] = {"status": "no_data"}
            return
        L = cfg.logical_window
        window = (w * L, (w + 1) * L)
        plan = self.user_plan
        token = self.token_stores[sid].emit(
            plan.plan_id,
            window,
            lambda: single_stream_token(
                self.masters[sid],
                window,
                plan.directives,
                layout=plan.token_layout,
                prf=self.prf,
            ),
        )
        result.bytes_controller += token.wire_size()
        merged = merge_elements(window_cts[sid], plan.layout)
        opened = apply_token(merged, token, stream_set_id=stream_set_hash([sid]))
        spec = plan.outputs[0]
        stats = decode_stats(opened[spec.out_start : spec.out_stop], spec.decode)
        lo, hi_ = self.slices[spec.attribute]
        plain = self.window_plain.get(
            (sid, w), np.zeros(self.width, dtype=np.uint64)
        )[lo:hi_]
        shadow = plain.tolist()
        result.extras["per_user"] = {
            "status": "ok",
            "stream": sid,
            "headline": _headline(stats, spec.function, spec.param),
            "shadow_ok": opened == shadow,
        }

    # -- driver ----------------------------------------------------------------

    def run(self) -> ScenarioResult:
        t_start = time.perf_counter()
        for w in range(self.config.windows):
            self.scheduler.at(w * self.config.window_size, lambda w=w: self._schedule_window(w))
        self.scheduler.run()
        wall = time.perf_counter() - t_start
        tr = self.transport
        if tr.sent != tr.delivered + tr.dropped:
            raise AssertionError(
                f"transport conservation violated: {tr.sent} != {tr.delivered} + {tr.dropped}"
            )
        ok = sum(1 for r in self.results if r.status == "ok")
        shadow_all = all(r.shadow_ok for r in self.results if r.shadow_ok is not None)
        summary = {
            "preset": self.schema.name,
            "protocol": self.config.protocol,
            "seed": self.config.seed,
            "producers": self.config.producers,
            "plan_members": len(self.plan.members),
            "partitions": len(self.partitions),
            "output_width": self.plan.output_width,
            "stream_width": self.width,
            "windows": self.config.windows,
            "windows_ok": ok,
            "liveness": ok / max(1, self.config.windows),
            "shadow_ok": shadow_all,
            "prf_calls_total": self.prf.calls,
            "additions_total": self.additions,
            "bytes_producer_total": sum(r.bytes_producer for r in self.results),
            "bytes_controller_total": sum(r.bytes_controller for r in self.results),
            "bytes_server_total": sum(r.bytes_server for r in self.results),
            "overhead_factor": self.overhead_factor,
            "transport": {
                "sent": tr.sent,
                "delivered": tr.delivered,
                "dropped": tr.dropped,
                "bytes": tr.bytes_sent,
            },
            "wall_seconds": wall,
        }
        return ScenarioResult(
            preset=self.schema.name,
            config=self.config,
            plan_members=len(self.plan.members),
            output_width=self.plan.output_width,
            windows=self.results,
            summary=summary,
        )


def encode_neutral_vector(schema: StreamSchema) -> np.ndarray:
    """The all-neutral event: contributes nothing to any window aggregate."""
    return np.concatenate(
        [encode_neutral(a.encoding) for a in schema.attributes]
    )


def run_scenario(config: SimConfig) -> ScenarioResult:
    """Simulate one preset end to end and return per-window results."""
    return _Scenario(config).run()
