"""End-to-end simulation: producers, controllers, and an untrusted server.

The scenario wiring mirrors a deployment. Producers encrypt once and
stream fixed-width encoded events over a lossy transport. The server only
ever adds ciphertexts. Controllers (one per data owner) verify the
transformation plan independently, then release masked transformation
tokens each window; the server unmasks their sum and decodes the released
aggregate. A plaintext shadow computes the same transformation on the
same inputs with the same noise draws, so every window's released vector
can be checked for exact equality.

Timing model: a discrete event scheduler holds four events per window:
its opening, a pass sending its events in send-time order, a pass
sending its border events, and the server's assembly at the border plus
a grace period. A message's fate, lost or its arrival time, is drawn
when it is sent. A piece lost or arriving after the deadline leaves that
stream's window chain incomplete, so the stream drops out of the
window's member set and rejoins later; membership changes travel as
compact deltas. Controllers mask offline and correct online: window 0's
pairwise masks are computed over every plan member as window 0 opens, and
every later window's right after the previous window's assembly, over
that window's members; a release applies only the membership delta to
them. Producers that skip a window emit a neutral catch-up event on
return so their cipher chain stays contiguous at window borders.

Every per-stream array runs in plan member order. Large populations are
sharded into partitions, consecutive spans of plan members cut as evenly
as `partition_size` allows (sizes differ by at most one), and pairwise
masking runs inside each partition, with the protocol selectable per
scenario: full pairwise (clique), probabilistic per-round selection
(dream), or the epoch-planned variant (zeph on the command line) with
parameters chosen by the connectivity optimizer. One selection rule,
worked out for the smallest partition, holds for all of them, so the
scenario holds one pair table with a group per partition: a window's
base, and its release's tokens, noise, mask delta, masked batch and
unmasking, make a fixed number of array passes however many partitions
there are. Every pair lies inside one partition, so the masks cancel in
each partition's sum and hence in the plan's.

The scenario holds a list of plans, each with all of this state of its
own: the population plan, then the per-user plan when there is one. One
release path serves them all. A plan of one member has no pairs, so its
token goes out unmasked, in the one-stream token's wire format.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import time
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Callable, Optional

import numpy as np

from .encoding import SlabEncoder, decode_stats, encode_neutral
from .policy import (
    Rejection,
    TransformationPlan,
    StreamAnnotation,
    StreamSchema,
    ReservationLedger,
    _FUNCTIONS,
    _epsilon_limit,
    parse_query,
    parse_schema,
    plan_query,
    verify_plan,
)
from .ring import (
    RING_MASK,
    AesPrf,
    CountingPrf,
    MasterSecret,
    StreamCiphertext,
    ZeroPrf,
    apply_token,
    derive_keys,
    encrypt,
    encrypt_block,
    merge_elements,
    serialize_event,
)
from .secure_agg import (
    EdgeMasks,
    EpochPlan,
    IdentityRegistry,
    MaskedBatch,
    MembershipDelta,
    PartyId,
    PeerTable,
    StaticKeyAgreement,
    graph_bits,
    mask_base,
    mask_delta,
    mask_token,
    optimize_b,
    threshold_for_probability,
    unmask_aggregate,
)
from .tokens import (
    TransformationToken,
    noise_normals,
    noise_shares,
    stream_set_hash,
    token_matrix,
    token_records,
)

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
    "t_base",
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
    # an upper bound: the plan members are cut into the fewest partitions
    # of at most this many, their sizes differing by at most one
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
        if self.windows < 1:
            raise ValueError("need at least one window")
        if not 0 <= self.colluding_fraction < 1:
            raise ValueError(f"colluding_fraction must be in [0, 1), got {self.colluding_fraction}")
        if not 0 < self.failure_budget < 1:
            raise ValueError(f"failure_budget must be in (0, 1), got {self.failure_budget}")
        # the border piece is sent at the window's border and every latency
        # is positive, so without a positive grace no window could complete
        for name in ("window_size", "latency_mean", "grace"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.latency_sigma >= 0:
            raise ValueError(f"latency_sigma must be at least 0, got {self.latency_sigma}")
        for name in ("drop_rate", "dropout_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
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
    """Lossy, latency-sampling message channel.

    A message's fate is drawn when it is sent: one uniform draw and, if it
    is delivered, one lognormal latency. `send` returns the arrival time,
    or None for a lost message; the counters satisfy
    sent == delivered + dropped, which run_scenario asserts.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        latency_mean: float,
        latency_sigma: float,
        drop_rate: float,
    ):
        self.rng = rng
        self.latency_mean = latency_mean
        self.latency_sigma = latency_sigma
        self.drop_rate = drop_rate
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.bytes_sent = 0

    def send(self, size: int, now: float) -> Optional[float]:
        self.sent += 1
        self.bytes_sent += size
        if self.rng.random() < self.drop_rate:
            self.dropped += 1
            return None
        self.delivered += 1
        latency = float(
            self.rng.lognormal(math.log(self.latency_mean), self.latency_sigma)
        )
        return now + latency


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
    if not isinstance(spec, dict):
        raise ValueError(f"generator {spec!r} is not a mapping")
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
        if not isinstance(a, dict):
            raise ValueError(f"custom schema attribute {a!r} is not a mapping")
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
    prf_calls: int = 0
    additions: int = 0
    bytes_producer: int = 0
    bytes_controller: int = 0
    bytes_server: int = 0
    t_encrypt: float = 0.0
    t_base: float = 0.0
    t_token: float = 0.0
    t_unmask: float = 0.0
    overhead_factor: float = 0.0
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
        return json.dumps(doc, indent=2, default=_json_scalar)


def _json_scalar(value):
    """`json.dumps` default: a NumPy scalar becomes its Python value, so a
    count stays a number; any other type is refused."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def measure_bandwidth(width: int, released: int = 1) -> dict:
    """Measure actual wire sizes, in bytes, for the protocol's messages."""
    prf = ZeroPrf()
    master = MasterSecret(b"\x00" * 16, "probe")
    ct = encrypt(master, 0, 1, [0] * width, prf=prf)
    event_bytes = len(serialize_event(ct))
    # a one-stream token's elements; its size does not depend on their values
    token = TransformationToken(0, 1, stream_set_hash([master.stream_id]), (0,) * released)
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

def balanced_partitions(n: int, size: int) -> list[slice]:
    """Cut n plan members into the fewest consecutive partitions of at
    most `size` members, ceil(n / size) of them, whose sizes differ by at
    most one, the larger first."""
    k = -(-n // size)
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# Bytes of plaintext block a window's producer work holds at once: the
# streams are encoded, encrypted and summed one slab of about this size at
# a time (at least one stream), and each slab's encryption walks its PRF
# calls of `ring.BATCH_BLOCKS` blocks.
SLAB_BYTES = 2 << 20


class _Window:
    """One open window, one row per plan member and one column per lane
    of the lane map: its ciphertext window sum, its plaintext sum, and how
    many of its L pieces arrived strictly before the assembly deadline.
    The rows of a stream offline in the window stay zero unless a catch-up
    event spanning the window arrives in time. `online` and `lost` record,
    per stream, whether it sent the window and whether a piece of it was
    lost, which explain a missing member. The window's costs accumulate
    here: its producers' bytes and encryption time, and the PRF blocks,
    ring additions and seconds of its base and release."""

    def __init__(self, deadline: float, streams: int, lanes: int):
        self.deadline = deadline
        self.sums = np.zeros((streams, lanes), dtype=np.uint64)
        self.plain = np.zeros((streams, lanes), dtype=np.uint64)
        self.arrived = np.zeros(streams, dtype=np.int64)
        self.online = np.zeros(streams, dtype=bool)
        self.lost = np.zeros(streams, dtype=bool)
        self.bytes_producer = 0
        self.t_encrypt = 0.0
        self.prf_calls = 0
        self.additions = 0
        self.t_base = 0.0


class _Plan:
    """A plan the scenario releases every window and its releases' state,
    per-member arrays in plan member order: `rows`, its members' rows in
    the window record; `layout`, its token layout over the lane map's
    columns; its partitions, one `PeerTable` (`pairs`, a group per
    partition) and one selection rule (b, dream threshold, epoch width);
    the current zeph epoch plan and the next window's base masks; its
    members' parties and one-stream set ids; with DP, their noise keys
    (held by their controllers), epsilon limits and spent epsilon; and
    `members`, the membership its next delta is measured against: every
    plan member, as its broadcast lists them, then each window's members.

    A plan of one member has no pairs (`pairs` is None): the planner
    admits it only below `aggregate`, so its owner chose to release their
    stream alone. It computes no base or delta masks, logs no connectivity
    warning, and bills no plan broadcast and no membership delta.
    """

    def __init__(self, plan: TransformationPlan, rows: list[int], scenario: "_Scenario"):
        cfg = scenario.config
        members = plan.members  # already sorted
        n = len(members)
        self.plan = plan
        self.rows = np.array(rows, dtype=np.intp)
        self.layout = plan.token_layout.on_lanes(scenario.lanes)
        self.partitions = balanced_partitions(n, cfg.partition_size)
        sizes = sorted({part.stop - part.start for part in self.partitions}, reverse=True)
        if n > 1 and sizes[-1] == 1:
            # a lone member has no pair, so its token would go out unmasked
            raise ValueError(
                f"partition_size {cfg.partition_size} cuts the {n} plan members into "
                f"partitions of {' and '.join(map(str, sizes))}: a one-member "
                "partition's token would be released unmasked"
            )
        # one rule for every partition, worked out for the smallest: the
        # sizes differ by at most one, and a rule that meets the failure
        # budget at k parties meets it at k + 1
        self.b, self.threshold, self.epoch_width = None, None, 0
        if cfg.protocol in ("dream", "zeph") and sizes[-1] >= 3:
            res = optimize_b(sizes[-1], cfg.colluding_fraction, cfg.failure_budget)
            if res.feasible:
                if cfg.protocol == "dream":
                    self.threshold = threshold_for_probability(res.edge_probability)
                self.b, self.epoch_width = res.b, res.rounds
        self.zeph = cfg.protocol == "zeph" and self.b is not None
        self.pairs: Optional[PeerTable] = None
        if n > 1:
            groups = [[scenario.keypairs[sid] for sid in members[part]] for part in self.partitions]
            self.pairs = PeerTable(groups, scenario.registry, prf=scenario.prf)
        self.epoch_plan: Optional[EpochPlan] = None
        self.base: Optional[EdgeMasks] = None
        self.parties = tuple(scenario.keypairs[sid].party_id for sid in members)
        self.set_ids = tuple(stream_set_hash([sid]) for sid in members)
        self.noise_keys = None
        if plan.dp_epsilon is not None:
            seed = b"dp-noise\x00" + (cfg.seed & RING_MASK).to_bytes(8, "little")
            keys = b"".join(hashlib.sha256(seed + p.value).digest()[:16] for p in self.parties)
            self.noise_keys = np.frombuffer(keys, np.uint8).reshape(-1, 16)
            # each member's limit, the least its queried options allow, by
            # the rule the planner and its controller use, once per choice
            options, attrs = scenario.schema._options, plan.queried_attributes()
            selected = {a.stream_id: a.selected for a in scenario.annotations}
            chosen = [tuple(map(selected[sid].get, attrs)) for sid in members]
            limit = {c: min(_epsilon_limit(options[o]) for o in zip(attrs, c)) for c in set(chosen)}
            self.epsilon_limit = np.array([limit[c] for c in chosen])
            self.spent = np.zeros(n)
        self.members = np.ones(n, dtype=bool)
        broadcast = {
            "plan": plan.plan_id, "members": members, "window": plan.window,
            "chain": plan.chain, "outputs": [o.name for o in plan.outputs],
        }
        self.plan_bytes = len(json.dumps(broadcast).encode())

    def epoch(self, w: int) -> int:
        return w // self.epoch_width if self.epoch_width else 0

    def zeph_plan(self, w: int, prf) -> Optional[EpochPlan]:
        """Window w's zeph plan, replacing the plan of the previous epoch:
        every pair row of the `PeerTable`, derived in one `graph_bits` pass
        by the epoch's first base or release. None for the other protocols
        and for partitions too small to plan."""
        if not self.zeph:
            return None
        epoch = self.epoch(w)
        if self.epoch_plan is None or self.epoch_plan.epoch_id != epoch:
            bits = graph_bits(self.pairs.keys, epoch, prf=prf)
            self.epoch_plan = EpochPlan(epoch, self.b, (), bits)
        return self.epoch_plan

    def window_noise(self, members: np.ndarray):
        """The plan's noise spec sized for a window's members: each share
        is calibrated so that the window's honest members alone reach
        `sigma_target`, however many plan members are absent."""
        return replace(self.plan.noise, party_count=int(np.count_nonzero(members)))


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
        query_doc = {
            "name": f"{config.preset}-population",
            "select": self.table["select"],
            "window": config.logical_window,
            "max_population": 10 * config.producers,
        }
        if self.table["dp"]:
            query_doc["dp"] = self.table["dp"]
        self.query = parse_query(query_doc)
        self.width = self.schema.width
        self.encoder = SlabEncoder([a.encoding for a in self.schema.attributes])
        # one_hot draws are truncated to the integers their encoding reads
        self.one_hot = [a.encoding.kind == "one_hot" for a in self.schema.attributes]
        self.prf = CountingPrf(AesPrf())
        seq = np.random.SeedSequence(config.seed)
        data_seed, transport_seed = seq.spawn(2)
        self.rng = np.random.default_rng(data_seed)
        self.scheduler = Scheduler()
        self.transport = SimTransport(
            np.random.default_rng(transport_seed),
            latency_mean=config.latency_mean,
            latency_sigma=config.latency_sigma,
            drop_rate=config.drop_rate,
        )
        self._setup_population()
        self._setup_plans()
        # the pair tables' secrets are setup's only PRF blocks
        self.prf_calls_setup = self.prf.calls
        self.results: list[WindowResult] = []
        # the shadow verdict of every release, of every plan
        self.verdicts: list[bool] = []
        self.open: dict[int, _Window] = {}  # scheduled, not yet assembled

    # -- setup ---------------------------------------------------------------

    def _setup_population(self):
        cfg = self.config
        self.streams = [f"{self.schema.name}-{i:04d}" for i in range(cfg.producers)]
        agreement = StaticKeyAgreement()
        self.registry = IdentityRegistry()
        self.keypairs = {}
        self.masters = {}
        regions = ("eu", "us", "ap")
        queried = [item.attribute for item in self.query.select]
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

        # every stream's option choices, one dict per kind of stream that
        # the annotations share: policy only reads them
        regular = {
            a.name: pick(a.name, "aggregate", "dp-aggregate", "stream-aggregate")
            for a in self.schema.attributes
        }
        for attr in queried:
            if attr in offered:  # the planner refuses an attribute the schema lacks
                regular[attr] = pick(attr, wanted, "aggregate", "stream-aggregate")
        if per_user_attr:
            regular[per_user_attr] = "stream-aggregate"
        # a few owners keep the first queried attribute private
        holdout = regular
        if holdout_every and "private" in offered.get(queried[0], ()):
            holdout = {**regular, queried[0]: "private"}

        self.annotations = []
        for i, sid in enumerate(self.streams):
            kp = agreement.generate(sid.encode())
            self.keypairs[sid] = kp
            self.registry.register(kp.public_identity())
            self.masters[sid] = MasterSecret(
                hashlib.sha256(b"stream-key\x00" + sid.encode()).digest()[:16], sid
            )
            selected = holdout if holdout_every and i % holdout_every == 0 else regular
            meta = {}
            for fi, (name, mtype) in enumerate(self.schema.metadata):
                if mtype == "int":
                    meta[name] = int(self.rng.integers(2015, 2026))
                elif fi == 0:
                    meta[name] = regions[int(self.rng.integers(0, len(regions)))]
                else:
                    meta[name] = ["a", "b", "c"][int(self.rng.integers(0, 3))]
            self.annotations.append(
                StreamAnnotation(
                    stream_id=sid,
                    schema_name=self.schema.name,
                    owner_id=kp.party_id.value,
                    selected=selected,
                    metadata=meta,
                )
            )

    def _setup_plans(self):
        cfg = self.config
        self.ledger = ReservationLedger()
        options = {"colluding_fraction": cfg.colluding_fraction}
        plans = [self._plan_and_verify(self.query, "preset query", **options)]
        per_user_attr = self.table.get("per_user_attribute")
        if per_user_attr:
            profile = {"attribute": per_user_attr, "function": "histogram"}
            user_query = {
                "name": "single-driver-profile",
                "select": {"profile_hist": profile},
                # the second stream: not a privacy holdout
                "where": [{"attribute": "stream_id", "equals": self.streams[1]}],
                "window": cfg.logical_window,
            }
            plans.append(self._plan_and_verify(parse_query(user_query), "per-user query"))
        # the one-token rule: the (plan id, window) of every token minted
        self.minted: set[tuple] = set()
        # the window record and the producer key state have one row per
        # member of the first plan: the clock (the timestamp of its last
        # event, 0 before the first) and the key vector at that clock
        n = len(plans[0].members)
        self.clock = np.zeros(n, dtype=np.int64)
        self.last_key = np.zeros((n, self.width), dtype=np.uint64)
        self.neutral = encode_neutral_vector(self.schema)
        self.event_bytes = StreamCiphertext(0, 1, self.neutral).wire_size()
        # the lane map: the server keeps each stream's window sums, cipher
        # and plain, only on the lanes the plans release, in this order, and
        # each plan reads its layout from those columns
        self.lanes = np.unique(np.concatenate([plan.token_layout.sources for plan in plans]))
        # every stream but the holdouts makes the same choices and the
        # population query has no `where`, so the per-user stream has a row
        row = {sid: i for i, sid in enumerate(plans[0].members)}
        self.plans = [_Plan(plan, [row[sid] for sid in plan.members], self) for plan in plans]
        n_attrs = len(self.schema.attributes)
        self.overhead_factor = (16 + 8 * self.width) / (16 + 8 * n_attrs)

    def _plan_and_verify(self, query, name: str, **options):
        """Plan `query` against the ledger and have the controller of every
        member verify the plan; a rejection or a refusal raises.

        The members' controllers run identical plan-level checks, so one
        `verify_plan` over every member's annotation stands for all of
        them: it accepts exactly when each controller would. Only a
        refusal is re-checked controller by controller, in plan order,
        to name the first that refuses."""
        plan = plan_query(query, self.schema, self.annotations, self.ledger, **options)
        if isinstance(plan, Rejection):
            raise RuntimeError(f"{name} was rejected: {plan}")
        by_id = {a.stream_id: a for a in self.annotations}
        own = {sid: by_id[sid] for sid in plan.members}
        verdict = verify_plan(plan, self.schema, own, registry=self.registry)
        if verdict.ok:
            return plan
        # re-check controller by controller, to name the first that refuses
        for sid in plan.members:
            mine = verify_plan(plan, self.schema, {sid: by_id[sid]}, registry=self.registry)
            if not mine.ok:
                raise RuntimeError(f"controller {sid} refused the {name}'s plan: {mine.reason}")
        raise RuntimeError(f"the {name}'s plan was refused: {verdict.reason}")

    # -- producer side --------------------------------------------------------

    def _schedule_window(self, w: int):
        """Open window w's record with every online stream's plaintext and
        ciphertext window sums, encoding, encrypting and summing one slab
        of streams (`SLAB_BYTES`) at a time, and schedule three passes: the
        events, now; the border events, at the window's end; the assembly,
        at the deadline. A stream back after offline windows first sends, at
        once, one neutral catch-up event ending exactly on this window's
        start, so its chain stays contiguous and earlier windows never mix
        into this one; if it spans exactly the previous window and arrives
        before that window's deadline, it completes that window's chain.
        Messages draw their fates in send-time order, ties in scheduling
        order: the catch-ups, the previous window's border pass, the events."""
        cfg = self.config
        E = cfg.events_per_window
        L = cfg.logical_window
        T = cfg.window_size
        n = len(self.plans[0].rows)
        online = self.rng.random(n) >= cfg.dropout_rate
        draws = np.stack([gen(self.rng, (n, E)) for _spec, gen in self.table["attrs"]], axis=-1)
        draws[..., self.one_hot] = np.trunc(draws[..., self.one_hot])
        jitter = self.rng.random((n, E))
        indices = np.flatnonzero(online)
        rec = self.open[w] = _Window((w + 1) * T + cfg.grace, n, len(self.lanes))
        rec.online = online
        if w == 0:
            # no assembly precedes window 0 to compute its base
            self._mask_base(0)
        catch_up = {}
        step = max(1, SLAB_BYTES // (L * self.width * 8))
        for lo in range(0, len(indices), step):
            slab = indices[lo : lo + step]
            block = self._encode_window(slab, draws)
            rec.plain[slab] = block[:, :E, self.lanes].sum(axis=1)
            t0 = time.perf_counter()
            catch_up.update(self._encrypt_chunk(w, slab, block))
            rec.t_encrypt += time.perf_counter() - t0
            rec.sums[slab] = block[:, :, self.lanes].sum(axis=1)
        prev = self.open.get(w - 1)  # open until at least this window's start, as grace > 0
        for si, ct in catch_up.items():
            rec.bytes_producer += ct.wire_size()
            arrival = self.transport.send(ct.wire_size(), w * T)
            if ct.t_prev == (w - 1) * L and arrival is not None and arrival < prev.deadline:
                prev.sums[si] = ct.body[self.lanes]
                prev.arrived[si] = L
        times = w * T + (np.arange(E) + 0.1 + 0.8 * jitter[indices]) * T / (L + 1)
        order = np.argsort(times, axis=None, kind="stable")  # ties in (stream, event) order
        rows, times = np.repeat(indices, E)[order], times.ravel()[order]
        self.scheduler.at(w * T, lambda: self._send_pieces(rec, rows, times))
        ends = np.full(len(indices), (w + 1) * T)
        self.scheduler.at((w + 1) * T, lambda: self._send_pieces(rec, indices, ends, 16))
        self.scheduler.at(rec.deadline, lambda: self._assemble(w))

    def _encode_window(self, indices: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """The window's plaintext events of the plan members `indices` as
        one streams x (events + border) x width block, in one pass of the
        schema's `SlabEncoder` over their draws (streams x events x
        attributes); the border event is neutral."""
        E = self.config.events_per_window
        block = np.empty((len(indices), E + 1, self.width), dtype=np.uint64)
        self.encoder.encode(draws[indices], out=block[:, :E])
        block[:, E] = self.neutral
        return block

    def _encrypt_chunk(self, w: int, chunk: np.ndarray, block: np.ndarray) -> dict:
        """Encrypt window w's `block` of the streams `chunk` in place with
        one `encrypt_block` pass, and advance their clocks and held keys.
        First, in one batch each, derive the key at 0 of the streams never
        online before and encrypt a neutral catch-up event to the window's
        start for the streams whose clock is behind it. Returns those
        catch-up ciphertexts by plan member."""
        L = self.config.logical_window
        streams = self.plans[0].plan.members
        masters = [self.masters[streams[si]] for si in chunk]
        clocks = self.clock[chunk]
        keys = self.last_key[chunk]
        fresh = np.flatnonzero(clocks == 0)
        if len(fresh):
            keys[fresh] = derive_keys(
                [masters[r] for r in fresh], (0,), self.width, prf=self.prf
            )[:, 0]
        catch_up = {}
        behind = np.flatnonzero(clocks != w * L)
        if len(behind):
            neutral = np.tile(self.neutral, (len(behind), 1, 1))
            keys[behind] = encrypt_block(
                [masters[r] for r in behind], keys[behind], (w * L,), neutral, prf=self.prf
            )
            for r, body in zip(behind, neutral[:, 0]):
                catch_up[chunk[r]] = StreamCiphertext(int(clocks[r]), w * L, body)
        times = range(w * L + 1, (w + 1) * L + 1)
        self.last_key[chunk] = encrypt_block(masters, keys, times, block, prf=self.prf)
        self.clock[chunk] = (w + 1) * L
        return catch_up

    def _send_pieces(self, rec: _Window, rows: np.ndarray, times: np.ndarray, heartbeat=0):
        """Send stream rows[k]'s piece of the window `rec` at times[k], in
        order, each followed by a `heartbeat`-byte liveness beacon if
        nonzero, and count the pieces that arrive strictly before the
        deadline (assembly wins a tie), and mark the streams of lost pieces."""
        landed, lost = [], []
        for si, t in zip(rows.tolist(), times.tolist()):
            arrival = self.transport.send(self.event_bytes, t)
            if arrival is None:
                lost.append(si)
            elif arrival < rec.deadline:
                landed.append(si)
            if heartbeat:
                self.transport.send(heartbeat, t)
        rec.arrived += np.bincount(landed, minlength=len(rec.arrived))
        rec.lost[lost] = True
        rec.bytes_producer += len(rows) * (self.event_bytes + heartbeat)

    # -- server + controllers --------------------------------------------------

    def _assemble(self, w: int):
        """Close window w: a stream of the record is a member exactly when
        all L of its pieces arrived before the deadline. For each plan with
        pairs the server broadcasts the change from the plan's last
        membership (window 0's from its members, which the plan broadcast
        lists), whatever this window's status: the release corrects the
        window's base masks by it, and the next window's base masks are
        computed over this window's members, which the controllers learn
        from that delta. Then each plan is released: the first plan's
        outcome is the window's, and a later plan's is reported in it."""
        rec = self.open.pop(w)
        arrived = rec.arrived == self.config.logical_window
        bytes_server = 0
        for p in self.plans:
            members = arrived[p.rows]
            if p.pairs is not None:
                joined = frozenset(compress(p.parties, members & ~p.members))
                dropped = frozenset(compress(p.parties, p.members & ~members))
                bytes_server += p.plan_bytes if w == 0 else 0
                if joined or dropped:
                    bytes_server += MembershipDelta(w, joined, dropped).wire_size()
            p.members = members

        result = WindowResult(
            w, "ok", int(np.count_nonzero(arrived)),
            bytes_producer=rec.bytes_producer,
            bytes_server=bytes_server,
            t_encrypt=rec.t_encrypt,
            t_base=rec.t_base,
            overhead_factor=self.overhead_factor,
        )
        # each stream of the record that is no member, under the first
        # reason that applies: offline for the window, a piece lost, or a
        # piece late
        offline = int(np.count_nonzero(~arrived & ~rec.online))
        lost = int(np.count_nonzero(~arrived & rec.online & rec.lost))
        late = len(arrived) - result.members - offline - lost
        result.extras["missing"] = {"offline": offline, "lost": lost, "late": late}

        prf0 = self.prf.calls
        first, *later = self.plans
        self._release(first, w, rec, result)
        for p in later:
            outcome = WindowResult(w, "ok", int(np.count_nonzero(p.members)))
            self._release(p, w, rec, outcome)
            self._report(p, outcome, result)

        rec.prf_calls += self.prf.calls - prf0
        result.prf_calls = rec.prf_calls
        result.additions = rec.additions
        self.results.append(result)
        if w + 1 < self.config.windows:
            self._mask_base(w + 1)

    def _mask_base(self, w: int):
        """Compute window w's base masks for every plan with pairs, over
        the membership its next delta is measured against: every plan
        member for window 0, computed as it opens, and the last window's
        members for window w ≥ 1, computed right after window w − 1's
        assembly. The zeph epoch plan, dream's selection draws and the
        masks are spent here, so that window w's release applies only the
        membership delta. Their PRF blocks, additions and time go on window
        w's record, open since w·T."""
        rec = self.open[w]
        prf0, t0 = self.prf.calls, time.perf_counter()
        for p in [p for p in self.plans if p.pairs is not None]:
            width = p.plan.output_width
            p.base = mask_base(
                p.pairs, p.members, w, width,
                plan=p.zeph_plan(w, self.prf), threshold=p.threshold, prf=self.prf,
            )
            rec.additions += 2 * p.base.changed * width
        rec.prf_calls += self.prf.calls - prf0
        rec.t_base += time.perf_counter() - t0

    def _controller_tokens(self, p: _Plan, w: int, members: np.ndarray):
        """Build, noise and mask plan `p`'s window-w tokens for the members
        `members` (a boolean per plan member) as one masked batch.

        Missing or stale base masks (for a plan with pairs) or a second
        claim of the plan's window token raise before any key is derived,
        and a refused release records no claim. Then each step is a fixed
        number of array operations however many partitions and parties
        there are: one membership delta over the base masks (`mask_delta`:
        selection only for edges new to the round, masks only for edges
        that changed), which leaves a partition without members out; if it
        leaves a member without a pair, whose token would go out unmasked,
        nothing more. Else one token batch over the members' streams, one
        noise pass drawing each member's share under its own noise key,
        sized for the window's members, the delta added, and one masked
        batch in plan order and its wire encode, or for a plan of one
        member the one-stream token's. Returns the masked batch (None when
        refused), the bytes sent, the delta's ring additions and the
        members left without a pair. Charging budgets is the caller's.
        """
        L = self.config.logical_window
        window = (w * L, (w + 1) * L)
        if p.pairs is not None and (p.base is None or p.base.round_index != w):
            raise RuntimeError(f"no base masks for window {w}")
        # the one-token rule: fresh key material for a released window
        # would widen what it reveals
        claim = (p.plan.plan_id, window)
        if claim in self.minted:
            raise RuntimeError(f"token already minted for {claim}")
        self.minted.add(claim)
        width = p.plan.output_width
        masks = None
        additions = isolated = 0
        if p.pairs is not None:
            base, p.base = p.base, None
            bounds = p.pairs.bounds
            idle = ~np.repeat(np.logical_or.reduceat(members, bounds[:-1]), np.diff(bounds))
            if idle.any():
                base = base._replace(live=base.live & ~idle)
            masks = mask_delta(
                p.pairs, base, members,
                plan=p.zeph_plan(w, self.prf), threshold=p.threshold, prf=self.prf,
            )
            additions = 2 * masks.changed * width
            isolated = int(np.count_nonzero(members & (masks.degree == 0)))
            if isolated:
                return None, 0, additions, isolated
        streams = tuple(compress(p.plan.members, members))
        masters = [self.masters[sid] for sid in streams]
        values = token_matrix(
            masters, window, p.plan.directives, layout=p.plan.token_layout, prf=self.prf
        )
        if p.plan.dp_epsilon is not None:
            normals = noise_normals(p.noise_keys[members], w, width, prf=self.prf)
            values += noise_shares(p.window_noise(members), normals)
        if masks is not None:
            values += masks.nonces[members]
        masked = MaskedBatch(
            round_index=w,
            epoch_id=p.epoch(w),
            window=window,
            parties=tuple(compress(p.parties, members)),
            stream_set_ids=tuple(compress(p.set_ids, members)),
            elements=values,
            noised=p.plan.dp_epsilon is not None,
            stream_ids=streams,
        )
        if masks is None:  # the one-stream token's wire record, no masked header
            sent = token_records(window, masked.stream_set_ids, values).nbytes
        else:
            sent = len(masked.serialize())
        return masked, sent, additions, isolated

    def _release(self, p: _Plan, w: int, rec: _Window, result: WindowResult):
        """Release plan `p`'s window w over its members `p.members` into
        `result`, or record why not: too few members, an epsilon budget
        that cannot pay, or a member the delta left without a pair. A
        release is unmasked, merged, opened and decoded, and its shadow
        verdict is recorded."""
        members = p.members
        if np.count_nonzero(members) < p.plan.min_members:
            result.status = "failed_min_members"
            return
        eps = p.plan.dp_epsilon
        # tiny tolerance so budgets sized as k * eps survive float sums
        if eps is not None and np.any(p.spent[members] + eps > p.epsilon_limit[members] + 1e-9):
            # one exhausted member suppresses the whole window before any
            # token is built, so no member's budget is charged
            result.status = "suppressed"
            result.extras["suppressed"] = "epsilon budget exhausted"
            return
        t0 = time.perf_counter()
        masked, sent, additions, isolated = self._controller_tokens(p, w, members)
        result.t_token = time.perf_counter() - t0
        rec.additions += additions
        result.extras["isolated"] = isolated
        if masked is None:
            # an unpaired member's token would go out unmasked: withhold the batch
            result.status = "isolated_member"
            return
        if eps is not None:
            p.spent[members] += eps
        result.bytes_controller += sent

        t0 = time.perf_counter()
        active = list(compress(p.plan.members, members))
        combined = unmask_aggregate(masked, stream_ids=active)
        # the members' window sums share the window's range
        body = rec.sums[p.rows[members]].sum(axis=0)
        merged = merge_elements(StreamCiphertext(*masked.window, body), p.layout)
        released_total = apply_token(merged, combined, stream_set_id=stream_set_hash(active))
        result.t_unmask = time.perf_counter() - t0

        result.released = released_total
        warnings = {}
        for spec in p.plan.outputs:
            stats = decode_stats(released_total[spec.out_start : spec.out_stop], spec.decode)
            headline = _FUNCTIONS[spec.function][-1]
            result.outputs[spec.name] = headline(stats, spec.param)
            if stats.warnings:
                warnings[spec.name] = list(stats.warnings)
        if warnings:
            # a wrapped count, bin or sum of squares decodes to a wrong value
            result.status = "decode_warning"
            result.extras["decode_warnings"] = warnings
        result.shadow_ok = released_total == self._shadow(p, w, members, rec.plain)
        self.verdicts.append(result.shadow_ok)

    def _shadow(self, p: _Plan, w: int, members: np.ndarray, plain: np.ndarray) -> list[int]:
        """Plaintext recomputation of plan `p`'s released vector, noise
        included, from the record's plaintext sums `plain`. A member that
        spent the window offline contributed one neutral catch-up event,
        i.e. its zero row of `plain`."""
        # uint64 sums wrap exactly as the ring does
        total = plain[p.rows[members]].sum(axis=0)
        out = np.add.reduceat(total[p.layout.sources], p.layout.offsets)
        if p.plan.dp_epsilon is not None:
            # every member's draw again, in one pass
            normals = noise_normals(p.noise_keys[members], w, len(out), prf=self.prf)
            out += noise_shares(p.window_noise(members), normals).sum(axis=0)
        return out.tolist()

    def _report(self, p: _Plan, outcome: WindowResult, result: WindowResult):
        """Report a later plan's release `outcome` in the window's `result`:
        its bytes, and under `extras["per_user"]` either `no_data`, when
        none of its members' chains assembled, or its status, stream,
        headline and shadow verdict, with its decode warnings if any. A
        refusal, a decode warning or a shadow mismatch of its own fails a
        window that was `ok`."""
        result.bytes_controller += outcome.bytes_controller
        if not outcome.members:
            result.extras["per_user"] = {"status": "no_data"}
            return
        headline = next(iter(outcome.outputs.values()), None)
        report = result.extras["per_user"] = {"status": outcome.status, "stream": p.plan.members[0]}
        report.update(headline=headline, shadow_ok=outcome.shadow_ok)
        if "decode_warnings" in outcome.extras:
            report["decode_warnings"] = outcome.extras["decode_warnings"]
        if result.status == "ok" and outcome.status != "ok":
            result.status = outcome.status
        elif result.status == "ok" and outcome.shadow_ok is False:
            result.status = "per_user_mismatch"

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
        first = self.plans[0]
        summary = {
            "preset": self.schema.name,
            "protocol": self.config.protocol,
            "seed": self.config.seed,
            "producers": self.config.producers,
            "plan_members": len(first.plan.members),
            "partitions": len(first.partitions),
            "output_width": first.plan.output_width,
            "stream_width": self.width,
            "windows": self.config.windows,
            "windows_ok": ok,
            "liveness": ok / max(1, self.config.windows),
            "shadow_ok": all(self.verdicts),
            "prf_calls_total": self.prf.calls,
            "prf_calls_setup": self.prf_calls_setup,
            "additions_total": sum(r.additions for r in self.results),
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
            plan_members=len(first.plan.members),
            output_width=first.plan.output_width,
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
