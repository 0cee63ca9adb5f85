"""Print one SHA-256 digest per scenario configuration, then one for the planner.

A scenario digest covers every window's status, members, released vector,
outputs, PRF blocks, additions, three byte counts, shadow verdict and
extras, and the run summary without its wall time. The planner digest
covers acceptance 11's 500 random fixtures, replayed as that test plays
them: each plan's fields or rejection's reason and detail, the re-plan and
retry outcomes, the epsilon the ledger holds spent, and every controller
verdict. Two trees whose digests agree on every line produce the same
runs and plans, so a change meant to keep outputs bit-identical quotes
this script's output for both.

    PYTHONPATH=src python3 tests/fingerprint.py

Pytest does not collect this file; it runs as a script.
"""

import dataclasses
import hashlib
import json

import numpy as np

from test_acceptance import _random_annotations, _random_query, _random_schema
from veilstream.pipeline import SimConfig, run_scenario
from veilstream.policy import (
    Rejection,
    ReservationLedger,
    plan_query,
    release_reservation,
    verify_plan,
)
from veilstream.secure_agg import IdentityRegistry, PartyId, PublicIdentity
from veilstream.tokens import release

# the benchmark's three workloads at seeds 1 and 2, as benchmarks/workloads.py
# defines them, then one churning run per preset and protocol
WORKLOADS = {
    "fleet-wide": dict(
        preset="fitness", protocol="zeph", producers=300, partition_size=100, windows=3
    ),
    "mask-dense": dict(
        preset="car", protocol="clique", producers=300, partition_size=300, windows=3
    ),
    "population-churn": dict(
        preset="web", protocol="dream", producers=1500, partition_size=100,
        drop_rate=0.01, dropout_rate=0.02, windows=2,
    ),
}
CONFIGURATIONS = {
    **{
        f"{name} seed {seed}": dict(fields, seed=seed)
        for name, fields in WORKLOADS.items()
        for seed in (1, 2)
    },
    "fitness/clique 120 churn 0.15": dict(
        preset="fitness", protocol="clique", producers=120, dropout_rate=0.15
    ),
    "web/zeph 120 churn 0.08": dict(
        preset="web", protocol="zeph", producers=120, dropout_rate=0.08
    ),
    "car/dream 90 by 30 churn 0.10": dict(
        preset="car", protocol="dream", producers=90, partition_size=30, dropout_rate=0.10
    ),
}

WINDOW_FIELDS = (
    "window", "status", "members", "released", "outputs", "prf_calls", "additions",
    "bytes_producer", "bytes_controller", "bytes_server", "shadow_ok", "extras",
)


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} has no fingerprint")


def fingerprint(config: SimConfig) -> str:
    result = run_scenario(config)
    doc = {
        "windows": [{f: getattr(w, f) for f in WINDOW_FIELDS} for w in result.windows],
        "summary": {k: v for k, v in result.summary.items() if k != "wall_seconds"},
    }
    text = json.dumps(doc, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _verdicts(plan, schema, annotations) -> list:
    """Every member owner's verdict, owners in byte order, as acceptance 11
    asks them: with a registry of every owner and, for a DP plan, ample
    remaining epsilon."""
    registry = IdentityRegistry()
    for owner in {a.owner_id for a in annotations}:
        registry.register(PublicIdentity(PartyId(owner), owner))
    epsilon = None
    if plan.dp_epsilon is not None:
        epsilon = {(sid, o.attribute): 1000.0 for sid in plan.members for o in plan.outputs}
    owners = sorted({a.owner_id for a in annotations if a.stream_id in plan.members})
    return [
        repr(verify_plan(
            plan, schema, {a.stream_id: a for a in annotations if a.owner_id == owner},
            registry=registry, remaining_epsilon=epsilon,
        ))
        for owner in owners
    ]


def planner_fingerprint() -> str:
    rng = np.random.default_rng(1111)
    doc = []
    emitted = 0
    for idx in range(500):
        schema = _random_schema(rng, idx)
        annotations = _random_annotations(rng, schema, idx)
        query = _random_query(rng, schema, idx)
        ledger = ReservationLedger()
        plan = plan_query(query, schema, annotations, ledger)
        record = [repr(plan)]
        doc.append(record)
        if isinstance(plan, Rejection):
            continue
        emitted += 1
        record.append(_verdicts(plan, schema, annotations))
        if emitted % 4 == 0:
            bad = dataclasses.replace(plan, directives=plan.directives + (release(),))
            record.append(_verdicts(bad, schema, annotations))
        held = sorted({(m, item.attribute) for m in plan.members for item in query.select})
        if plan.dp_epsilon is None:
            again = plan_query(query, schema, annotations, ledger)
            record.append(repr(again))
            if not isinstance(again, Rejection):
                release_reservation(ledger, again.plan_id)
            release_reservation(ledger, plan.plan_id)
            release_reservation(ledger, plan.plan_id)
            retry = plan_query(query, schema, annotations, ledger)
            record.append(repr(retry))
            if not isinstance(retry, Rejection):
                release_reservation(ledger, retry.plan_id)
        else:
            release_reservation(ledger, plan.plan_id)
            again = plan_query(query, schema, annotations, ledger)
            record.append(repr(again))
            if not isinstance(again, Rejection):
                release_reservation(ledger, again.plan_id)
        record.append([ledger.dp_spent(pair) for pair in held])
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def main():
    for name, fields in CONFIGURATIONS.items():
        print(f"{fingerprint(SimConfig(**fields))}  {name}", flush=True)
    print(f"{planner_fingerprint()}  planner: acceptance 11's 500 fixtures", flush=True)


if __name__ == "__main__":
    main()
