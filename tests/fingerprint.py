"""Print one SHA-256 digest per scenario configuration.

A digest covers every window's status, members, released vector,
outputs, PRF blocks, additions, three byte counts, shadow verdict and
extras, and the run summary without its wall time. Two trees whose
digests agree on every configuration produce the same runs, so a change
meant to keep outputs bit-identical quotes this script's output for both.

    PYTHONPATH=src python3 tests/fingerprint.py

Pytest does not collect this file; it runs as a script.
"""

import hashlib
import json

import numpy as np

from veilstream.pipeline import SimConfig, run_scenario

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


def main():
    for name, fields in CONFIGURATIONS.items():
        print(f"{fingerprint(SimConfig(**fields))}  {name}", flush=True)


if __name__ == "__main__":
    main()
