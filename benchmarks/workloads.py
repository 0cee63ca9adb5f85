"""The benchmark's workloads: the `SimConfig` fields of each.

Why each workload exists, and which layer it stresses, is in README.md.
Every run passes `parallel=False`: the benchmark measures one process
with no threads. Window counts are small so that one repeat lasts a few
seconds and rarely spans a change of host speed (see speed.py); window 0
is reported on its own, so each repeat has at least one window after it.
"""

WORKLOADS = {
    # 683 lanes, 18 attributes, 107 outputs: tokens, encoding and producer
    # encryption dominate; zeph plans its epoch in window 0.
    "fleet-wide": dict(preset="fitness", protocol="zeph", producers=300, partition_size=100, windows=3),
    # One partition of 300: every pair masks every round on 33-lane tokens.
    "mask-dense": dict(preset="car", protocol="clique", producers=300, partition_size=300, windows=3),
    # Setup grows quadratically with population through verify_plan; DP
    # noise, dream selection and membership churn. The dropout rate stays
    # at 0.02: at 0.05 the last window of every run misses its members'
    # catch-up events and is refused for min_members (see README.md).
    "population-churn": dict(
        preset="web", protocol="dream", producers=1500, partition_size=100,
        drop_rate=0.01, dropout_rate=0.02, windows=2,
    ),
}

# --smoke: one partition of 60 producers, two windows, for every workload,
# at SimConfig's default loss: with population-churn's loss, 60 producers
# miss min_members in some windows, and a smoke run must release window 1.
SMOKE = dict(producers=60, partition_size=60, windows=2, drop_rate=0.001, dropout_rate=0.01)
