"""Encoding round-trips checked against plaintext oracles.

Every decode path is compared with statistics computed directly on the
raw values (or their fixed-point quantizations), never against the
encoder's own arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream.encoding import (
    LANES,
    DecodedStats,
    EncodingSpec,
    OverflowBudgetError,
    check_overflow_budget,
    decode_stats,
    encode,
    encode_batch,
    encode_neutral,
)
from veilstream.ring import MODULUS_DEFAULT

M = MODULUS_DEFAULT


def ring_sum(vectors):
    acc = np.zeros_like(vectors[0])
    for v in vectors:
        acc = acc + v  # uint64 arithmetic wraps mod 2**64 on its own
    return acc


# ---- spec validation -------------------------------------------------------


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown encoding kind"):
        EncodingSpec("average")


def test_spec_rejects_bad_scale():
    with pytest.raises(ValueError, match="scale"):
        EncodingSpec("sum", scale=0)
    with pytest.raises(ValueError, match="scale"):
        EncodingSpec("sum", scale=2.5)


def test_one_hot_domain_validation():
    with pytest.raises(ValueError, match="domain_min and domain_max"):
        EncodingSpec("one_hot", domain_min=0)
    with pytest.raises(ValueError, match="integers"):
        EncodingSpec("one_hot", domain_min=0.5, domain_max=3)
    with pytest.raises(ValueError, match="empty"):
        EncodingSpec("one_hot", domain_min=5, domain_max=2)


def test_histogram_domain_validation():
    with pytest.raises(ValueError, match="histogram needs"):
        EncodingSpec("histogram", domain_min=0, domain_max=10)
    with pytest.raises(ValueError, match="empty or bin_width"):
        EncodingSpec("histogram", domain_min=0, domain_max=10, bin_width=0)
    with pytest.raises(ValueError, match="empty or bin_width"):
        EncodingSpec("histogram", domain_min=10, domain_max=10, bin_width=1)


def test_predicate_needs_threshold():
    with pytest.raises(ValueError, match="threshold"):
        EncodingSpec("predicate_threshold")


def test_widths():
    assert EncodingSpec("sum").width == 1
    assert EncodingSpec("sum_count").width == 2
    assert EncodingSpec("variance").width == 3
    assert EncodingSpec("predicate_threshold", threshold=5).width == 2
    assert EncodingSpec("one_hot", domain_min=2, domain_max=6).width == 5
    # 0..10 in steps of 3 -> ceil(10/3) = 4 bins
    assert EncodingSpec("histogram", domain_min=0, domain_max=10, bin_width=3).width == 4


@pytest.mark.parametrize("kind", list(LANES))
def test_encode_batch_writes_each_lane_the_table_names(kind):
    spec = EncodingSpec(kind, threshold=5.0 if kind == "predicate_threshold" else None)
    values = [3.25, 7.5, -2.5]  # below and above the threshold, and negative
    rows = encode_batch(values, spec)
    assert rows.shape == (3, spec.width) and spec.width == len(LANES[kind])
    for v, row in zip(values, rows):
        q = round(v * spec.scale)
        lane = {
            "sum": q,
            "sum_sq": q * q,
            "count": 1,
            "above": q if v >= 5 else 0,
            "below": 0 if v >= 5 else q,
        }
        assert [int(x) for x in row] == [lane[name] % M for name in LANES[kind]]


def test_bin_values():
    oh = EncodingSpec("one_hot", domain_min=3, domain_max=7)
    assert oh.bin_value(0) == 3
    assert oh.bin_value(4) == 7
    h = EncodingSpec("histogram", domain_min=0, domain_max=10, bin_width=2)
    assert h.bin_value(0) == 1.0
    assert h.bin_value(4) == 9.0
    with pytest.raises(ValueError, match="no bins"):
        EncodingSpec("sum").bin_value(0)


# ---- scalar encodings vs plaintext oracles ---------------------------------


def test_sum_of_integers_is_exact():
    spec = EncodingSpec("sum")
    values = [17, -4, 0, 250, -31]
    agg = ring_sum([encode(v, spec) for v in values])
    stats = decode_stats(agg, spec)
    assert stats.total == sum(values)
    assert stats.warnings == ()


def test_sum_count_mean_matches_quantized_values():
    spec = EncodingSpec("sum_count")
    values = [1.25, 3.333, -0.004, 7.5]
    agg = ring_sum([encode(v, spec) for v in values])
    stats = decode_stats(agg, spec)
    quantized = [round(v * spec.scale) for v in values]
    assert stats.count == len(values)
    assert stats.total == pytest.approx(sum(quantized) / spec.scale, abs=1e-12)
    assert stats.mean == pytest.approx(sum(quantized) / spec.scale / len(values), abs=1e-12)
    # the fixed-point grid bounds the error against the raw mean
    assert abs(stats.mean - sum(values) / len(values)) <= 1 / spec.scale


def test_mean_of_empty_window_is_none():
    spec = EncodingSpec("sum_count")
    stats = decode_stats(encode_neutral(spec), spec)
    assert stats.count == 0
    assert stats.mean is None


@given(
    values=st.lists(
        st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_variance_matches_exact_fraction_oracle(values):
    spec = EncodingSpec("variance")
    agg = ring_sum([encode(v, spec) for v in values])
    stats = decode_stats(agg, spec)

    # exact oracle over the quantized values, in rational arithmetic
    qs = [round(v * spec.scale) for v in values]
    n = len(qs)
    mean = Fraction(sum(qs), spec.scale * n)
    sumsq = Fraction(sum(q * q for q in qs), spec.scale * spec.scale)
    expect = sumsq / n - mean * mean

    assert stats.count == n
    assert stats.variance == pytest.approx(float(expect), abs=1e-9)
    assert stats.variance >= -1e-9


def test_predicate_threshold_splits_sums():
    spec = EncodingSpec("predicate_threshold", threshold=10)
    values = [3, 10, 25, 9.99, -2]
    agg = ring_sum([encode(v, spec) for v in values])
    stats = decode_stats(agg, spec)
    above = sum(v for v in values if v >= 10)
    below = sum(v for v in values if v < 10)
    assert stats.sum_above == pytest.approx(above, abs=1 / spec.scale * len(values))
    assert stats.sum_below == pytest.approx(below, abs=1 / spec.scale * len(values))
    # the boundary value lands in the "above" lane
    solo = decode_stats(encode(10, spec), spec)
    assert solo.sum_above == 10 and solo.sum_below == 0


def test_one_hot_counts_and_input_checks():
    spec = EncodingSpec("one_hot", domain_min=1, domain_max=5)
    values = [1, 3, 3, 5, 2, 3]
    agg = ring_sum([encode(v, spec) for v in values])
    stats = decode_stats(agg, spec)
    assert stats.bins == (1, 1, 3, 0, 1)
    assert stats.count == len(values)
    assert stats.mode == 3
    with pytest.raises(ValueError, match="integer"):
        encode(2.5, spec)
    with pytest.raises(ValueError, match="outside one_hot domain"):
        encode(6, spec)


def test_histogram_binning_and_top_edge_clamp():
    spec = EncodingSpec("histogram", domain_min=0, domain_max=10, bin_width=2.5)
    assert spec.width == 4
    assert np.argmax(encode(0, spec)) == 0
    assert np.argmax(encode(2.5, spec)) == 1
    assert np.argmax(encode(9.99, spec)) == 3
    # domain_max itself is admitted and clamps into the final bin
    assert np.argmax(encode(10, spec)) == 3
    with pytest.raises(ValueError, match="outside histogram domain"):
        encode(10.01, spec)
    with pytest.raises(ValueError, match="outside histogram domain"):
        encode(-0.5, spec)


# ---- order statistics vs brute force ----------------------------------------


@given(
    values=st.lists(st.integers(min_value=0, max_value=19), min_size=0, max_size=60),
    q=st.floats(min_value=0.5, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_histogram_order_statistics_match_brute_force(values, q):
    spec = EncodingSpec("histogram", domain_min=0, domain_max=20, bin_width=4)
    if values:
        agg = ring_sum([encode(v, spec) for v in values])
    else:
        agg = encode_neutral(spec)
    stats = decode_stats(agg, spec)

    # brute force: replace each value by its bin representative
    reprs = sorted(
        spec.bin_value(min(int((v - 0) // 4), spec.width - 1)) for v in values
    )
    if not reprs:
        assert stats.mode is None
        assert stats.minimum is None and stats.maximum is None
        assert stats.value_range is None
        assert stats.percentile(q) is None
        return

    assert stats.minimum == reprs[0]
    assert stats.maximum == reprs[-1]
    assert stats.value_range == reprs[-1] - reprs[0]
    rank = max(1, math.ceil(q / 100 * len(reprs)))
    assert stats.percentile(q) == reprs[rank - 1]
    assert stats.median == stats.percentile(50)

    # mode: largest count, ties broken toward the lower representative
    counts = {}
    for r in reprs:
        counts[r] = counts.get(r, 0) + 1
    best = min(counts, key=lambda r: (-counts[r], r))
    assert stats.mode == best


def test_top_bins_orders_by_count_then_position():
    spec = EncodingSpec("one_hot", domain_min=0, domain_max=4)
    values = [4, 4, 1, 1, 3]
    stats = decode_stats(ring_sum([encode(v, spec) for v in values]), spec)
    assert stats.top_bins(2) == [(1, 2), (4, 2)]
    assert stats.top_bins(10) == [(1, 2), (4, 2), (3, 1)]


def test_percentile_argument_validation():
    spec = EncodingSpec("one_hot", domain_min=0, domain_max=1)
    stats = decode_stats(encode(0, spec), spec)
    with pytest.raises(ValueError, match="percentile"):
        stats.percentile(0)
    with pytest.raises(ValueError, match="percentile"):
        stats.percentile(100.5)
    assert stats.percentile(100) == 0


def test_order_statistics_refused_without_bins():
    stats = decode_stats(encode(5, EncodingSpec("sum")), EncodingSpec("sum"))
    with pytest.raises(ValueError, match="no bins"):
        stats.mode
    with pytest.raises(ValueError, match="no bins"):
        stats.percentile(50)


# ---- signedness and wraparound ----------------------------------------------


def test_negative_totals_survive_the_ring():
    spec = EncodingSpec("sum_count")
    values = [-1000.5, -2.25, 3.0]
    agg = ring_sum([encode(v, spec) for v in values])
    stats = decode_stats(agg, spec)
    assert stats.total == pytest.approx(sum(values), abs=1e-9)


def test_wrapped_count_is_flagged_not_trusted():
    spec = EncodingSpec("sum_count")
    stats = decode_stats([500, M - 5], spec)
    assert any("wrapped past M/2" in w for w in stats.warnings)
    assert stats.count == -5


def test_wrapped_sum_of_squares_is_flagged():
    spec = EncodingSpec("variance")
    # 160 events of q = 3e8 square to 1.44e19: past M/2 but below M
    agg = ring_sum([encode(3e6, spec)] * 160)
    assert M // 2 < int(agg[1]) < M
    stats = decode_stats(agg, spec)
    assert stats.warnings == ("sum of squares wrapped past M/2; window likely overflowed",)
    assert stats.variance < 0
    ok = decode_stats(ring_sum([encode(3e6, spec)] * 100), spec)
    assert ok.warnings == ()
    assert ok.variance == pytest.approx(0.0, abs=1e-3)


def test_wrapped_bin_is_flagged():
    spec = EncodingSpec("one_hot", domain_min=0, domain_max=2)
    stats = decode_stats([1, M - 3, 0], spec)
    assert any(w.startswith("bin 1 wrapped") for w in stats.warnings)


def test_decode_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        decode_stats([1, 2, 3], EncodingSpec("sum_count"))


def test_neutral_vector_is_additive_identity():
    spec = EncodingSpec("variance")
    base = encode(12.5, spec)
    padded = ring_sum([base, encode_neutral(spec), encode_neutral(spec)])
    assert decode_stats(padded, spec) == decode_stats(base, spec)


# ---- overflow budget ---------------------------------------------------------


def test_overflow_budget_passes_reasonable_configs():
    check_overflow_budget(EncodingSpec("sum"), max_events=10**6, max_magnitude=10**6)
    check_overflow_budget(
        EncodingSpec("histogram", domain_min=0, domain_max=10, bin_width=1),
        max_events=M // 2 - 1,
        max_magnitude=10,
    )


def test_overflow_budget_squares_variance_magnitudes():
    spec = EncodingSpec("variance")
    # q = 10**8 * 100 = 10**10, q**2 = 10**20 > M/2 even for one event
    with pytest.raises(OverflowBudgetError, match="half the modulus"):
        check_overflow_budget(spec, max_events=1, max_magnitude=10**8)
    # the same magnitude passes for plain sums
    check_overflow_budget(EncodingSpec("sum"), max_events=1, max_magnitude=10**8)


def test_overflow_budget_rejects_zero_events():
    with pytest.raises(ValueError, match="max_events"):
        check_overflow_budget(EncodingSpec("sum"), max_events=0, max_magnitude=1)


# ---- cross-kind additivity property ------------------------------------------


@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=20,
    ),
    split=st.integers(min_value=1, max_value=19),
)
@settings(max_examples=60, deadline=None)
def test_partial_sums_compose(values, split):
    """Aggregating in two batches then adding equals one-shot aggregation."""
    split = min(split, len(values) - 1)
    spec = EncodingSpec("sum_count")
    left = ring_sum([encode(v, spec) for v in values[:split]])
    right = ring_sum([encode(v, spec) for v in values[split:]])
    whole = ring_sum([encode(v, spec) for v in values])
    assert np.array_equal(left + right, whole)
    assert decode_stats(left + right, spec) == decode_stats(whole, spec)
