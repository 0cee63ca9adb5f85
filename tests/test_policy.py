"""Schema parsing, query planning, reservations, and controller verification."""

import copy
import dataclasses
import hashlib
import re
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream.encoding import KINDS, decode_stats, encode_batch
from veilstream.policy import (
    _FUNCTIONS,
    _HISTOGRAM_FUNCTIONS,
    _carries,
    DpRequest,
    Predicate,
    PrivacyOption,
    Query,
    Rejection,
    ReservationLedger,
    SelectItem,
    StreamAnnotation,
    TransformationPlan,
    Verdict,
    parse_query,
    parse_schema,
    plan_query,
    release_reservation,
    verify_plan,
)
from veilstream.secure_agg import IdentityRegistry, PartyId, PublicIdentity
from veilstream.tokens import output_layout, release, withhold

SCHEMA = parse_schema(
    {
        "name": "wearable",
        "metadata": [
            {"name": "region", "type": "string"},
            {"name": "year", "type": "int"},
        ],
        "attributes": [
            {
                "name": "heart_rate",
                "aggregates": ["sum", "count", "avg", "var"],
                "options": [
                    {"kind": "aggregate", "min_population": 3},
                    {"kind": "stream-aggregate", "min_window": 4},
                    {"kind": "private"},
                ],
            },
            {
                "name": "steps",
                "aggregates": ["sum"],
                "options": [
                    {"kind": "aggregate"},
                    {"kind": "dp-aggregate", "epsilon": 1.0},
                ],
            },
            {
                "name": "altitude",
                "aggregates": ["histogram", "median", "mode"],
                "bins": {"min": 0, "max": 100, "width": 5},
                "options": [{"kind": "aggregate", "max_resolution": 10}],
            },
        ],
    }
)

DEFAULT_SELECTED = {
    "heart_rate": "aggregate",
    "steps": "aggregate",
    "altitude": "aggregate",
}


def owner(k: int) -> bytes:
    return hashlib.sha256(f"owner-{k}".encode()).digest()


def annotation(i, selected=None, metadata=None, owner_index=None):
    return StreamAnnotation(
        stream_id=f"stream-{i:03d}",
        schema_name="wearable",
        owner_id=owner(i if owner_index is None else owner_index),
        selected=dict(DEFAULT_SELECTED if selected is None else selected),
        metadata={"region": "eu", "year": 2024, **(metadata or {})},
    )


def avg_query(**kwargs):
    defaults = dict(
        name="hr-avg",
        select=(SelectItem("hr_avg", "heart_rate", "avg"),),
        window=6,
    )
    defaults.update(kwargs)
    return Query(**defaults)


# ---- schema parsing ------------------------------------------------------------


def test_schema_widths_and_slices():
    assert SCHEMA.width == 3 + 1 + 20
    assert SCHEMA.slices == {
        "heart_rate": (0, 3),
        "steps": (3, 4),
        "altitude": (4, 24),
    }
    assert SCHEMA.attribute("steps").encoding.kind == "sum"
    assert SCHEMA.attribute("heart_rate").encoding.kind == "variance"
    assert SCHEMA.attribute("altitude").encoding.kind == "histogram"
    with pytest.raises(KeyError, match="no attribute"):
        SCHEMA.attribute("cadence")
    with pytest.raises(KeyError, match="offers no"):
        SCHEMA.attribute("altitude").option("public")


def test_schema_parsing_from_yaml_text():
    parsed = parse_schema(
        """
        name: tiny
        attributes:
          - name: visits
            aggregates: [count, avg]
            options: [{kind: aggregate}]
        """
    )
    assert parsed.attribute("visits").encoding.kind == "sum_count"


def test_encoding_inference_for_predicates_and_domains():
    schema = parse_schema(
        {
            "name": "s",
            "attributes": [
                {
                    "name": "load",
                    "aggregates": ["sum_above", "sum_below"],
                    "threshold": 0.8,
                    "options": [{"kind": "aggregate"}],
                },
                {
                    "name": "grade",
                    "aggregates": ["mode"],
                    "domain": {"min": 1, "max": 6},
                    "options": [{"kind": "aggregate"}],
                },
            ],
        }
    )
    assert schema.attribute("load").encoding.kind == "predicate_threshold"
    assert schema.attribute("load").encoding.threshold == 0.8
    assert schema.attribute("grade").encoding.kind == "one_hot"
    assert schema.attribute("grade").encoding.width == 6


@pytest.mark.parametrize(
    "aggregates, fields",
    [(["histogram", "avg"], {"bins": {"min": 0, "max": 10, "width": 1}}),
     (["sum", "sum_above"], {"threshold": 5})],
)
def test_a_declaration_no_one_encoding_carries_is_refused(aggregates, fields):
    attribute = {"name": "mixed", "aggregates": aggregates, **fields,
                 "options": [{"kind": "aggregate"}]}
    with pytest.raises(ValueError, match="attribute 'mixed'"):
        parse_schema({"name": "s", "attributes": [attribute]})


def test_schema_parsing_rejects_malformed_documents():
    with pytest.raises(ValueError, match="mapping"):
        parse_schema("just a string")
    with pytest.raises(ValueError, match="needs a name"):
        parse_schema({"attributes": [{}]})
    with pytest.raises(ValueError, match="no stream attributes"):
        parse_schema({"name": "x"})
    base = {"name": "x", "attributes": [{"name": "a", "aggregates": ["sum"]}]}
    with pytest.raises(ValueError, match="no privacy options"):
        parse_schema(base)
    with pytest.raises(ValueError, match="duplicate attribute"):
        parse_schema(
            {
                "name": "x",
                "attributes": [
                    {"name": "a", "aggregates": ["sum"], "options": [{"kind": "aggregate"}]},
                    {"name": "a", "aggregates": ["sum"], "options": [{"kind": "aggregate"}]},
                ],
            }
        )
    with pytest.raises(ValueError, match="unknown aggregate"):
        parse_schema(
            {
                "name": "x",
                "attributes": [
                    {"name": "a", "aggregates": ["mean"], "options": [{"kind": "aggregate"}]}
                ],
            }
        )
    with pytest.raises(ValueError, match="'bins' or 'domain'"):
        parse_schema(
            {
                "name": "x",
                "attributes": [
                    {"name": "a", "aggregates": ["median"], "options": [{"kind": "aggregate"}]}
                ],
            }
        )
    with pytest.raises(ValueError, match="need 'threshold'"):
        parse_schema(
            {
                "name": "x",
                "attributes": [
                    {"name": "a", "aggregates": ["sum_above"], "options": [{"kind": "aggregate"}]}
                ],
            }
        )
    with pytest.raises(ValueError, match="unknown type"):
        parse_schema(
            {
                "name": "x",
                "metadata": [{"name": "m", "type": "blob"}],
                "attributes": [
                    {"name": "a", "aggregates": ["sum"], "options": [{"kind": "aggregate"}]}
                ],
            }
        )


SCHEMA_DOC = {
    "name": "x",
    "metadata": [{"name": "m"}],
    "attributes": [{"name": "a", "aggregates": ["sum"], "options": [{"kind": "aggregate"}]}],
}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["attributes"][0]["options"][0].pop("kind"), "attribute 'a': option needs 'kind'"),
        (lambda d: d["metadata"][0].pop("name"), "metadata field needs 'name'"),
        (lambda d: d["metadata"].__setitem__(0, "m"), "metadata field needs 'name'"),
        (
            lambda d: d["attributes"][0].update(aggregates=["median"], bins={"min": 0, "max": 9}),
            "attribute 'a': bins needs 'width'",
        ),
        (
            lambda d: d["attributes"][0].update(aggregates=["mode"], domain={"min": 0}),
            "attribute 'a': domain needs 'max'",
        ),
    ],
    ids=["option-kind", "metadata-name", "metadata-not-a-mapping", "bins-width", "domain-max"],
)
def test_a_schema_missing_a_key_is_refused_by_name(edit, message):
    doc = copy.deepcopy(SCHEMA_DOC)
    parse_schema(doc)
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_schema(doc)


QUERY_DOC = {
    "window": 5,
    "select": {"x": {"attribute": "a", "function": "sum"}},
    "where": [{"attribute": "m", "equals": 1}],
    "dp": {"epsilon": 0.5},
}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["select"]["x"].pop("attribute"), "select 'x' needs 'attribute'"),
        (lambda d: d["select"]["x"].pop("function"), "select 'x' needs 'function'"),
        (lambda d: d["select"].update(x="a"), "select 'x' needs 'attribute'"),
        (lambda d: d["where"][0].pop("attribute"), "where predicate needs 'attribute'"),
        (lambda d: d.update(dp={"sigma": 20}), "dp needs 'epsilon'"),
        (lambda d: d.pop("window"), "query needs 'window'"),
    ],
    ids=["select-attribute", "select-function", "select-not-a-mapping", "where-attribute",
         "dp-epsilon", "window"],
)
def test_a_query_missing_a_key_is_refused_by_name(edit, message):
    doc = copy.deepcopy(QUERY_DOC)
    parse_query(doc)
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_query(doc)


def test_privacy_option_validation():
    with pytest.raises(ValueError, match="unknown privacy option"):
        PrivacyOption("secret")
    with pytest.raises(ValueError, match="min_population"):
        PrivacyOption("aggregate", min_population=0)
    with pytest.raises(ValueError, match="epsilon_budget"):
        PrivacyOption("dp-aggregate")
    with pytest.raises(ValueError, match="max_resolution"):
        PrivacyOption("aggregate", max_resolution=0)


# ---- query parsing -------------------------------------------------------------


def test_query_parsing_from_yaml():
    query = parse_query(
        """
        name: demo
        window: 12
        max_population: 40
        select:
          hist: {attribute: altitude, function: median, bucket_width: 10}
          hr: {attribute: heart_rate, function: avg}
        where:
          - {attribute: region, equals: eu}
          - {attribute: year, between: [2020, 2025]}
        dp: {epsilon: 0.5, sigma: 20}
        """
    )
    assert query.window == 12
    assert {s.output_name for s in query.select} == {"hist", "hr"}
    assert query.where[0].op == "eq" and query.where[1].op == "range"
    assert query.dp == DpRequest(epsilon_cost=0.5, sigma_target=20)
    with pytest.raises(ValueError, match="'equals' or 'between'"):
        parse_query({"window": 5, "select": {"x": {"attribute": "a", "function": "sum"}},
                     "where": [{"attribute": "a", "above": 3}]})


def test_query_validation():
    with pytest.raises(ValueError, match="selects nothing"):
        Query(name="q", select=(), window=5)
    with pytest.raises(ValueError, match="positive window"):
        avg_query(window=0)
    with pytest.raises(ValueError, match="max_population"):
        avg_query(max_population=0)
    with pytest.raises(ValueError, match="unknown aggregate function"):
        SelectItem("x", "heart_rate", "harmonic_mean")
    with pytest.raises(ValueError, match="epsilon_cost"):
        DpRequest(epsilon_cost=0, sigma_target=1)


def test_predicate_matching():
    a = annotation(1, metadata={"year": 2023})
    assert Predicate("region", "eq", value="eu").matches(a)
    assert not Predicate("region", "eq", value="us").matches(a)
    assert Predicate("year", "range", low=2020, high=2024).matches(a)
    assert not Predicate("missing", "eq", value=1).matches(a)
    assert Predicate("stream_id", "eq", value="stream-001").matches(a)
    # range over a non-numeric subject is just a non-match
    assert not Predicate("region", "range", low=0, high=9).matches(a)
    with pytest.raises(ValueError, match="low and high"):
        Predicate("year", "range", low=3)


# ---- planning: happy paths ------------------------------------------------------


def test_plan_for_population_average():
    ledger = ReservationLedger()
    annotations = [annotation(i) for i in range(5)]
    plan = plan_query(avg_query(), SCHEMA, annotations, ledger)
    assert isinstance(plan, TransformationPlan)
    assert plan.members == tuple(sorted(a.stream_id for a in annotations))
    assert plan.chain == ("window_aggregate", "cross_stream_sum")
    # avg over a variance encoding releases the sum and count elements
    released = [j for j, d in enumerate(plan.directives) if d.action != "withhold"]
    assert released == [0, 2]
    assert plan.layout == ((0,), (2,))
    (out,) = plan.outputs
    assert (out.out_start, out.out_stop) == (0, 2)
    assert out.decode.kind == "sum_count"
    assert plan.output_width == 2
    assert plan.queried_attributes() == ("heart_rate",)
    # reservations were taken atomically for every (member, attribute) pair,
    # and only the holder's release frees them
    pairs = [(m, "heart_rate") for m in plan.members]
    assert all(ledger.is_blocked(pair) for pair in pairs)
    ledger.release("another-plan")
    assert all(ledger.is_blocked(pair) for pair in pairs)
    ledger.release(plan.plan_id)
    assert not any(ledger.is_blocked(pair) for pair in pairs)


def test_output_offsets_follow_element_order_not_select_order():
    ledger = ReservationLedger()
    annotations = [annotation(i) for i in range(4)]
    query = Query(
        name="two",
        select=(
            SelectItem("step_sum", "steps", "sum"),
            SelectItem("hr_avg", "heart_rate", "avg"),
        ),
        window=6,
    )
    plan = plan_query(query, SCHEMA, annotations, ledger)
    by_name = {o.name: o for o in plan.outputs}
    # heart_rate occupies elements 0..2, steps element 3: the released wire
    # order puts heart rate first even though the query listed steps first
    assert (by_name["hr_avg"].out_start, by_name["hr_avg"].out_stop) == (0, 2)
    assert (by_name["step_sum"].out_start, by_name["step_sum"].out_stop) == (2, 3)
    assert [o.name for o in plan.outputs] == ["step_sum", "hr_avg"]
    assert plan.layout == ((0,), (2,), (3,))


def test_bucketed_histogram_merges_bins():
    ledger = ReservationLedger()
    annotations = [annotation(i) for i in range(3)]
    query = Query(
        name="alt",
        select=(SelectItem("alt_med", "altitude", "median", bucket_width=10),),
        window=6,
    )
    plan = plan_query(query, SCHEMA, annotations, ledger)
    alt_start = SCHEMA.slices["altitude"][0]
    assert all(
        plan.directives[alt_start + j].action == "merge" for j in range(20)
    )
    assert plan.output_width == 10  # 20 bins of 5 fused pairwise
    (out,) = plan.outputs
    assert out.decode.bin_width == 10
    assert out.decode.domain_min == 0 and out.decode.domain_max == 100
    assert plan.layout == output_layout(plan.directives)


def test_single_stream_plan_when_option_allows():
    ledger = ReservationLedger()
    mates = [
        annotation(0, selected={"heart_rate": "stream-aggregate"}),
        annotation(1, selected={"heart_rate": "private"}),
    ]
    plan = plan_query(avg_query(), SCHEMA, mates, ledger)
    assert isinstance(plan, TransformationPlan)
    assert plan.members == ("stream-000",)
    assert plan.chain == ("window_aggregate",)


def test_population_capping_is_deterministic():
    ledger = ReservationLedger()
    annotations = [annotation(i) for i in range(10)]
    plan = plan_query(avg_query(max_population=4), SCHEMA, annotations, ledger)
    ranked = sorted(
        (a.stream_id for a in annotations),
        key=lambda s: hashlib.sha256(b"member-order\x00" + s.encode()).digest(),
    )
    assert set(plan.members) == set(ranked[:4])
    assert len(plan.members) == 4


def test_max_dropouts_respects_population_floor():
    ledger = ReservationLedger()
    plan = plan_query(avg_query(), SCHEMA, [annotation(i) for i in range(10)], ledger)
    # 10 members, min_population 3 -> 10% dropout allowance fits
    assert plan.max_dropouts == 1
    assert plan.min_members == 9

    ledger2 = ReservationLedger()
    plan2 = plan_query(avg_query(), SCHEMA, [annotation(i) for i in range(3)], ledger2)
    assert plan2.max_dropouts == 0  # dropping anyone would break min_population


def test_dp_plan_builds_noise_spec():
    ledger = ReservationLedger()
    annotations = [
        annotation(i, selected={"steps": "dp-aggregate"}) for i in range(6)
    ]
    query = Query(
        name="dp-steps",
        select=(SelectItem("s", "steps", "sum"),),
        window=6,
        dp=DpRequest(epsilon_cost=0.4, sigma_target=30.0),
    )
    plan = plan_query(query, SCHEMA, annotations, ledger, colluding_fraction=0.5)
    assert plan.chain == ("window_aggregate", "cross_stream_sum", "dp_noise")
    assert plan.dp_epsilon == 0.4
    assert plan.noise.sigma_target == 30.0
    assert plan.noise.honest_fraction == 0.5
    assert plan.noise.party_count == len(set(plan.owners))


# ---- planning: rejections --------------------------------------------------------


def reject(query, annotations, ledger=None):
    result = plan_query(query, SCHEMA, annotations, ledger or ReservationLedger())
    assert isinstance(result, Rejection)
    return result


def test_rejections_for_malformed_selections():
    anns = [annotation(i) for i in range(3)]
    bad_attr = Query(
        name="q", select=(SelectItem("x", "cadence", "sum"),), window=5
    )
    assert reject(bad_attr, anns).reason == "unknown_attribute"

    bad_fn = Query(name="q", select=(SelectItem("x", "steps", "avg"),), window=5)
    assert reject(bad_fn, anns).reason == "unsupported_function"

    dupe = Query(
        name="q",
        select=(
            SelectItem("a", "steps", "sum"),
            SelectItem("b", "steps", "sum"),
        ),
        window=5,
    )
    assert reject(dupe, anns).reason == "duplicate_attribute"


def test_rejection_when_no_streams_match():
    anns = [annotation(i) for i in range(3)]
    q = avg_query(where=(Predicate("region", "eq", value="mars"),))
    assert reject(q, anns).reason == "no_matching_streams"


def test_rejection_private_selection():
    anns = [annotation(i, selected={"heart_rate": "private"}) for i in range(4)]
    assert reject(avg_query(), anns).reason == "option_forbids"


def test_rejection_option_above_chain_level():
    # producers demand dp for steps, query carries no dp request
    anns = [annotation(i, selected={"steps": "dp-aggregate"}) for i in range(4)]
    q = Query(name="q", select=(SelectItem("s", "steps", "sum"),), window=5)
    assert reject(q, anns).reason == "option_forbids"


def test_rejection_option_not_offered():
    anns = [annotation(i, selected={"steps": "stream-aggregate"}) for i in range(3)]
    q = Query(name="q", select=(SelectItem("s", "steps", "sum"),), window=5)
    assert reject(q, anns).reason == "option_not_offered"


def test_rejection_no_option_selected():
    anns = [annotation(i, selected={"steps": "aggregate"}) for i in range(3)]
    assert reject(avg_query(), anns).reason == "no_option_selected"


def test_rejection_min_window():
    anns = [annotation(i, selected={"heart_rate": "stream-aggregate"}) for i in range(3)]
    assert reject(avg_query(window=2), anns).reason == "min_window"


def test_rejection_min_population():
    anns = [annotation(i) for i in range(2)]  # heart_rate aggregate wants >= 3
    assert reject(avg_query(), anns).reason == "min_population"


def test_rejection_single_stream_aggregate_demand():
    anns = [annotation(0, selected={"steps": "aggregate"})]
    q = Query(name="q", select=(SelectItem("s", "steps", "sum"),), window=5)
    assert reject(q, anns).reason == "option_forbids"


def test_rejection_resolution_floor():
    anns = [annotation(i) for i in range(3)]
    fine = Query(
        name="q", select=(SelectItem("a", "altitude", "median"),), window=5
    )
    # native bins are 5 wide, the option demands at least 10
    assert reject(fine, anns).reason == "max_resolution"
    ragged = Query(
        name="q",
        select=(SelectItem("a", "altitude", "median", bucket_width=12),),
        window=5,
    )
    assert reject(ragged, anns).reason == "max_resolution"


# ---- reservations and budgets ------------------------------------------------------


def test_exclusive_reservation_blocks_and_releases():
    ledger = ReservationLedger()
    anns = [annotation(i) for i in range(4)]
    plan = plan_query(avg_query(), SCHEMA, anns, ledger)
    assert isinstance(plan, TransformationPlan)
    again = plan_query(avg_query(), SCHEMA, anns, ledger)
    assert isinstance(again, Rejection) and again.reason == "reserved"
    release_reservation(ledger, plan.plan_id)
    third = plan_query(avg_query(), SCHEMA, anns, ledger)
    assert isinstance(third, TransformationPlan)


def test_ledger_reservation_is_all_or_nothing():
    ledger = ReservationLedger()
    assert ledger.try_reserve_exclusive("p1", [("s1", "a"), ("s2", "a")])
    assert not ledger.try_reserve_exclusive("p2", [("s3", "a"), ("s1", "a")])
    assert not ledger.is_blocked(("s3", "a"))  # nothing partial
    ledger.release("p2")
    assert ledger.is_blocked(("s1", "a"))  # held by p1, not p2
    ledger.release("p1")
    ledger.release("p1")  # idempotent
    assert not ledger.is_blocked(("s1", "a"))


def test_dp_budget_draws_down_and_exhausts():
    ledger = ReservationLedger()
    anns = [annotation(i, selected={"steps": "dp-aggregate"}) for i in range(5)]

    def dp_query(name):
        return Query(
            name=name,
            select=(SelectItem("s", "steps", "sum"),),
            window=5,
            dp=DpRequest(epsilon_cost=0.4, sigma_target=5.0),
        )

    first = plan_query(dp_query("q1"), SCHEMA, anns, ledger)
    second = plan_query(dp_query("q2"), SCHEMA, anns, ledger)
    assert isinstance(first, TransformationPlan)
    assert isinstance(second, TransformationPlan)
    assert first.plan_id != second.plan_id  # overlapping DP plans coexist
    third = plan_query(dp_query("q3"), SCHEMA, anns, ledger)
    assert isinstance(third, Rejection) and third.reason == "epsilon_budget"
    # releasing plans does not refund spent epsilon
    release_reservation(ledger, first.plan_id)
    release_reservation(ledger, second.plan_id)
    fourth = plan_query(dp_query("q4"), SCHEMA, anns, ledger)
    assert isinstance(fourth, Rejection) and fourth.reason == "epsilon_budget"
    assert ledger.dp_spent(("stream-000", "steps")) == pytest.approx(0.8)


def test_dp_and_exclusive_plans_conflict():
    ledger = ReservationLedger()
    anns = [
        annotation(i, selected={"steps": "aggregate", "heart_rate": "aggregate"})
        for i in range(4)
    ]
    plain = Query(name="plain", select=(SelectItem("s", "steps", "sum"),), window=5)
    dpq = Query(
        name="dp",
        select=(SelectItem("s", "steps", "sum"),),
        window=5,
        dp=DpRequest(epsilon_cost=0.1, sigma_target=5.0),
    )
    held = plan_query(plain, SCHEMA, anns, ledger)
    assert isinstance(held, TransformationPlan)
    blocked = plan_query(dpq, SCHEMA, anns, ledger)
    assert isinstance(blocked, Rejection) and blocked.reason == "reserved"
    release_reservation(ledger, held.plan_id)
    dp_plan = plan_query(dpq, SCHEMA, anns, ledger)
    assert isinstance(dp_plan, TransformationPlan)
    # the live DP activity now blocks a fresh exclusive hold
    blocked2 = plan_query(plain, SCHEMA, anns, ledger)
    assert isinstance(blocked2, Rejection) and blocked2.reason == "reserved"


# ---- controller-side verification -----------------------------------------------------


def controllers_for(annotations):
    """Group annotations per owning controller."""
    mine = {}
    for a in annotations:
        mine.setdefault(a.owner_id, {})[a.stream_id] = a
    return mine


def test_every_member_controller_accepts_planner_output():
    ledger = ReservationLedger()
    anns = [annotation(i) for i in range(5)]
    plan = plan_query(avg_query(), SCHEMA, anns, ledger)
    for own in controllers_for(anns).values():
        assert verify_plan(plan, SCHEMA, own).ok


def test_verify_rejects_structural_tampering():
    ledger = ReservationLedger()
    anns = [annotation(i) for i in range(5)]
    plan = plan_query(avg_query(), SCHEMA, anns, ledger)
    own = {a.stream_id: a for a in anns}

    bad_layout = dataclasses.replace(plan, layout=((0,), (1,)))
    assert verify_plan(bad_layout, SCHEMA, own).reason == "layout_mismatch"

    short = dataclasses.replace(
        plan,
        directives=plan.directives[:-1],
        layout=output_layout(plan.directives[:-1]),
    )
    assert verify_plan(short, SCHEMA, own).reason == "width_mismatch"

    assert verify_plan(
        dataclasses.replace(plan, window=0), SCHEMA, own
    ).reason == "bad_window"

    sneaky_dp = dataclasses.replace(plan, chain=plan.chain + ("dp_noise",))
    assert verify_plan(sneaky_dp, SCHEMA, own).reason == "dp_chain_mismatch"

    solo_chain = dataclasses.replace(plan, chain=("window_aggregate",))
    assert verify_plan(solo_chain, SCHEMA, own).reason == "chain_mismatch"

    stranger = {a.stream_id: a for a in [annotation(77)]}
    assert verify_plan(plan, SCHEMA, stranger).reason == "not_a_member"


def test_verify_refuses_any_chain_but_the_planners():
    anns = [annotation(0, selected={"heart_rate": "stream-aggregate"})]
    plan = plan_query(avg_query(), SCHEMA, anns, ReservationLedger())
    own = {a.stream_id: a for a in anns}
    assert plan.chain == ("window_aggregate",) and verify_plan(plan, SCHEMA, own).ok
    for chain in (("window_aggregate", "cross_stream_sum"), ("window_aggregate", "publish")):
        forged = dataclasses.replace(plan, chain=chain)
        assert verify_plan(forged, SCHEMA, own).reason == "chain_mismatch"


def test_verify_rechecks_options_and_constraints():
    ledger = ReservationLedger()
    anns = [annotation(i) for i in range(5)]
    plan = plan_query(avg_query(), SCHEMA, anns, ledger)

    hostile = {
        "stream-000": annotation(0, selected={"heart_rate": "private"})
    }
    assert verify_plan(plan, SCHEMA, hostile).reason == "option_forbids"

    unselected = {"stream-000": annotation(0, selected={"steps": "aggregate"})}
    assert verify_plan(plan, SCHEMA, unselected).reason == "no_option_selected"

    # a controller owning several members checks them in plan order
    both = {
        "stream-001": annotation(1, selected={"steps": "aggregate"}),
        "stream-000": annotation(0, selected={"heart_rate": "private"}),
    }
    assert verify_plan(plan, SCHEMA, both).reason == "option_forbids"
    reordered = dataclasses.replace(plan, members=plan.members[::-1])
    assert verify_plan(reordered, SCHEMA, both).reason == "no_option_selected"

    shrunk = dataclasses.replace(plan, members=("stream-000", "stream-001"))
    own = {a.stream_id: a for a in anns}
    assert verify_plan(shrunk, SCHEMA, own).reason == "min_population"

    narrow = dataclasses.replace(plan, window=2)
    windowed = {
        "stream-000": annotation(0, selected={"heart_rate": "stream-aggregate"})
    }
    solo = dataclasses.replace(
        narrow, members=("stream-000",), chain=("window_aggregate",)
    )
    assert verify_plan(solo, SCHEMA, windowed).reason == "min_window"


def test_verify_checks_dp_budgets_and_identities():
    ledger = ReservationLedger()
    anns = [annotation(i, selected={"steps": "dp-aggregate"}) for i in range(4)]
    query = Query(
        name="dp",
        select=(SelectItem("s", "steps", "sum"),),
        window=5,
        dp=DpRequest(epsilon_cost=0.4, sigma_target=5.0),
    )
    plan = plan_query(query, SCHEMA, anns, ledger)
    own = {a.stream_id: a for a in anns}
    assert verify_plan(plan, SCHEMA, own).ok

    # a controller tracking its own remaining budget refuses an overdraft
    spent = {(sid, "steps"): 0.1 for sid in plan.members}
    assert verify_plan(
        plan, SCHEMA, own, remaining_epsilon=spent
    ).reason == "epsilon_budget"

    greedy = dataclasses.replace(plan, dp_epsilon=1.5)
    assert verify_plan(greedy, SCHEMA, own).reason == "epsilon_budget"

    registry = IdentityRegistry()
    assert verify_plan(plan, SCHEMA, own, registry=registry).reason == "unknown_identity"
    for o in plan.owners:
        registry.register(PublicIdentity(PartyId(o), o))
    assert verify_plan(plan, SCHEMA, own, registry=registry).ok
    for stranger in (bytes(32), b"short"):
        foreign = dataclasses.replace(plan, owners=plan.owners + (stranger,))
        assert verify_plan(foreign, SCHEMA, own, registry=registry).reason == (
            "unknown_identity"
        )


def test_verify_holds_the_population_floor_to_min_members():
    ward = parse_schema(
        {
            "name": "wearable",
            "attributes": [
                {
                    "name": "steps",
                    "aggregates": ["sum"],
                    "options": [{"kind": "aggregate", "min_population": 5}],
                },
                {"name": "floors", "aggregates": ["sum"], "options": [{"kind": "aggregate"}]},
            ],
        }
    )
    for attribute, n, dropouts in (("steps", 8, 7), ("floors", 3, 2)):
        anns = [annotation(i, selected={attribute: "aggregate"}) for i in range(n)]
        query = Query(name="q", select=(SelectItem("s", attribute, "sum"),), window=5)
        plan = plan_query(query, ward, anns, ReservationLedger())
        own = {a.stream_id: a for a in anns}
        assert verify_plan(plan, ward, own).ok
        # a window could then release the sum of a single member
        lax = dataclasses.replace(plan, max_dropouts=dropouts)
        assert lax.min_members == 1
        assert verify_plan(lax, ward, own).reason == "min_population"


# each encoding's finest step is finer than 5: 2-wide bins, one-hot steps of 1
LEVELS = {
    "histogram": {"bins": {"min": 0, "max": 10, "width": 2}},
    "one_hot": {"domain": {"min": 0, "max": 9}},
}


def level_schema(encoding, **option):
    return parse_schema(
        {
            "name": "wearable",
            "attributes": [
                {
                    "name": "level",
                    "aggregates": ["histogram"],
                    **LEVELS[encoding],
                    "options": [{"kind": "aggregate", **option}],
                }
            ],
        }
    )


@pytest.mark.parametrize("encoding", list(LEVELS))
def test_verify_resolution_floor_on_decode_spec(encoding):
    strict, permissive = level_schema(encoding, max_resolution=5), level_schema(encoding)
    anns = [annotation(i, selected={"level": "aggregate"}) for i in range(3)]
    query = Query(name="lvl", select=(SelectItem("h", "level", "histogram"),), window=5)
    assert plan_query(query, strict, anns, ReservationLedger()).reason == "max_resolution"
    plan = plan_query(query, permissive, anns, ReservationLedger())
    own = {a.stream_id: a for a in anns}
    assert verify_plan(plan, permissive, own).ok
    assert verify_plan(plan, strict, own).reason == "max_resolution"


def test_verify_reads_the_resolution_of_bucketed_bins():
    ledger = ReservationLedger()
    anns = [annotation(i) for i in range(3)]
    query = Query(
        name="alt",
        select=(SelectItem("a", "altitude", "median", bucket_width=10),),
        window=5,
    )
    plan = plan_query(query, SCHEMA, anns, ledger)
    own = {a.stream_id: a for a in anns}
    assert verify_plan(plan, SCHEMA, own).ok
    fine_decode = dataclasses.replace(
        plan,
        outputs=(
            dataclasses.replace(
                plan.outputs[0],
                decode=dataclasses.replace(plan.outputs[0].decode, bin_width=5.0),
            ),
        ),
    )
    assert verify_plan(fine_decode, SCHEMA, own).reason == "max_resolution"


# ---- one check for every member -----------------------------------------------------

ALTIMETER = parse_schema(
    {
        "name": "altimeter",
        "attributes": [
            {
                "name": "alt",
                "aggregates": ["histogram"],
                "bins": {"min": 0, "max": 100, "width": 5},
                "options": [
                    {"kind": "public", "max_resolution": 10},
                    {"kind": "stream-aggregate", "min_window": 100},
                    {"kind": "aggregate"},
                    {"kind": "dp-aggregate", "epsilon": 0.1},
                    {"kind": "private"},
                ],
            }
        ],
    }
)

ALT_HIST = Query(
    name="alt-hist",
    select=(SelectItem("h", "alt", "histogram"),),
    window=5,
    dp=DpRequest(epsilon_cost=0.4, sigma_target=5.0),
)

# the selection with which a member breaks one rule of ALT_HIST, a DP
# histogram plan over 5-wide bins with a window of 5, or (None) breaks nothing
BREAKS = {
    None: {"alt": "aggregate"},
    "option_forbids": {"alt": "private"},
    "no_option_selected": {},
    "min_window": {"alt": "stream-aggregate"},
    "max_resolution": {"alt": "public"},
    "epsilon_budget": {"alt": "dp-aggregate"},
}


def altimeter_annotation(i, selected):
    return StreamAnnotation(
        stream_id=f"alt-{i:02d}",
        schema_name="altimeter",
        owner_id=owner(i),
        selected=selected,
        metadata={},
    )


@settings(max_examples=60, deadline=None)
@given(
    rules=st.lists(st.sampled_from(list(BREAKS)), min_size=2, max_size=8),
    data=st.data(),
)
def test_one_check_over_all_members_equals_the_first_refusing_controller(rules, data):
    anns = [altimeter_annotation(i, BREAKS[None]) for i in range(len(rules))]
    plan = plan_query(ALT_HIST, ALTIMETER, anns, ReservationLedger())
    assert isinstance(plan, TransformationPlan)
    registry = IdentityRegistry()
    for o in plan.owners:
        registry.register(PublicIdentity(PartyId(o), o))
    broken = {
        a.stream_id: altimeter_annotation(i, BREAKS[rule])
        for i, (a, rule) in enumerate(zip(anns, rules))
    }
    # each member alone refuses with the rule it breaks
    verdicts = {
        sid: verify_plan(plan, ALTIMETER, {sid: a}, registry=registry)
        for sid, a in broken.items()
    }
    for rule, sid in zip(rules, broken):
        assert verdicts[sid].reason == rule
    first = next((verdicts[s] for s in plan.members if not verdicts[s].ok), Verdict.accept())
    # the members in any order: the check follows plan order
    order = data.draw(st.permutations(list(broken)))
    together = {sid: broken[sid] for sid in order}
    assert verify_plan(plan, ALTIMETER, together, registry=registry) == first


@pytest.mark.parametrize("rule", [rule for rule in BREAKS if rule is not None])
def test_the_planner_refuses_with_the_controllers_reason(rule):
    sound = [altimeter_annotation(i, BREAKS[None]) for i in range(4)]
    plan = plan_query(ALT_HIST, ALTIMETER, sound, ReservationLedger())
    broken = [altimeter_annotation(i, BREAKS[rule]) for i in range(4)]
    refusal = verify_plan(plan, ALTIMETER, {broken[0].stream_id: broken[0]})
    rejection = plan_query(ALT_HIST, ALTIMETER, broken, ReservationLedger())
    assert isinstance(rejection, Rejection)
    assert rejection.reason == refusal.reason == rule


# ---- one output rule -----------------------------------------------------------------


def _widened(plan, lanes):
    """`plan` with every lane in `lanes` released too, its layout to match."""
    directives = list(plan.directives)
    for lane in lanes:
        directives[lane] = release()
    return dataclasses.replace(
        plan, directives=tuple(directives), layout=output_layout(directives)
    )


HR = SCHEMA.slices["heart_rate"][0]

# 100 one-wide bins, released at a resolution of 5 at the finest
LEVEL_100 = parse_schema(
    {
        "name": "wearable",
        "attributes": [
            {
                "name": "level",
                "aggregates": ["histogram"],
                "bins": {"min": 0, "max": 100, "width": 1},
                "options": [{"kind": "aggregate", "max_resolution": 5}],
            }
        ],
    }
)

# a schema, the streams' selections, the one select item of a sound plan,
# and how a planner forges that plan
FORGERIES = {
    # an avg over a variance attribute that also releases the sums of squares
    "avg_with_squares": (
        SCHEMA, DEFAULT_SELECTED, SelectItem("a", "heart_rate", "avg"),
        lambda plan: _widened(plan, [HR + 1]),
    ),
    # a lane of an attribute no output names, which the streams keep private
    "unnamed_private_lane": (
        SCHEMA, {"steps": "aggregate", "heart_rate": "private"}, SelectItem("s", "steps", "sum"),
        lambda plan: _widened(plan, [HR]),
    ),
    # every one-wide bin released while the decode still claims 5-wide bins
    "fine_bins_under_coarse_decode": (
        LEVEL_100, {"level": "aggregate"}, SelectItem("h", "level", "histogram", bucket_width=5),
        lambda plan: _widened(plan, range(100)),
    ),
    # lanes released with no output, so no option is checked at all
    "no_outputs": (
        SCHEMA, DEFAULT_SELECTED, SelectItem("a", "heart_rate", "avg"),
        lambda plan: dataclasses.replace(plan, outputs=()),
    ),
    # no output and nothing released: no token could be built for it
    "nothing_released": (
        SCHEMA, DEFAULT_SELECTED, SelectItem("a", "heart_rate", "avg"),
        lambda plan: dataclasses.replace(
            plan, outputs=(), directives=(withhold(),) * SCHEMA.width, layout=()
        ),
    ),
    # a bucket width on a function that never buckets
    "bucketed_sum": (
        SCHEMA, DEFAULT_SELECTED, SelectItem("s", "steps", "sum"),
        lambda plan: dataclasses.replace(
            plan, outputs=(dataclasses.replace(plan.outputs[0], bucket_width=10),)
        ),
    ),
}


@pytest.mark.parametrize("case", list(FORGERIES))
def test_verify_refuses_directives_its_outputs_do_not_compile_to(case):
    schema, selected, item, forge = FORGERIES[case]
    anns = [annotation(i, selected=selected) for i in range(3)]
    query = Query(name="q", select=(item,), window=5)
    plan = plan_query(query, schema, anns, ReservationLedger())
    own = {a.stream_id: a for a in anns}
    assert verify_plan(plan, schema, own).ok
    forged = forge(plan)
    assert forged.layout == output_layout(forged.directives)
    assert verify_plan(forged, schema, own).reason == "outputs_mismatch"


@pytest.mark.parametrize(
    "function, param",
    [("percentile", 150), ("percentile", 0), ("percentile", -5), ("percentile", "high"),
     ("topk", -1), ("topk", 0), ("topk", 2.5), ("topk", float("inf")),
     ("sum", 3), ("var", 1), ("median", 50), ("histogram", 2), ("mode", 1)],
)
def test_select_items_refuse_a_param_outside_its_range(function, param):
    with pytest.raises(ValueError, match="param"):
        SelectItem("a", "altitude", function, param=param)
    doc = {"select": {"a": {"attribute": "altitude", "function": function, "param": param}},
           "window": 5}
    with pytest.raises(ValueError, match="param"):
        parse_query(doc)


@pytest.mark.parametrize("function", ["sum", "count", "avg", "var", "sum_above", "sum_below"])
def test_select_items_refuse_a_bucket_width_outside_the_histogram_family(function):
    with pytest.raises(ValueError, match="bucket_width"):
        SelectItem("s", "steps", function, bucket_width=10)
    doc = {"select": {"s": {"attribute": "steps", "function": function, "bucket_width": 10}},
           "window": 5}
    with pytest.raises(ValueError, match="bucket_width"):
        parse_query(doc)


def test_select_items_keep_a_param_in_range_and_controllers_recheck_it():
    for function, param in (("percentile", 100), ("percentile", 0.5), ("percentile", None),
                            ("topk", 1), ("topk", 3.0), ("topk", None)):
        assert SelectItem("a", "altitude", function, param=param).param == param
    schema = parse_schema(
        {
            "name": "wearable",
            "attributes": [
                {
                    "name": "level",
                    "aggregates": ["percentile"],
                    "bins": {"min": 0, "max": 10, "width": 1},
                    "options": [{"kind": "aggregate"}],
                }
            ],
        }
    )
    anns = [annotation(i, selected={"level": "aggregate"}) for i in range(3)]
    item = SelectItem("p", "level", "percentile", param=90)
    plan = plan_query(Query(name="p", select=(item,), window=5), schema, anns, ReservationLedger())
    own = {a.stream_id: a for a in anns}
    assert verify_plan(plan, schema, own).ok
    # a plan's outputs are checked as select items: a forged param is refused
    (output,) = plan.outputs
    forged = dataclasses.replace(plan, outputs=(dataclasses.replace(output, param=150),))
    assert verify_plan(forged, schema, own).reason == "outputs_mismatch"


# each function's encoding kinds, in `KINDS` order, which the table must match
CARRIERS = {
    "sum": ("sum", "sum_count", "variance"),
    "count": ("sum_count", "variance"),
    "avg": ("sum_count", "variance"),
    "var": ("variance",),
    "sum_above": ("predicate_threshold",),
    "sum_below": ("predicate_threshold",),
    **{fn: ("one_hot", "histogram") for fn in _HISTOGRAM_FUNCTIONS},
}

# the encoding fields each kind needs: one-wide bins, or a domain of 0..20
_ENCODING_FIELDS = {
    "one_hot": {"domain": {"min": 0, "max": 20}},
    "histogram": {"bins": {"min": 0, "max": 20, "width": 1}},
    "predicate_threshold": {"threshold": 5},
}

VALUES = [3, 7, 12]


def _direct(function, reps):
    """`function` of VALUES computed in plaintext, its order statistics over
    `reps`, each value's bin representative."""
    return {
        "sum": sum(VALUES),
        "count": len(VALUES),
        "avg": statistics.mean(VALUES),
        "var": statistics.pvariance(VALUES),
        "sum_above": sum(v for v in VALUES if v >= 5),
        "sum_below": sum(v for v in VALUES if v < 5),
        "histogram": {
            "count": len(reps), "mode": statistics.mode(reps), "median": statistics.median(reps),
        },
        "median": statistics.median(reps),
        "percentile": statistics.median(reps),
        "min": min(reps),
        "max": max(reps),
        "range": max(reps) - min(reps),
        "mode": statistics.mode(reps),
        "topk": [(r, 1) for r in sorted(reps)],
    }[function]


@pytest.mark.parametrize("function", sorted(_FUNCTIONS))
def test_every_function_plans_verifies_and_has_a_headline(function):
    kinds = [k for k in KINDS if _carries(k, function)]
    assert tuple(kinds) == CARRIERS[function]
    for kind in kinds:
        # an attribute declaring every function its kind carries gets that kind
        schema = parse_schema(
            {
                "name": "wearable",
                "attributes": [
                    {
                        "name": "x",
                        "aggregates": [fn for fn in _FUNCTIONS if kind in CARRIERS[fn]],
                        **_ENCODING_FIELDS.get(kind, {}),
                        "options": [{"kind": "aggregate"}],
                    }
                ],
            }
        )
        encoding = schema.attributes[0].encoding
        assert encoding.kind == kind
        anns = [annotation(i, selected={"x": "aggregate"}) for i in range(3)]
        query = Query(name="q", select=(SelectItem("out", "x", function),), window=5)
        plan = plan_query(query, schema, anns, ReservationLedger())
        assert isinstance(plan, TransformationPlan), plan
        for own in controllers_for(anns).values():
            assert verify_plan(plan, schema, own).ok
        aggregate = [int(v) for v in encode_batch(VALUES, encoding).sum(axis=0)]
        released = [sum(aggregate[j] for j in group) for group in plan.layout]
        (output,) = plan.outputs
        stats = decode_stats(released[output.out_start : output.out_stop], output.decode)
        headline = _FUNCTIONS[function][-1](stats, output.param)
        # each value sits in bin v of either domain
        binned = kind in ("one_hot", "histogram")
        expected = _direct(function, [encoding.bin_value(v) for v in VALUES] if binned else VALUES)
        if isinstance(expected, list):
            assert headline == expected, kind
        else:
            assert headline == pytest.approx(expected), kind
