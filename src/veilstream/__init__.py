"""veilstream: privacy-enforcing aggregation over additively encrypted streams.

Producers encrypt telemetry once with a chained additive stream cipher and
never re-encrypt per consumer. An untrusted server adds ciphertexts within
and across streams. Data-owner controllers check every requested
transformation against self-chosen privacy policies, and release compact
transformation tokens, optionally blinded by pairwise masks and carrying
distributed differential-privacy noise, that open exactly the approved
aggregate and nothing else.

Layers, bottom up:

- ring: additive stream cipher, key derivation, ciphertext sums, tokens
  applied to aggregates
- encoding: fixed-point additive encodings (sums, means, variance,
  one-hot, histograms, threshold predicates) and decoding to statistics
- tokens: transformation tokens, element directives, DP noise shares,
  epsilon budgets, wire format
- secure_agg: pairwise masking protocols, membership deltas, connectivity
  analysis, parameter optimization
- policy: schemas, privacy option ladder, the query planner, reservations
- pipeline: end-to-end scenario simulation with reporting
- cli: command-line entry points
"""

from .encoding import (
    DecodedStats,
    EncodingSpec,
    OverflowBudgetError,
    check_overflow_budget,
    decode_stats,
    encode,
    encode_neutral,
)
from .ring import (
    MODULUS_DEFAULT,
    AesPrf,
    ChainEncryptor,
    CountingPrf,
    MasterSecret,
    StreamCiphertext,
    TokenMismatchError,
    apply_token,
    chain_sum,
    cross_sum,
    decrypt_window,
    derive_key,
    deserialize_event,
    encrypt,
    merge_elements,
    serialize_event,
)
from .secure_agg import (
    EcdhKeyAgreement,
    IdentityRegistry,
    MembershipDelta,
    OptimizationResult,
    PartyId,
    PublicIdentity,
    StaticKeyAgreement,
    UnknownIdentityError,
    apply_delta,
    disconnect_bound,
    mask_token,
    mask_vector,
    nonce_clique,
    nonce_dream,
    nonce_zeph,
    optimize_b,
    plan_epoch,
    round_peers,
    setup_pairwise,
    threshold_for_probability,
    unmask_aggregate,
)
from .tokens import (
    ElementDirective,
    NoiseSpec,
    PrivacyBudget,
    Suppressed,
    TransformationToken,
    add_dp_noise,
    deserialize_token,
    merge,
    multi_stream_partial,
    output_layout,
    perturb,
    release,
    serialize_token,
    shift,
    single_stream_token,
    stream_set_hash,
    withhold,
)
from .policy import (
    AttributeSchema,
    PrivacyOption,
    Query,
    Rejection,
    ReservationLedger,
    StreamAnnotation,
    StreamSchema,
    TransformationPlan,
    Verdict,
    parse_query,
    parse_schema,
    plan_query,
    release_reservation,
    verify_plan,
)
from .pipeline import (
    ScenarioResult,
    SimConfig,
    WindowResult,
    measure_bandwidth,
    run_scenario,
    scenario_presets,
)

__version__ = "0.1.0"
