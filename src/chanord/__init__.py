"""Exact-arithmetic toolkit for ordering discrete memoryless channels."""

from .channel_core import (
    Alphabet,
    Channel,
    DeterministicMap,
    bsc,
    channel_from_json,
    channel_product,
    channel_sum,
    channel_to_json,
    compose,
    deterministic,
    identity_channel,
    make_channel,
    random_channel,
    tv_distance,
)
from .cpc import (
    CpcChannel,
    CpcTerm,
    as_channel,
    caratheodory_reduce,
    cpc_from_json,
    cpc_from_pairs,
    cpc_to_json,
    skew_compose_channel,
    skew_compose_cpc,
)
from .brm import (
    BrmGame,
    PayoffRegionGenerators,
    RegionInclusion,
    Strategy,
    average_payoff,
    game_from_json,
    game_to_json,
    optimal_average_payoff,
    payoff,
    payoff_vector,
    region_generators,
    region_subset,
    strategy_to_cpc,
)
from .errors import (
    ChanordError,
    DimensionMismatchError,
    InternalCheckError,
    LpInfeasibleError,
    LpUnboundedError,
    ResourceLimitError,
)
from .lp_solver import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    LpOutcome,
    StandardLp,
    maximize,
    solve_feasibility,
    standard_lp,
)
from .metric import (
    MetricEstimate,
    brm_distance_lower_bound,
    brm_vs_tv,
    metric_estimate_to_json,
)
from .ordering import (
    CONTAINS,
    DOES_NOT_CONTAIN,
    ContainmentWitness,
    OrderingVerdict,
    SeparationCertificate,
    apply_witness,
    certificate_from_json,
    certificate_to_json,
    contains,
    degraded_from,
    embed,
    input_degraded_from,
    shannon_equivalent,
    srank_upper_bound,
    verdict_to_json,
    witness_from_json,
    witness_to_cpc,
    witness_to_json,
)
from .params import (
    CapacityCertificate,
    Encoder,
    capacity,
    capacity_certificate,
    ml_error_probability,
    optimal_error_probability,
)
from .rational import Rat, parse_rat, rat_str

__version__ = "0.1.0"
