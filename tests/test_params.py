import math

import pytest

from oracles import binary_entropy_capacity_nats

from chanord.channel_core import (
    bsc,
    identity_channel,
    make_channel,
    random_channel,
)
from chanord.cpc import CpcChannel, CpcTerm, skew_compose_channel
from chanord.errors import ResourceLimitError
from chanord.ordering import contains, embed
from chanord.params import (
    Encoder,
    capacity,
    ml_error_probability,
    optimal_error_probability,
)
from chanord.rational import ZERO, Rat


def test_capacity_noiseless_binary():
    assert abs(capacity(bsc(0), 1e-9) - math.log(2)) <= 1e-9


def test_capacity_useless_channel_is_zero():
    useless = make_channel([["1/4", "3/4"], ["1/4", "3/4"]])
    assert capacity(useless, 1e-9) <= 1e-9


def test_capacity_matches_binary_entropy_closed_form():
    got = capacity(bsc("11/100"), 1e-9)
    assert abs(got - binary_entropy_capacity_nats(0.11)) <= 1e-8


def test_capacity_bounds_and_validation():
    for seed in range(6):
        w = random_channel(3, 2, 60 + seed, 9)
        c = capacity(w, 1e-7)
        assert -1e-12 <= c <= math.log(2) + 1e-7
    with pytest.raises(ValueError):
        capacity(bsc(0), 0.0)


def test_ml_error_probability_single_message_is_zero():
    enc = Encoder(1, 2, ((1, 2),))
    assert ml_error_probability(enc, bsc("1/10")) == ZERO


def test_ml_error_probability_binary_pair():
    enc = Encoder(2, 1, ((1,), (2,)))
    # 1 - (max(1-p, p) + max(p, 1-p))/2 = min(p, 1-p).
    assert ml_error_probability(enc, bsc("1/10")) == Rat(1, 10)
    assert ml_error_probability(enc, bsc("2/5")) == Rat(2, 5)


def test_ml_error_probability_noiseless_distinct_codewords():
    enc = Encoder(3, 1, ((1,), (2,), (3,)))
    assert ml_error_probability(enc, identity_channel(3)) == ZERO


def test_ml_error_probability_message_permutation_invariance():
    w = random_channel(2, 2, 71, 8)
    enc = Encoder(3, 2, ((1, 2), (2, 1), (2, 2)))
    flipped = Encoder(3, 2, ((2, 2), (1, 2), (2, 1)))
    assert ml_error_probability(enc, w) == ml_error_probability(flipped, w)


def test_ml_error_probability_guards():
    with pytest.raises(ValueError):
        ml_error_probability(Encoder(1, 1, ((3,),)), bsc(0))
    with pytest.raises(ResourceLimitError):
        ml_error_probability(
            Encoder(1, 4, ((1, 1, 1, 1),)), bsc(0), max_output_blocks=8
        )


def test_optimal_error_probability_trivial_and_binary():
    assert optimal_error_probability(2, 1, bsc("1/4")) == ZERO
    for p in ("0", "1/10", "1/4", "1/2"):
        expected = min(Rat(p), 1 - Rat(p))
        assert optimal_error_probability(1, 2, bsc(p)) == expected
    useless = make_channel([["1/2", "1/2"], ["1/2", "1/2"]])
    assert optimal_error_probability(1, 2, useless) == Rat(1, 2)
    with pytest.raises(ResourceLimitError):
        optimal_error_probability(3, 3, random_channel(3, 3, 5, 8), max_codebooks=10)


def test_parameters_invariant_under_embedding():
    for seed in range(5):
        w = random_channel(2, 2, 90 + seed, 8)
        e = embed(w, 3, 3)
        assert optimal_error_probability(1, 2, w) == optimal_error_probability(1, 2, e)
        assert abs(capacity(w, 1e-7) - capacity(e, 1e-7)) <= 2e-7


def test_parameters_monotone_under_containment():
    for seed in range(8):
        wp = random_channel(2, 2, 120 + seed, 8)
        v = CpcChannel(
            2, 2, 2, 2,
            (
                CpcTerm(Rat(1, 2), random_channel(2, 2, 300 + seed, 8),
                        random_channel(2, 2, 320 + seed, 8)),
                CpcTerm(Rat(1, 2), random_channel(2, 2, 340 + seed, 8),
                        random_channel(2, 2, 360 + seed, 8)),
            ),
        )
        w = skew_compose_channel(v, wp)
        assert contains(wp, w).holds
        assert optimal_error_probability(1, 2, wp) <= optimal_error_probability(1, 2, w)
        assert capacity(wp, 1e-7) >= capacity(w, 1e-7) - 2e-7


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-9])
def test_capacity_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError):
        capacity(bsc("1/10"), eps)
