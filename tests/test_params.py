import math
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binary_entropy_capacity_nats,
    brute_force_error_probability,
    two_input_capacity,
)

from chanord.channel_core import (
    bsc,
    identity_channel,
    make_channel,
    random_channel,
)
from chanord.cpc import CpcChannel, CpcTerm, skew_compose_channel
from chanord import params
from chanord.errors import ResourceLimitError
from chanord.ordering import contains, embed
from chanord.params import (
    Encoder,
    capacity,
    capacity_certificate,
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


# 1e-17 is below what the double-precision bounds can resolve.
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-9, 1e-17])
def test_capacity_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError):
        capacity(bsc("1/10"), eps)


def test_capacity_accepts_the_double_precision_eps():
    eps = sys.float_info.epsilon
    cert = capacity_certificate(random_channel(3, 3, 1, 9), eps)
    assert cert.upper - cert.lower <= eps


def test_capacity_near_zero_has_no_tail(monkeypatch):
    # The middle row is the midpoint of the outer two, so the capacity is
    # that of BSC(1/2 - d), about 2e-6 nats. Plain Blahut-Arimoto moves
    # mass by a factor of about 1 - 1e-6 per round here and needs over a
    # million rounds.
    d = Rat(1, 1000)
    half = Rat(1, 2)
    w = make_channel([[half + d, half - d], [half, half], [half - d, half + d]])
    monkeypatch.setattr(params, "_MAX_CAPACITY_ROUNDS", 1000)
    assert abs(capacity(w, 1e-9) - binary_entropy_capacity_nats(0.499)) <= 1e-9


def test_capacity_step_never_empties_an_input():
    # Only the last input reaches the last output, with probability 1e-6;
    # its optimal mass is below the smallest float. A step that rounded
    # that mass to zero would leave the output unreached, and the upper
    # bound of every row reaching it infinite.
    w = make_channel([
        ["3/13", "3/13", "3/26", "4/13", "3/26", "0"],
        ["8/17", "2/17", "7/17", "0", "0", "0"],
        ["1/4", "0", "3/4", "0", "0", "0"],
        ["4/11", "3/22", "5/22", "3/11", "0", "0"],
        ["0", "1/18", "1/3", "1/3", "5/18", "0"],
        ["92999907/235000000", "0", "66999933/235000000",
         "48999951/235000000", "12999987/117500000", "1/1000000"],
    ])
    cert = capacity_certificate(w, 1e-9)
    assert cert.upper - cert.lower <= 1e-9
    assert min(cert.input_distribution) > 0.0


@st.composite
def two_input_channels(draw):
    """2 x m channels over small denominators, with zero entries and, at
    times, two identical rows."""
    m = draw(st.integers(1, 4))

    def row():
        counts = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any))
        return [Rat(c, sum(counts)) for c in counts]

    first = row()
    return make_channel([first, first if draw(st.booleans()) else row()])


@settings(max_examples=80, deadline=None)
@given(w=two_input_channels(), eps=st.sampled_from([1e-6, 1e-9]))
def test_capacity_agrees_with_two_input_bisection(w, eps):
    exact = two_input_capacity(w.rows)
    got = capacity(w, eps)
    assert got <= exact + 1e-12
    assert exact - got <= eps + 1e-12


def test_codebook_cap_boundary_is_the_exact_multiset_count():
    w = random_channel(2, 3, 5, 8)
    for n, m in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]:
        count = math.comb(2**n + m - 1, m)
        optimal_error_probability(n, m, w, max_codebooks=count)
        message = rf"has (more than {count - 1}|{count}) multisets \(cap {count - 1}\)"
        with pytest.raises(ResourceLimitError, match=message):
            optimal_error_probability(n, m, w, max_codebooks=count - 1)


def test_one_input_codebooks_are_capped_before_any_word_is_built(monkeypatch):
    # A one-input channel has one multiset of M codewords for every n, so
    # M is capped against max_codebooks and the |Y|^n blocks against
    # max_output_blocks, both before a word or a codebook exists.
    w = make_channel([["1/3", "2/3"]])
    assert optimal_error_probability(3, 5, w, max_codebooks=5) == Rat(4, 5)
    assert optimal_error_probability(2, 2, w, max_output_blocks=4) == Rat(1, 2)

    def no_words(*_args, **_kwargs):
        raise AssertionError("a word was built")

    monkeypatch.setattr(params, "product", no_words)
    cases = [
        ((3, 6, w), {"max_codebooks": 5}, r"has 6 codewords per codebook \(cap 5\)"),
        ((10**8, 1, w), {}, r"has more than 1000000 blocks \(cap 1000000\)"),
        ((1, 10**8, w), {}, r"has 100000000 codewords per codebook \(cap 1000000\)"),
        ((2, 1, w), {"max_output_blocks": 3}, r"has more than 3 blocks \(cap 3\)"),
        # With two inputs or more, M codewords make more than M multisets.
        ((1, 7, bsc("1/4")), {"max_codebooks": 6}, r"has 8 multisets \(cap 6\)"),
    ]
    for args, caps, message in cases:
        with pytest.raises(ResourceLimitError, match=message):
            optimal_error_probability(*args, **caps)
    monkeypatch.undo()
    # A 1×1 channel has one block and one codebook for every n.
    assert optimal_error_probability(10**4, 3, make_channel([[1]]), 3, 1) == Rat(2, 3)


def test_one_input_error_probability_builds_no_word_or_codebook(monkeypatch):
    # Every codebook of a one-input channel is M copies of its one word,
    # so the answer is 1 − 1/M for every n, with nothing enumerated.
    w, single = make_channel([["1/3", "2/3"]]), make_channel([[1]])
    small = [
        (n, big_m, ch)
        for ch in (w, single, make_channel([["1/5", "3/10", "1/2"]]))
        for n in (1, 2, 3)
        for big_m in (1, 2, 3, 4)
    ]
    expected = [brute_force_error_probability(*case) for case in small]

    def no_enumeration(*_args, **_kwargs):
        raise AssertionError("a word or a codebook was built")

    monkeypatch.setattr(params, "product", no_enumeration)
    monkeypatch.setattr(params, "combinations_with_replacement", no_enumeration)
    assert [optimal_error_probability(*case) for case in small] == expected
    for big_m in (10**5, 10**6):
        assert optimal_error_probability(1, big_m, w) == 1 - Rat(1, big_m)
    start = time.perf_counter()
    assert optimal_error_probability(10**8, 3, single) == Rat(2, 3)
    assert time.perf_counter() - start < 1


def test_output_block_cap_prints_the_exact_count():
    enc, w = Encoder(1, 2, ((1, 1),)), identity_channel(3)
    assert ml_error_probability(enc, w, max_output_blocks=9) == ZERO
    for cap in (8, 3):
        with pytest.raises(ResourceLimitError, match=rf"has 9 blocks \(cap {cap}\)"):
            ml_error_probability(enc, w, max_output_blocks=cap)
