"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Checks are exact (rational equality / verified certificates)
except where a tolerance is stated inline.
"""

import time

import pytest

from oracles import binary_entropy_capacity_nats

from chanord.brm import BrmGame, optimal_average_payoff, region_generators, region_subset
from chanord.channel_core import (
    DeterministicMap,
    bsc,
    channel_product,
    channel_sum,
    compose,
    deterministic,
    random_channel,
)
from chanord.cpc import (
    CpcChannel,
    CpcTerm,
    caratheodory_reduce,
    skew_compose_channel,
    skew_compose_cpc,
)
from chanord.metric import brm_distance_lower_bound, brm_vs_tv
from chanord.ordering import (
    apply_witness,
    contains,
    degraded_from,
    embed,
    input_degraded_from,
    shannon_equivalent,
    witness_to_cpc,
)
from chanord.params import capacity, optimal_error_probability
from chanord.prng import counter_int
from chanord.rational import ZERO, Rat

SUITE_SEED = 20240811


def _size(seed, *tags, lo=1, hi=3):
    return counter_int(seed, *tags, bound=hi - lo) + lo


def _payoff(seed, *tags, u, v):
    draws = [
        [counter_int(seed, *tags, i, j, bound=9) + 1 for j in range(v)]
        for i in range(u)
    ]
    total = sum(sum(row) for row in draws)
    return tuple(tuple(Rat(k, total) for k in row) for row in draws)


def _cpc(x, xp, yp, y, seed, *tags, terms=2, den=8):
    parts = []
    for i in range(terms):
        r = random_channel(x, xp, counter_int(seed, *tags, 2 * i, bound=10**9), den)
        t = random_channel(yp, y, counter_int(seed, *tags, 2 * i + 1, bound=10**9), den)
        parts.append(CpcTerm(Rat(1, terms), r, t))
    return CpcChannel(x, xp, yp, y, tuple(parts))


def _certificate_games(wp, w, cert):
    n, m = len(cert.payoff), len(cert.payoff[0])
    own = BrmGame(n, w.input_size, w.output_size, m, cert.payoff, w)
    other = BrmGame(n, wp.input_size, wp.output_size, m, cert.payoff, wp)
    return own, other


def _game_dims(seed, tag, x, y, xp, yp):
    candidates = [(2, 2), (2, 3), (3, 2), (3, 3)]
    start = counter_int(seed, tag, bound=len(candidates) - 1)
    for shift in range(len(candidates)):
        u, v = candidates[(start + shift) % len(candidates)]
        if x**u * v**y <= 750 and xp**u * v**yp <= 750:
            return u, v
    return 2, 2


@pytest.fixture(scope="session")
def oracle_agreement_suite():
    """200 seeded instances: containment verdict vs. region inclusion and
    optimal-payoff inequalities on 3 random normalized games each."""
    started = time.perf_counter()
    instances = 0
    contains_count = 0
    discrepancies = []
    witness_failures = []
    certificate_failures = []
    for idx in range(200):
        seed = SUITE_SEED + idx
        xp = _size(seed, 0)
        yp = _size(seed, 1)
        wp = random_channel(xp, yp, counter_int(seed, 2, bound=10**9), 8)
        if idx % 2 == 0:
            x = _size(seed, 3)
            y = _size(seed, 4)
            w = skew_compose_channel(_cpc(x, xp, yp, y, seed, 5), wp)
        else:
            x = _size(seed, 6)
            y = _size(seed, 7)
            w = random_channel(x, y, counter_int(seed, 8, bound=10**9), 8)
        verdict = contains(wp, w)
        instances += 1
        if verdict.holds:
            contains_count += 1
            if apply_witness(verdict.witness, wp) != w:
                witness_failures.append(idx)
        else:
            own, other = _certificate_games(wp, w, verdict.certificate)
            own_opt, _ = optimal_average_payoff(own)
            other_opt, _ = optimal_average_payoff(other)
            gap = own_opt - other_opt
            if gap != verdict.certificate.gap or gap <= 0:
                certificate_failures.append(idx)
            # On the certificate's own game the achievable region must
            # escape, matching the direction of the payoff gap.
            incl = region_subset(region_generators(own), region_generators(other))
            if incl.inside_all:
                discrepancies.append(("certificate-region", idx))
        for trial in range(3):
            u, v = _game_dims(seed, 100 + trial, x, y, xp, yp)
            payoff = _payoff(seed, 200 + trial, u=u, v=v)
            game_w = BrmGame(u, x, y, v, payoff, w)
            game_wp = BrmGame(u, xp, yp, v, payoff, wp)
            inclusion = region_subset(
                region_generators(game_w), region_generators(game_wp)
            )
            opt_w, _ = optimal_average_payoff(game_w)
            opt_wp, _ = optimal_average_payoff(game_wp)
            if verdict.holds:
                if not inclusion.inside_all:
                    discrepancies.append(("region", idx, trial))
                if opt_w > opt_wp:
                    discrepancies.append(("optimal", idx, trial))
            else:
                # A random game may or may not expose the failure, but the
                # two oracles must stay consistent with each other:
                # region inclusion forces the payoff inequality.
                if inclusion.inside_all and opt_w > opt_wp:
                    discrepancies.append(("b-implies-c", idx, trial))
    elapsed = time.perf_counter() - started
    return {
        "instances": instances,
        "contains": contains_count,
        "discrepancies": discrepancies,
        "witness_failures": witness_failures,
        "certificate_failures": certificate_failures,
        "elapsed": elapsed,
    }


def test_criterion_1_oracle_agreement_suite(oracle_agreement_suite):
    ok = (
        oracle_agreement_suite["instances"] == 200
        and not oracle_agreement_suite["discrepancies"]
        and oracle_agreement_suite["elapsed"] < 600.0
    )
    print(
        f"ACCEPTANCE 1 (containment vs regions vs payoffs, "
        f"{oracle_agreement_suite['instances']} instances, "
        f"{oracle_agreement_suite['contains']} contains, "
        f"{oracle_agreement_suite['elapsed']:.1f}s): {'PASS' if ok else 'FAIL'}"
    )
    assert oracle_agreement_suite["instances"] == 200
    assert oracle_agreement_suite["discrepancies"] == []
    assert oracle_agreement_suite["elapsed"] < 600.0


def test_criterion_2_certificate_soundness(oracle_agreement_suite):
    ok = not oracle_agreement_suite["witness_failures"] and not oracle_agreement_suite["certificate_failures"]
    print(f"ACCEPTANCE 2 (certificate soundness): {'PASS' if ok else 'FAIL'}")
    assert oracle_agreement_suite["witness_failures"] == []
    assert oracle_agreement_suite["certificate_failures"] == []


def test_criterion_3_degradedness_implies_containment():
    failures = 0
    for idx in range(100):
        seed = SUITE_SEED + 10_000 + idx
        n = _size(seed, 0)
        m1 = _size(seed, 1)
        m2 = _size(seed, 2)
        wp = random_channel(n, m1, counter_int(seed, 3, bound=10**9), 8)
        t = random_channel(m1, m2, counter_int(seed, 4, bound=10**9), 8)
        w = compose(t, wp)
        if degraded_from(w, wp) is None or not contains(wp, w).holds:
            failures += 1
    for idx in range(100):
        seed = SUITE_SEED + 11_000 + idx
        n1 = _size(seed, 0)
        n2 = _size(seed, 1)
        m = _size(seed, 2)
        wp = random_channel(n2, m, counter_int(seed, 3, bound=10**9), 8)
        r = random_channel(n1, n2, counter_int(seed, 4, bound=10**9), 8)
        w = compose(wp, r)
        if input_degraded_from(w, wp) is None or not contains(wp, w).holds:
            failures += 1
    print(f"ACCEPTANCE 3 (degradedness implies containment): "
          f"{'PASS' if failures == 0 else 'FAIL'}")
    assert failures == 0


def test_criterion_4_transitivity_through_composed_witnesses():
    failures = 0
    for idx in range(50):
        seed = SUITE_SEED + 12_000 + idx
        sizes = [_size(seed, k, hi=3) for k in range(6)]
        x1, y1, x2, y2, x3, y3 = sizes
        w1 = random_channel(x1, y1, counter_int(seed, 10, bound=10**9), 8)
        w2 = skew_compose_channel(_cpc(x2, x1, y1, y2, seed, 11), w1)
        w3 = skew_compose_channel(_cpc(x3, x2, y2, y3, seed, 12), w2)
        wit21 = contains(w1, w2).witness
        wit32 = contains(w2, w3).witness
        chained = skew_compose_cpc(witness_to_cpc(wit32), witness_to_cpc(wit21))
        if skew_compose_channel(chained, w1) != w3:
            failures += 1
        # Carathéodory: the reduced witness still simulates w3, with at
        # most dim + 1 terms and no more than it started with.
        reduced = caratheodory_reduce(chained)
        dim = x3 * y1 * x1 * y3
        if (
            skew_compose_channel(reduced, w1) != w3
            or len(reduced.terms) > min(dim + 1, len(chained.terms))
        ):
            failures += 1
    print(f"ACCEPTANCE 4 (witness transitivity): {'PASS' if failures == 0 else 'FAIL'}")
    assert failures == 0


def test_criterion_5_embedding_suite():
    failures = 0
    for idx in range(50):
        seed = SUITE_SEED + 13_000 + idx
        n = _size(seed, 0)
        m = _size(seed, 1)
        w = random_channel(n, m, counter_int(seed, 2, bound=10**9), 8)
        n2 = n + counter_int(seed, 3, bound=5 - n)
        m2 = m + counter_int(seed, 4, bound=5 - m)
        first, second = shannon_equivalent(w, embed(w, n2, m2))
        if not (first.holds and second.holds):
            failures += 1
    print(f"ACCEPTANCE 5 (embedding equivalence): {'PASS' if failures == 0 else 'FAIL'}")
    assert failures == 0


def test_criterion_6_metric_bound():
    failures = 0
    for idx in range(100):
        seed = SUITE_SEED + 14_000 + idx
        n = _size(seed, 0)
        m = _size(seed, 1)
        w1 = random_channel(n, m, counter_int(seed, 2, bound=10**9), 8)
        w2 = random_channel(n, m, counter_int(seed, 3, bound=10**9), 8)
        lower, upper = brm_vs_tv(w1, w2, n_max=2, m_max=2, budget=4, seed=seed)
        if lower > upper:
            failures += 1
    ties = 0
    for idx in range(10):
        seed = SUITE_SEED + 15_000 + idx
        n = _size(seed, 0, lo=2)
        m = _size(seed, 1, lo=2)
        w = random_channel(n, m, counter_int(seed, 2, bound=10**9), 8)
        sigma = DeterministicMap(n, n, tuple(reversed(range(1, n + 1))))
        tau = DeterministicMap(m, m, tuple(reversed(range(1, m + 1))))
        other = compose(deterministic(tau), compose(w, deterministic(sigma)))
        first, second = shannon_equivalent(w, other)
        assert first.holds and second.holds
        est = brm_distance_lower_bound(w, other, n_max=2, m_max=2, budget=8, seed=seed)
        # A zero running max means every sampled payoff tied exactly.
        if est.lower_bound == ZERO:
            ties += 1
    ok = failures == 0 and ties == 10
    print(f"ACCEPTANCE 6 (metric lower bound vs channel distance): "
          f"{'PASS' if ok else 'FAIL'}")
    assert failures == 0
    assert ties == 10


def test_criterion_7_bsc_ladder():
    base = bsc("1/10")
    contained = ["1/10", "1/5", "3/10", "2/5", "1/2", "3/5", "7/10", "4/5", "9/10"]
    separated = ["0", "1/20", "19/20", "1"]
    failures = 0
    for idx, q in enumerate(contained + separated):
        verdict = contains(base, bsc(q))
        expected = q in contained
        if verdict.holds != expected:
            failures += 1
            continue
        if verdict.holds:
            for trial in range(2):
                payoff = _payoff(SUITE_SEED, 16_000 + idx, trial, u=2, v=2)
                inner = BrmGame(2, 2, 2, 2, payoff, bsc(q))
                outer = BrmGame(2, 2, 2, 2, payoff, base)
                if not region_subset(
                    region_generators(inner), region_generators(outer)
                ).inside_all:
                    failures += 1
        else:
            own, other = _certificate_games(base, bsc(q), verdict.certificate)
            if region_subset(
                region_generators(own), region_generators(other)
            ).inside_all:
                failures += 1
    print(f"ACCEPTANCE 7 (binary symmetric ladder): {'PASS' if failures == 0 else 'FAIL'}")
    assert failures == 0


def test_criterion_8_parameters():
    cap = capacity(bsc("11/100"), 1e-9)
    closed_form = binary_entropy_capacity_nats(0.11)
    capacity_ok = abs(cap - closed_form) <= 1e-8

    perr_ok = all(
        optimal_error_probability(1, 2, bsc(p)) == min(Rat(p), 1 - Rat(p))
        for p in ("0", "1/10", "1/4", "1/2")
    )

    eps = 1e-7
    violations = 0
    for idx in range(50):
        seed = SUITE_SEED + 17_000 + idx
        xp = _size(seed, 0, lo=2)
        yp = _size(seed, 1, lo=2)
        x = _size(seed, 2, lo=2)
        y = _size(seed, 3, lo=2)
        wp = random_channel(xp, yp, counter_int(seed, 4, bound=10**9), 8)
        w = skew_compose_channel(_cpc(x, xp, yp, y, seed, 5), wp)
        if not contains(wp, w).holds:
            violations += 1
            continue
        if optimal_error_probability(1, 2, wp) > optimal_error_probability(1, 2, w):
            violations += 1
        if capacity(wp, eps) < capacity(w, eps) - 2 * eps:
            violations += 1
    ok = capacity_ok and perr_ok and violations == 0
    print(f"ACCEPTANCE 8 (parameters and their monotonicity): "
          f"{'PASS' if ok else 'FAIL'}")
    assert capacity_ok
    assert perr_ok
    assert violations == 0


def test_criterion_9_operation_monotonicity():
    failures = 0
    done = 0
    attempt = 0
    while done < 50:
        attempt += 1
        seed = SUITE_SEED + 18_000 + attempt
        dims = [_size(seed, k, hi=2) for k in range(8)]
        xa, ya, xb, yb, xc, yc, xd, yd = dims
        sum_pairs = (xa + xc) ** (xb + xd) * (yb + yd) ** (ya + yc)
        prod_pairs = (xa * xc) ** (xb * xd) * (yb * yd) ** (ya * yc)
        if max(sum_pairs, prod_pairs) > 4096:
            continue
        done += 1
        a = random_channel(xa, ya, counter_int(seed, 10, bound=10**9), 8)
        c = random_channel(xc, yc, counter_int(seed, 11, bound=10**9), 8)
        b = skew_compose_channel(_cpc(xb, xa, ya, yb, seed, 12), a)
        d = skew_compose_channel(_cpc(xd, xc, yc, yd, seed, 13), c)
        if not (contains(a, b).holds and contains(c, d).holds):
            failures += 1
            continue
        if not contains(channel_sum(a, c), channel_sum(b, d)).holds:
            failures += 1
        if not contains(channel_product(a, c), channel_product(b, d)).holds:
            failures += 1
    print(f"ACCEPTANCE 9 (sum/product monotonicity, {done} quadruples): "
          f"{'PASS' if failures == 0 else 'FAIL'}")
    assert failures == 0
