import random
from itertools import product

import oracles
import pytest
from oracles import (
    all_decoder_columns,
    all_simulation_columns,
    cold_start_contains,
    rational_contains,
    round_by_round,
)

from chanord import ordering
from chanord.brm import BrmGame, optimal_average_payoff, region_generators, region_subset
from chanord.channel_core import (
    Channel,
    DeterministicMap,
    bsc,
    channel_product,
    channel_sum,
    compose,
    identity_channel,
    make_channel,
    random_channel,
)
from chanord.cpc import CpcChannel, CpcTerm, skew_compose_channel, skew_compose_cpc
from chanord.errors import (
    DimensionMismatchError,
    InternalCheckError,
    ResourceLimitError,
)
from chanord.lp_solver import FEASIBLE, hull_lp, priced_hull, solve_feasibility
from chanord.ordering import (
    apply_witness,
    certificate_from_json,
    certificate_to_json,
    contains,
    degraded_from,
    embed,
    input_degraded_from,
    shannon_equivalent,
    srank_upper_bound,
    witness_from_json,
    witness_to_cpc,
    witness_to_json,
)
from chanord.rational import ONE, ZERO, Rat


def random_cpc(x, xp, yp, y, seed, n_terms=2, den=8):
    terms = []
    for i in range(n_terms):
        r = random_channel(x, xp, seed * 211 + 2 * i, den)
        t = random_channel(yp, y, seed * 223 + 2 * i + 1, den)
        terms.append((r, t))
    return CpcChannel(
        x, xp, yp, y,
        tuple(CpcTerm(Rat(1, n_terms), r, t) for r, t in terms),
    )


def certificate_gap(wp, w, cert):
    """Recompute the optimal-payoff gap the certificate claims, exactly."""
    n = len(cert.payoff)
    m = len(cert.payoff[0])
    own = BrmGame(n, w.input_size, w.output_size, m, cert.payoff, w)
    other = BrmGame(n, wp.input_size, wp.output_size, m, cert.payoff, wp)
    own_value, _ = optimal_average_payoff(own)
    other_value, _ = optimal_average_payoff(other)
    return own_value - other_value


def test_self_containment_identity_witness():
    w = random_channel(3, 2, 500, 9)
    verdict = contains(w, w)
    assert verdict.holds
    ((f, g), weight), = verdict.witness.basis_weights
    assert weight == ONE
    assert f.image == (1, 2, 3) and g.image == (1, 2)


def test_noiseless_contains_any_binary_channel():
    verdict = contains(identity_channel(2), bsc("1/10"))
    assert verdict.holds
    assert apply_witness(verdict.witness, identity_channel(2)) == bsc("1/10")


def test_noisier_bsc_cannot_contain_cleaner_one():
    verdict = contains(bsc("3/10"), bsc("1/10"))
    assert not verdict.holds
    cert = verdict.certificate
    total = sum((v for row in cert.payoff for v in row), start=ZERO)
    assert total == ONE and all(v >= 0 for row in cert.payoff for v in row)
    assert cert.gap > 0
    assert certificate_gap(bsc("3/10"), bsc("1/10"), cert) == cert.gap


def test_shannon_equivalent_cases():
    w = random_channel(2, 3, 511, 8)
    first, second = shannon_equivalent(w, w)
    assert first.holds and second.holds

    bigger = embed(w, 3, 4)
    first, second = shannon_equivalent(w, bigger)
    assert first.holds and second.holds

    first, second = shannon_equivalent(bsc("1/10"), bsc("3/10"))
    # The cleaner channel simulates the noisier one but not conversely.
    assert first.holds != second.holds


def test_degraded_from_identity_and_bsc_ladder():
    w = random_channel(2, 3, 521, 8)
    assert degraded_from(w, w) == identity_channel(3)

    witness = degraded_from(bsc("1/5"), bsc("1/10"))
    assert witness is not None
    assert compose(witness, bsc("1/10")) == bsc("1/5")
    # The closed-form solution: 1/5 = (1/10)(1-d) + (9/10)d at d = 1/8.
    assert compose(bsc("1/8"), bsc("1/10")) == bsc("1/5")

    assert degraded_from(bsc("1/10"), bsc("1/5")) is None
    with pytest.raises(DimensionMismatchError):
        degraded_from(random_channel(2, 2, 1, 4), random_channel(3, 2, 1, 4))


def test_input_degraded_cases():
    w = random_channel(3, 2, 531, 8)
    assert input_degraded_from(w, w) == identity_channel(3)

    uniform = make_channel([["1/2", "1/2"], ["1/2", "1/2"]])
    witness = input_degraded_from(uniform, bsc("1/10"))
    assert witness is not None
    assert compose(bsc("1/10"), witness) == uniform

    useless = make_channel([["1/2", "1/2"], ["1/2", "1/2"]])
    assert input_degraded_from(identity_channel(2), useless) is None

    # Rows of wp span p(1) in [1/4, 3/4]; the middle row of w lies outside.
    wp = make_channel([["1/4", "3/4"], ["3/4", "1/4"]])
    inside = make_channel([["1/2", "1/2"], ["1/4", "3/4"], ["2/3", "1/3"]])
    witness = input_degraded_from(inside, wp)
    assert witness is not None and compose(wp, witness) == inside
    one_outside = make_channel([["1/2", "1/2"], ["9/10", "1/10"], ["2/3", "1/3"]])
    assert input_degraded_from(one_outside, wp) is None
    with pytest.raises(DimensionMismatchError):
        input_degraded_from(random_channel(2, 2, 1, 4), random_channel(2, 3, 1, 4))


def test_degradations_imply_containment():
    for seed in range(10):
        wp = random_channel(2, 3, 600 + seed, 8)
        t = random_channel(3, 2, 650 + seed, 8)
        w = compose(t, wp)
        assert degraded_from(w, wp) is not None
        assert contains(wp, w).holds
    for seed in range(10):
        wp = random_channel(3, 2, 700 + seed, 8)
        r = random_channel(2, 3, 750 + seed, 8)
        w = compose(wp, r)
        assert input_degraded_from(w, wp) is not None
        assert contains(wp, w).holds


def test_embed_shapes_and_equivalence():
    w = random_channel(2, 2, 801, 8)
    assert embed(w, 2, 2) == w

    tiny = make_channel([[1]])
    assert embed(tiny, 2, 2) == make_channel([[1, 0], [1, 0]])

    e = embed(bsc("1/10"), 3, 3)
    assert e.rows[0] == (Rat(9, 10), Rat(1, 10), ZERO)
    assert e.rows[1] == (Rat(1, 10), Rat(9, 10), ZERO)
    assert e.rows[2] == e.rows[1]

    with pytest.raises(DimensionMismatchError):
        embed(w, 1, 2)

    first, second = shannon_equivalent(w, embed(w, 4, 3))
    assert first.holds and second.holds


def test_containment_witness_reconstructs_simulated_channel():
    for seed in range(12):
        wp = random_channel(2, 2, 900 + seed, 8)
        v = random_cpc(2, 2, 2, 2, seed=30 + seed)
        w = skew_compose_channel(v, wp)
        verdict = contains(wp, w)
        assert verdict.holds
        assert apply_witness(verdict.witness, wp) == w
        total = sum((wgt for _pair, wgt in verdict.witness.basis_weights), start=ZERO)
        assert total == ONE


def test_separation_certificates_verify_and_match_regions():
    found = 0
    for seed in range(12):
        wp = random_channel(2, 2, 1000 + seed, 7)
        w = random_channel(2, 2, 1100 + seed, 7)
        verdict = contains(wp, w)
        if verdict.holds:
            continue
        found += 1
        cert = verdict.certificate
        assert certificate_gap(wp, w, cert) == cert.gap > 0
        n, m = len(cert.payoff), len(cert.payoff[0])
        own = BrmGame(n, w.input_size, w.output_size, m, cert.payoff, w)
        other = BrmGame(n, wp.input_size, wp.output_size, m, cert.payoff, wp)
        inclusion = region_subset(region_generators(own), region_generators(other))
        assert not inclusion.inside_all
    assert found >= 3


def test_transitivity_composes_witnesses_exactly():
    for seed in range(8):
        w1 = random_channel(2, 2, 1200 + seed, 7)
        w2 = skew_compose_channel(random_cpc(2, 2, 2, 2, seed=60 + seed), w1)
        w3 = skew_compose_channel(random_cpc(2, 2, 2, 2, seed=80 + seed), w2)
        wit21 = contains(w1, w2).witness
        wit32 = contains(w2, w3).witness
        chained = skew_compose_cpc(witness_to_cpc(wit32), witness_to_cpc(wit21))
        assert skew_compose_channel(chained, w1) == w3


def test_sum_and_product_monotonicity():
    a = random_channel(2, 2, 1301, 7)
    c = random_channel(2, 1, 1302, 7)
    b = skew_compose_channel(random_cpc(2, 2, 2, 2, seed=91), a)
    d = skew_compose_channel(random_cpc(1, 2, 1, 1, seed=92), c)
    assert contains(a, b).holds and contains(c, d).holds
    assert contains(channel_sum(a, c), channel_sum(b, d)).holds
    assert contains(channel_product(a, c), channel_product(b, d)).holds


def test_resource_cap_is_an_error_not_a_verdict():
    wp = random_channel(3, 3, 1401, 7)
    w = random_channel(3, 3, 1402, 7)
    with pytest.raises(ResourceLimitError):
        contains(wp, w, max_pairs=10)


def test_contains_scans_encoders_not_pairs():
    # 2^2 · 3^10 = 236196 deterministic pairs, but only 2^2 encoders.
    wp = random_channel(2, 10, 1403, 8)
    w = skew_compose_channel(random_cpc(2, 2, 10, 3, seed=1404), wp)
    assert (w.input_size, w.output_size) == (2, 3)
    assert w.rows[0] != w.rows[1]
    verdict = contains(wp, w)
    assert verdict.holds
    assert apply_witness(verdict.witness, wp) == w
    assert contains(wp, w, max_pairs=4).holds
    with pytest.raises(ResourceLimitError):
        contains(wp, w, max_pairs=3)


def test_certificate_cap_counts_distinct_target_rows():
    # w has four inputs but two distinct rows, so w's own game scans 2^2
    # encoders after the merge, not 4^2, and fits the cap of the pricing.
    wp = make_channel([["1/2", "1/2"], ["1/2", "1/2"]])
    w = make_channel([["1", "0"], ["0", "1"], ["1", "0"], ["0", "1"]])
    default = contains(wp, w)
    capped = contains(wp, w, max_pairs=4)
    assert not default.holds and not capped.holds
    assert capped.certificate == default.certificate
    assert certificate_gap(wp, w, capped.certificate) == capped.certificate.gap > 0


def test_priced_column_already_in_the_master_is_an_internal_error(monkeypatch):
    # The target is contained, so every restricted dual prices some pair
    # positive; a pricing step that names a pair already in the master
    # instead of the optimal one must be caught, not looped on.
    wp = random_channel(2, 2, 1405, 8)
    w = skew_compose_channel(random_cpc(2, 2, 2, 2, seed=1406), wp)
    real = ordering._best_pair

    def stale_argmax(tables):
        total, f_img, g_img = real(tables)
        return total, (0,) * len(f_img), (0,) * len(g_img)

    monkeypatch.setattr(ordering, "_best_pair", stale_argmax)
    with pytest.raises(InternalCheckError, match="already in the master"):
        contains(wp, w)


def test_contains_agrees_with_the_full_column_program():
    shapes = [
        (xp, yp, x, y)
        for xp, yp, x, y in product(range(2, 4), repeat=4)
        if xp**x * y**yp <= 216
    ]
    verdicts = []
    for seed in range(40):
        xp, yp, x, y = shapes[seed % len(shapes)]
        wp = random_channel(xp, yp, 1500 + seed, 6)
        if seed % 2 == 0:
            w = skew_compose_channel(random_cpc(x, xp, yp, y, seed=1600 + seed), wp)
        else:
            w = random_channel(x, y, 1700 + seed, 6)
        target = [p for row in w.rows for p in row]
        full = solve_feasibility(hull_lp(target, all_simulation_columns(wp, x, y)))
        verdict = contains(wp, w)
        assert verdict.holds == (full.tag == FEASIBLE)
        verdicts.append(verdict.holds)
    # Simulated targets are always contained; random ones go both ways.
    assert all(verdicts[::2])
    assert True in verdicts[1::2] and False in verdicts[1::2]


def test_degraded_from_agrees_with_the_full_decoder_hull():
    verdicts = []
    for shape_index, (n, mp, m) in enumerate(product(range(1, 4), repeat=3)):
        for trial in range(40):
            seed = 1800 + 40 * shape_index + trial
            wp = random_channel(n, mp, seed, 6)
            if trial % 2 == 0:
                w = compose(random_channel(mp, m, seed + 5000, 6), wp)
            else:
                w = random_channel(n, m, seed + 9000, 6)
            target = [p for row in w.rows for p in row]
            full = solve_feasibility(hull_lp(target, all_decoder_columns(wp, m)))
            witness = degraded_from(w, wp)
            assert (witness is not None) == (full.tag == FEASIBLE)
            if witness is not None:
                assert compose(witness, wp) == w
            verdicts.append(witness is not None)
    # Every T∘wp target is degraded; the random ones go both ways.
    assert all(verdicts[::2])
    assert True in verdicts[1::2] and False in verdicts[1::2]


def test_pivot_budget_exhaustion_is_an_error_not_a_verdict(monkeypatch):
    def starved(point, price, scale):
        return priced_hull(point, price, scale, max_pivots=0)

    monkeypatch.setattr(ordering, "priced_hull", starved)
    wp = random_channel(2, 2, 1901, 8)
    w = skew_compose_channel(random_cpc(2, 2, 2, 2, seed=1902), wp)
    with pytest.raises(ResourceLimitError, match="pivot budget"):
        contains(wp, w)


def test_warm_master_agrees_with_cold_solves_round_by_round(monkeypatch):
    rounds = []

    def with_cold_solve(point, columns, out):
        cold = solve_feasibility(hull_lp(point, columns))
        rounds.append((out.tag, cold.tag))

    monkeypatch.setattr(ordering, "priced_hull", round_by_round(with_cold_solve))
    verdicts = []
    for seed in range(24):
        xp, yp, x, y = 2 + seed % 2, 2 + seed // 2 % 2, 2 + seed // 4 % 2, 2 + seed // 8 % 2
        wp = random_channel(xp, yp, 2000 + seed, 6)
        if seed % 3 == 0:
            w = skew_compose_channel(random_cpc(x, xp, yp, y, seed=2100 + seed), wp)
        else:
            w = random_channel(x, y, 2200 + seed, 6)
        verdict = contains(wp, w)
        w_red = ordering._reduce_target(w)[0]
        assert (cold_start_contains(wp, w_red) == FEASIBLE) == verdict.holds
        verdicts.append(verdict.holds)
    assert all(warm == cold for warm, cold in rounds)
    assert True in verdicts and False in verdicts
    assert len(rounds) > 4 * len(verdicts)


def test_contains_prices_exactly_as_the_rational_pricer():
    # Pricing on the master's ints must enter the same columns as the
    # rational game oracle, so verdicts, witnesses and certificates agree
    # exactly. Kinds cycle: simulated, random, and each with a repeated row.
    outcomes = []
    for seed in range(48):
        xp, yp, x, y = 2 + seed % 2, 2 + seed // 4 % 2, 2 + seed // 8 % 2, 2 + seed // 16
        wp = random_channel(xp, yp, 2300 + seed, 6)
        if seed % 2 == 0:
            w = skew_compose_channel(random_cpc(x, xp, yp, y, seed=2400 + seed), wp)
        else:
            w = random_channel(x, y, 2500 + seed, 6)
        repeated = seed % 4 >= 2
        if repeated:
            w = Channel(x + 1, y, w.rows + (w.rows[seed % x],))
            assert ordering._reduce_target(w)[0].input_size < w.input_size
        verdict = contains(wp, w)
        assert verdict == rational_contains(wp, w)
        outcomes.append((seed % 2 == 0, repeated, verdict.holds))
    assert all(holds for simulated, _repeated, holds in outcomes if simulated)
    for repeated in (False, True):
        random_verdicts = {h for s, r, h in outcomes if not s and r == repeated}
        assert random_verdicts == {True, False}


def _mixed_witness():
    wp, w = identity_channel(2), bsc("1/10")
    witness = contains(wp, w).witness
    assert len(witness.basis_weights) >= 2
    ordering._verify_witness(witness, wp, w)
    return witness, wp, w


def _replace_weights(witness, change):
    pairs = [pair for pair, _weight in witness.basis_weights]
    weights = change([weight for _pair, weight in witness.basis_weights])
    return ordering.ContainmentWitness(tuple(zip(pairs, weights)))


def test_integer_witness_check_rejects_a_shifted_weight():
    witness, wp, w = _mixed_witness()
    shift = min(weight for _pair, weight in witness.basis_weights) / 2
    shifted = _replace_weights(witness, lambda ws: [ws[0] + shift, ws[1] - shift, *ws[2:]])
    with pytest.raises(InternalCheckError, match="does not reconstruct"):
        ordering._verify_witness(shifted, wp, w)


def test_integer_witness_check_rejects_a_changed_decoder_image():
    witness, wp, w = _mixed_witness()
    ((f, g), weight), rest = witness.basis_weights[0], witness.basis_weights[1:]
    flipped = DeterministicMap(g.domain_size, g.codomain_size, (3 - g.image[0],) + g.image[1:])
    changed = ordering.ContainmentWitness((((f, flipped), weight),) + rest)
    with pytest.raises(InternalCheckError, match="does not reconstruct"):
        ordering._verify_witness(changed, wp, w)


def test_integer_witness_check_rejects_a_pair_of_another_shape():
    witness, wp, w = _mixed_witness()
    ((f, g), weight), rest = witness.basis_weights[0], witness.basis_weights[1:]
    wider = DeterministicMap(g.domain_size, g.codomain_size + 1, g.image)
    with pytest.raises(InternalCheckError, match="does not fit"):
        ordering._verify_witness(
            ordering.ContainmentWitness((((f, wider), weight),) + rest), wp, w
        )


def test_integer_witness_check_rejects_weights_that_do_not_sum_to_one():
    witness, wp, w = _mixed_witness()
    for change in (lambda ws: [v / 2 for v in ws], lambda ws: [2 * ws[0], *ws[1:]]):
        with pytest.raises(InternalCheckError, match="do not sum to 1"):
            ordering._verify_witness(_replace_weights(witness, change), wp, w)


def test_srank_upper_bound_cases():
    assert srank_upper_bound(identity_channel(3)) == 3

    rows = [
        (Rat(1, 10), Rat(9, 10)),
        (Rat(1, 2), Rat(1, 2)),
        (Rat(3, 10), Rat(7, 10)),  # midpoint of the first two rows
    ]
    w = make_channel(rows)
    assert srank_upper_bound(w) == 2

    useless = make_channel([["1/3", "1/3", "1/3"]] * 4)
    assert srank_upper_bound(useless) == 1
    assert srank_upper_bound(make_channel([[1]])) == 1


def test_witness_and_certificate_json_round_trips():
    wp = identity_channel(2)
    verdict = contains(wp, bsc("1/10"))
    wit = verdict.witness
    assert witness_from_json(witness_to_json(wit)) == witness_from_json(
        witness_to_json(witness_from_json(witness_to_json(wit)))
    )
    rebuilt = witness_from_json(witness_to_json(wit))
    assert apply_witness(rebuilt, wp) == bsc("1/10")

    cert = contains(bsc("3/10"), bsc("1/10")).certificate
    assert certificate_from_json(certificate_to_json(cert)) == cert


@pytest.mark.parametrize("rows", [["10"], [None], 5])
def test_malformed_certificate_payoff_is_a_value_error(rows):
    with pytest.raises(ValueError, match="malformed certificate JSON"):
        certificate_from_json({"payoff": rows, "gap": "1/2"})


@pytest.mark.parametrize(
    "weights", [["f=[1];g=[1]"], [["f=[1];g=[1]", "1"]], {"f=[1];g=[1]": 1}, {"f=[2];g=[1]": "1"}]
)
def test_malformed_witness_weights_are_a_value_error(weights):
    obj = {"x_size": 1, "xp_size": 1, "yp_size": 1, "y_size": 1, "weights": weights}
    with pytest.raises(ValueError, match="malformed witness JSON"):
        witness_from_json(obj)


def _permuted(w, row_order, column_order):
    return Channel(
        w.input_size,
        w.output_size,
        tuple(tuple(w.rows[x][y] for y in column_order) for x in row_order),
    )


def _padded_copy(k):
    """A channel equivalent to k: k's first column split in two equal
    halves, a mass-free first output, a midpoint row and a repeated row."""
    half = Rat(1, 2)
    rows = [(ZERO, row[0] * half, row[0] * half) + row[1:] for row in k.rows]
    midpoint = tuple((a + b) * half for a, b in zip(rows[0], rows[1]))
    rows += [midpoint, rows[0]]
    return Channel(len(rows), k.output_size + 2, tuple(rows))


def test_srank_answers_beyond_the_containment_encoder_cap():
    # Checking this reduction by containment would scan 6^8 encoders.
    assert srank_upper_bound(random_channel(8, 3, 7, 8)) == 6


def test_srank_invariant_under_relabelling():
    rng = random.Random(11)
    cases = [(make_channel([[0, "1/2", "1/2"], [0, "1/3", "2/3"]]), 2)]
    for seed in range(6):
        k = random_channel(2 + seed % 3, 2 + seed % 2, 4100 + seed, 6)
        cases.append((_padded_copy(k), srank_upper_bound(k)))
    for w, rank in cases:
        assert srank_upper_bound(w) == rank
        for _ in range(4):
            rows = list(range(w.input_size))
            columns = list(range(w.output_size))
            rng.shuffle(rows)
            rng.shuffle(columns)
            assert srank_upper_bound(_permuted(w, rows, columns)) == rank


def test_srank_runs_no_containment_search(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("srank must not search for containment")

    for name in ("shannon_equivalent", "contains", "optimal_average_payoff"):
        monkeypatch.setattr(ordering, name, forbidden)
    k = random_channel(3, 3, 4200, 6)
    assert srank_upper_bound(_padded_copy(k)) == srank_upper_bound(k)
    assert srank_upper_bound(random_channel(6, 3, 4201, 8)) <= 6


@pytest.mark.parametrize("witness", ["degraded_from", "input_degraded_from"])
def test_srank_raises_when_a_reduction_witness_is_missing(monkeypatch, witness):
    monkeypatch.setattr(ordering, witness, lambda *_args, **_kwargs: None)
    with pytest.raises(InternalCheckError):
        srank_upper_bound(_padded_copy(random_channel(3, 2, 4300, 6)))


def test_certificate_payoff_is_over_the_reduced_target():
    wp = make_channel([["1/2", "1/2"]] * 2)
    w = make_channel([[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    verdict = contains(wp, w)
    assert not verdict.holds
    payoff = verdict.certificate.payoff
    assert (len(payoff), len(payoff[0])) == (2, 2)
    assert certificate_gap(wp, w, verdict.certificate) == verdict.certificate.gap


@pytest.mark.parametrize("key", ["x_size", "xp_size", "yp_size", "y_size"])
@pytest.mark.parametrize("size", [1.9, 1.0, True, "1", None])
def test_non_integer_witness_sizes_are_a_value_error(key, size):
    obj = {"x_size": 1, "xp_size": 1, "yp_size": 1, "y_size": 1,
           "weights": {"f=[1];g=[1]": "1"}}
    witness_from_json(obj)
    obj[key] = size
    with pytest.raises(ValueError, match="malformed witness JSON"):
        witness_from_json(obj)


def test_degraded_from_equals_the_rational_group_program():
    """The containment master with the encoder fixed to the identity
    reaches the verdict of the sum-of-hulls program on yes and no cases,
    wide outputs of wp included, and its T reconstructs w."""
    shapes = [*product(range(1, 5), (1, 2, 4), (1, 3, 4)), (3, 6, 4), (4, 6, 6)]
    verdicts = []
    for k, (n, mp, m) in enumerate(shapes):
        wp = random_channel(n, mp, 2400 + k, 7)
        for w in (compose(random_channel(mp, m, 2500 + k, 5), wp),
                  random_channel(n, m, 2600 + k, 9)):
            if w == wp:
                continue
            witness = degraded_from(w, wp)
            reference = oracles.rational_group_degraded_from(w, wp)
            assert (witness is None) == (reference is None)
            if witness is not None:
                assert compose(witness, wp) == w
            verdicts.append(witness is not None)
    assert True in verdicts and False in verdicts


def test_srank_is_unchanged_on_a_seeded_set(monkeypatch):
    # _canonical_reduction checks its merge with degraded_from; the ranks
    # are those of the sum-of-hulls program, and stay so with it put back.
    cases = [random_channel(n, m, 4500 + 10 * n + m, 6)
             for n, m in product(range(1, 6), repeat=2)]
    cases += [_padded_copy(random_channel(n, m, 4600 + 10 * n + m, 6))
              for n, m in product(range(2, 5), range(1, 4))]
    ranks = [1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 4, 4, 5, 1, 2, 4, 5, 5,
             1, 2, 3, 1, 2, 3, 1, 2, 4]
    assert [srank_upper_bound(w) for w in cases] == ranks
    monkeypatch.setattr(ordering, "degraded_from", oracles.rational_group_degraded_from)
    assert [srank_upper_bound(w) for w in cases] == ranks


def test_degraded_from_pivot_budget_exhaustion_is_an_error_not_a_verdict(monkeypatch):
    def starved(point, price, scale):
        return priced_hull(point, price, scale, max_pivots=0)

    monkeypatch.setattr(ordering, "priced_hull", starved)
    # One degraded pair and one that is not: neither may come back None.
    for w, wp in ((bsc("1/5"), bsc("1/10")), (bsc("1/10"), bsc("1/5"))):
        with pytest.raises(ResourceLimitError, match="pivot budget"):
            degraded_from(w, wp)


@pytest.mark.parametrize(
    "x_size, written, key",
    [(2, "f=[1,2];g=[1]", "f=[1,,2];g=[1]"), (1, "f=[10];g=[1]", "f=[1_0];g=[1]")],
)
def test_witness_keys_spelled_otherwise_than_written_are_rejected(x_size, written, key):
    obj = {"x_size": x_size, "xp_size": 10, "yp_size": 1, "y_size": 1}
    # The key as witness_to_json writes it reads back, surrounding
    # whitespace aside; another spelling of the same pair does not.
    for spelling in (written, f" {written}\n"):
        assert witness_from_json({**obj, "weights": {spelling: "1"}}).basis_weights
    with pytest.raises(ValueError, match="malformed witness JSON"):
        witness_from_json({**obj, "weights": {key: "1"}})


def test_witness_json_round_trips_pair_by_pair():
    for seed in range(6):
        wp = random_channel(2, 3, 4700 + seed, 6)
        w = skew_compose_channel(random_cpc(2, 2, 3, 2, seed=4710 + seed), wp)
        witness = contains(wp, w).witness
        obj = witness_to_json(witness)
        rebuilt = witness_from_json(obj)
        assert dict(rebuilt.basis_weights) == dict(witness.basis_weights)
        assert witness_to_json(rebuilt) == obj


def _scrambled_copy(k, rng):
    """A channel equivalent to k, with every shape the canonical reduction
    undoes: each column of k split into up to three proportional columns
    at seeded scales, a mass-free output, a row inside the hull of two
    others, a repeated row, and rows and columns shuffled."""
    splits = [
        [rng.randint(1, 12) for _ in range(rng.randint(1, 3))] for _ in k.rows[0]
    ]
    rows = [
        tuple(p * Rat(s, sum(split)) for p, split in zip(row, splits) for s in split)
        + (ZERO,)
        for row in k.rows
    ]
    if len(rows) > 1:
        a, b = rng.sample(rows, 2)
        t = Rat(rng.randint(1, 6), 7)
        rows.append(tuple(t * p + (1 - t) * q for p, q in zip(a, b)))
    rows.append(rng.choice(rows))
    columns = list(range(len(rows[0])))
    rng.shuffle(rows)
    rng.shuffle(columns)
    return Channel(
        len(rows), len(columns), tuple(tuple(row[y] for y in columns) for row in rows)
    )


def test_canonical_reduction_matches_the_rational_merge():
    # The merge on ints keys each column by its ints over their gcd and
    # reads K from w's rows; the reference keys by rational column sums and
    # composes the output injection with the kept rows.
    rng = random.Random(4700)
    cases = [
        _scrambled_copy(random_channel(n, m, 4700 + 10 * n + m, 6), rng)
        for n, m in product(range(1, 5), range(1, 4))
    ]
    cases += [random_channel(3, 4, 4800 + seed, 4) for seed in range(4)]
    dropped_rows = merged_columns = 0
    for w in cases:
        reduced = ordering._canonical_reduction(w)
        reference = oracles.rational_canonical_reduction(w)
        assert reduced == reference and repr(reduced) == repr(reference)
        assert srank_upper_bound(w) == max(reduced.input_size, reduced.output_size)
        base = ordering._reduce_target(w)[0]
        dropped_rows += reduced.input_size < base.input_size
        merged_columns += reduced.output_size < base.output_size
    assert dropped_rows >= 5 and merged_columns >= 5
