import sys
import threading
from dataclasses import replace
from math import lcm

import pytest
from oracles import all_simulation_columns, rational_brm_distance_lower_bound

from chanord import metric
from chanord.brm import BrmGame, optimal_average_payoff
from chanord.channel_core import (
    bsc,
    deterministic,
    DeterministicMap,
    identity_channel,
    random_channel,
)
from chanord.cpc import DEFAULT_MAX_PAIRS, pair_column
from chanord.errors import DimensionMismatchError, InternalCheckError, ResourceLimitError
from chanord.lp_solver import maximize
from chanord.metric import (
    _ascent_step,
    _restricted_ascent,
    _sample_payoff,
    brm_distance_lower_bound,
    brm_vs_tv,
    metric_estimate_to_json,
)
from chanord.ordering import embed, shannon_equivalent
from chanord.rational import ONE, ZERO, Rat


def recompute(est, w1, w2):
    n, m = est.game_dims
    g1 = BrmGame(n, w1.input_size, w1.output_size, m, est.witness_payoff, w1)
    g2 = BrmGame(n, w2.input_size, w2.output_size, m, est.witness_payoff, w2)
    v1, _ = optimal_average_payoff(g1)
    v2, _ = optimal_average_payoff(g2)
    return abs(v1 - v2)


def test_identical_channels_give_zero():
    w = random_channel(2, 3, 77, 8)
    est = brm_distance_lower_bound(w, w, n_max=2, m_max=2, budget=6, seed=4)
    assert est.lower_bound == ZERO
    assert recompute(est, w, w) == ZERO


def test_embedded_channel_ties_on_every_sample():
    w = random_channel(2, 2, 78, 8)
    e = embed(w, 3, 3)
    first, second = shannon_equivalent(w, e)
    assert first.holds and second.holds
    # The reported bound is the running max over all sampled payoffs, so a
    # zero bound means every sampled payoff tied exactly.
    est = brm_distance_lower_bound(w, e, n_max=2, m_max=2, budget=12, seed=9)
    assert est.lower_bound == ZERO


def test_noiseless_vs_useless_reaches_quarter():
    est = brm_distance_lower_bound(bsc(0), bsc("1/2"), n_max=2, m_max=2, budget=32, seed=1)
    assert est.lower_bound >= Rat(1, 4)
    assert recompute(est, bsc(0), bsc("1/2")) == est.lower_bound


def test_symmetry_in_the_pair():
    a = random_channel(2, 2, 81, 8)
    b = random_channel(2, 2, 82, 8)
    est_ab = brm_distance_lower_bound(a, b, n_max=2, m_max=2, budget=10, seed=5)
    est_ba = brm_distance_lower_bound(b, a, n_max=2, m_max=2, budget=10, seed=5)
    assert est_ab.lower_bound == est_ba.lower_bound


def test_budget_monotonicity():
    a = random_channel(2, 2, 83, 8)
    b = random_channel(2, 2, 84, 8)
    bounds = [
        brm_distance_lower_bound(a, b, n_max=2, m_max=2, budget=budget, seed=7).lower_bound
        for budget in (2, 6, 12, 20)
    ]
    for earlier, later in zip(bounds, bounds[1:]):
        assert later >= earlier


def test_brm_vs_tv_contract():
    w = random_channel(2, 2, 85, 8)
    assert brm_vs_tv(w, w, n_max=2, m_max=2, budget=4, seed=2) == (ZERO, ZERO)

    lower, upper = brm_vs_tv(bsc("1/10"), bsc("3/10"), n_max=2, m_max=2, budget=12, seed=3)
    assert upper == Rat(1, 5)
    assert ZERO < lower <= upper

    swap = deterministic(DeterministicMap(2, 2, (2, 1)))
    lower, upper = brm_vs_tv(identity_channel(2), swap, n_max=2, m_max=2, budget=12, seed=6)
    assert (lower, upper) == (ZERO, ONE)

    with pytest.raises(DimensionMismatchError):
        brm_vs_tv(identity_channel(2), identity_channel(3))


def test_lower_bound_never_exceeds_tv_on_random_pairs():
    for seed in range(10):
        a = random_channel(2, 2, 8600 + seed, 8)
        b = random_channel(2, 2, 8700 + seed, 8)
        lower, upper = brm_vs_tv(a, b, n_max=2, m_max=2, budget=6, seed=seed)
        assert lower <= upper


def test_estimate_serializes():
    a = random_channel(2, 2, 88, 8)
    b = random_channel(2, 2, 89, 8)
    est = brm_distance_lower_bound(a, b, n_max=2, m_max=2, budget=4, seed=11)
    blob = metric_estimate_to_json(est)
    assert blob["game_dims"] == list(est.game_dims)
    assert blob["seed"] == 11 and blob["search_budget"] == 4
    assert isinstance(blob["lower_bound"], str)


def rows_of(payoff, m):
    """A payoff held as (den, ints over den, row after row), as rational rows."""
    den, ints = payoff
    return tuple(
        tuple(Rat(v, den) for v in ints[k : k + m]) for k in range(0, len(ints), m)
    )


def ints_at(scale, column):
    """A rational pair column as ints over scale."""
    scaled = [v * scale for v in column]
    assert all(v.denominator == 1 for v in scaled)
    return [int(v) for v in scaled]


def test_generated_ascent_step_matches_the_full_program():
    def objective(active, pieces, payoff):
        flat = [v for row in payoff for v in row]

        def dot(vec):
            return sum((a * b for a, b in zip(vec, flat)), start=ZERO)

        return dot(active) - max(dot(piece) for piece in pieces)

    for seed in range(8):
        w1 = random_channel(2, 2, 9000 + seed, 8)
        w2 = random_channel(2, 2, 9100 + seed, 8)
        scale = lcm(w1._image[0], w2._image[0])
        for n, m in ((1, 2), (2, 1), (2, 2)):
            sample = _sample_payoff(seed, 0, n, m)
            payoff = rows_of(sample, m)
            _v1, pair1 = optimal_average_payoff(
                BrmGame(n, 2, 2, m, payoff, w1)
            )
            opt2 = metric._opt(w2, n, m, sample, DEFAULT_MAX_PAIRS, {})
            active = pair_column(w1, *pair1)
            pieces = all_simulation_columns(w2, n, m)
            full = _restricted_ascent(
                ints_at(scale, active), [ints_at(scale, p) for p in pieces],
                scale, n, m, {},
            )
            generated, opt_at = _ascent_step(
                ints_at(scale, active), w2, opt2, scale, n, m,
                DEFAULT_MAX_PAIRS, {}, {},
            )
            assert opt_at == metric._opt(
                w2, n, m, generated, DEFAULT_MAX_PAIRS, {}
            )
            assert objective(active, pieces, rows_of(generated, m)) == objective(
                active, pieces, rows_of(full, m)
            )


def test_restricted_ascent_ignores_a_positive_scaling():
    # Pieces are pair columns, not average-payoff coefficients (columns
    # over n); any common positive factor must give the same payoff.
    for seed in range(10):
        w1 = random_channel(2, 3, 9200 + seed, 8)
        w2 = random_channel(3, 2, 9300 + seed, 8)
        scale = lcm(w1._image[0], w2._image[0])
        for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
            payoff = rows_of(_sample_payoff(seed, 1, n, m), m)
            _v1, pair1 = optimal_average_payoff(BrmGame(n, 2, 3, m, payoff, w1))
            _v2, pair2 = optimal_average_payoff(BrmGame(n, 3, 2, m, payoff, w2))
            active = ints_at(scale, pair_column(w1, *pair1))
            columns = all_simulation_columns(w2, n, m)
            step = 1 + seed % (len(columns) - 1)
            pieces = [
                ints_at(scale, column)
                for column in [pair_column(w2, *pair2)] + columns[::step]
            ]
            base = _restricted_ascent(active, pieces, scale, n, m, {})
            for factor in (Rat(1, n), Rat(1, 7), Rat(5)):
                # The columns times p/q are the same ints times p over
                # scale·q.
                p, q = int(factor.numerator), int(factor.denominator)
                scaled = [[p * v for v in vec] for vec in [active] + pieces]
                again = _restricted_ascent(scaled[0], scaled[1:], scale * q, n, m, {})
                assert again == base


def test_failed_ascent_check_is_not_swallowed(monkeypatch):
    def broken(*_args, **_kwargs):
        raise InternalCheckError("ascent subproblem produced an invalid payoff")

    monkeypatch.setattr(metric, "_restricted_ascent", broken)
    with pytest.raises(InternalCheckError):
        brm_distance_lower_bound(bsc(0), bsc("1/2"), n_max=2, m_max=2, budget=4)


def tampered_maximize(tamper):
    """metric.maximize with tamper(prices) applied to the payoff prices of
    every ascent program whose payoff has at least two coordinates."""

    def fake(lp, *args, **kwargs):
        outcome = maximize(lp, *args, **kwargs)
        dim = lp.num_rows - 1
        if dim < 2:
            return outcome
        prices = list(outcome.dual_certificate)
        prices[:dim] = tamper(prices[:dim])
        return replace(outcome, dual_certificate=tuple(prices))

    return fake


@pytest.mark.parametrize(
    "tamper",
    [
        # One price negative, the prices still summing to one.
        lambda y: [y[0] - 2, y[1] + 2, *y[2:]],
        # Every price nonnegative, the prices summing to two.
        lambda y: [y[0] + 1, *y[1:]],
    ],
    ids=["negative-price", "sum-not-one"],
)
def test_ascent_payoff_check_rejects_tampered_prices(monkeypatch, tamper):
    monkeypatch.setattr(metric, "maximize", tampered_maximize(tamper))
    with pytest.raises(InternalCheckError) as caught:
        brm_distance_lower_bound(bsc(0), bsc("1/2"), n_max=2, m_max=2, budget=4)
    assert str(caught.value) == "ascent subproblem produced an invalid payoff"


def old_shape_order(n_max, m_max):
    return sorted(
        ((n, m) for n in range(1, n_max + 1) for m in range(1, m_max + 1)),
        key=lambda nm: (nm[0] * nm[1], nm),
    )


def test_estimates_equal_those_of_the_full_shape_list(monkeypatch):
    # Trial t plays shape t mod the shape count in (n·m, n, m) order, with
    # budgets that cycle and that stop short of the list.
    w1, w2 = random_channel(2, 2, 91, 6), random_channel(2, 2, 92, 6)
    played = []
    sample = metric._sample_payoff

    def recording_sample(seed, trial, n, m):
        played.append((n, m))
        return sample(seed, trial, n, m)

    for n_max in range(1, 6):
        for m_max in range(1, 6):
            old = old_shape_order(n_max, m_max)
            for budget in (n_max * m_max + 3, max(1, n_max * m_max // 2)):
                monkeypatch.setattr(metric, "_sample_payoff", recording_sample)
                played.clear()
                est = brm_distance_lower_bound(
                    w1, w2, n_max=n_max, m_max=m_max, budget=budget, seed=3
                )
                assert played == [old[t % len(old)] for t in range(budget)]
                # Every shape listed up front and cycled, as the search ran
                # before it built only the shapes it tries.
                monkeypatch.undo()
                monkeypatch.setattr(metric, "islice", lambda _shapes, _budget: old)
                full = brm_distance_lower_bound(
                    w1, w2, n_max=n_max, m_max=m_max, budget=budget, seed=3
                )
                monkeypatch.undo()
                assert est == full


def test_huge_shape_caps_build_only_the_shapes_tried():
    w1, w2 = bsc(0), bsc("1/2")
    huge = brm_distance_lower_bound(w1, w2, n_max=10**6, m_max=10**6, budget=2, seed=1)
    assert huge == brm_distance_lower_bound(w1, w2, n_max=1, m_max=2, budget=2, seed=1)


def test_search_optima_equal_those_of_the_rational_games():
    # The search scores every game on each channel's int image, scaled
    # once: the same value and optimal pair, and the same cap failure.
    for seed in range(8):
        w = random_channel(1 + seed % 3, 2 + seed % 2, 9400 + seed, 8)
        image = w._image
        for n, m in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2)):
            for trial in (2, 3):
                sample = _sample_payoff(seed, trial, n, m)
                payoff = rows_of(sample, m)
                game = BrmGame(n, w.input_size, w.output_size, m, payoff, w)
                total, f_img, g_img = metric._opt(
                    w, n, m, sample, DEFAULT_MAX_PAIRS, {}
                )
                got = Rat(total, image[0] * sample[0] * n), (
                    DeterministicMap(n, w.input_size, tuple(x + 1 for x in f_img)),
                    DeterministicMap(w.output_size, m, tuple(v + 1 for v in g_img)),
                )
                assert got == optimal_average_payoff(game)
    cap = w.input_size**n - 1
    with pytest.raises(ResourceLimitError) as caught:
        metric._opt(w, n, m, sample, cap, {})
    with pytest.raises(ResourceLimitError) as expected:
        optimal_average_payoff(game, cap)
    assert str(caught.value) == str(expected.value)


PARITY_SHAPES = ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3))
PARITY_SEARCHES = ((1, 1, 2), (1, 2, 3), (2, 1, 4), (2, 2, 4), (2, 3, 7), (3, 3, 24))


@pytest.mark.parametrize("n_max, m_max, budget", PARITY_SEARCHES)
def test_search_equals_the_rational_search(n_max, m_max, budget):
    # Field for field on seeded pairs of channels of different shapes,
    # against the search as it ran on rationals.
    for seed in range(len(PARITY_SHAPES)):
        x1, y1 = PARITY_SHAPES[seed]
        x2, y2 = PARITY_SHAPES[(seed + 2) % len(PARITY_SHAPES)]
        w1 = random_channel(x1, y1, 9500 + seed, 6)
        w2 = random_channel(x2, y2, 9600 + seed, 6)
        for search_seed in (seed, seed + 11):
            est = brm_distance_lower_bound(
                w1, w2, n_max=n_max, m_max=m_max, budget=budget, seed=search_seed
            )
            assert est == rational_brm_distance_lower_bound(
                w1, w2, n_max, m_max, budget, seed=search_seed
            )


def test_search_cap_failure_equals_the_rational_search():
    w1, w2 = random_channel(2, 3, 9700, 6), random_channel(3, 2, 9701, 6)
    # Four trials play every shape up to 2×2; the widest need is 3**2.
    need = 3**2

    def search(cap):
        return brm_distance_lower_bound(
            w1, w2, n_max=2, m_max=2, budget=4, max_encoders=cap
        )

    assert search(need) == rational_brm_distance_lower_bound(
        w1, w2, 2, 2, 4, max_encoders=need
    )
    with pytest.raises(ResourceLimitError) as caught:
        search(need - 1)
    with pytest.raises(ResourceLimitError) as expected:
        rational_brm_distance_lower_bound(w1, w2, 2, 2, 4, max_encoders=need - 1)
    assert str(caught.value) == str(expected.value)


# Channel pairs (|X1|, |Y1|, |X2|, |Y2|) with different input sizes.
SKIP_PAIRS = ((2, 3, 3, 2), (1, 2, 3, 3), (3, 3, 2, 2), (4, 2, 2, 3))


@pytest.mark.parametrize("n_max, m_max", ((1, 1), (1, 3), (3, 1), (1, 5), (4, 1)))
def test_one_secret_or_one_action_searches_skip_every_game(monkeypatch, n_max, m_max):
    # Every channel has the same optimum on a 1×m or n×1 game, so the
    # search scores no game and runs no ascent there, and still equals the
    # rational search, which does both.
    calls = []

    def counted(name):
        real = getattr(metric, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("_restricted_ascent", "_best_pair"):
        monkeypatch.setattr(metric, name, counted(name))
    for k, (x1, y1, x2, y2) in enumerate(SKIP_PAIRS):
        w1 = random_channel(x1, y1, 9800 + k, 6)
        w2 = random_channel(x2, y2, 9810 + k, 6)
        for budget in range(1, 10):
            est = brm_distance_lower_bound(
                w1, w2, n_max=n_max, m_max=m_max, budget=budget, seed=budget + k
            )
            assert est == rational_brm_distance_lower_bound(
                w1, w2, n_max, m_max, budget, seed=budget + k
            )
            assert est.lower_bound == 0 and est.game_dims == (1, 1)
    assert calls == []


def search_outcome(search, *args, **kwargs):
    """The search's estimate, or the message of its cap failure."""
    try:
        return search(*args, **kwargs)
    except ResourceLimitError as exc:
        return str(exc)


@pytest.mark.parametrize("budget", (1, 3))
def test_skipped_shapes_fail_the_cap_as_the_rational_search(budget):
    # Budget 1 plays 1×1 and budget 3 also 1×2 and 2×1, all skipped: the
    # search still checks w1's encoder cap, then w2's, on each of them.
    for k, (x1, x2) in enumerate(((2, 3), (3, 2), (3, 4), (4, 3))):
        w1 = random_channel(x1, 2, 9820 + k, 6)
        w2 = random_channel(x2, 3, 9830 + k, 6)
        outcomes = {}
        for cap in range(1, max(x1, x2) ** 2 + 1):
            outcomes[cap] = search_outcome(
                brm_distance_lower_bound,
                w1, w2, n_max=2, m_max=2, budget=budget, max_encoders=cap,
            )
            assert outcomes[cap] == search_outcome(
                rational_brm_distance_lower_bound,
                w1, w2, 2, 2, budget, max_encoders=cap,
            )
        # Just below the larger |X| only that channel fails; below both,
        # w1 is checked first.
        top, low = max(x1, x2), min(x1, x2)
        assert outcomes[top - 1] == (
            f"encoder enumeration has {top} elements (cap {top - 1})"
        )
        assert outcomes[low - 1] == (
            f"encoder enumeration has {x1} elements (cap {low - 1})"
        )


# Channel pairs (|X1|, |Y1|, |X2|, |Y2|) for the searches below.
MEMO_PAIRS = ((2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 2), (3, 3, 2, 3))


def test_search_solves_each_program_and_scores_each_game_once(monkeypatch):
    # Within one search no ascent program is solved twice and no game
    # optimum of one channel is scanned twice, though both are asked for
    # again; the estimate is still the rational search's.
    programs, scans, requests = [], [], []
    real_maximize, real_best_pair, real_opt = (
        metric.maximize, metric._best_pair, metric._opt
    )

    def recording_maximize(lp, *args, **kwargs):
        programs.append((lp.scale, lp.a_ints, lp.b_ints, lp.objective))
        return real_maximize(lp, *args, **kwargs)

    def recording_best_pair(tables):
        # A channel's tables fix the payoff's ints, and tables of
        # different shapes or entries tell the channels apart.
        scans.append(repr(tables))
        return real_best_pair(tables)

    def recording_opt(*args, **kwargs):
        requests.append(args)
        return real_opt(*args, **kwargs)

    monkeypatch.setattr(metric, "maximize", recording_maximize)
    monkeypatch.setattr(metric, "_best_pair", recording_best_pair)
    monkeypatch.setattr(metric, "_opt", recording_opt)
    scanned = asked = 0
    for k, (x1, y1, x2, y2) in enumerate(MEMO_PAIRS):
        w1 = random_channel(x1, y1, 9900 + k, 6)
        w2 = random_channel(x2, y2, 9910 + k, 6)
        for seed in (k, k + 5):
            for log in (programs, scans, requests):
                log.clear()
            est = brm_distance_lower_bound(w1, w2, n_max=3, m_max=3, budget=24, seed=seed)
            assert len(set(programs)) == len(programs)
            assert len(set(scans)) == len(scans)
            assert est == rational_brm_distance_lower_bound(w1, w2, 3, 3, 24, seed=seed)
            scanned, asked = scanned + len(scans), asked + len(requests)
    assert asked > scanned


def test_concurrent_searches_equal_their_sequential_results():
    # Each search's memo is its own: two threads searching pairs of the
    # same shapes at once, with thread switches forced often, see each
    # other's programs and payoffs nowhere.
    pairs = [
        (random_channel(2, 2, 9920 + k, 6), random_channel(2, 2, 9930 + k, 6))
        for k in range(6)
    ]

    def search(w1, w2):
        return brm_distance_lower_bound(w1, w2, n_max=3, m_max=3, budget=12, seed=1)

    sequential = [search(*pair) for pair in pairs]
    results = {}

    def run(name, chunk):
        results[name] = [search(*pair) for pair in chunk]

    threads = [
        threading.Thread(target=run, args=(name, pairs[name::2])) for name in (0, 1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results[0] == sequential[0::2] and results[1] == sequential[1::2]
