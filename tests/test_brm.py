from dataclasses import replace
from itertools import product

import pytest

from oracles import (
    brute_force_optimal_average,
    brute_force_optimal_pair,
    brute_force_region_points,
    unpruned_best_pair,
)

from chanord import brm, lp_solver
from chanord.brm import (
    BrmGame,
    PayoffRegionGenerators,
    Strategy,
    _best_pair,
    _score_tables,
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
from chanord.channel_core import (
    DeterministicMap,
    bsc,
    compose,
    identity_channel,
    make_channel,
    random_channel,
)
from chanord.cpc import as_channel
from chanord.errors import DimensionMismatchError, ResourceLimitError
from chanord.lp_solver import (
    FEASIBLE,
    _ScaledGroup,
    hull_lp,
    hull_outcomes,
    solve_feasibility,
)
from chanord.prng import counter_int
from chanord.rational import ONE, ZERO, Rat, scaled_ints


def constant_payoff(u, v):
    return tuple(tuple(Rat(1, u * v) for _ in range(v)) for _ in range(u))


def random_payoff(u, v, seed, normalized=True):
    draws = [
        [counter_int(seed, i, j, bound=9) + 1 for j in range(v)] for i in range(u)
    ]
    total = sum(sum(r) for r in draws)
    if not normalized:
        total = 1
    return tuple(tuple(Rat(k, total) for k in row) for row in draws)


def random_game(seed, u=2, x=2, y=2, v=2, den=8):
    return BrmGame(u, x, y, v, random_payoff(u, v, seed), random_channel(x, y, seed + 991, den))


def random_strategy(game, seed, k=2):
    weights = [counter_int(seed, 5, i, bound=7) + 1 for i in range(k)]
    total = sum(weights)
    encoders = tuple(
        DeterministicMap(
            game.u_size,
            game.x_size,
            tuple(
                counter_int(seed, 6, i, u, bound=game.x_size - 1) + 1
                for u in range(game.u_size)
            ),
        )
        for i in range(k)
    )
    decoders = tuple(
        DeterministicMap(
            game.y_size,
            game.v_size,
            tuple(
                counter_int(seed, 7, i, y, bound=game.v_size - 1) + 1
                for y in range(game.y_size)
            ),
        )
        for i in range(k)
    )
    return Strategy(tuple(Rat(w, total) for w in weights), encoders, decoders)


def single_pair_strategy(game, f_img, g_img):
    return Strategy(
        (ONE,),
        (DeterministicMap(game.u_size, game.x_size, f_img),),
        (DeterministicMap(game.y_size, game.v_size, g_img),),
    )


def test_constant_payoff_is_strategy_independent():
    game = BrmGame(2, 2, 2, 2, constant_payoff(2, 2), random_channel(2, 2, 3, 8))
    for seed in range(5):
        s = random_strategy(game, seed)
        for u in (1, 2):
            assert payoff(u, s, game) == Rat(1, 4)


def test_single_pair_payoff_formula():
    game = random_game(17)
    s = single_pair_strategy(game, (2, 1), (1, 2))
    for u in (1, 2):
        row = game.randomizer.rows[s.encoders[0](u) - 1]
        expected = sum(
            (row[y] * game.payoff_matrix[u - 1][s.decoders[0](y + 1) - 1]
             for y in range(2)),
            start=ZERO,
        )
        assert payoff(u, s, game) == expected


def test_payoff_matches_joint_channel_contraction():
    # The structured formula and the contraction through the strategy's
    # convex-product channel must agree entry for entry.
    game = random_game(23)
    s = random_strategy(game, 31)
    flat = as_channel(strategy_to_cpc(s))
    for u in range(1, game.u_size + 1):
        acc = ZERO
        for x in range(1, game.x_size + 1):
            for y in range(1, game.y_size + 1):
                for v in range(1, game.v_size + 1):
                    row = (u - 1) * game.y_size + (y - 1)
                    col = (x - 1) * game.v_size + (v - 1)
                    joint = flat.rows[row][col]
                    if joint != 0:
                        acc += (
                            joint
                            * game.randomizer.rows[x - 1][y - 1]
                            * game.payoff_matrix[u - 1][v - 1]
                        )
        assert payoff(u, s, game) == acc


def test_payoff_vector_shapes_and_linearity():
    narrow = BrmGame(1, 2, 2, 2, random_payoff(1, 2, 5), random_channel(2, 2, 7, 8))
    s = random_strategy(narrow, 8)
    assert payoff_vector(s, narrow) == (payoff(1, s, narrow),)

    game = random_game(41)
    s = random_strategy(game, 42, k=3)
    mix = [ZERO] * game.u_size
    for wgt, enc, dec in zip(s.weights, s.encoders, s.decoders):
        part = payoff_vector(single_pair_strategy(game, enc.image, dec.image), game)
        mix = [m + wgt * p for m, p in zip(mix, part)]
    assert payoff_vector(s, game) == tuple(mix)


def test_strategy_shape_errors():
    game = random_game(45, u=2, x=3, y=2, v=3)
    good_f = DeterministicMap(2, 3, (1, 3))
    good_g = DeterministicMap(2, 3, (2, 1))
    bad = [
        ((DeterministicMap(3, 3, (1, 2, 3)),), (good_g,)),  # encoder domain != |U|
        ((DeterministicMap(2, 2, (1, 2)),), (good_g,)),  # encoder codomain != |X|
        ((good_f,), (DeterministicMap(3, 3, (1, 2, 3)),)),  # decoder domain != |Y|
        ((good_f,), (DeterministicMap(2, 2, (2, 1)),)),  # decoder codomain != |V|
    ]
    for encoders, decoders in bad:
        # Alone, or beside a well-shaped pair on either side.
        strategies = [Strategy((ONE,), encoders, decoders)] + [
            Strategy(
                (Rat(1, 2), Rat(1, 2)),
                ((good_f,) + encoders)[::order],
                ((good_g,) + decoders)[::order],
            )
            for order in (1, -1)
        ]
        for s in strategies:
            with pytest.raises(DimensionMismatchError):
                payoff_vector(s, game)
            with pytest.raises(DimensionMismatchError):
                payoff(1, s, game)
    # Encoders of differing shapes, the first of them matching the game.
    mixed = Strategy(
        (Rat(1, 2), Rat(1, 2)),
        (good_f, DeterministicMap(3, 2, (1, 2, 1))),
        (good_g, good_g),
    )
    with pytest.raises(DimensionMismatchError):
        payoff_vector(mixed, game)
    with pytest.raises(DimensionMismatchError):
        payoff(2, mixed, game)


def test_average_payoff_is_mean():
    game = random_game(51)
    s = random_strategy(game, 52)
    vec = payoff_vector(s, game)
    assert average_payoff(s, game) == sum(vec, start=ZERO) / game.u_size


def test_optimal_average_payoff_closed_cases():
    const = BrmGame(2, 2, 2, 2, constant_payoff(2, 2), random_channel(2, 2, 61, 8))
    value, _pair = optimal_average_payoff(const)
    assert value == Rat(1, 4)

    useless = BrmGame(
        2, 2, 2, 2, random_payoff(2, 2, 62), make_channel([["1/2", "1/2"]] * 2)
    )
    value, _pair = optimal_average_payoff(useless)
    best_col = max(
        sum((useless.payoff_matrix[u][v] for u in range(2)), start=ZERO)
        for v in range(2)
    )
    assert value == best_col / 2

    half_identity = tuple(
        tuple(Rat(1, 2) if u == v else ZERO for v in range(2)) for u in range(2)
    )
    diag = BrmGame(2, 2, 2, 2, half_identity, identity_channel(2))
    value, (f, g) = optimal_average_payoff(diag)
    # Full enumeration of the 16 deterministic pairs: the payoff relayed
    # through the identity randomizer is (1/2)·Σ_u l(u, g(f(u))), maximal
    # when g∘f is the identity, giving (1/2)(1/2 + 1/2) = 1/2.
    assert value == brute_force_optimal_average(diag) == Rat(1, 2)
    assert g.image[f.image[0] - 1] == 1 and g.image[f.image[1] - 1] == 2


def test_optimal_average_payoff_matches_brute_force():
    for seed in range(12):
        game = random_game(seed + 700, u=2, x=3, y=2, v=2)
        value, pair = optimal_average_payoff(game)
        assert value == brute_force_optimal_average(game)
        attained = average_payoff(
            single_pair_strategy(game, pair[0].image, pair[1].image), game
        )
        assert attained == value


def test_optimal_average_payoff_cap():
    game = random_game(55, u=3, x=3)
    with pytest.raises(ResourceLimitError):
        optimal_average_payoff(game, max_encoders=10)


def oracle_games(u, x, y, v, seed):
    """Games of one shape with signed (Farkas-dual-like), all-zero and 0/1
    payoffs, and, when |Y| > 1, a randomizer with a mass-free output."""
    signed = tuple(
        tuple(
            Rat(counter_int(seed, 1, i, j, bound=12) - 6,
                counter_int(seed, 2, i, j, bound=4) + 1)
            for j in range(v)
        )
        for i in range(u)
    )
    zero = tuple(tuple(ZERO for _ in range(v)) for _ in range(u))
    zero_one = tuple(
        tuple(Rat(counter_int(seed, 3, i, j, bound=1)) for j in range(v))
        for i in range(u)
    )
    w = random_channel(x, y, seed + 991, 8)
    games = [BrmGame(u, x, y, v, payoff, w) for payoff in (signed, zero, zero_one)]
    if y > 1:
        dead = counter_int(seed, 4, bound=y - 1)
        rows = tuple(
            row[:dead] + (ZERO,) + row[dead:]
            for row in random_channel(x, y - 1, seed + 17, 8).rows
        )
        games.append(BrmGame(u, x, y, v, signed, make_channel(rows)))
    return games


def test_optimal_average_payoff_argmax_matches_pair_enumeration():
    shapes = list(product(range(1, 4), repeat=4)) + [
        (4, 2, 3, 2), (2, 4, 2, 4), (3, 3, 4, 3), (4, 3, 2, 3), (2, 2, 4, 4),
    ]
    for seed, shape in enumerate(shapes):
        for game in oracle_games(*shape, seed + 1300):
            value, (f, g) = optimal_average_payoff(game)
            assert (value, f.image, g.image) == brute_force_optimal_pair(game)


def test_optimal_average_payoff_all_ties_pick_first_pair():
    for u, x, y, v in [(1, 1, 1, 1), (2, 3, 2, 3), (3, 2, 4, 2), (4, 3, 3, 4)]:
        zero = tuple(tuple(ZERO for _ in range(v)) for _ in range(u))
        game = BrmGame(u, x, y, v, zero, random_channel(x, y, u + 10 * x, 8))
        value, (f, g) = optimal_average_payoff(game)
        assert (value, f.image, g.image) == (ZERO, (1,) * u, (1,) * y)


def score_table_kinds(u, x, y, v, seed):
    """Int score tables tables[u][x][y][v] of one shape: signed, all zero,
    all equal, tie-heavy (entries 0 or 1, and 0 or ±1), and W against an
    all-ones dual, the first dual of an empty containment master."""

    def drawn(lo, hi, kind):
        entries = iter(
            lo + counter_int(seed, kind, k, bound=hi - lo) for k in range(u * x * y * v)
        )
        return [[[[next(entries) for _ in range(v)] for _ in range(y)] for _ in range(x)]
                for _ in range(u)]

    w_ints = [counter_int(seed, 9, k, bound=3) for k in range(x * y)]
    return [
        drawn(-9, 9, 0),
        drawn(0, 0, 1),
        drawn(5, 5, 2),
        drawn(0, 1, 3),
        drawn(-1, 1, 4),
        _score_tables(w_ints, [1] * (u * v), y, v),
    ]


def test_pruned_pricing_scan_matches_the_full_scan():
    """_best_pair skips prefixes by a bound, yet returns the full scan's
    total, first optimal encoder and smallest optimal decoders on every
    shape up to 3 secrets, inputs, outputs and decisions."""
    for shape in product(range(1, 4), repeat=4):
        for seed in range(3):
            for tables in score_table_kinds(*shape, seed):
                assert _best_pair(tables) == unpruned_best_pair(tables), (shape, tables)


def test_optimal_average_payoff_cap_boundary():
    for u, x in [(1, 3), (3, 2), (2, 4), (3, 3)]:
        game = random_game(90 + u * x, u=u, x=x, y=2, v=3)
        value, _ = optimal_average_payoff(game, max_encoders=x**u)
        assert value == brute_force_optimal_average(game)
        with pytest.raises(ResourceLimitError, match=f"has {x**u} elements"):
            optimal_average_payoff(game, max_encoders=x**u - 1)


def test_optimal_dominates_random_strategies():
    game = random_game(81, u=2, x=2, y=2, v=3)
    value, _ = optimal_average_payoff(game)
    for seed in range(100):
        s = random_strategy(game, 8200 + seed, k=3)
        assert average_payoff(s, game) <= value


def test_strategy_to_cpc_structure():
    game = random_game(91)
    one = single_pair_strategy(game, (1, 2), (2, 1))
    v = strategy_to_cpc(one)
    assert len(v.terms) == 1 and v.terms[0].weight == ONE

    s = Strategy(
        (Rat(1, 2), Rat(1, 2)),
        (one.encoders[0], one.encoders[0]),
        (one.decoders[0], one.decoders[0]),
    )
    v2 = strategy_to_cpc(s)
    assert [t.weight for t in v2.terms] == [Rat(1, 2), Rat(1, 2)]
    for row in as_channel(v2).rows:
        assert sum(row, start=ZERO) == ONE


def test_region_generators_shapes():
    tiny = BrmGame(1, 1, 1, 1, ((ONE,),), identity_channel(1))
    assert region_generators(tiny).points == ((ONE,),)

    const = BrmGame(2, 2, 2, 2, constant_payoff(2, 2), random_channel(2, 2, 95, 8))
    gens = region_generators(const)
    assert len(gens.points) == 16
    assert set(gens.points) == {(Rat(1, 4), Rat(1, 4))}

    game = random_game(96)
    gens = region_generators(game)
    assert len(gens.points) == game.x_size**game.u_size * game.v_size**game.y_size


def test_region_generators_match_pair_enumeration():
    # Shapes with one secret, one input and one guess, and signed payoffs.
    shapes = [(1, 2, 2, 2), (2, 1, 3, 2), (2, 2, 2, 1), (1, 1, 1, 1), (2, 3, 2, 2),
              (3, 2, 2, 3), (2, 2, 3, 2)]
    for seed, shape in enumerate(shapes):
        for game in oracle_games(*shape, seed + 1700):
            gens = region_generators(game)
            assert gens.u_size == game.u_size
            assert list(gens.points) == brute_force_region_points(game)


def test_region_generators_hand_over_the_plain_image():
    # region_generators sets each region's int image from the ints it
    # summed; a region built from the same points scales them on first
    # use. Both give the same value, and neither shows in == or repr.
    shapes = [(1, 2, 2, 2), (2, 1, 3, 2), (2, 2, 2, 1), (2, 3, 2, 2), (3, 2, 2, 3)]
    for seed, shape in enumerate(shapes):
        for game in oracle_games(*shape, seed + 1750):
            gens = region_generators(game)
            plain = PayoffRegionGenerators(gens.u_size, gens.points)
            assert "_image" in vars(gens) and "_image" not in vars(plain)
            flat = [v for point in gens.points for v in point]
            assert gens._image == plain._image == scaled_ints(flat)
            assert gens == plain and repr(gens) == repr(plain)


def test_region_generators_cap_boundary():
    for u, x, y, v in [(1, 3, 2, 2), (2, 2, 2, 3), (2, 1, 3, 2), (3, 2, 1, 1)]:
        game = random_game(120 + u * x * y * v, u=u, x=x, y=y, v=v)
        count = x**u * v**y
        assert len(region_generators(game, max_pairs=count).points) == count
        with pytest.raises(ResourceLimitError, match=f"has {count} elements"):
            region_generators(game, max_pairs=count - 1)


def test_region_generators_cover_mixed_strategies():
    game = random_game(97)
    gens = region_generators(game)
    samples = [payoff_vector(random_strategy(game, 9800 + i, k=3), game) for i in range(100)]
    from chanord.brm import PayoffRegionGenerators

    sample_region = PayoffRegionGenerators(game.u_size, tuple(samples))
    assert region_subset(sample_region, gens).inside_all


def test_region_subset_reflexive_and_violations():
    game = random_game(99)
    gens = region_generators(game)
    assert region_subset(gens, gens).inside_all

    from chanord.brm import PayoffRegionGenerators

    point = gens.points[0]
    singleton = PayoffRegionGenerators(game.u_size, (point,))
    assert region_subset(singleton, PayoffRegionGenerators(game.u_size, (point, point))).inside_all

    with pytest.raises(DimensionMismatchError):
        region_subset(gens, PayoffRegionGenerators(game.u_size + 1, ((ZERO,) * 3,)))


def test_region_points_must_have_u_size_coordinates():
    from chanord.brm import PayoffRegionGenerators

    with pytest.raises(DimensionMismatchError):
        region_subset(
            PayoffRegionGenerators(1, ((ONE,),)),
            PayoffRegionGenerators(1, ((ONE, Rat(9)),)),
        )
    with pytest.raises(DimensionMismatchError):
        PayoffRegionGenerators(2, ((ONE, ZERO), (ONE,)))


def test_region_subset_separates_bsc_pair():
    payoff_m = random_payoff(2, 2, 101)
    good = BrmGame(2, 2, 2, 2, payoff_m, bsc("1/10"))
    bad = BrmGame(2, 2, 2, 2, payoff_m, bsc("3/10"))
    inclusion = region_subset(region_generators(bad), region_generators(good))
    assert inclusion.inside_all
    reverse = region_subset(region_generators(good), region_generators(bad))
    assert not reverse.inside_all
    assert reverse.violator in region_generators(good).points


def test_region_subset_implies_optimal_inequality():
    for seed in range(8):
        g1 = random_game(1100 + seed)
        g2 = BrmGame(
            g1.u_size, 2, 2, g1.v_size, g1.payoff_matrix, random_channel(2, 2, 1200 + seed, 8)
        )
        if region_subset(region_generators(g1), region_generators(g2)).inside_all:
            v1, _ = optimal_average_payoff(g1)
            v2, _ = optimal_average_payoff(g2)
            assert v1 <= v2


def test_equivalent_channels_share_optimal_payoffs():
    from chanord.channel_core import compose, deterministic
    from chanord.ordering import shannon_equivalent

    w = random_channel(2, 3, 141, 8)
    sigma = deterministic(DeterministicMap(2, 2, (2, 1)))
    tau = deterministic(DeterministicMap(3, 3, (3, 1, 2)))
    other = compose(tau, compose(w, sigma))
    first, second = shannon_equivalent(w, other)
    assert first.holds and second.holds
    for seed in range(5):
        payoff = random_payoff(2, 2, 1500 + seed)
        v1, _ = optimal_average_payoff(BrmGame(2, 2, 3, 2, payoff, w))
        v2, _ = optimal_average_payoff(BrmGame(2, 2, 3, 2, payoff, other))
        assert v1 == v2


def test_game_json_round_trip():
    game = random_game(131, u=2, x=3, y=2, v=2)
    assert game_from_json(game_to_json(game)) == game
    assert game.is_normalized()


@pytest.mark.parametrize("rows", [["10"], [None], 5])
def test_malformed_payoff_rows_are_a_value_error(rows):
    # A string row must not load as one payoff per character.
    bad = game_to_json(BrmGame(1, 1, 1, 2, ((ONE, ZERO),), make_channel([[1]])))
    bad["l"] = rows
    with pytest.raises(ValueError, match="malformed game JSON"):
        game_from_json(bad)


def test_optimal_average_payoff_many_secrets_one_encoder():
    # One encoder, but a walk one level deep per secret would overflow
    # the interpreter's recursion limit.
    u = 1200
    game = BrmGame(u, 1, 1, 1, ((Rat(1, u),),) * u, make_channel([[1]]))
    value, (f, g) = optimal_average_payoff(game)
    assert value == Rat(1, u)
    assert f.image == (1,) * u and g.image == (1,)


@pytest.mark.parametrize("key", ["u", "x", "y", "v"])
@pytest.mark.parametrize("size", [1.9, 1.0, True, "1", None])
def test_non_integer_game_sizes_are_a_value_error(key, size):
    bad = game_to_json(BrmGame(1, 1, 1, 1, ((ONE,),), make_channel([[1]])))
    bad[key] = size
    with pytest.raises(ValueError, match="malformed game JSON"):
        game_from_json(bad)


def first_point_outside(a, b):
    """The first of a's points outside conv(b), each solved against all of
    b's points, repeats included; None when every point is inside."""
    for point in a.points:
        if solve_feasibility(hull_lp(point, b.points)).tag != FEASIBLE:
            return point
    return None


@pytest.mark.parametrize("b_points, a_points, cold_count", [
    ((), ((ONE, ZERO), (Rat(1, 2), Rat(1, 2))), 1),
    ((), (), 0),
    (((ONE, ZERO), (ZERO, ONE), (Rat(1, 4), Rat(3, 4))),
     ((ONE, ZERO), (Rat(1, 2), Rat(1, 2)), (ZERO, ONE), (Rat(1, 2), Rat(1, 2))), 1),
    (((ONE, ZERO), (ZERO, ONE), (Rat(1, 4), Rat(3, 4))),
     ((Rat(1, 2), Rat(1, 2)), (Rat(2), -ONE), (ONE, ONE)), 2),
    (((ONE, ZERO), (ZERO, ONE), (Rat(1, 4), Rat(3, 4))),
     ((Rat(1, 2), Rat(1, 2)), (ONE, ONE)), 2),
])
def test_region_subset_answers_an_empty_or_flat_region_cold(
    monkeypatch, b_points, a_points, cold_count
):
    # Over no points, or points on the line x + y = 1, b's program has a
    # redundant row: the warm tableau answers nothing, and every pending
    # point of a, up to the first outside, is one cold program.
    from chanord import brm

    scale, ints = scaled_ints(v for point in b_points for v in point)
    group = _ScaledGroup(scale, ints, len(b_points), 2)
    assert list(hull_outcomes([(0, 0), (1, 1)], group, 1)) == []
    cold = []
    monkeypatch.setattr(
        brm, "solve_feasibility", lambda lp: cold.append(lp) or solve_feasibility(lp)
    )
    a, b = PayoffRegionGenerators(2, a_points), PayoffRegionGenerators(2, b_points)
    expected = first_point_outside(a, b)
    inclusion = region_subset(a, b)
    assert inclusion.inside_all == (expected is None)
    assert inclusion.violator == expected
    assert len(cold) == cold_count


def test_region_subset_on_repeated_points_matches_the_plain_programs():
    answers = []
    for seed in range(10):
        u, x, y, v = 2, 2, 2 + seed % 2, 2
        clean = random_channel(x, y, 3000 + seed, 6)
        noisy = compose(random_channel(y, y, 3100 + seed, 4), clean)
        payoff_a = random_payoff(u, v, 3200 + seed)
        # b's payoff on other denominators half the time, so the two
        # regions are scaled by different common denominators.
        payoff_b = payoff_a if seed % 2 else random_payoff(u, v, 3300 + seed)
        a = region_generators(BrmGame(u, x, y, v, payoff_a, clean))
        b = region_generators(BrmGame(u, x, y, v, payoff_b, noisy))
        assert len(set(a.points)) < len(a.points) and len(set(b.points)) < len(b.points)
        # Repeats on both sides, and b's own points among a's.
        a = PayoffRegionGenerators(u, b.points[:3] + a.points[::-1] + a.points)
        b = PayoffRegionGenerators(u, b.points + b.points[::2])
        for first, second in ((a, b), (b, a)):
            expected = first_point_outside(first, second)
            inclusion = region_subset(first, second)
            assert inclusion.inside_all == (expected is None)
            assert inclusion.violator == expected
            answers.append(inclusion.inside_all)
    assert True in answers and False in answers


def test_region_subset_solves_a_degenerate_region_cold(monkeypatch):
    # When b's points lie in a proper affine subspace (here: one coordinate
    # is the same in all of them, as when a payoff row has equal entries),
    # the warm tableau answers no point and every pending one is solved
    # cold. Regions that span the space are answered warm throughout.
    from chanord import brm

    cold = []
    monkeypatch.setattr(
        brm, "solve_feasibility", lambda lp: cold.append(lp) or solve_feasibility(lp)
    )

    def rat(seed, *words):
        return Rat(counter_int(seed, *words, bound=12), 1 + counter_int(seed, *words, 1, bound=5))

    answers = {True: [], False: []}
    for seed in range(24):
        dim, degenerate = 2 + seed % 2, seed % 4 < 2
        b_points = [tuple(rat(seed, 0, k, i) for i in range(dim)) for k in range(6)]
        if degenerate:
            b_points = [(Rat(1, 3), *point[1:]) for point in b_points]
        a_points = []
        for k in range(5):
            weights = [counter_int(seed, 1, k, j, bound=3) + 1 for j in range(6)]
            a_points.append(tuple(
                sum((Rat(w, sum(weights)) * point[i] for w, point in zip(weights, b_points)),
                    start=ZERO)
                for i in range(dim)
            ))
        if seed % 8 >= 4:  # a random point, most likely outside
            a_points.insert(3, tuple(rat(seed, 2, i) for i in range(dim)))
        a = PayoffRegionGenerators(dim, tuple(a_points))
        b = PayoffRegionGenerators(dim, tuple(b_points))
        cold.clear()
        expected = first_point_outside(a, b)
        inclusion = region_subset(a, b)
        assert inclusion.inside_all == (expected is None)
        assert inclusion.violator == expected
        answers[degenerate].append((inclusion.inside_all, len(cold)))
    for degenerate, runs in answers.items():
        assert {inside for inside, _cold in runs} == {True, False}, runs
        assert all(cold == (5 if degenerate else 0) for inside, cold in runs if inside), runs


def test_region_generators_read_as_the_plain_region():
    # region_generators hands over only the int image, and the points are
    # built from it on first read. Whatever is read first (==, hash, repr,
    # the points, or a dataclasses.replace copy), the region is the one
    # built from its points, with the same image.
    shapes = [(1, 2, 2, 2), (2, 1, 3, 2), (2, 2, 2, 1), (2, 3, 2, 2), (3, 2, 2, 3)]
    for seed, shape in enumerate(shapes):
        for game in oracle_games(*shape, seed + 1800):
            plain = PayoffRegionGenerators(game.u_size, region_generators(game).points)
            assert region_generators(game) == plain
            assert hash(region_generators(game)) == hash(plain)
            assert repr(region_generators(game)) == repr(plain)
            assert replace(region_generators(game)) == plain
            region = region_generators(game)
            assert region._image == plain._image
            assert region.points == plain.points
            assert list(region.points) == brute_force_region_points(game)
            assert region == plain and repr(region) == repr(plain)


def counted_rationals(monkeypatch):
    """A list that records the arguments of every rational built through
    brm.Rat or lp_solver.Rat from now on."""
    built = []

    def counted(*args):
        built.append(args)
        return Rat(*args)

    monkeypatch.setattr(brm, "Rat", counted)
    monkeypatch.setattr(lp_solver, "Rat", counted)
    return built


def test_region_inclusion_builds_no_rational(monkeypatch):
    # Inclusion reads the regions' int images only: a region of W·T lies
    # inside the region of W, and generating both and testing inclusion
    # builds no rational, warm or cold (a payoff row with equal entries
    # puts W's points on a line). The converse builds one rational per
    # coordinate of its violator, and reading the points builds one per
    # distinct value of the image.
    cold = []
    monkeypatch.setattr(
        brm, "solve_feasibility", lambda lp: cold.append(lp) or solve_feasibility(lp)
    )
    built, violators = counted_rationals(monkeypatch), 0
    for seed in range(8):
        u, x, y, v = 2, 2, 2 + seed % 2, 2
        clean = random_channel(x, y, 3400 + seed, 6)
        noisy = compose(random_channel(y, y, 3500 + seed, 4), clean)
        payoff_m = random_payoff(u, v, 3600 + seed)
        if seed % 4 == 3:
            payoff_m = ((Rat(1, 4), Rat(1, 4)), payoff_m[1])
        built.clear()
        inner = region_generators(BrmGame(u, x, y, v, payoff_m, noisy))
        outer = region_generators(BrmGame(u, x, y, v, payoff_m, clean))
        assert region_subset(inner, outer).inside_all
        assert built == []
        converse = region_subset(outer, inner)
        assert len(built) == (0 if converse.inside_all else u)
        violators += not converse.inside_all
        built.clear()
        points = outer.points
        assert len(built) == len(set(outer._image[1]))
        assert converse.violator in (None, *points)
    assert cold and violators >= 3
