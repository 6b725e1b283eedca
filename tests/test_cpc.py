import random
from itertools import product

import pytest

import oracles
from oracles import (
    all_simulation_columns,
    cpc_entry,
    flat_skew_contraction,
    fraction_caratheodory_reduce,
    matrix_rank,
)

from chanord import cpc
from chanord.brm import _pair_ints
from chanord.channel_core import (
    Channel,
    DeterministicMap,
    compose,
    deterministic,
    identity_channel,
    make_channel,
    random_channel,
)
from chanord.cpc import (
    CpcChannel,
    CpcTerm,
    as_channel,
    caratheodory_reduce,
    cpc_from_json,
    cpc_to_json,
    pair_column,
    skew_compose_channel,
    skew_compose_cpc,
)
from chanord.errors import DimensionMismatchError, InternalCheckError
from chanord.lp_solver import solve_feasibility
from chanord.ordering import contains, witness_to_cpc
from chanord.rational import ONE, ZERO, Rat, scaled_ints


def random_cpc(x, xp, yp, y, seed, n_terms=2, den=8):
    terms = []
    for i in range(n_terms):
        r = random_channel(x, xp, seed * 101 + 2 * i, den)
        t = random_channel(yp, y, seed * 103 + 2 * i + 1, den)
        terms.append((r, t))
    weights = [Rat(1, n_terms)] * n_terms
    return CpcChannel(
        x, xp, yp, y,
        tuple(CpcTerm(w, r, t) for w, (r, t) in zip(weights, terms)),
    )


def identity_cpc(n, m):
    return CpcChannel(
        n, n, m, m, (CpcTerm(ONE, identity_channel(n), identity_channel(m)),)
    )


def det_cpc(f_img, f_sizes, g_img, g_sizes):
    f = DeterministicMap(f_sizes[0], f_sizes[1], f_img)
    g = DeterministicMap(g_sizes[0], g_sizes[1], g_img)
    return CpcChannel(
        f_sizes[0], f_sizes[1], g_sizes[0], g_sizes[1],
        (CpcTerm(ONE, deterministic(f), deterministic(g)),),
    )


def test_cpc_weight_validation():
    with pytest.raises(ValueError):
        CpcChannel(1, 1, 1, 1, (CpcTerm(Rat(1, 2), identity_channel(1), identity_channel(1)),))


def test_as_channel_identity_term():
    from chanord.channel_core import channel_product

    v = identity_cpc(2, 3)
    assert as_channel(v) == channel_product(identity_channel(2), identity_channel(3))


def test_as_channel_merges_equal_terms():
    r = random_channel(2, 2, 4, 8)
    t = random_channel(2, 2, 5, 8)
    one = CpcChannel(2, 2, 2, 2, (CpcTerm(ONE, r, t),))
    half = CpcChannel(
        2, 2, 2, 2, (CpcTerm(Rat(1, 2), r, t), CpcTerm(Rat(1, 2), r, t))
    )
    assert as_channel(one) == as_channel(half)


def test_as_channel_matches_direct_formula():
    v = random_cpc(2, 3, 2, 2, seed=11)
    flat = as_channel(v)
    for x in range(1, 3):
        for yp in range(1, 3):
            for xp in range(1, 4):
                for y in range(1, 3):
                    row = (x - 1) * 2 + (yp - 1)
                    col = (xp - 1) * 2 + (y - 1)
                    assert flat.rows[row][col] == cpc_entry(v, x, yp, xp, y)


def test_skew_compose_cpc_identity():
    v = identity_cpc(2, 2)
    assert as_channel(skew_compose_cpc(v, v)) == as_channel(v)


def test_skew_compose_cpc_deterministic_pairs():
    v = det_cpc((2, 1), (2, 2), (1, 1), (2, 2))
    vp = det_cpc((1, 2), (2, 2), (2, 2), (2, 2))
    out = skew_compose_cpc(v, vp)
    # Maps compose through the middle alphabets: f' after f, g after g'.
    f_expected = DeterministicMap(2, 2, (2, 1))  # f'(f(x)) with f=(2,1), f'=(1,2)
    g_expected = DeterministicMap(2, 2, (1, 1))  # g(g'(y'')) with g'=(2,2), g=(1,1)
    expected = det_cpc(f_expected.image, (2, 2), g_expected.image, (2, 2))
    assert as_channel(out) == as_channel(expected)


def test_skew_compose_cpc_matches_flat_contraction():
    v = random_cpc(2, 2, 2, 2, seed=21)
    vp = random_cpc(2, 2, 2, 2, seed=22)
    out = skew_compose_cpc(v, vp)
    assert len(out.terms) == 4
    reference = flat_skew_contraction(
        as_channel(v).rows, (2, 2, 2, 2), as_channel(vp).rows, (2, 2, 2, 2)
    )
    assert [list(row) for row in as_channel(out).rows] == reference


def test_skew_compose_channel_identity():
    wp = random_channel(2, 2, 31, 8)
    assert skew_compose_channel(identity_cpc(2, 2), wp) == wp


def test_skew_compose_channel_single_deterministic_term():
    wp = random_channel(2, 3, 33, 8)
    f = DeterministicMap(3, 2, (1, 2, 2))
    g = DeterministicMap(3, 2, (2, 1, 1))
    v = CpcChannel(3, 2, 3, 2, (CpcTerm(ONE, deterministic(f), deterministic(g)),))
    assert skew_compose_channel(v, wp) == compose(
        deterministic(g), compose(wp, deterministic(f))
    )


def test_skew_compose_channel_two_term_average():
    wp = random_channel(2, 2, 35, 8)
    pairs = [((1, 1), (2, 1)), ((2, 2), (1, 2))]
    composed = []
    terms = []
    for f_img, g_img in pairs:
        f = deterministic(DeterministicMap(2, 2, f_img))
        g = deterministic(DeterministicMap(2, 2, g_img))
        terms.append(CpcTerm(Rat(1, 2), f, g))
        composed.append(compose(g, compose(wp, f)))
    v = CpcChannel(2, 2, 2, 2, tuple(terms))
    mixed = skew_compose_channel(v, wp)
    for x in range(2):
        for y in range(2):
            expected = (composed[0].rows[x][y] + composed[1].rows[x][y]) / 2
            assert mixed.rows[x][y] == expected


def test_skew_compose_channel_rows_sum_to_one():
    for seed in range(6):
        v = random_cpc(3, 2, 2, 3, seed=40 + seed, n_terms=3)
        wp = random_channel(2, 2, 77 + seed, 8)
        out = skew_compose_channel(v, wp)
        for row in out.rows:
            assert sum(row, start=ZERO) == ONE


def test_singleton_identification_reduces_to_channel_composition():
    # With both outer alphabets singletons, a joint channel X'×{1} -> {1}×Y'
    # is literally a channel X' -> Y'; contracting against it must agree
    # with the channel-level skew-composition.
    v = random_cpc(2, 2, 2, 2, seed=55)
    wp = random_channel(2, 2, 56, 8)
    reference = flat_skew_contraction(
        as_channel(v).rows, (2, 2, 2, 2), wp.rows, (2, 1, 1, 2)
    )
    assert [list(r) for r in skew_compose_channel(v, wp).rows] == reference

    # A channel whose rows are all equal is itself expressible with
    # singleton middle alphabets (the only channel into {1} is the ones
    # column), and composing through that representation must collapse to
    # the channel-level skew-composition.
    ones_column = deterministic(DeterministicMap(2, 1, (1, 1)))
    mixture = random_channel(1, 2, 57, 8)
    constant_rows = make_channel([mixture.rows[0], mixture.rows[0]])
    vp = CpcChannel(2, 1, 1, 2, (CpcTerm(ONE, ones_column, mixture),))
    assert as_channel(skew_compose_cpc(v, vp)) == skew_compose_channel(
        v, constant_rows
    )


def test_skew_compose_dimension_guards():
    with pytest.raises(DimensionMismatchError):
        skew_compose_cpc(identity_cpc(2, 2), identity_cpc(3, 2))
    with pytest.raises(DimensionMismatchError):
        skew_compose_channel(identity_cpc(2, 2), random_channel(3, 2, 1, 4))


def test_pair_column_matches_composition_and_brute_force():
    wp = random_channel(3, 4, 64, 8)
    columns = all_simulation_columns(wp, 2, 3)
    pairs = [
        (DeterministicMap(2, 3, f_img), DeterministicMap(4, 3, g_img))
        for f_img in product(range(1, 4), repeat=2)
        for g_img in product(range(1, 4), repeat=4)
    ]
    assert len(pairs) == len(columns) == 3**2 * 3**4
    d_w, wp_ints = scaled_ints(p for row in wp.rows for p in row)
    for (f, g), column in zip(pairs, columns):
        built = pair_column(wp, f, g)
        assert built == column
        simulated = compose(deterministic(g), compose(wp, deterministic(f)))
        assert built == tuple(p for row in simulated.rows for p in row)
        # The int form of the game search and the containment master, on
        # 0-based images: ints over d_W·factor.
        f_img, g_img = [x - 1 for x in f.image], [v - 1 for v in g.image]
        for factor in (1, 3):
            ints = _pair_ints(wp_ints, 4, f_img, g_img, 3, factor)
            assert [Rat(v, d_w * factor) for v in ints] == list(built)


def test_caratheodory_reduce_trivial_cases():
    single = random_cpc(2, 2, 2, 2, seed=61, n_terms=1)
    assert caratheodory_reduce(single) == single
    r = random_channel(2, 2, 62, 8)
    t = random_channel(2, 2, 63, 8)
    dup = CpcChannel(
        2, 2, 2, 2, (CpcTerm(Rat(1, 3), r, t), CpcTerm(Rat(2, 3), r, t))
    )
    reduced = caratheodory_reduce(dup)
    assert len(reduced.terms) == 1
    assert as_channel(reduced) == as_channel(dup)


def random_mixture(x, xp, yp, y, seed, n_terms, den=6):
    return CpcChannel(
        x, xp, yp, y,
        tuple(
            CpcTerm(
                Rat(1, n_terms),
                random_channel(x, xp, seed + i, den),
                random_channel(yp, y, seed + 50 + i, den),
            )
            for i in range(n_terms)
        ),
    )


def witness_chain(seed):
    """W1 ⊒ W2 ⊒ W3 with the two deterministic-pair witnesses chained."""
    w1 = random_channel(2, 3, seed, 6)
    w2 = skew_compose_channel(random_cpc(3, 2, 3, 2, seed=seed + 1), w1)
    w3 = skew_compose_channel(random_cpc(2, 3, 2, 2, seed=seed + 2), w2)
    v21 = witness_to_cpc(contains(w1, w2).witness)
    v32 = witness_to_cpc(contains(w2, w3).witness)
    return skew_compose_cpc(v32, v21)


def atom(term, v):
    single = CpcChannel(
        v.x_size, v.xp_size, v.yp_size, v.y_size, (CpcTerm(ONE, term.r, term.t),)
    )
    return [p for row in as_channel(single).rows for p in row]


def test_caratheodory_reduce_large_mixture():
    inputs = [
        random_mixture(2, 2, 2, 2, seed=900, n_terms=10),
        random_mixture(2, 2, 2, 2, seed=910, n_terms=24),
        random_mixture(2, 3, 2, 2, seed=920, n_terms=30),
        random_mixture(3, 2, 2, 3, seed=930, n_terms=40),
        witness_chain(940),
        witness_chain(950),
    ]
    for v in inputs:
        reduced = caratheodory_reduce(v)
        dim = v.x_size * v.yp_size * v.xp_size * v.y_size
        assert len(reduced.terms) <= dim + 1
        assert len(reduced.terms) <= len(v.terms)
        assert as_channel(reduced) == as_channel(v)
        # Affinely independent atoms: [1; atoms] has full column rank.
        columns = [[ONE] + atom(term, v) for term in reduced.terms]
        assert matrix_rank(columns) == len(reduced.terms)


def repeated_mixture(x, xp, yp, y, seed, n_terms, den=6):
    """n_terms terms drawn from a pool of about n_terms/2 (R, T) pairs, so
    pairs repeat, with integer weights in [0, 4] normalized: some weights
    are 0 and the others have mixed denominators."""
    rng = random.Random(seed)
    pool = [
        (random_channel(x, xp, seed + i, den), random_channel(yp, y, seed + 50 + i, den))
        for i in range(max(1, n_terms // 2))
    ]
    draws = [rng.randint(0, 4) for _ in range(n_terms)]
    draws[0] = draws[0] or 1
    pairs = [rng.choice(pool) for _ in range(n_terms)]
    total = sum(draws)
    return CpcChannel(
        x, xp, yp, y,
        tuple(CpcTerm(Rat(k, total), r, t) for k, (r, t) in zip(draws, pairs)),
    )


def dense_mixture(x, xp, yp, y, seed, n_terms):
    """Non-deterministic atoms that are mostly nonzero, R and T on
    different denominator bounds, weights 1/6, 1/12, 1/20, … and the rest."""
    weights = [Rat(1, (k + 2) * (k + 3)) for k in range(n_terms - 1)]
    weights.append(ONE - sum(weights, start=ZERO))
    return CpcChannel(
        x, xp, yp, y,
        tuple(
            CpcTerm(w, random_channel(x, xp, seed + i, 30),
                    random_channel(yp, y, seed + 70 + i, 17))
            for i, w in enumerate(weights)
        ),
    )


PARITY_CASES = (
    [witness_chain(seed) for seed in (940, 950, 960, 970, 980)]
    + [repeated_mixture(*shape, seed=1000 + 10 * k, n_terms=n)
       for k, (shape, n) in enumerate(product(
           ((2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3)), (4, 12, 30)))]
    + [dense_mixture(*shape, seed=1200 + 10 * k, n_terms=n)
       for k, (shape, n) in enumerate(product(((2, 2, 2, 2), (3, 2, 3, 2)), (3, 20)))]
    + [repeated_mixture(*shape, seed=1300 + 10 * k, n_terms=8)
       for k, shape in enumerate(((1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 3), (1, 3, 1, 2),
                                  (3, 1, 2, 1)))]
)


@pytest.mark.parametrize("v", PARITY_CASES)
def test_caratheodory_reduce_equals_the_rational_reduction(v, monkeypatch):
    """The integer-image reduction keeps the very terms, order and weights
    of the Fraction reduction over the full hull program, and its program
    is that program without the rows whose point coordinate is 0."""
    programs = []

    def recording(lp):
        programs.append(lp)
        return solve_feasibility(lp)

    monkeypatch.setattr(cpc, "solve_feasibility", recording)
    monkeypatch.setattr(oracles, "solve_feasibility", recording)
    reduced = caratheodory_reduce(v)
    assert reduced == fraction_caratheodory_reduce(v)
    ints, full = programs
    assert list(zip(ints.constraint_matrix, ints.rhs)) == [
        (row, b) for row, b in zip(full.constraint_matrix, full.rhs) if b != 0
    ]
    assert as_channel(reduced) == as_channel(v)
    dim = v.x_size * v.yp_size * v.xp_size * v.y_size
    support = sum(1 for row in as_channel(v).rows for p in row if p)
    assert len(reduced.terms) <= support + 1 <= dim + 1


def unchecked_channel(rows):
    """A Channel whose rows skip validation, to reach internal guards."""
    ch = object.__new__(Channel)
    object.__setattr__(ch, "input_size", len(rows))
    object.__setattr__(ch, "output_size", len(rows[0]))
    object.__setattr__(ch, "rows", tuple(tuple(Rat(p) for p in row) for row in rows))
    return ch


def test_caratheodory_reduce_rejects_an_atom_on_a_dropped_coordinate():
    # The two atoms cancel on the first coordinate, so the mixture is 0
    # there while each atom is not: only a negative entry can do that.
    t = identity_channel(1)
    v = CpcChannel(1, 2, 1, 1, (
        CpcTerm(Rat(1, 2), unchecked_channel([[1, 0]]), t),
        CpcTerm(Rat(1, 2), unchecked_channel([[-1, 2]]), t),
    ))
    with pytest.raises(InternalCheckError, match="nonzero where the mixture is zero"):
        caratheodory_reduce(v)


def test_cpc_json_round_trip():
    v = random_cpc(2, 3, 2, 2, seed=71)
    assert cpc_from_json(cpc_to_json(v)) == v


@pytest.mark.parametrize("terms", [["x"], 5, [{}], [[]], "terms"])
def test_malformed_cpc_terms_are_a_value_error(terms):
    with pytest.raises(ValueError, match="malformed convex-product channel JSON"):
        cpc_from_json({"sizes": [1, 1, 1, 1], "terms": terms})


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("size", [1.9, 1.0, True, "1", None])
def test_non_integer_cpc_sizes_are_a_value_error(index, size):
    bad = cpc_to_json(random_cpc(2, 2, 2, 2, seed=73))
    bad["sizes"][index] = size
    with pytest.raises(ValueError, match="malformed convex-product channel JSON"):
        cpc_from_json(bad)


def witness_operands(seed):
    """The two deterministic-pair witnesses (v32, v21) that witness_chain
    composes, W1 ⊒ W2 ⊒ W3 built from the same seeds."""
    w1 = random_channel(2, 3, seed, 6)
    w2 = skew_compose_channel(random_cpc(3, 2, 3, 2, seed=seed + 1), w1)
    w3 = skew_compose_channel(random_cpc(2, 3, 2, 2, seed=seed + 2), w2)
    return witness_to_cpc(contains(w2, w3).witness), witness_to_cpc(contains(w1, w2).witness)


SKEW_CASES = (
    [witness_operands(seed) for seed in (940, 950, 960, 970)]
    + [
        (random_cpc(x, xp, yp, y, seed=1400 + k, n_terms=1 + k % 4),
         random_cpc(xp, xpp, ypp, yp, seed=1450 + k, n_terms=1 + (k // 4) % 4))
        for k, (x, xp, yp, y, xpp, ypp) in enumerate(
            [(2, 2, 2, 2, 2, 2), (1, 3, 2, 1, 2, 3), (3, 2, 1, 2, 3, 2),
             (2, 3, 3, 2, 1, 2), (3, 1, 2, 3, 2, 1), (2, 2, 3, 3, 3, 2),
             (1, 1, 1, 1, 1, 1), (3, 3, 2, 2, 2, 3)]
            * 2
        )
    ]
)


@pytest.mark.parametrize("v, vp", SKEW_CASES)
def test_skew_compose_cpc_equals_the_rational_composition(v, vp):
    """The integer-image skew-composition keeps the very terms, order,
    weights, R and T of the composition through channel_core.compose."""
    composed = skew_compose_cpc(v, vp)
    reference = oracles.fraction_skew_compose_cpc(v, vp)
    assert [(t.weight, t.r, t.t) for t in composed.terms] == [
        (t.weight, t.r, t.t) for t in reference.terms
    ]
    assert composed == reference
    assert cpc_to_json(composed) == cpc_to_json(reference)
    for term in composed.terms:
        for channel in (term.r, term.t):
            assert all(type(p) is Rat for row in channel.rows for p in row)
