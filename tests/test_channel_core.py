import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanord import brm, channel_core, cpc, lp_solver, metric, ordering
from chanord.channel_core import (
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
from chanord.errors import DimensionMismatchError
from chanord.metric import brm_distance_lower_bound
from chanord.ordering import contains, input_degraded_from, srank_upper_bound
from chanord.rational import ONE, ZERO, Rat, scaled_ints


def small_channels(max_size=3, max_den=8):
    return st.builds(
        random_channel,
        st.integers(1, max_size),
        st.integers(1, max_size),
        st.integers(0, 10**6),
        st.just(max_den),
    )


def det_maps(domain, codomain):
    return st.tuples(*[st.integers(1, codomain)] * domain).map(
        lambda img: DeterministicMap(domain, codomain, img)
    )


def test_alphabet_invariant():
    assert Alphabet(3).size == 3
    with pytest.raises(ValueError):
        Alphabet(0)


def test_channel_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        make_channel([[Rat(1, 2), Rat(1, 3)]])
    with pytest.raises(ValueError):
        make_channel([[Rat(3, 2), Rat(-1, 2)]])


def test_compose_identity_is_neutral():
    w = random_channel(3, 3, 5, 8)
    assert compose(identity_channel(3), w) == w
    assert compose(w, identity_channel(3)) == w


def test_compose_bsc_quarter_twice_gives_three_eighths():
    # (3/4)^2 + (1/4)^2 = 5/8 on the diagonal, so the crossover is 3/8.
    assert compose(bsc("1/4"), bsc("1/4")) == bsc("3/8")


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose(random_channel(3, 2, 0, 4), random_channel(2, 2, 0, 4))


@given(
    f=det_maps(3, 2),
    g=det_maps(2, 4),
)
def test_deterministic_composition_law(f, g):
    composed = DeterministicMap(3, 4, tuple(g(f(x)) for x in (1, 2, 3)))
    assert compose(deterministic(g), deterministic(f)) == deterministic(composed)


def test_deterministic_shapes():
    ident = DeterministicMap(3, 3, (1, 2, 3))
    assert deterministic(ident) == identity_channel(3)
    const = DeterministicMap(3, 2, (1, 1, 1))
    assert deterministic(const).rows == ((ONE, ZERO),) * 3
    swap = DeterministicMap(2, 2, (2, 1))
    assert deterministic(swap).rows == ((ZERO, ONE), (ONE, ZERO))


def test_channel_sum_blocks():
    assert channel_sum(identity_channel(1), identity_channel(1)) == identity_channel(2)
    s = channel_sum(bsc("1/10"), bsc("3/10"))
    assert (s.input_size, s.output_size) == (4, 4)
    for x in range(2):
        assert s.rows[x][:2] == bsc("1/10").rows[x]
        assert s.rows[x][2:] == (ZERO, ZERO)
        assert s.rows[2 + x][:2] == (ZERO, ZERO)
        assert s.rows[2 + x][2:] == bsc("3/10").rows[x]
    wide = channel_sum(random_channel(2, 3, 1, 4), random_channel(3, 2, 2, 4))
    assert (wide.input_size, wide.output_size) == (5, 5)


def test_channel_product_indexing():
    w = random_channel(2, 3, 9, 6)
    assert channel_product(w, identity_channel(1)) == w
    assert channel_product(identity_channel(2), identity_channel(2)) == identity_channel(4)
    prod = channel_product(bsc("1/4"), bsc("1/4"))
    # Row (1,1): second coordinate fastest, so (y1,y2) = 11,12,21,22.
    assert prod.rows[0] == (Rat(9, 16), Rat(3, 16), Rat(3, 16), Rat(1, 16))


def test_tv_distance_values():
    w = random_channel(2, 4, 3, 9)
    assert tv_distance(w, w) == ZERO
    assert tv_distance(bsc("1/10"), bsc("3/10")) == Rat(1, 5)
    swap = deterministic(DeterministicMap(2, 2, (2, 1)))
    assert tv_distance(identity_channel(2), swap) == ONE
    with pytest.raises(DimensionMismatchError):
        tv_distance(w, random_channel(2, 3, 3, 9))


@settings(max_examples=60)
@given(
    seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    n=st.integers(1, 3),
    m=st.integers(1, 4),
    dens=st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
def test_tv_distance_on_images_is_the_rational_formula(seeds, n, m, dens):
    # Half the largest L1 row difference, summed in rational arithmetic:
    # the images give the same value and the same repr.
    a, b = (random_channel(n, m, s, d) for s, d in zip(seeds, dens))
    for w1, w2 in ((a, b), (b, a), (a, a)):
        rows = zip(w1.rows, w2.rows)
        expected = max(sum((abs(p - q) for p, q in zip(r1, r2)), start=ZERO) for r1, r2 in rows) / 2
        got = tv_distance(w1, w2)
        assert got == expected and repr(got) == repr(expected)


@settings(max_examples=40)
@given(v=small_channels(), w=small_channels())
def test_compose_rows_sum_to_one(v, w):
    if v.input_size != w.output_size:
        v = random_channel(w.output_size, v.output_size, 17, 8)
    out = compose(v, w)
    for row in out.rows:
        assert sum(row, start=ZERO) == ONE


@settings(max_examples=25)
@given(
    u=small_channels(max_size=2),
    v=small_channels(max_size=2),
    w=small_channels(max_size=2),
)
def test_compose_associative(u, v, w):
    v = random_channel(w.output_size, v.output_size, 23, 8)
    u = random_channel(v.output_size, u.output_size, 29, 8)
    assert compose(u, compose(v, w)) == compose(compose(u, v), w)


@settings(max_examples=40)
@given(
    seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    n=st.integers(1, 3),
    m=st.integers(1, 3),
)
def test_tv_is_a_metric(seeds, n, m):
    a, b, c = (random_channel(n, m, s, 7) for s in seeds)
    assert tv_distance(a, b) >= ZERO
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)
    assert (tv_distance(a, b) == ZERO) == (a == b)


@settings(max_examples=30)
@given(a=small_channels(), b=small_channels())
def test_product_rows_sum_to_one(a, b):
    for row in channel_product(a, b).rows:
        assert sum(row, start=ZERO) == ONE


def test_random_channel_contract():
    assert random_channel(1, 1, 0, 1) == make_channel([[1]])
    assert random_channel(4, 3, 11, 16) == random_channel(4, 3, 11, 16)
    assert random_channel(4, 3, 11, 16) != random_channel(4, 3, 12, 16)
    w = random_channel(2, 3, 7, 16)
    for row in w.rows:
        assert sum(row, start=ZERO) == ONE
        for p in row:
            assert p.denominator <= 16 * 3


def test_json_round_trip_and_rejection():
    w = random_channel(3, 2, 5, 9)
    again = channel_from_json(json.loads(json.dumps(channel_to_json(w))))
    assert again == w
    bad = channel_to_json(w)
    bad["rows"][0][0] = "1/3"
    with pytest.raises(ValueError):
        channel_from_json(bad)
    with pytest.raises(ValueError):
        channel_from_json({"input_size": 1, "output_size": 2, "rows": [["1"]]})


@pytest.mark.parametrize("rows", [5, None, [None], [[None]], [[1]], ["1"]])
def test_malformed_rows_are_a_value_error(rows):
    with pytest.raises(ValueError, match="malformed channel JSON"):
        channel_from_json({"input_size": 1, "output_size": 1, "rows": rows})


@pytest.mark.parametrize("key", ["input_size", "output_size"])
@pytest.mark.parametrize("size", [1.9, 1.0, True, "1", None])
def test_non_integer_sizes_are_a_value_error(key, size):
    obj = {"input_size": 1, "output_size": 1, "rows": [["1"]]}
    obj[key] = size
    with pytest.raises(ValueError, match="malformed channel JSON"):
        channel_from_json(obj)


def test_memoized_deterministic_equals_a_freshly_built_channel():
    rng = random.Random(20)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        f = DeterministicMap(n, m, tuple(rng.randint(1, m) for _ in range(n)))
        fresh = make_channel([[1 if y == f(x) else 0 for y in range(1, m + 1)]
                              for x in range(1, n + 1)])
        assert deterministic(f) == fresh
        assert all(type(p) is Rat for row in deterministic(f).rows for p in row)
        # An equal map built anew shares the one channel.
        assert deterministic(DeterministicMap(n, m, tuple(f.image))) is deterministic(f)
    assert deterministic.cache_info().maxsize is not None


def test_channel_image_is_its_rows_scaled_once():
    # A channel's int image is scaled_ints of its rows, kept as a tuple
    # on first use; it is no field, so neither ==, hash nor repr sees it.
    for seed in range(8):
        w = random_channel(1 + seed % 3, 1 + seed // 3, 4400 + seed, 12)
        plain = Channel(w.input_size, w.output_size, w.rows)
        before = (hash(w), repr(w))
        d, ints = w._image
        assert (d, list(ints)) == scaled_ints(p for row in w.rows for p in row)
        assert type(ints) is tuple and all(type(v) is int for v in ints)
        assert w._image is w._image
        assert "_image" in vars(w) and "_image" not in vars(plain)
        assert w == plain and hash(w) == hash(plain) and repr(w) == repr(plain)
        assert (hash(w), repr(w)) == before


def _random_cpc(x, xp, yp, y, seed):
    """A two-term convex-product channel of seeded randomizers."""
    terms = tuple(
        cpc.CpcTerm(
            weight, random_channel(x, xp, seed + k, 5), random_channel(yp, y, seed + k + 1, 5)
        )
        for k, weight in ((0, Rat(1, 3)), (2, Rat(2, 3)))
    )
    return cpc.CpcChannel(x, xp, yp, y, terms)


def _witness_chain(v, vp):
    return cpc.caratheodory_reduce(cpc.skew_compose_cpc(v, vp))


def _channels_of(value):
    """The channels an oracle's argument or answer holds."""
    if isinstance(value, Channel):
        return [value]
    if isinstance(value, cpc.CpcChannel):
        return [w for term in value.terms for w in (term.r, term.t)]
    return []


def test_oracles_scale_each_channel_once(monkeypatch):
    # Every int form of a channel is read from its image: within one call
    # no channel's entries are scaled twice, alone or among other
    # channels', and no row of a channel is scaled by itself; a repeated
    # call scales none. scaled_ints is recorded wherever a library module
    # calls it.
    scaled = []

    def recording(values):
        values = tuple(values)
        scaled.append(values)
        return scaled_ints(values)

    for module in (channel_core, brm, cpc, lp_solver, metric, ordering):
        monkeypatch.setattr(module, "scaled_ints", recording)

    def holding(entries):
        n = len(entries)
        return [v for v in scaled if any(v[i : i + n] == entries for i in range(len(v) - n + 1))]

    r = random_channel(3, 2, 4500, 6)
    calls = [
        # Contained, so the witness is checked; separated, so the gap is
        # re-derived on the rational games.
        (contains, identity_channel(2), bsc("1/4")),
        (contains, bsc("1/4"), identity_channel(2)),
        (input_degraded_from, compose(bsc("1/4"), r), bsc("1/4")),
        (brm_distance_lower_bound, identity_channel(2), bsc("1/4")),
        # Skew-composition then Carathéodory reduction, as a witness chain.
        (_witness_chain, _random_cpc(2, 3, 3, 2, 4600), _random_cpc(3, 2, 2, 3, 4700)),
        # The last row mixes the first two, so one hull program keeps it out.
        (srank_upper_bound, make_channel([["1/10", "9/10"], ["1/2", "1/2"], ["3/10", "7/10"]])),
    ]
    for oracle, *args in calls:
        for run in range(2):
            scaled.clear()
            answer = oracle(*args)
            channels = [w for value in (*args, answer) for w in _channels_of(value)]
            entries = {tuple(p for row in w.rows for p in row) for w in channels}
            rows = {row for w in channels if w.input_size > 1 for row in w.rows}
            assert not rows.intersection(scaled), oracle.__name__
            counts = [len(holding(e)) for e in entries]
            if run == 0:
                assert 0 < sum(counts) and max(counts) == 1, oracle.__name__
            else:
                assert sum(counts) == 0, oracle.__name__
