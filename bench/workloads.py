"""Seeded inputs and query execution for the three benchmark workloads.

Inputs are drawn with the benchmark's own ``random.Random`` and plain
``Fraction`` matrix arithmetic, so generating them exercises no library
algorithm; the library only receives the finished channels and games
through its constructors. The kind and shape of query ``i`` are fixed by a
schedule that does not depend on the seed, so every seed draws the same
shape mix and only the channel entries change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

DEN = 8  # each row of a random channel is m integers in [0, DEN], normalized
CAPACITY_EPS = 1e-5
MAX_CONTAIN_PAIRS = 256  # |X'|^|X| · |Y|^|Y'| for the contains queries
MAX_REGION_GENERATORS = 64  # |X|^|U| · |V|^|Y| for each game region

WORKLOADS = ("contain", "games", "params")


@dataclass(frozen=True)
class Query:
    index: int
    kind: str
    shape: tuple
    args: tuple


# --- plain Fraction matrices (row x is the output law of input x) -------------


def rand_rows(rng, n, m, den=DEN):
    rows = []
    for _ in range(n):
        draws = [rng.randint(0, den) for _ in range(m)]
        if not any(draws):
            draws[0] = 1
        total = sum(draws)
        rows.append([Fraction(k, total) for k in draws])
    return rows


def matmul(a, b):
    """Row-stochastic product: input law rows of a, then the channel b."""
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for row in a
    ]


def simulate(rng, wp_rows, x, y, terms=2):
    """A random two-term convex-product channel wired around wp_rows.

    Returns Σ_i (1/terms) · R_i · W' · T_i, the channel simulated from W'
    by the mixture of input randomizers R_i and output randomizers T_i.
    """
    xp, yp = len(wp_rows), len(wp_rows[0])
    out = [[Fraction(0)] * y for _ in range(x)]
    for _ in range(terms):
        r = rand_rows(rng, x, xp)
        t = rand_rows(rng, yp, y)
        piece = matmul(matmul(r, wp_rows), t)
        for i in range(x):
            for j in range(y):
                out[i][j] += piece[i][j] / terms
    return out


def normalized_payoff(rng, u, v):
    draws = [[rng.randint(1, 10) for _ in range(v)] for _ in range(u)]
    total = sum(map(sum, draws))
    return tuple(tuple(Fraction(k, total) for k in row) for row in draws)


# --- seed-independent schedules ----------------------------------------------


def _spread(shapes):
    """A fixed shuffle, so that any prefix of a cycle mixes small and large."""
    out = list(shapes)
    random.Random("chanord-bench-shapes").shuffle(out)
    return tuple(out)


CONTAIN_SHAPES = _spread(
    (xp, yp, x, y)
    for xp, yp, x, y in product(range(2, 5), repeat=4)
    if xp**x * y**yp <= MAX_CONTAIN_PAIRS
)
# (x1, y1, x2, y2, x3, y3): W1 contains W2 contains W3, both within the cap.
CHAIN_SHAPES = _spread(
    (x1, y1, x2, y2, x3, y3)
    for x1, y1, x2, y2, x3, y3 in product(range(2, 4), repeat=6)
    if x1**x2 * y2**y1 <= MAX_CONTAIN_PAIRS and x2**x3 * y3**y2 <= MAX_CONTAIN_PAIRS
)
GAME_SHAPES = _spread(
    (u, v, x, y, xp, yp)
    for u, v, x, y, xp, yp in product(range(2, 4), repeat=6)
    if x**u * v**y <= MAX_REGION_GENERATORS
    and xp**u * v**yp <= MAX_REGION_GENERATORS
)
DEGRADE_CASES = ("output-yes", "input-yes", "output-no", "input-no")
SHAPES = {
    "contains-sim": CONTAIN_SHAPES,
    "contains-rand": CONTAIN_SHAPES,
    "equiv-embed": ((2, 2), (2, 3), (3, 2)),
    "degrade": tuple(
        (case,) + sizes
        for sizes in _spread(product(range(2, 4), repeat=3))
        for case in DEGRADE_CASES
    ),
    "chain": CHAIN_SHAPES,
    "region-sim": GAME_SHAPES,
    "region-rand": GAME_SHAPES,
    "metric": tuple(product(range(2, 4), repeat=2)),
    "capacity": tuple(product(range(2, 4), repeat=2)),
    "capacity-sim": _spread(product(range(2, 4), repeat=4)),
    "perr": _spread(
        (n, big_m, a, b)
        for n in (1, 2)
        for big_m in (2, 3)
        for a, b in product(range(2, 4), repeat=2)
    ),
}

# One cycle of query kinds per workload; query i has kind CYCLE[i % len]. The
# k-th query of a kind takes that kind's k-th shape, cyclically.
CYCLES = {
    "contain": ("contains-sim", "contains-rand", "equiv-embed", "contains-sim",
                "contains-rand", "degrade", "chain", "degrade"),
    "games": ("region-sim", "region-rand", "metric"),
    "params": ("capacity", "capacity-sim", "perr", "capacity-sim"),
}


def schedule(workload, count):
    """(kind, shape) of the first `count` queries; independent of the seed."""
    cycle = CYCLES[workload]
    seen = {}
    out = []
    for i in range(count):
        kind = cycle[i % len(cycle)]
        k = seen.get(kind, 0)
        seen[kind] = k + 1
        out.append((kind, SHAPES[kind][k % len(SHAPES[kind])]))
    return out


# --- input generation ---------------------------------------------------------


def generate(lib, workload, seed, count):
    """The first `count` queries of a workload, as library objects."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    queries = []
    for i, (kind, shape) in enumerate(schedule(workload, count)):
        rng = random.Random(f"{workload}:{seed}:{i}")
        queries.append(Query(i, kind, shape, _make_args(lib, rng, kind, shape)))
    return queries


def _make_args(lib, rng, kind, shape):
    ch = lib.channel_core.make_channel
    if kind in ("contains-sim", "contains-rand"):
        xp, yp, x, y = shape
        wp = rand_rows(rng, xp, yp)
        w = simulate(rng, wp, x, y) if kind == "contains-sim" else rand_rows(rng, x, y)
        return (ch(wp), ch(w))
    if kind == "equiv-embed":
        n, m = shape
        w = rand_rows(rng, n, m)
        # The canonical embedding into one more input and one more output:
        # the new input repeats the last row, the new output is never used.
        embedded = [row + [Fraction(0)] for row in w + [w[-1]]]
        return (ch(w), ch(embedded))
    if kind == "degrade":
        case, a, b, c = shape
        return (case,) + _degrade_pair(lib, rng, case, a, b, c)
    if kind == "chain":
        x1, y1, x2, y2, x3, y3 = shape
        w1 = rand_rows(rng, x1, y1)
        w2 = simulate(rng, w1, x2, y2)
        w3 = simulate(rng, w2, x3, y3)
        return (ch(w1), ch(w2), ch(w3))
    if kind in ("region-sim", "region-rand"):
        u, v, x, y, xp, yp = shape
        wp = rand_rows(rng, xp, yp)
        w = simulate(rng, wp, x, y) if kind == "region-sim" else rand_rows(rng, x, y)
        payoff = normalized_payoff(rng, u, v)
        game = lib.brm.BrmGame
        return (game(u, x, y, v, payoff, ch(w)), game(u, xp, yp, v, payoff, ch(wp)))
    if kind == "metric":
        n, m = shape
        return (ch(rand_rows(rng, n, m)), ch(rand_rows(rng, n, m)), rng.randrange(10**9))
    if kind == "capacity":
        n, m = shape
        return (ch(rand_rows(rng, n, m)),)
    if kind == "capacity-sim":
        xp, yp, x, y = shape
        return (ch(simulate(rng, rand_rows(rng, xp, yp), x, y)),)
    if kind == "perr":
        n, big_m, a, b = shape
        return (n, big_m, ch(rand_rows(rng, a, b)))
    raise ValueError(f"unknown query kind {kind!r}")


def _degrade_pair(lib, rng, case, a, b, c):
    """(w, wp) whose degradedness answer is known by construction.

    output-no: wp repeats its first row while w does not, and T∘wp keeps
    repeated rows repeated. input-no: wp never emits output 1 while w does,
    and every row of wp∘R is a mixture of rows of wp.
    """
    ch = lib.channel_core.make_channel
    if case == "output-yes":
        wp = rand_rows(rng, a, b)
        return ch(matmul(wp, rand_rows(rng, b, c))), ch(wp)
    if case == "input-yes":
        wp = rand_rows(rng, b, c)
        return ch(matmul(rand_rows(rng, a, b), wp)), ch(wp)
    if case == "output-no":
        wp = rand_rows(rng, a, b)
        wp[1] = list(wp[0])
        w = rand_rows(rng, a, c)
        while w[0] == w[1]:
            w[1] = rand_rows(rng, 1, c)[0]
        return ch(w), ch(wp)
    if case == "input-no":
        wp = [[Fraction(0)] + row for row in rand_rows(rng, b, c - 1)]
        w = rand_rows(rng, a, c)
        if w[0][0] == 0:
            w[0] = [Fraction(1, 2)] + [p / 2 for p in w[0][1:]]
        return ch(w), ch(wp)
    raise ValueError(f"unknown degradedness case {case!r}")


# --- execution ----------------------------------------------------------------


def execute(lib, q):
    """Run one query through the public library API and return its answer.

    Every call goes through a module attribute looked up at call time, so
    the tracing shims see it.
    """
    a = q.args
    if q.kind in ("contains-sim", "contains-rand"):
        return lib.ordering.contains(a[0], a[1])
    if q.kind == "equiv-embed":
        return lib.ordering.shannon_equivalent(a[0], a[1])
    if q.kind == "degrade":
        case, w, wp = a
        if case.startswith("output"):
            return lib.ordering.degraded_from(w, wp)
        return lib.ordering.input_degraded_from(w, wp)
    if q.kind == "chain":
        w1, w2, w3 = a
        v21 = lib.ordering.contains(w1, w2)
        v32 = lib.ordering.contains(w2, w3)
        to_cpc = lib.ordering.witness_to_cpc
        chained = lib.cpc.skew_compose_cpc(to_cpc(v32.witness), to_cpc(v21.witness))
        return v21, v32, chained, lib.cpc.caratheodory_reduce(chained)
    if q.kind in ("region-sim", "region-rand"):
        gen = lib.brm.region_generators
        inner, outer = gen(a[0]), gen(a[1])
        return inner, outer, lib.brm.region_subset(inner, outer)
    if q.kind == "metric":
        w1, w2, seed = a
        return lib.metric.brm_vs_tv(w1, w2, n_max=2, m_max=2, budget=4, seed=seed)
    if q.kind in ("capacity", "capacity-sim"):
        return lib.params.capacity(a[0], CAPACITY_EPS)
    if q.kind == "perr":
        return lib.params.optimal_error_probability(*a)
    raise ValueError(f"unknown query kind {q.kind!r}")
