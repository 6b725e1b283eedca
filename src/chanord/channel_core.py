"""Exact representation and algebra of discrete memoryless channels.

A channel from [n] to [m] is a row-stochastic n×m matrix of exact
rationals: entry (x, y) is the probability of output y given input x.
Alphabets are canonically 1..n; disjoint unions and products are realized
by index offset and row-major flattening (second factor fastest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DimensionMismatchError
from .prng import counter_int
from .rational import ONE, ZERO, Rat, parse_rat_matrix, parse_size, rat_str, scaled_ints


@dataclass(frozen=True)
class Alphabet:
    """A canonical finite alphabet {1, ..., size}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")


@dataclass(frozen=True)
class Channel:
    """Row-stochastic rational matrix over canonical alphabets.

    rows[x-1][y-1] is the probability of output y on input x. Entries must
    be nonnegative and every row must sum to exactly 1; construction fails
    otherwise. Instances are immutable and safe to share across threads.
    """

    input_size: int
    output_size: int
    rows: tuple

    def __post_init__(self):
        if self.input_size < 1 or self.output_size < 1:
            raise ValueError("alphabet sizes must be >= 1")
        if len(self.rows) != self.input_size:
            raise ValueError("row count does not match input_size")
        for row in self.rows:
            if len(row) != self.output_size:
                raise ValueError("row length does not match output_size")
            total = ZERO
            for p in row:
                if p < 0:
                    raise ValueError("negative channel probability")
                total += p
            if total != ONE:
                raise ValueError("channel row does not sum to 1")

    @cached_property
    def _image(self):
        """(d, every entry times d as an int, row after row, in a tuple), d
        the least common denominator: scaled_ints of the rows, on first use.
        Every integer form of a channel in the library is read from it; it
        is not a field, so equality, hashing and repr ignore it."""
        d, ints = scaled_ints(p for row in self.rows for p in row)
        return d, tuple(ints)


@dataclass(frozen=True)
class DeterministicMap:
    """A function [domain_size] -> [codomain_size] given by its image tuple."""

    domain_size: int
    codomain_size: int
    image: tuple

    def __post_init__(self):
        if self.domain_size < 1 or self.codomain_size < 1:
            raise ValueError("map alphabet sizes must be >= 1")
        if len(self.image) != self.domain_size:
            raise ValueError("image length does not match domain_size")
        for v in self.image:
            if not 1 <= v <= self.codomain_size:
                raise ValueError("map image out of range")

    def __call__(self, x: int) -> int:
        return self.image[x - 1]


def make_channel(rows) -> Channel:
    """Build a Channel from any nested iterable of rational-convertible entries."""
    mat = tuple(tuple(Rat(p) for p in row) for row in rows)
    return Channel(len(mat), len(mat[0]) if mat else 0, mat)


def identity_channel(n: int) -> Channel:
    return make_channel([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def bsc(p) -> Channel:
    """Binary symmetric channel with crossover probability p."""
    q = Rat(p)
    return make_channel([[1 - q, q], [q, 1 - q]])


def compose(v: Channel, w: Channel) -> Channel:
    """Channel composition (v∘w)(z|x) = Σ_y v(z|y) w(y|x).

    w runs first; v's input alphabet must equal w's output alphabet.
    """
    if v.input_size != w.output_size:
        raise DimensionMismatchError(
            f"compose: inner alphabets differ ({v.input_size} vs {w.output_size})"
        )
    rows = []
    for x in range(w.input_size):
        wrow = w.rows[x]
        row = [ZERO] * v.output_size
        for y in range(w.output_size):
            p = wrow[y]
            if p == 0:
                continue
            vrow = v.rows[y]
            for z in range(v.output_size):
                row[z] += p * vrow[z]
        rows.append(tuple(row))
    return Channel(w.input_size, v.output_size, tuple(rows))


@lru_cache(maxsize=1024)
def deterministic(f: DeterministicMap) -> Channel:
    """The deterministic channel of f: all mass on y == f(x).

    Memoized on f (a frozen map that hashes on its ints, and Channels are
    immutable), so every witness and composition that names the same map
    shares one validated channel instead of rebuilding it.
    """
    rows = []
    for x in range(1, f.domain_size + 1):
        row = [ZERO] * f.codomain_size
        row[f(x) - 1] = ONE
        rows.append(tuple(row))
    return Channel(f.domain_size, f.codomain_size, tuple(rows))


def channel_sum(w1: Channel, w2: Channel) -> Channel:
    """Block-diagonal sum on disjoint-union alphabets (first block, then second)."""
    n, m = w1.input_size + w2.input_size, w1.output_size + w2.output_size
    rows = []
    for x in range(w1.input_size):
        rows.append(w1.rows[x] + (ZERO,) * w2.output_size)
    for x in range(w2.input_size):
        rows.append((ZERO,) * w1.output_size + w2.rows[x])
    return Channel(n, m, tuple(rows))


def channel_product(w1: Channel, w2: Channel) -> Channel:
    """Product channel used independently in parallel.

    (W1⊗W2)(y1,y2|x1,x2) = W1(y1|x1)·W2(y2|x2), with pair indices flattened
    row-major, second coordinate fastest: (a, b) -> (a-1)·size2 + b.
    """
    rows = []
    for r1 in w1.rows:
        for r2 in w2.rows:
            rows.append(tuple(p1 * p2 for p1 in r1 for p2 in r2))
    return Channel(
        w1.input_size * w2.input_size, w1.output_size * w2.output_size, tuple(rows)
    )


def tv_distance(w1: Channel, w2: Channel):
    """Channel distance: half the max over inputs of the L1 row difference.

    Computed on the integer images: with W1 = a/d₁ and W2 = b/d₂, a row's
    L1 difference is Σ|a·d₂ − b·d₁| over d₁·d₂, so the distance is one
    rational, the largest such sum over 2·d₁·d₂.
    """
    if (w1.input_size, w1.output_size) != (w2.input_size, w2.output_size):
        raise DimensionMismatchError("tv_distance: shapes differ")
    (d1, ints1), (d2, ints2), m = w1._image, w2._image, w1.output_size
    worst = max(
        sum(abs(a * d2 - b * d1) for a, b in zip(ints1[k : k + m], ints2[k : k + m]))
        for k in range(0, len(ints1), m)
    )
    return Rat(worst, 2 * d1 * d2)


def random_channel(n: int, m: int, seed: int, denominator_bound: int) -> Channel:
    """Seed-deterministic random channel with bounded-denominator entries.

    Each row normalizes m integers drawn uniformly from [0, denominator_bound]
    (the first is forced to 1 if all are zero), so every denominator divides
    the row total and is at most m·denominator_bound.
    """
    if n < 1 or m < 1:
        raise ValueError("alphabet sizes must be >= 1")
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be >= 1")
    rows = []
    for i in range(n):
        draws = [
            counter_int(seed, n, m, i, j, bound=denominator_bound) for j in range(m)
        ]
        if not any(draws):
            draws[0] = 1
        total = sum(draws)
        rows.append(tuple(Rat(k, total) for k in draws))
    return Channel(n, m, tuple(rows))


def channel_to_json(w: Channel) -> dict:
    """JSON form: {"input_size": n, "output_size": m, "rows": [["p/q", ...], ...]}."""
    return {
        "input_size": w.input_size,
        "output_size": w.output_size,
        "rows": [[rat_str(p) for p in row] for row in w.rows],
    }


def channel_from_json(obj) -> Channel:
    """Parse and validate the JSON channel format (rejects non-stochastic rows)."""
    if not isinstance(obj, dict):
        raise ValueError("channel JSON must be an object")
    try:
        n = parse_size(obj["input_size"])
        m = parse_size(obj["output_size"])
        rows = parse_rat_matrix(obj["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ValueError("channel JSON shape does not match declared sizes")
    return Channel(n, m, rows)
