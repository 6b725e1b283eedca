"""Blind-randomized-in-the-middle games: payoffs, regions, inclusion.

A game fixes four alphabets (U, X, Y, V), a payoff matrix l over U×V, and
a randomizer channel W: X -> Y. One player commits to a randomized choice
of encoder/decoder pairs (f: U -> X, g: Y -> V) around the fixed W; the
payoff for a secret u is the expectation of l(u, g(y)). Everything here
is exact.

A pair is scored in one of two ways. The exhaustive scans, the game
optimum and the region generators, run on Python ints: W is read as its
integer image (Channel._image, scaled once per channel), l is scaled to
its common denominator, and every score W(y|x)·l(u, v) is tabulated once
by _score_tables. A mixed strategy is scored through the channel it
simulates: by the paper's characterization the strategy is a
convex-product channel, wiring W through it gives a channel U -> V, and
the payoff of u is that channel's row u against l(u, ·).

The game optimum is one int core, _best_pair: it walks the encoders
f: U -> X over the tables, encoders sharing a prefix of images share its
partial score sums, and a prefix whose bound cannot beat the best total
found is skipped. optimal_average_payoff wraps it for rational
games. Containment prices its columns on it directly, with the master's
int dual as l, and the metric search scores each distinct payoff of its
ascent on it once; both read each channel's integer image and build a
pair's simulated column on ints with _pair_ints. Every scaling is
positive, so the value and the reported optimal pair (first encoder,
smallest decoders) are exactly those of scoring every pair in rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import add

from .channel_core import Channel, DeterministicMap, channel_from_json, channel_to_json
from .cpc import DEFAULT_MAX_PAIRS, CpcChannel, cpc_from_pairs, skew_compose_channel
from .errors import DimensionMismatchError, enforce_cap
from .lp_solver import FEASIBLE, _ScaledGroup, hull_lp, hull_outcomes, solve_feasibility
from .rational import (
    ONE,
    ZERO,
    OnFirstRead,
    Rat,
    parse_rat_matrix,
    parse_size,
    rat_str,
    scaled_ints,
    unbuilt,
)


@dataclass(frozen=True)
class BrmGame:
    u_size: int
    x_size: int
    y_size: int
    v_size: int
    payoff_matrix: tuple  # u_size × v_size, exact rationals (any sign)
    randomizer: Channel

    def __post_init__(self):
        if min(self.u_size, self.x_size, self.y_size, self.v_size) < 1:
            raise ValueError("game alphabet sizes must be >= 1")
        if (self.randomizer.input_size, self.randomizer.output_size) != (
            self.x_size,
            self.y_size,
        ):
            raise DimensionMismatchError("randomizer shape does not match game")
        if len(self.payoff_matrix) != self.u_size or any(
            len(row) != self.v_size for row in self.payoff_matrix
        ):
            raise DimensionMismatchError("payoff matrix shape does not match game")

    def is_normalized(self) -> bool:
        """True when the payoff is nonnegative and sums to exactly 1."""
        total = ZERO
        for row in self.payoff_matrix:
            for v in row:
                if v < 0:
                    return False
                total += v
        return total == ONE


@dataclass(frozen=True)
class Strategy:
    """A finite mixture of deterministic encoder/decoder pairs."""

    weights: tuple
    encoders: tuple  # DeterministicMap U -> X, one per weight
    decoders: tuple  # DeterministicMap Y -> V, one per weight

    def __post_init__(self):
        if not (len(self.weights) == len(self.encoders) == len(self.decoders)):
            raise ValueError("strategy component lengths differ")
        total = ZERO
        for wgt in self.weights:
            if wgt < 0:
                raise ValueError("negative strategy weight")
            total += wgt
        if total != ONE:
            raise ValueError("strategy weights must sum to exactly 1")


@dataclass(frozen=True)
class PayoffRegionGenerators:
    """One payoff vector per deterministic pair; the region is their hull.

    A region built as PayoffRegionGenerators(u_size, points) holds the
    points given. One made by region_generators holds only its int image,
    and builds its points from it on first read (rational.unbuilt with
    _points); the two compare, hash and print alike.
    """

    u_size: int
    points: tuple = OnFirstRead()

    def __post_init__(self):
        if any(len(point) != self.u_size for point in self.points):
            raise DimensionMismatchError("region point length does not match u_size")

    @cached_property
    def _image(self):
        """(d, every coordinate times d as an int, point after point), d the
        least common denominator: scaled_ints of the points, on first use.
        region_generators sets it from the ints it summed."""
        return scaled_ints(v for point in self.points for v in point)


def _points(dim: int, scale: int, flat):
    """The points of an int image: flat over scale, dim coordinates each.
    One rational is built per distinct value, shared by every coordinate
    that has it."""
    rats = {v: Rat(v, scale) for v in set(flat)}
    return tuple(
        tuple(map(rats.__getitem__, flat[k : k + dim])) for k in range(0, len(flat), dim)
    )


def _point_ints(region):
    """(d, each point of region as ints over d), cut from its _image, so a
    region made by region_generators builds no point here. A region of
    no coordinates was built from its points, which give the count."""
    scale, flat = region._image
    dim = region.u_size
    count = len(flat) // dim if dim else len(region.points)
    return scale, [flat[k * dim : (k + 1) * dim] for k in range(count)]


@dataclass(frozen=True)
class RegionInclusion:
    inside_all: bool
    violator: tuple | None = None


def payoff(u: int, s: Strategy, g: BrmGame):
    """Expected payment for the secret u under the mixed strategy s."""
    if not 1 <= u <= g.u_size:
        raise IndexError(f"secret symbol {u} outside 1..{g.u_size}")
    return payoff_vector(s, g)[u - 1]


def payoff_vector(s: Strategy, g: BrmGame) -> tuple:
    """Each secret's payoff, read off the channel U -> V that s simulates.

    Wiring the randomizer through the strategy's convex-product channel
    gives that channel; the payoff of u is its row u against l(u, ·).
    """
    simulated = skew_compose_channel(strategy_to_cpc(s), g.randomizer)
    if (simulated.input_size, simulated.output_size) != (g.u_size, g.v_size):
        raise DimensionMismatchError("strategy shape does not match game")
    return tuple(
        sum((p * c for p, c in zip(row, l_row)), start=ZERO)
        for row, l_row in zip(simulated.rows, g.payoff_matrix)
    )


def average_payoff(s: Strategy, g: BrmGame):
    vec = payoff_vector(s, g)
    return sum(vec, start=ZERO) / g.u_size


def _plus(sums, scores):
    """Add a (y, v) score table to per-output partial sums."""
    return [list(map(add, acc, row)) for acc, row in zip(sums, scores)]


def _score_tables(w_ints, l_ints, y_size: int, v_size: int):
    """tables[u][x][y] lists w(y|x)·l(u, v) over v, for W and l given as
    flat int lists, row after row (W rows of |Y|, l rows of |V|).

    With W and l scaled by common denominators d_W and d_l, every entry
    is a Python int and a pair's payoff for u is a sum of |Y| entries
    over d_W·d_l.
    """
    w_rows = [w_ints[k : k + y_size] for k in range(0, len(w_ints), y_size)]
    return [
        [[[w * l for l in l_ints[k : k + v_size]] for w in w_row] for w_row in w_rows]
        for k in range(0, len(l_ints), v_size)
    ]


def _best_pair(tables):
    """(best total, encoder images, decoder images) over int score tables.

    The total of a pair is Σ_u Σ_y tables[u][f(u)][y][g(y)]; images are
    0-based. Encoders are walked in itertools.product order, so encoders
    sharing a prefix share its partial score sums and each encoder costs
    |Y|·|V| integer additions and |Y| maxima. Only a strict improvement
    replaces the best, so the first optimal encoder is kept, and per
    output the smallest optimal decoder image.

    A prefix is pruned by a bound (Land & Doig 1960): no completion of
    images[:d] totals more than Σ_y max_v partial[y][v] plus, for each
    later secret u ≥ d, max_x Σ_y max_v tables[u][x][y][v], since a max of
    a sum is at most the sum of the maxima. A prefix whose bound is at most
    the best total found is skipped. Its completions could at best tie
    the best, and a tie found later never replaces it, so the value and
    the reported pair are those of the full scan.
    """
    x_size, y_size, v_size = len(tables[0]), len(tables[0][0]), len(tables[0][0][0])
    # tail[u] bounds what secrets u, u + 1, ... can add to any prefix;
    # the empty prefix is never tested, so tail[0] is not needed.
    tail = [0] * (len(tables) + 1)
    for u in range(len(tables) - 1, 0, -1):
        tail[u] = tail[u + 1] + max(sum(map(max, table)) for table in tables[u])
    # An odometer over encoders in itertools.product order, without
    # recursion: partial[u] holds the score sums of images[:u], so moving
    # position d recomputes only the sums from d on. The last secret's
    # images are scanned directly against its prefix, their totals summed
    # without building lists; the winner's sums are rebuilt once at the
    # end to read off its decoder.
    last = len(tables) - 1
    adds = [add] * y_size
    images = [0] * last
    partial = [[[0] * v_size for _ in range(y_size)]] + [None] * last
    best_total = None
    d = 0
    while True:
        u = d
        while u < last:
            partial[u + 1] = sums = _plus(partial[u], tables[u][images[u]])
            if best_total is not None and sum(map(max, sums)) + tail[u + 1] <= best_total:
                break
            u += 1
        else:
            for x, table in enumerate(tables[last]):
                total = sum(map(max, map(map, adds, partial[last], table)))
                if best_total is None or total > best_total:
                    best_total, best_images = total, (*images, x)
            u = last - 1
        # Advance the odometer at position u: the last one scanned, or the
        # pruned one.
        d = u
        while d >= 0 and images[d] == x_size - 1:
            d -= 1
        if d < 0:
            break
        images[d] += 1
        images[d + 1 :] = [0] * (last - d - 1)
    best_sums = partial[0]
    for table, x in zip(tables, best_images):
        best_sums = _plus(best_sums, table[x])
    # max returns the first maximal index, the smallest optimal decoder.
    g_img = tuple(max(range(v_size), key=acc.__getitem__) for acc in best_sums)
    return best_total, best_images, g_img


def _pair_ints(w_ints, y_size: int, f_img, g_img, v_size: int, factor: int):
    """cpc.pair_column on ints: the column D_g ∘ W ∘ D_f, flattened
    row-major, as ints over d_W·factor, for W given as its entries over
    d_W, row after row, and the pair as the 0-based images _best_pair
    returns. With factor L/d_W it is L·column, ready for a program's
    integer image at L."""
    column = [0] * (len(f_img) * v_size)
    for u, x in enumerate(f_img):
        for v, p in zip(g_img, w_ints[x * y_size : (x + 1) * y_size]):
            column[u * v_size + v] += p * factor
    return column


def optimal_average_payoff(
    g: BrmGame, max_encoders: int = DEFAULT_MAX_PAIRS
):
    """Exact supremum of the average payoff, attained at a deterministic pair.

    The average payoff is linear in the strategy mixture, so the optimum is
    at a deterministic pair; for a fixed encoder f the best decoder picks,
    per output y, a v maximizing Σ_u W(y|f(u))·l(u, v). Returns
    (value, (encoder, decoder)); the argmax is the lexicographically first
    optimal encoder, and per output the smallest optimal decoder index.

    The scan is _best_pair on Python ints: W's integer image over d_W and
    l scaled by its common denominator d_l, tabulated once by
    _score_tables.
    A positive scaling changes no comparison, so the strict-improvement
    tests keep the tie order, and the value is one exact division,
    total / (d_W·d_l·|U|).
    """
    enforce_cap(g.x_size**g.u_size, max_encoders, "encoder enumeration", "elements")
    d_w, w_ints = g.randomizer._image
    d_l, l_ints = scaled_ints(c for row in g.payoff_matrix for c in row)
    total, f_img, g_img = _best_pair(_score_tables(w_ints, l_ints, g.y_size, g.v_size))
    return Rat(total, d_w * d_l * g.u_size), (
        DeterministicMap(g.u_size, g.x_size, tuple(x + 1 for x in f_img)),
        DeterministicMap(g.y_size, g.v_size, tuple(v + 1 for v in g_img)),
    )


def strategy_to_cpc(s: Strategy) -> CpcChannel:
    """The convex-product channel carrying the strategy's mixture."""
    f0, g0 = s.encoders[0], s.decoders[0]
    return cpc_from_pairs(
        zip(zip(s.encoders, s.decoders), s.weights),
        f0.domain_size, f0.codomain_size, g0.domain_size, g0.codomain_size,
    )


def region_generators(
    g: BrmGame, max_pairs: int = DEFAULT_MAX_PAIRS
) -> PayoffRegionGenerators:
    """Payoff vectors of all deterministic pairs, encoders varying slowest.

    Encoder and decoder images are each walked in lexicographic order.
    Raises ResourceLimitError when the |X|^|U| · |V|^|Y| pairs exceed
    max_pairs; that failure is a budget statement, never a verdict.

    Coordinates are summed on ints over d_W·d_l. Those ints, reduced to
    the least common denominator, are the region's int image, and the
    region holds nothing else: region_subset reads only the image, and
    the points are built from it on first read, one rational per
    distinct value (_points), equal to the totals over d_W·d_l.
    """
    count = g.x_size**g.u_size * g.v_size**g.y_size
    enforce_cap(count, max_pairs, "deterministic-pair basis", "elements")
    d_w, w_ints = g.randomizer._image
    d_l, l_ints = scaled_ints(c for row in g.payoff_matrix for c in row)
    scale, tables = d_w * d_l, _score_tables(w_ints, l_ints, g.y_size, g.v_size)
    flat = []
    for f_img in product(range(g.x_size), repeat=g.u_size):
        # choices[y][v] holds every secret's score when g sends y to v.
        choices = [
            list(zip(*(tables[u][x][y] for u, x in enumerate(f_img))))
            for y in range(g.y_size)
        ]
        for picks in product(*choices):
            flat.extend(map(sum, zip(*picks)))
    # The points' least common denominator is scale over the gcd of scale
    # and every total, so this is exactly what _image would compute.
    common = gcd(scale, *flat)
    image = scale // common, [v // common for v in flat]
    fields = {"u_size": g.u_size, "_image": image}
    return unbuilt(PayoffRegionGenerators, fields, points=(_points, (g.u_size, *image)))


def region_subset(
    a: PayoffRegionGenerators, b: PayoffRegionGenerators
) -> RegionInclusion:
    """Exact test that conv(a) ⊆ conv(b).

    Convexity makes checking a's generators sufficient; each check is the
    hull program of one point over b's (deduplicated) generators, as ints
    once for all of them. Points are compared on int images: each region's
    _image, the ints region_generators summed (or one scaling of the
    points, for a region built otherwise), keyed at the lcm of the two
    scales, to drop repeats of b and of a, so each distinct
    point of a not among b's is checked once, in order of first
    appearance. Those keys are a's points as ints at that lcm, and
    lp_solver.hull_outcomes answers them from one warm basis, built
    from b's generators: each point is one dual-simplex repair of it,
    with only the right-hand side changing from point to
    point. When b's program has a redundant row (b is empty, or its points
    lie in a proper affine subspace), the warm routine answers no point
    and every one is solved cold, one program each, the point handed to
    hull_lp as a group of one generator of a's ints. The first generator
    found outside is the violator, the one rational point built here:
    a's ints over a's scale, equal to that point of a. Only the images
    are read, never the points, so regions made by region_generators
    build no rational inside inclusion.
    """
    if a.u_size != b.u_size:
        raise DimensionMismatchError("regions live in different payoff spaces")
    dim = a.u_size
    b_scale, b_points = _point_ints(b)
    a_scale, a_points = _point_ints(a)
    common = lcm(a_scale, b_scale)
    b_unique = {}  # key -> ints of b's first point with it
    for ints in b_points:
        b_unique.setdefault(_key(ints, common // b_scale), ints)
    flat = [v for ints in b_unique.values() for v in ints]
    b_group = _ScaledGroup(b_scale, flat, len(b_unique), dim)
    pending = {}  # key -> ints of a's first point with it, if not b's
    for ints in a_points:
        key = _key(ints, common // a_scale)
        if key not in b_unique:
            pending.setdefault(key, ints)
    warm = hull_outcomes(pending, b_group, common)
    for ints in pending.values():
        outcome = next(warm, None)
        if outcome is None:  # b's program has a redundant row
            point = _ScaledGroup(a_scale, ints, 1, dim)
            outcome = solve_feasibility(hull_lp(point, b_group))
        if outcome.tag != FEASIBLE:
            violator = tuple(Rat(v, a_scale) for v in ints)
            return RegionInclusion(inside_all=False, violator=violator)
    return RegionInclusion(inside_all=True)


def _key(ints, factor):
    """A point's ints brought to a common scale, as a hashable key."""
    return tuple(v * factor for v in ints) if factor != 1 else tuple(ints)


def game_to_json(g: BrmGame) -> dict:
    return {
        "u": g.u_size,
        "x": g.x_size,
        "y": g.y_size,
        "v": g.v_size,
        "l": [[rat_str(v) for v in row] for row in g.payoff_matrix],
        "w": channel_to_json(g.randomizer),
    }


def game_from_json(obj) -> BrmGame:
    if not isinstance(obj, dict):
        raise ValueError("game JSON must be an object")
    try:
        u, x, y, v = (parse_size(obj[k]) for k in ("u", "x", "y", "v"))
        payoff_matrix = parse_rat_matrix(obj["l"])
        w = channel_from_json(obj["w"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed game JSON: {exc}") from exc
    return BrmGame(u, x, y, v, payoff_matrix, w)
