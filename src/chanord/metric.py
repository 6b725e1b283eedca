"""Lower-bound estimation of the game-payoff metric between channels.

The metric between two channels is the supremum, over all finite game
shapes and all normalized positive payoff matrices l, of the absolute
difference of the two optimal average payoffs. The supremum itself is not
computed (no finite algorithm is available); this module reports a
certified lower bound: the best exactly-evaluated difference found by a
seeded search, together with the payoff matrix witnessing it. Since the
supremum dominates every candidate, the bound is sound by construction.

The search samples normalized payoffs and refines each by
difference-of-convex ascent. Both optimal payoffs are pointwise maxima of
linear functions of l, one piece per deterministic pair, so fixing the
active pair of the first channel gives a concave subproblem over the
payoff simplex. Its exact optimum is read off the dual prices of a small
rational program over the second channel's pieces, which are generated
as needed: each optimum is priced with the second channel's optimal pair,
until that pair is one the program already has. Each accepted step
strictly increases the true difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .brm import BrmGame, _scaled_optimum, optimal_average_payoff
from .channel_core import Channel, tv_distance
from .cpc import DEFAULT_MAX_PAIRS, pair_column
from .errors import DimensionMismatchError, InternalCheckError, enforce_cap
from .lp_solver import maximize, standard_lp
from .prng import counter_int
from .rational import ONE, ZERO, Rat, rat_str, scaled_ints

DEFAULT_DIM_CAP = 3
DEFAULT_BUDGET = 24
_MAX_REFINE_STEPS = 8
_SAMPLE_BOUND = 15


@dataclass(frozen=True)
class MetricEstimate:
    """A certified lower bound together with the payoff achieving it."""

    lower_bound: object
    witness_payoff: tuple
    game_dims: tuple
    search_budget: int
    seed: int


def metric_estimate_to_json(est: MetricEstimate) -> dict:
    return {
        "lower_bound": rat_str(est.lower_bound),
        "witness_payoff": [[rat_str(v) for v in row] for row in est.witness_payoff],
        "game_dims": list(est.game_dims),
        "search_budget": est.search_budget,
        "seed": est.seed,
    }


def _image(w: Channel):
    """(d_W, W's entries as ints over d_W, row after row)."""
    return scaled_ints(p for row in w.rows for p in row)


def _opt(w: Channel, w_image, n: int, m: int, payoff, max_encoders):
    """optimal_average_payoff of the n×m game of payoff around w, from w's
    int image: the same value and optimal pair, without rescaling w."""
    enforce_cap(w.input_size**n, max_encoders, "encoder enumeration", "elements")
    return _scaled_optimum(w_image, w.input_size, w.output_size, payoff, m)


def _restricted_ascent(active, pieces, n, m):
    """Exact maximizer of ⟨active, l⟩ − max_j ⟨piece_j, l⟩ over the simplex.

    active and each piece are flattened pair_columns: a pair's average
    payoff is its column's inner product with l, divided by n. The common
    factor n only scales the piece-mixture entries of the payoff rows,
    which leaves the optimal payoff unchanged, so no piece is rescaled.
    Solved in the orientation whose row count is the payoff dimension;
    the optimal payoff is the vector of dual prices on those rows.
    """
    dim = n * m
    # Columns: piece mixture, slacks, z+ and z-.
    rows = [
        [a - piece[coord] for piece in pieces]
        + [ZERO] * coord + [ONE] + [ZERO] * (dim - coord - 1)
        + [-ONE, ONE]
        for coord, a in enumerate(active)
    ]
    rows.append([ONE] * len(pieces) + [ZERO] * (dim + 2))
    objective = [ZERO] * (len(pieces) + dim) + [-ONE, ONE]
    outcome = maximize(standard_lp(rows, [ZERO] * dim + [ONE], objective))
    duals = outcome.dual_certificate
    candidate = duals[:dim]
    total = sum(candidate, start=ZERO)
    if any(v < 0 for v in candidate) or total != ONE:
        raise InternalCheckError("ascent subproblem produced an invalid payoff")
    return tuple(tuple(candidate[u * m + v] for v in range(m)) for u in range(n))


def _ascent_step(active, other, other_pair, n, m, max_encoders, other_image=None):
    """_restricted_ascent over every deterministic pair of `other`, by
    column generation from other's active pair: each optimum l is priced
    with other's optimal pair. Fewer pieces can only raise the objective,
    so once the priced piece is already present, l is optimal for all.
    other_image is other's int image (_image), scaled here if not given.
    """
    other_image = other_image or _image(other)
    pieces = [pair_column(other, *other_pair)]
    while True:
        candidate = _restricted_ascent(active, pieces, n, m)
        _value, pair = _opt(other, other_image, n, m, candidate, max_encoders)
        piece = pair_column(other, *pair)
        if piece in pieces:
            return candidate
        pieces.append(piece)


def _sample_payoff(seed: int, trial: int, n: int, m: int) -> tuple:
    draws = [
        [
            counter_int(seed, trial, u, v, bound=_SAMPLE_BOUND) + 1
            for v in range(m)
        ]
        for u in range(n)
    ]
    total = sum(sum(row) for row in draws)
    return tuple(tuple(Rat(k, total) for k in row) for row in draws)


def brm_distance_lower_bound(
    w1: Channel,
    w2: Channel,
    n_max: int = DEFAULT_DIM_CAP,
    m_max: int = DEFAULT_DIM_CAP,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    max_encoders: int = DEFAULT_MAX_PAIRS,
) -> MetricEstimate:
    """Seeded search for a payoff separating the two channels.

    Deterministic in the seed; the reported bound is the running maximum of
    exactly evaluated differences, so a larger budget never lowers it, and
    swapping the channels leaves it unchanged.
    """
    if n_max < 1 or m_max < 1 or budget < 1:
        raise ValueError("n_max, m_max, and budget must be >= 1")
    # Trial t plays shape t mod the shape count, in (n·m, n, m) order, so
    # only the first budget shapes are built.
    shapes = (
        (n, size // n)
        for size in range(1, n_max * m_max + 1)
        for n in range(max(1, -(-size // m_max)), min(n_max, size) + 1)
        if size % n == 0
    )
    dims = list(islice(shapes, budget))
    # Each channel is scaled to ints once; every game optimum of the
    # search is a _best_pair scan over its tables.
    image1, image2 = _image(w1), _image(w2)

    def diff(n, m, payoff):
        v1, pair1 = _opt(w1, image1, n, m, payoff, max_encoders)
        v2, pair2 = _opt(w2, image2, n, m, payoff, max_encoders)
        return v1 - v2, pair1, pair2

    best = None  # (abs difference, payoff, dims)
    for trial in range(budget):
        n, m = dims[trial % len(dims)]
        payoff = _sample_payoff(seed, trial, n, m)
        signed, pair1, pair2 = diff(n, m, payoff)
        score = abs(signed)
        for _step in range(_MAX_REFINE_STEPS):
            candidates = []
            for own, pair, other, other_pair, other_image in (
                (w1, pair1, w2, pair2, image2),
                (w2, pair2, w1, pair1, image1),
            ):
                active = pair_column(own, *pair)
                candidate = _ascent_step(
                    active, other, other_pair, n, m, max_encoders, other_image
                )
                cand_signed, cand_pair1, cand_pair2 = diff(n, m, candidate)
                candidates.append(
                    (abs(cand_signed), candidate, cand_pair1, cand_pair2)
                )
            candidates.sort(key=lambda c: (-c[0], c[1]))
            if candidates[0][0] <= score:
                break
            score, payoff, pair1, pair2 = candidates[0]
        if best is None or score > best[0]:
            best = (score, payoff, (n, m))
    lower, witness, game_dims = best
    # The witness is re-scored on the rational games, each channel scaled
    # afresh, independently of the images the search used.
    n, m = game_dims
    games = [BrmGame(n, w.input_size, w.output_size, m, witness, w) for w in (w1, w2)]
    check, check2 = (optimal_average_payoff(g, max_encoders)[0] for g in games)
    if abs(check - check2) != lower:
        raise InternalCheckError("metric witness failed exact recomputation")
    return MetricEstimate(
        lower_bound=lower,
        witness_payoff=witness,
        game_dims=game_dims,
        search_budget=budget,
        seed=seed,
    )


def brm_vs_tv(
    w1: Channel,
    w2: Channel,
    n_max: int = DEFAULT_DIM_CAP,
    m_max: int = DEFAULT_DIM_CAP,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    max_encoders: int = DEFAULT_MAX_PAIRS,
):
    """(estimated lower bound, exact channel distance) for same-shape channels.

    The channel distance dominates the game-payoff metric, so the returned
    pair must satisfy lower <= upper; a violation would contradict that
    bound and raises an internal error.
    """
    if (w1.input_size, w1.output_size) != (w2.input_size, w2.output_size):
        raise DimensionMismatchError("brm_vs_tv requires same-shape channels")
    estimate = brm_distance_lower_bound(
        w1,
        w2,
        n_max=n_max,
        m_max=m_max,
        budget=budget,
        seed=seed,
        max_encoders=max_encoders,
    )
    upper = tv_distance(w1, w2)
    if estimate.lower_bound > upper:
        raise InternalCheckError(
            "estimated lower bound exceeded the channel distance"
        )
    return estimate.lower_bound, upper
