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
program over the second channel's pieces, which are generated as needed:
each optimum is priced with the second channel's optimal pair, until
that pair is one the program already has. Each accepted step strictly
increases the true difference.

On a one-secret or one-action shape every channel has the same optimum,
max_v l(1, v) with one secret and l's mean with one action, so the gap
is 0 at every payoff. Those trials keep only the encoder-cap check of
each channel and score no game; trial 0, always 1×1, keeps its sample
as the witness of the bound 0 that any later trial can only beat.

The search runs on ints over known positive denominators. Each channel
is read as its integer image (Channel._image); a payoff is (den, ints),
a game optimum is brm._best_pair over the int score tables, and a piece
is a pair column on ints (brm._pair_ints). The subproblem is built
directly as its integer image at L, the lcm of the two channels' scales,
and solved by lp_solver.maximize; its dual prices are the next payoff,
checked on ints. One global L keeps the pivot path and duals of the
rational program. Rationals are built only for the returned estimate,
whose witness is re-scored by optimal_average_payoff on the rational
games.

One search solves each ascent program and scores each game optimum
once. Its memo lives for one call: programs keyed by their exact rows,
the active column minus each piece as ints (all a program depends on
at the search's one scale), and each channel's optima keyed by the
payoff's ints.
Most repeats are one side's step redone a refine step later from
unchanged inputs; the rest are first programs shared by neighbouring
steps, pricing at a candidate already scored, and the re-score of a
candidate. Only results that passed their checks are stored, and the
encoder cap is checked before every lookup, so a cap failure is raised
where a scan would raise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import lcm

from .brm import BrmGame, _best_pair, _pair_ints, _score_tables, optimal_average_payoff
from .channel_core import Channel, tv_distance
from .cpc import DEFAULT_MAX_PAIRS
from .errors import DimensionMismatchError, InternalCheckError, enforce_cap
from .lp_solver import StandardLp, maximize
from .prng import counter_int
from .rational import ONE, ZERO, Rat, rat_str, scaled_ints

DEFAULT_DIM_CAP = 3
DEFAULT_BUDGET = 24
_MAX_REFINE_STEPS = 8
_SAMPLE_BOUND = 15
# The ascent objective's z- and z+ coefficients, shared by every program.
_OBJECTIVE_TAIL = (-ONE, ONE)


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


def _cap(w: Channel, n: int, max_encoders):
    """optimal_average_payoff's cap on the encoders of an n-secret game
    around w."""
    enforce_cap(w.input_size**n, max_encoders, "encoder enumeration", "elements")


def _opt(w: Channel, n: int, m: int, payoff, max_encoders, scored):
    """The optimum of the n×m game of payoff around w, from w's int image
    and the payoff as (den, its entries as ints over den, row after row):
    _best_pair's (total, encoder images, decoder images), 0-based. The
    optimal average payoff is total/(d_W·den·n), the value and pair of
    optimal_average_payoff on the rational game.

    scored holds w's optima already found by one search, keyed by n, m
    and the payoff's ints; a game found there is not scanned again. The
    cap is checked first, so it fails as a scan would."""
    _cap(w, n, max_encoders)
    key = (n, m, payoff[0], tuple(payoff[1]))
    if key not in scored:
        scored[key] = _best_pair(_score_tables(w._image[1], payoff[1], w.output_size, m))
    return scored[key]


def _restricted_ascent(active, pieces, scale, n, m, solved):
    """Exact maximizer of ⟨active, l⟩ − max_j ⟨piece_j, l⟩ over the simplex,
    as (den, l's entries as ints over den, row after row).

    active and each piece are pair columns as ints over one scale L: a
    pair's average payoff is its column's inner product with l, divided
    by n. The common factor n only scales the piece-mixture entries of the
    payoff rows, which leaves the optimal payoff unchanged, so no piece is
    rescaled. Solved in the orientation whose row count is the payoff
    dimension, as its integer image at L; the optimal payoff is the vector
    of dual prices on those rows, whatever the scale.

    The program depends on active and the pieces only through their
    differences. solved maps the differences of the programs one search
    has solved, all at its one scale, to their checked payoffs; a program
    found there is not solved again.
    """
    diffs = tuple(
        tuple(a - piece[coord] for piece in pieces) for coord, a in enumerate(active)
    )
    if diffs in solved:
        return solved[diffs]
    dim = n * m
    # Columns: piece mixture, slacks, z+ and z-.
    rows = [
        diff + (0,) * coord + (scale,) + (0,) * (dim - coord - 1) + (-scale, scale)
        for coord, diff in enumerate(diffs)
    ]
    rows.append((scale,) * len(pieces) + (0,) * (dim + 2))
    objective = (ZERO,) * (len(pieces) + dim) + _OBJECTIVE_TAIL
    lp = StandardLp(scale, tuple(rows), (0,) * dim + (scale,), objective)
    den, ints = scaled_ints(maximize(lp).dual_certificate[:dim])
    if any(v < 0 for v in ints) or sum(ints) != den:
        raise InternalCheckError("ascent subproblem produced an invalid payoff")
    solved[diffs] = den, ints
    return den, ints


def _ascent_step(active, other, other_opt, scale, n, m, max_encoders, solved, scored):
    """_restricted_ascent over every deterministic pair of `other`, by
    column generation from other's optimum other_opt (_opt's triple): each
    optimum l is priced with other's optimal pair. Fewer pieces can only
    raise the objective, so once the priced piece is already present, l is
    optimal for all. Returns l and other's optimum at l. active and the
    pieces are ints over scale, a multiple of other's d_W. solved and
    scored are one search's memos of programs, for _restricted_ascent, and
    of other's optima, for _opt.
    """
    d_w, w_ints = other._image
    factor, y_size = scale // d_w, other.output_size
    pieces = [_pair_ints(w_ints, y_size, other_opt[1], other_opt[2], m, factor)]
    while True:
        candidate = _restricted_ascent(active, pieces, scale, n, m, solved)
        opt = _opt(other, n, m, candidate, max_encoders, scored)
        piece = _pair_ints(w_ints, y_size, opt[1], opt[2], m, factor)
        if piece in pieces:
            return candidate, opt
        pieces.append(piece)


def _sample_payoff(seed: int, trial: int, n: int, m: int) -> tuple:
    """A seeded positive payoff: (total, the draws row after row), the
    draws over their total."""
    draws = [
        counter_int(seed, trial, u, v, bound=_SAMPLE_BOUND) + 1
        for u in range(n)
        for v in range(m)
    ]
    return sum(draws), draws


def _gap(d1, d2, opts, payoff, n):
    """|v1 − v2| for the two channels' optima opts at payoff, as
    (numerator, denominator) ints: v_i = total_i/(d_i·den·n)."""
    (total1, *_), (total2, *_) = opts
    return abs(total1 * d2 - total2 * d1), d1 * d2 * payoff[0] * n


def _exceeds(a, b):
    """a > b for rationals given as (numerator, positive denominator)."""
    return a[0] * b[1] > b[0] * a[1]


def _payoff_precedes(a, b):
    """a < b lexicographically, for payoffs as (den, ints over den)."""
    return [v * b[0] for v in a[1]] < [v * a[0] for v in b[1]]


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
    # Every game optimum of the search is a _best_pair scan over a
    # channel's int tables, and every ascent program is an integer image
    # at the lcm of the two channels' scales.
    d1, d2 = w1._image[0], w2._image[0]
    scale = lcm(d1, d2)
    # The search's memo, local to this call: every ascent program it
    # solves, and each channel's game optima it scores, so none is
    # computed twice. Concurrent searches never share entries.
    solved = {}
    sides = ((w1, {}), (w2, {}))

    best = None  # (score, payoff, dims); score as _gap returns it
    for trial in range(budget):
        n, m = dims[trial % len(dims)]
        payoff = _sample_payoff(seed, trial, n, m)
        if n == 1 or m == 1:
            # The gap is 0 at every payoff of this shape, so only the caps
            # are checked. Trial 0 plays 1×1 and its sample stays best: a
            # gap of 0 never replaces it.
            for w in (w1, w2):
                _cap(w, n, max_encoders)
            if best is None:
                best = ((0, 1), payoff, (n, m))
            continue
        opts = [_opt(w, n, m, payoff, max_encoders, scored) for w, scored in sides]
        score = _gap(d1, d2, opts, payoff, n)
        for _step in range(_MAX_REFINE_STEPS):
            chosen = None  # (score, payoff, opts) of the better candidate
            for k in (0, 1):
                (own, own_scored), (other, other_scored) = sides[k], sides[1 - k]
                d_own, own_ints = own._image
                active = _pair_ints(
                    own_ints, own.output_size, opts[k][1], opts[k][2], m, scale // d_own
                )
                candidate, other_opt = _ascent_step(
                    active, other, opts[1 - k], scale, n, m, max_encoders, solved,
                    other_scored,
                )
                # The last pricing scored other at candidate; only own is new.
                own_opt = _opt(own, n, m, candidate, max_encoders, own_scored)
                cand_opts = (own_opt, other_opt) if k == 0 else (other_opt, own_opt)
                cand_score = _gap(d1, d2, cand_opts, candidate, n)
                # Ties go to the lexicographically smaller payoff, then to
                # the first channel's candidate.
                if chosen is None or _exceeds(cand_score, chosen[0]) or (
                    not _exceeds(chosen[0], cand_score)
                    and _payoff_precedes(candidate, chosen[1])
                ):
                    chosen = (cand_score, candidate, cand_opts)
            if not _exceeds(chosen[0], score):
                break
            score, payoff, opts = chosen
        if _exceeds(score, best[0]):
            best = (score, payoff, (n, m))
    (num, den), (payoff_den, payoff_ints), game_dims = best
    lower = Rat(num, den)
    n, m = game_dims
    witness = tuple(
        tuple(Rat(v, payoff_den) for v in payoff_ints[u * m : (u + 1) * m])
        for u in range(n)
    )
    # The witness is re-scored on the rational games: the rational payoff
    # built from the search's ints, scaled afresh, is scanned by
    # optimal_average_payoff, which must give the bound's exact value.
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
