"""Containment, equivalence, and degradedness oracles with certificates.

W' contains W exactly when W is a convex combination of T ∘ W' ∘ R over
deterministic pairs (R, T), and, dually, exactly when every game pays at
least as well with W' as with W. contains runs both sides as one column
generation, lp_solver.priced_hull: while the hull program over the pairs
found so far is infeasible, its Farkas dual is a payoff whose optimal
pair against W' enters next, as one more column of the same live
tableau. Pricing and entry run on the master's integer image L·[A | b],
built from the integer images of W' and the target (Channel._image, each
scaled once per channel): the dual arrives as ints and is scored
against W''s int tables (brm._best_pair), and a pair's column enters as
W''s ints times L/d_W; no round builds a rational. It
ends with a mixture that reconstructs W, or with a dual no pair beats,
turned into a normalized positive payoff that strictly separates the
channels. Both are re-verified exactly before being returned; the
mixture on ints, Σ α·D_g∘W'∘D_f rebuilt entry by entry from W''s
integer image and one scaling of the weights.

Output-degradedness (w = T∘wp) is containment with the encoder fixed
to the identity: T is a mixture of deterministic output maps, so the
same master decides it, priced by the same game with each secret sent
to its own input. Every other hull question here goes through
lp_solver.hull_lp: a row of w against the rows of wp
(input-degradedness, one program per row, wp's rows read from its
integer image) and a row against the other rows (the srank input
reduction). srank certifies its reduction with
the two degradedness witnesses, not with containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .brm import BrmGame, _best_pair, _pair_ints, _score_tables, optimal_average_payoff
from .channel_core import (
    Channel,
    DeterministicMap,
    compose,
    identity_channel,
)
from .cpc import DEFAULT_MAX_PAIRS, CpcChannel, cpc_from_pairs, skew_compose_channel
from .errors import DimensionMismatchError, InternalCheckError, enforce_cap
from .lp_solver import FEASIBLE, _ScaledGroup, hull_lp, priced_hull, solve_feasibility
from .rational import (
    ONE,
    ZERO,
    Rat,
    parse_rat,
    parse_rat_matrix,
    parse_size,
    rat_str,
    scaled_ints,
)

CONTAINS = "contains"
DOES_NOT_CONTAIN = "does-not-contain"


@dataclass(frozen=True)
class ContainmentWitness:
    """Sparse positive weights on deterministic (f, g) pairs summing to 1.

    f maps the simulated channel's inputs into the simulator's inputs and
    g maps the simulator's outputs back; mixing D_g ∘ W' ∘ D_f with these
    weights reproduces the simulated channel exactly.
    """

    basis_weights: tuple  # ((f: DeterministicMap, g: DeterministicMap), weight)


@dataclass(frozen=True)
class SeparationCertificate:
    """A normalized positive payoff matrix with a strict optimal-payoff gap.

    payoff is over the simulated channel after _reduce_target: one row per
    distinct row, in order of first occurrence, and one column per output
    that carries mass, in alphabet order. gap is the exact difference of
    the two optimal average payoffs and is strictly positive.
    """

    payoff: tuple
    gap: object


@dataclass(frozen=True)
class OrderingVerdict:
    tag: str
    witness: ContainmentWitness | None = None
    certificate: SeparationCertificate | None = None

    @property
    def holds(self) -> bool:
        return self.tag == CONTAINS


def witness_to_cpc(witness: ContainmentWitness) -> CpcChannel:
    """The convex-product channel whose terms are the witness pairs."""
    (f0, g0), _ = witness.basis_weights[0]
    return cpc_from_pairs(
        witness.basis_weights,
        x_size=f0.domain_size,
        xp_size=f0.codomain_size,
        yp_size=g0.domain_size,
        y_size=g0.codomain_size,
    )


def apply_witness(witness: ContainmentWitness, wp: Channel) -> Channel:
    """Reconstruct the simulated channel: Σ α(f,g) · D_g ∘ wp ∘ D_f."""
    return skew_compose_channel(witness_to_cpc(witness), wp)


def _reduce_target(w: Channel):
    """Drop duplicate rows and mass-free output columns of the target.

    Either reduction is an exact mutual simulation by single deterministic
    pairs, so it changes neither the containment verdict nor (after the
    translation below) the witness semantics; it only shrinks the
    feasibility program. Returns (reduced channel, input map onto the kept
    representatives, output injection back into the original alphabet).
    Both are found on w's integer image: over one denominator, equal rows
    are equal int rows and a zero entry is a zero int.
    """
    m, ints = w.output_size, w._image[1]
    first_of = {}
    kept = []
    to_red = []
    for x in range(w.input_size):
        row = ints[x * m : (x + 1) * m]
        if row not in first_of:
            first_of[row] = len(kept)
            kept.append(x)
        to_red.append(first_of[row] + 1)
    live = [y for y in range(m) if any(ints[x * m + y] for x in kept)]
    # An irreducible target is returned as itself, so a repeated call
    # reads its cached image instead of scaling a fresh copy.
    reduced = w
    if (len(kept), len(live)) != (w.input_size, m):
        reduced = Channel(
            len(kept),
            len(live),
            tuple(tuple(w.rows[x][y] for y in live) for x in kept),
        )
    input_map = DeterministicMap(w.input_size, reduced.input_size, tuple(to_red))
    output_injection = DeterministicMap(
        reduced.output_size, w.output_size, tuple(y + 1 for y in live)
    )
    return reduced, input_map, output_injection


def _certificate_from_farkas(wp, w_red, dual, max_pairs):
    """Turn a Farkas dual over the reduced (x, y) rows into a separating payoff.

    Every column and the target have unit row sums per input, so adding a
    per-input constant to the dual preserves the strict gap; shifting to
    nonnegativity and scaling into the probability simplex yields a
    normalized positive payoff. The gap is re-derived from two exact
    optimal-average-payoff evaluations, against wp and against the reduced
    target. Optimal payoffs are invariant under the target reduction (an
    exact mutual simulation), so it is also the gap against the original
    target, and w's own game scans only n^n encoders, n its distinct rows.
    """
    n, m = w_red.input_size, w_red.output_size
    shifted = []
    for x in range(n):
        block = [dual[x * m + y] for y in range(m)]
        low = min(block)
        shifted.append([v - low for v in block])
    total = sum(sum(block) for block in shifted)
    if total <= 0:
        raise InternalCheckError("degenerate Farkas dual for separation")
    payoff = tuple(tuple(v / total for v in block) for block in shifted)
    own_game = BrmGame(n, n, m, m, payoff, w_red)
    other_game = BrmGame(n, wp.input_size, wp.output_size, m, payoff, wp)
    own_opt, _ = optimal_average_payoff(own_game, max_encoders=max_pairs)
    other_opt, _ = optimal_average_payoff(other_game, max_encoders=max_pairs)
    gap = own_opt - other_opt
    if gap <= 0:
        raise InternalCheckError("separating payoff failed to produce a gap")
    return SeparationCertificate(payoff=payoff, gap=gap)


def contains(
    wp: Channel, w: Channel, max_pairs: int = DEFAULT_MAX_PAIRS
) -> OrderingVerdict:
    """Decide whether wp contains w, with a verified witness either way.

    max_pairs caps the encoders each game optimum scans. With n the number
    of distinct rows of w, a pricing step scans |X'|^n encoders, checked
    once before the master starts, and re-deriving a certificate's gap
    also scans n^n, w's own encoders after the merge. It bounds the size
    of each enumeration, not the time of the whole call. Exceeding it, or
    the pivot budget of the master (one budget for all its rounds), raises
    ResourceLimitError, never a verdict.
    """
    if wp == w:
        f = DeterministicMap(w.input_size, w.input_size,
                             tuple(range(1, w.input_size + 1)))
        g = DeterministicMap(w.output_size, w.output_size,
                             tuple(range(1, w.output_size + 1)))
        witness = ContainmentWitness((((f, g), ONE),))
        _verify_witness(witness, wp, w)
        return OrderingVerdict(tag=CONTAINS, witness=witness)
    w_red, input_map, output_injection = _reduce_target(w)
    n = w_red.input_size
    enforce_cap(wp.input_size**n, max_pairs, "encoder enumeration", "elements")
    outcome, pairs = _master(wp, w_red)
    if outcome.tag != FEASIBLE:
        # No pair prices positive: the restricted dual separates the
        # target from every column, not only from the ones found.
        certificate = _certificate_from_farkas(
            wp, w_red, outcome.dual_certificate, max_pairs
        )
        return OrderingVerdict(tag=DOES_NOT_CONTAIN, certificate=certificate)
    weights = []
    for alpha, (f_img, g_img) in zip(outcome.primal, pairs):
        if alpha != 0:
            # Pull the pair back through the reduction maps: inputs of w
            # first collapse onto their representatives, and simulated
            # outputs re-inject into w's full output alphabet.
            f = DeterministicMap(
                w.input_size,
                wp.input_size,
                tuple(f_img[rep - 1] + 1 for rep in input_map.image),
            )
            g = DeterministicMap(
                wp.output_size,
                w.output_size,
                tuple(output_injection(v + 1) for v in g_img),
            )
            weights.append(((f, g), alpha))
    witness = ContainmentWitness(tuple(weights))
    _verify_witness(witness, wp, w)
    return OrderingVerdict(tag=CONTAINS, witness=witness)


def _master(wp: Channel, target: Channel, identity_encoder: bool = False):
    """Is target a mixture of D_g∘wp∘D_f over deterministic pairs (f, g)?

    One lp_solver.priced_hull master over the flattened target, its
    columns priced by the game of its Farkas dual against wp. With
    identity_encoder, secret u may only be sent to input u: only each
    secret's score table on its own input row is built, so pricing scores
    one encoder. Returns the outcome and the pairs entered as 0-based
    images, in column order.
    """
    m = target.output_size
    # A pair column sums entries of one wp row, so its denominators divide
    # d_W; with the target's, they fix the master's scale L.
    d_t, target_ints = target._image
    d_w, wp_ints = wp._image
    scale = lcm(d_t, d_w)
    m_p, factor = wp.output_size, scale // d_w
    pairs = []

    def price(dual):
        # dual is (l, c) as ints over D. The game of payoff l against wp
        # pays total/(d_W·D·n) on average at its optimum, so some pair
        # prices l·a + c > 0 exactly when total + d_W·c > 0. The empty
        # master's dual is all ones: every pair ties, and the first column
        # is the lexicographically first pair.
        if identity_encoder:
            tables = [
                _score_tables(
                    wp_ints[u * m_p : (u + 1) * m_p], dual[u * m : (u + 1) * m],
                    m_p, m,
                )[0]
                for u in range(target.input_size)
            ]
        else:
            tables = _score_tables(wp_ints, dual[:-1], m_p, m)
        total, f_img, g_img = _best_pair(tables)
        if total + d_w * dual[-1] <= 0:
            return None
        if identity_encoder:
            f_img = tuple(range(len(f_img)))
        pairs.append((f_img, g_img))
        return _pair_ints(wp_ints, m_p, f_img, g_img, m, factor)

    outcome = priced_hull([v * (scale // d_t) for v in target_ints], price, scale)
    return outcome, pairs


def _verify_witness(witness: ContainmentWitness, wp: Channel, w: Channel):
    """Rebuild Σ α·D_g∘wp∘D_f entry by entry on ints and compare it with w.

    The weights are scaled to ints over their common denominator d_α, and
    wp is read as its integer image over d_W, so the rebuilt channel is an
    int matrix over d_α·d_W, compared with w's integer image by
    cross-multiplication.
    """
    weights = [weight for _pair, weight in witness.basis_weights]
    if any(weight <= 0 for weight in weights):
        raise InternalCheckError("witness carries a non-positive weight")
    d_alpha, alphas = scaled_ints(weights)
    if sum(alphas) != d_alpha:
        raise InternalCheckError("witness weights do not sum to 1")
    d_w, wp_ints = wp._image
    m_p = wp.output_size
    rebuilt = [[0] * w.output_size for _ in range(w.input_size)]
    for ((f, g), _weight), alpha in zip(witness.basis_weights, alphas):
        if (f.domain_size, f.codomain_size, g.domain_size, g.codomain_size) != (
            w.input_size, wp.input_size, m_p, w.output_size
        ):
            raise InternalCheckError("witness pair does not fit the channels")
        for row, xp in zip(rebuilt, f.image):
            start = (xp - 1) * m_p
            for y, p in zip(g.image, wp_ints[start : start + m_p]):
                row[y - 1] += alpha * p
    scale, (d_t, target) = d_alpha * d_w, w._image
    for v, t in zip((v for row in rebuilt for v in row), target):
        if v * d_t != t * scale:
            raise InternalCheckError("witness does not reconstruct the target channel")


def shannon_equivalent(w1: Channel, w2: Channel, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Verdicts for (w2 contains w1, w1 contains w2); equivalent iff both hold."""
    return (
        contains(w2, w1, max_pairs=max_pairs),
        contains(w1, w2, max_pairs=max_pairs),
    )


def degraded_from(w: Channel, wp: Channel) -> Channel | None:
    """Some output randomizer T with w = T ∘ wp, or None if none exists.

    This is containment with the encoder fixed to the identity: T is a
    mixture Σ α·D_g of deterministic output maps, found by the master of
    contains with each secret priced on its own input row, so a pricing
    step is polynomial and needs no cap. The master has one pivot budget
    for all its rounds; exceeding it raises ResourceLimitError, never None.
    """
    if w.input_size != wp.input_size:
        raise DimensionMismatchError("degraded_from: input alphabets differ")
    if w == wp:
        return identity_channel(w.output_size)
    outcome, pairs = _master(wp, w, identity_encoder=True)
    if outcome.tag != FEASIBLE:
        return None
    t_rows = [[ZERO] * w.output_size for _ in range(wp.output_size)]
    for alpha, (_f_img, g_img) in zip(outcome.primal, pairs):
        for row, y in zip(t_rows, g_img):
            row[y] += alpha
    witness = Channel(wp.output_size, w.output_size, tuple(map(tuple, t_rows)))
    if compose(witness, wp) != w:
        raise InternalCheckError("degradation witness failed verification")
    return witness


def input_degraded_from(w: Channel, wp: Channel) -> Channel | None:
    """Some input randomizer R with w = wp ∘ R, or None if none exists.

    Row x of R is the weight vector of row x of w as a convex combination
    of the rows of wp, one hull program per row; every program reads both
    channels' rows from their integer images.
    """
    if w.output_size != wp.output_size:
        raise DimensionMismatchError("input_degraded_from: output alphabets differ")
    if w == wp:
        return identity_channel(w.input_size)
    group = _ScaledGroup(*wp._image, wp.input_size, wp.output_size)
    (d_w, w_ints), m = w._image, w.output_size
    r_rows = []
    for x in range(w.input_size):
        row = _ScaledGroup(d_w, w_ints[x * m : (x + 1) * m], 1, m)
        outcome = solve_feasibility(hull_lp(row, group))
        if outcome.tag != FEASIBLE:
            return None
        r_rows.append(outcome.primal)
    witness = Channel(w.input_size, wp.input_size, tuple(r_rows))
    if compose(wp, witness) != w:
        raise InternalCheckError("input-degradation witness failed verification")
    return witness


def embed(w: Channel, n2: int, m2: int) -> Channel:
    """Canonical embedding into larger alphabets, Shannon-equivalent to w.

    Inputs beyond the original alphabet behave like the last original input
    (canonical surjection), and the original outputs inject unchanged with
    the new outputs unreachable.
    """
    if n2 < w.input_size or m2 < w.output_size:
        raise DimensionMismatchError("embed: target alphabets may not shrink")
    rows = []
    for i in range(1, n2 + 1):
        src = min(i, w.input_size)
        rows.append(w.rows[src - 1] + (ZERO,) * (m2 - w.output_size))
    return Channel(n2, m2, tuple(rows))


def _canonical_reduction(w: Channel) -> Channel:
    """A smaller channel Shannon-equivalent to w, with the equivalence checked.

    Starting from _reduce_target(w), one pass drops each row lying in the
    hull of the rows still kept, every hull program read from the reduced
    channel's integer image. Dropping such a row leaves the hull
    unchanged, so the kept rows K are exactly its extreme points, and every
    output keeps mass in K. The merge runs on the same ints: a column of K
    is nonnegative and not zero, so two columns are proportional exactly
    when they are equal once each is divided by the gcd of its ints. That
    quotient keys the merged output, whose column is the key times the
    sum of its columns' gcds, over d. _reduce_target drops only repeated
    rows and mass-free outputs, so K put back into w's outputs is w's own
    rows at the representatives. w = K∘R (input randomization) and
    K = T∘w_red (splitting merged outputs back) are found and re-verified
    by input_degraded_from and degraded_from; the converse directions are
    deterministic by construction.
    """
    base, input_map, _injection = _reduce_target(w)
    (d, ints), m = base._image, base.output_size
    int_rows = [ints[i : i + m] for i in range(0, len(ints), m)]
    keep = []
    for i, row in enumerate(int_rows):
        others = [*keep, *range(i + 1, base.input_size)]
        hull = _ScaledGroup(d, [v for k in others for v in int_rows[k]], len(others), m)
        point = _ScaledGroup(d, row, 1, m)
        if not others or solve_feasibility(hull_lp(point, hull)).tag != FEASIBLE:
            keep.append(i)
    merged = {}
    for column in zip(*(int_rows[i] for i in keep)):
        g = gcd(*column)
        key = tuple(v // g for v in column)
        merged[key] = merged.get(key, 0) + g
    columns = [[Rat(v * total, d) for v in key] for key, total in merged.items()]
    w_red = Channel(len(keep), len(merged), tuple(zip(*columns)))
    reps = [w.rows[input_map.image.index(i + 1)] for i in keep]
    k = Channel(len(keep), w.output_size, tuple(reps))
    if input_degraded_from(w, k) is None:
        raise InternalCheckError("a dropped row is not a mixture of the kept rows")
    if degraded_from(k, w_red) is None:
        raise InternalCheckError("merged output columns cannot be split back")
    return w_red


def srank_upper_bound(w: Channel) -> int:
    """Upper bound on the size of the smallest Shannon-equivalent channel.

    The larger alphabet size of the canonical reduction: extreme rows only,
    proportional output columns merged. Whether this bound is tight is
    unknown; nothing downstream assumes it is.
    """
    w_red = _canonical_reduction(w)
    return max(w_red.input_size, w_red.output_size)


def _map_key(f_img, g_img) -> str:
    return f"f=[{','.join(map(str, f_img))}];g=[{','.join(map(str, g_img))}]"


def _parse_map_key(key: str):
    """The images (f, g) of a key spelled exactly as _map_key writes it,
    surrounding whitespace aside; any other spelling is a ValueError, so
    no two keys read as the same pair."""
    body = key.strip()
    try:
        parts = body[len("f=[") : -1].split("];g=[")
        images = tuple(tuple(map(int, part.split(","))) for part in parts)
    except ValueError:
        images = ()
    if len(images) != 2 or _map_key(*images) != body:
        raise ValueError(f"malformed witness key {key!r}")
    return images


def witness_to_json(witness: ContainmentWitness) -> dict:
    (f0, g0), _ = witness.basis_weights[0]
    return {
        "x_size": f0.domain_size,
        "xp_size": f0.codomain_size,
        "yp_size": g0.domain_size,
        "y_size": g0.codomain_size,
        "weights": {
            _map_key(f.image, g.image): rat_str(weight)
            for (f, g), weight in witness.basis_weights
        },
    }


def witness_from_json(obj) -> ContainmentWitness:
    try:
        x, xp, yp, y = (
            parse_size(obj[k]) for k in ("x_size", "xp_size", "yp_size", "y_size")
        )
        raw = obj["weights"]
        if not isinstance(raw, dict):
            raise ValueError("weights must be an object")
        entries = []
        for key in sorted(raw):
            f_img, g_img = _parse_map_key(key)
            pair = (DeterministicMap(x, xp, f_img), DeterministicMap(yp, y, g_img))
            entries.append((pair, parse_rat(raw[key])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed witness JSON: {exc}") from exc
    if not entries:
        raise ValueError("witness JSON carries no weights")
    return ContainmentWitness(tuple(entries))


def certificate_to_json(cert: SeparationCertificate) -> dict:
    return {
        "payoff": [[rat_str(v) for v in row] for row in cert.payoff],
        "gap": rat_str(cert.gap),
    }


def certificate_from_json(obj) -> SeparationCertificate:
    try:
        payoff = parse_rat_matrix(obj["payoff"])
        gap = parse_rat(obj["gap"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    return SeparationCertificate(payoff=payoff, gap=gap)


def verdict_to_json(verdict: OrderingVerdict) -> dict:
    out = {"verdict": verdict.tag}
    if verdict.witness is not None:
        out["witness"] = witness_to_json(verdict.witness)
    if verdict.certificate is not None:
        out["certificate"] = certificate_to_json(verdict.certificate)
    return out
