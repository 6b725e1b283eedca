"""Convex-product channels and skew-composition.

A convex-product channel V on (X×Y') -> (X'×Y) is a convex combination of
products R_i ⊗ T_i, where each R_i randomizes inputs (X -> X') and each
T_i randomizes outputs back (Y' -> Y). These are exactly the objects that
witness channel containment: wiring a channel W': X' -> Y' through V gives
the simulated channel Σ_i α_i · T_i ∘ W' ∘ R_i.

Skew-composition is only exposed on CpcChannel values: applied to a
non-convex-product joint channel the same contraction formula need not
produce a channel at all, so the type is the guard.

The deterministic pairs (f, g) are the extreme points of this set. This
module never lists them: pair_column builds the simulated column
D_g ∘ W' ∘ D_f of one pair, which is how the containment and metric
searches add the pairs a game prices, one at a time. The payoff regions
of brm do enumerate every pair, but score it on the game's integer
tables, not through a column.

Carathéodory reduction is a hull question like every other in the
library and goes through lp_solver.hull_lp: the flattened channel lies in
the hull of its term atoms, and one vertex solve of that program keeps a
basic solution. Its support is a set of linearly independent columns of
[1; atoms], hence at most dim + 1 affinely independent atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel_core import (
    Channel,
    DeterministicMap,
    channel_from_json,
    channel_to_json,
    compose,
    deterministic,
)
from .errors import DimensionMismatchError, InternalCheckError
from .lp_solver import FEASIBLE, hull_lp, solve_feasibility
from .rational import ONE, ZERO, Rat, parse_rat, parse_size, rat_str

# One cap for every enumeration of deterministic maps. For contains, the
# metric search and brm-opt it bounds the encoders |X'|^|X| that one game
# optimum scans (after target reduction, for contains); only the region
# generators count whole pairs |X|^|U| · |V|^|Y| against it. It bounds
# enumeration size, not run time.
DEFAULT_MAX_PAIRS = 65536


@dataclass(frozen=True)
class CpcTerm:
    weight: object
    r: Channel  # input randomizer  X  -> X'
    t: Channel  # output randomizer Y' -> Y


@dataclass(frozen=True)
class CpcChannel:
    """Weighted list of (input randomizer, output randomizer) pairs."""

    x_size: int
    xp_size: int
    yp_size: int
    y_size: int
    terms: tuple

    def __post_init__(self):
        total = ZERO
        for term in self.terms:
            if term.weight < 0:
                raise ValueError("negative convex weight")
            total += term.weight
            if (term.r.input_size, term.r.output_size) != (self.x_size, self.xp_size):
                raise DimensionMismatchError("input randomizer shape mismatch")
            if (term.t.input_size, term.t.output_size) != (self.yp_size, self.y_size):
                raise DimensionMismatchError("output randomizer shape mismatch")
        if total != ONE:
            raise ValueError("convex weights must sum to exactly 1")


def cpc_from_pairs(weighted_pairs, x_size, xp_size, yp_size, y_size) -> CpcChannel:
    """CpcChannel whose terms are deterministic pairs (f, g) with weights."""
    terms = tuple(
        CpcTerm(Rat(w), deterministic(f), deterministic(g))
        for (f, g), w in weighted_pairs
    )
    return CpcChannel(x_size, xp_size, yp_size, y_size, terms)


def as_channel(v: CpcChannel) -> Channel:
    """Flatten to the joint channel V(x',y|x,y') = Σ_i α_i R_i(x'|x) T_i(y|y').

    Row index (x, y') and column index (x', y) are flattened row-major with
    the second coordinate fastest, matching channel_product.
    """
    n = v.x_size * v.yp_size
    m = v.xp_size * v.y_size
    rows = [[ZERO] * m for _ in range(n)]
    for term in v.terms:
        if term.weight == 0:
            continue
        for x in range(v.x_size):
            rrow = term.r.rows[x]
            for yp in range(v.yp_size):
                trow = term.t.rows[yp]
                out = rows[x * v.yp_size + yp]
                for xp in range(v.xp_size):
                    rv = rrow[xp]
                    if rv == 0:
                        continue
                    w_rv = term.weight * rv
                    base = xp * v.y_size
                    for y in range(v.y_size):
                        tv = trow[y]
                        if tv != 0:
                            out[base + y] += w_rv * tv
    return Channel(n, m, tuple(tuple(row) for row in rows))


def skew_compose_cpc(v: CpcChannel, vp: CpcChannel) -> CpcChannel:
    """Skew-composition of two convex-product channels, still convex-product.

    v wires X -> X' and Y' -> Y; vp wires X' -> X'' and Y'' -> Y'. The result
    wires X -> X'' and Y'' -> Y with one term per term pair:
    (α_i·α'_j, R'_j ∘ R_i, T_i ∘ T'_j).
    """
    if v.xp_size != vp.x_size or v.yp_size != vp.y_size:
        raise DimensionMismatchError("skew_compose_cpc: middle alphabets differ")
    terms = tuple(
        CpcTerm(a.weight * b.weight, compose(b.r, a.r), compose(a.t, b.t))
        for a in v.terms
        for b in vp.terms
    )
    return CpcChannel(v.x_size, vp.xp_size, vp.yp_size, v.y_size, terms)


def skew_compose_channel(v: CpcChannel, wp: Channel) -> Channel:
    """Wire the channel wp: X' -> Y' through v, giving Σ_i α_i T_i ∘ wp ∘ R_i."""
    if v.xp_size != wp.input_size or v.yp_size != wp.output_size:
        raise DimensionMismatchError("skew_compose_channel: middle alphabets differ")
    rows = [[ZERO] * v.y_size for _ in range(v.x_size)]
    for term in v.terms:
        if term.weight == 0:
            continue
        piece = compose(term.t, compose(wp, term.r))
        for x in range(v.x_size):
            prow = piece.rows[x]
            out = rows[x]
            for y in range(v.y_size):
                if prow[y] != 0:
                    out[y] += term.weight * prow[y]
    return Channel(v.x_size, v.y_size, tuple(tuple(row) for row in rows))


def pair_column(wp: Channel, f: DeterministicMap, g: DeterministicMap) -> tuple:
    """The simulated channel D_g ∘ wp ∘ D_f flattened row-major.

    f maps the simulated inputs into wp's inputs, g maps wp's outputs onto
    the simulated outputs; this is one generator of the containment hull.
    """
    flat = []
    for x in f.image:
        out = [ZERO] * g.codomain_size
        for yp, p in enumerate(wp.rows[x - 1]):
            if p != 0:
                out[g.image[yp] - 1] += p
        flat.extend(out)
    return tuple(flat)


def _flat_atom(term: CpcTerm, v: CpcChannel) -> tuple:
    """Flattened R⊗T matrix of one term (the term's as_channel, weight 1)."""
    single = CpcChannel(
        v.x_size, v.xp_size, v.yp_size, v.y_size, (CpcTerm(ONE, term.r, term.t),)
    )
    flat = as_channel(single)
    return tuple(p for row in flat.rows for p in row)


def caratheodory_reduce(v: CpcChannel) -> CpcChannel:
    """Shrink the term list without changing the flattened channel.

    Identical (R, T) atoms are merged, then one vertex solve of
    hull_lp(flattened v, atoms) re-weights them. Phase one of the simplex
    returns a basic solution, whose nonzero weights sit on linearly
    independent columns of [1; atoms]: the kept atoms are affinely
    independent and number at most x·y'·x'·y + 1. The solver re-verifies
    that the new weights flatten to exactly the same channel.
    """
    merged = {}
    order = []
    for term in v.terms:
        if term.weight == 0:
            continue
        key = (term.r, term.t)
        if key in merged:
            merged[key] = CpcTerm(merged[key].weight + term.weight, term.r, term.t)
        else:
            merged[key] = term
            order.append(key)
    terms = [merged[key] for key in order]
    if not terms:
        raise ValueError("convex-product channel has no mass")
    atoms = [_flat_atom(term, v) for term in terms]
    point = tuple(p for row in as_channel(v).rows for p in row)
    outcome = solve_feasibility(hull_lp(point, atoms))
    if outcome.tag != FEASIBLE:
        raise InternalCheckError("convex-product channel is outside its atoms' hull")
    kept = tuple(
        CpcTerm(weight, term.r, term.t)
        for weight, term in zip(outcome.primal, terms)
        if weight != 0
    )
    return CpcChannel(v.x_size, v.xp_size, v.yp_size, v.y_size, kept)


def cpc_to_json(v: CpcChannel) -> dict:
    return {
        "sizes": [v.x_size, v.xp_size, v.yp_size, v.y_size],
        "terms": [
            {
                "weight": rat_str(term.weight),
                "r": channel_to_json(term.r),
                "t": channel_to_json(term.t),
            }
            for term in v.terms
        ],
    }


def cpc_from_json(obj) -> CpcChannel:
    if not isinstance(obj, dict):
        raise ValueError("convex-product channel JSON must be an object")
    try:
        x, xp, yp, y = (parse_size(s) for s in obj["sizes"])
        terms = tuple(
            CpcTerm(
                parse_rat(entry["weight"]),
                channel_from_json(entry["r"]),
                channel_from_json(entry["t"]),
            )
            for entry in obj["terms"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed convex-product channel JSON: {exc}") from exc
    return CpcChannel(x, xp, yp, y, terms)
