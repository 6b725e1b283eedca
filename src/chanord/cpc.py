"""Convex-product channels and skew-composition.

A convex-product channel V on (X×Y') -> (X'×Y) is a convex combination of
products R_i ⊗ T_i, where each R_i randomizes inputs (X -> X') and each
T_i randomizes outputs back (Y' -> Y). These are exactly the objects that
witness channel containment: wiring a channel W': X' -> Y' through V gives
the simulated channel Σ_i α_i · T_i ∘ W' ∘ R_i.

Skew-composition is only exposed on CpcChannel values: applied to a
non-convex-product joint channel the same contraction formula need not
produce a channel at all, so the type is the guard. It composes every
term pair on integer images, read from each R's and T's own image
(Channel._image) at one denominator per operand and side, and builds
each distinct composed matrix once, handing it its image; deterministic
channels, memoized in channel_core, are shared rather than rebuilt, here
and in cpc_from_pairs.

The deterministic pairs (f, g) are the extreme points of this set. This
module never lists them: pair_column builds the simulated column
D_g ∘ W' ∘ D_f of one pair on rationals, the reference the tests check
the integer form against. The metric search and containment, which add
the pairs a game prices one at a time, build the same column on ints
with brm._pair_ints. The payoff regions of brm do enumerate every pair,
but score it on the game's integer tables, not through a column.

Carathéodory reduction is a hull question like every other in the
library and goes through lp_solver.hull_lp: the flattened channel lies in
the hull of its term atoms, and one vertex solve of that program keeps a
basic solution. Its support is a set of linearly independent columns of
[1; atoms], hence at most |support| + 1 ≤ dim + 1 affinely independent
atoms, support being the coordinates where the channel is nonzero. The
atoms and the point are built on the program's integer image (_atoms),
from one scaling of the weights and the int rows _int_matrices reads
off every R and every T (those skew-composition composes on), and the
coordinates where the channel is 0 (every atom is 0 there) are left out
of the program. as_channel flattens the same int mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .channel_core import (
    Channel,
    DeterministicMap,
    channel_from_json,
    channel_to_json,
    compose,
    deterministic,
)
from .errors import DimensionMismatchError, InternalCheckError
from .lp_solver import FEASIBLE, _ScaledGroup, hull_lp, solve_feasibility
from .rational import ONE, ZERO, Rat, parse_rat, parse_size, rat_str, scaled_ints

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
    the second coordinate fastest, matching channel_product. The entries
    are the int mixture of _atoms over d_α·d_R·d_T, one rational each.
    """
    scale, point, _atom_scale, _entries = _atoms(v)
    m = v.xp_size * v.y_size
    return _channel_over(tuple(tuple(point[i : i + m]) for i in range(0, len(point), m)), scale)


def skew_compose_cpc(v: CpcChannel, vp: CpcChannel) -> CpcChannel:
    """Skew-composition of two convex-product channels, still convex-product.

    v wires X -> X' and Y' -> Y; vp wires X' -> X'' and Y'' -> Y'. The result
    wires X -> X'' and Y'' -> Y with one term per term pair:
    (α_i·α'_j, R'_j ∘ R_i, T_i ∘ T'_j).

    The compositions run on integer images: _int_matrices brings the R's
    of v, the R's of vp, the T's of v and the T's of vp each to one
    denominator, so R'_j ∘ R_i is an int matrix product over d_R·d_R'
    and T_i ∘ T'_j one over d_T·d_T'. Term pairs repeat their factors, so
    each distinct composed matrix becomes one Channel per call, built
    with its image; one whose entries are all 0 or 1 is taken from
    deterministic.
    """
    if v.xp_size != vp.x_size or v.yp_size != vp.y_size:
        raise DimensionMismatchError("skew_compose_cpc: middle alphabets differ")
    d_r, r_left = _int_matrices([term.r for term in v.terms])
    d_rp, r_right = _int_matrices([term.r for term in vp.terms])
    d_t, t_left = _int_matrices([term.t for term in v.terms])
    d_tp, t_right = _int_matrices([term.t for term in vp.terms])
    r_built, t_built = {}, {}
    terms = []
    for a, r, t in zip(v.terms, r_left, t_left):
        for b, rp, tp in zip(vp.terms, r_right, t_right):
            r_rows, t_rows = _int_product(r, rp), _int_product(tp, t)
            if r_rows not in r_built:
                r_built[r_rows] = _channel_over(r_rows, d_r * d_rp)
            if t_rows not in t_built:
                t_built[t_rows] = _channel_over(t_rows, d_t * d_tp)
            terms.append(CpcTerm(a.weight * b.weight, r_built[r_rows], t_built[t_rows]))
    return CpcChannel(v.x_size, vp.xp_size, vp.yp_size, v.y_size, tuple(terms))


def _int_matrices(channels):
    """(d, each channel's rows as int tuples over d), d the lcm of the
    channels' denominators: every channel's integer image (Channel._image)
    brought to d, the d and ints one scaled_ints over all their entries
    would give."""
    d = lcm(*(ch._image[0] for ch in channels))
    matrices = []
    for ch in channels:
        den, ints = ch._image
        factor, m = d // den, ch.output_size
        matrices.append(
            tuple(tuple(map(factor.__mul__, ints[i : i + m])) for i in range(0, len(ints), m))
        )
    return d, matrices


def _int_product(first, then):
    """The int rows of the composition that runs first, then then."""
    columns = tuple(zip(*then))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in first)


def _channel_over(rows, d):
    """The channel of int rows over d, each row summing to d, given its
    integer image: the ints reduced to least terms, as Channel._image
    would compute them."""
    if all(p == 0 or p == d for row in rows for p in row):
        image = tuple(row.index(d) + 1 for row in rows)
        return deterministic(DeterministicMap(len(rows), len(rows[0]), image))
    channel = Channel(
        len(rows), len(rows[0]), tuple(tuple(Rat(p, d) for p in row) for row in rows)
    )
    common = gcd(d, *(p for row in rows for p in row))
    vars(channel)["_image"] = d // common, tuple(p // common for row in rows for p in row)
    return channel


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


def _atoms(v: CpcChannel):
    """The integer mixture of v's terms: (d_α·d_R·d_T, Σ α_k·atom_k as
    ints over it, d_R·d_T, [(first term, summed int weight, atom_k)]).

    One scaled_ints over the weights (d_α), and _int_matrices over every R
    (d_R) and over every T (d_T). Terms of weight 0 are dropped and
    identical (R, T) atoms merged on those int rows, first appearance
    first. Atom k is R_k ⊗ T_k as ints over d_R·d_T, flattened in
    as_channel's row-major order.
    """
    terms = [term for term in v.terms if term.weight != 0]
    if not terms:
        raise ValueError("convex-product channel has no mass")
    alpha_scale, alphas = scaled_ints(term.weight for term in terms)
    r_scale, r_mats = _int_matrices([term.r for term in terms])
    t_scale, t_mats = _int_matrices([term.t for term in terms])
    merged = {}  # (R int rows, T int rows) -> [first term, summed int weight]
    for key, term, alpha in zip(zip(r_mats, t_mats), terms, alphas):
        if key in merged:
            merged[key][1] += alpha
        else:
            merged[key] = [term, alpha]
    entries = []
    point = [0] * (v.x_size * v.yp_size * v.xp_size * v.y_size)
    for (r_rows, t_rows), (term, alpha) in merged.items():
        atom = []
        for r_row in r_rows:
            for t_row in t_rows:
                for rv in r_row:
                    atom.extend([rv * tv for tv in t_row] if rv else (0,) * v.y_size)
        entries.append((term, alpha, atom))
        point = [p + alpha * a for p, a in zip(point, atom)]
    return alpha_scale * r_scale * t_scale, point, r_scale * t_scale, entries


def caratheodory_reduce(v: CpcChannel) -> CpcChannel:
    """Shrink the term list without changing the flattened channel.

    The program is built on the integer mixture of _atoms, the one
    as_channel flattens: atom k is R_k ⊗ T_k as ints over d_R·d_T, with
    weight-0 terms dropped and identical atoms merged, and the point
    Σ α_k·atom_k as ints over d_α·d_R·d_T. Where the point is 0 every atom
    is 0 (positive weights, nonnegative entries), so those coordinate rows
    read 0 = 0 and are left out: they never enter a ratio test nor the
    phase-one cost, so the pivot path is the one of the full program.

    One vertex solve of hull_lp(point, atoms) then re-weights the atoms.
    Phase one returns a basic solution, whose nonzero weights sit on
    linearly independent columns of [1; atoms]: the kept atoms are
    affinely independent and number at most |support of the point| + 1
    ≤ x·y'·x'·y + 1. The solver re-verifies that the new weights rebuild
    the point exactly.
    """
    point_scale, point, atom_scale, entries = _atoms(v)
    atoms = [atom for _term, _alpha, atom in entries]
    support = [i for i, p in enumerate(point) if p]
    dropped = [i for i, p in enumerate(point) if not p]
    if any(atom[i] for atom in atoms for i in dropped):
        raise InternalCheckError("an atom is nonzero where the mixture is zero")
    dim = len(support)
    flat = [atom[i] for atom in atoms for i in support]
    group = _ScaledGroup(atom_scale, flat, len(atoms), dim)
    point_group = _ScaledGroup(point_scale, [point[i] for i in support], 1, dim)
    outcome = solve_feasibility(hull_lp(point_group, group))
    if outcome.tag != FEASIBLE:
        raise InternalCheckError("convex-product channel is outside its atoms' hull")
    kept = tuple(
        CpcTerm(weight, term.r, term.t)
        for weight, (term, _alpha, _atom) in zip(outcome.primal, entries)
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
