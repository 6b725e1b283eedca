"""Answer checks that do not lean on the algorithms under test.

Witnesses are rebuilt with ``channel_core.compose`` and ``deterministic``
only; optimal payoffs, channel distances and capacity bounds are
recomputed here from their definitions. Answers known by construction
(the query kind says which) must match. Each check returns ``None`` when
the answer is correct and a short reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from workloads import CAPACITY_EPS

CONTAINS = "contains"


def _matrix(channel):
    return [list(row) for row in channel.rows]


def _weighted_sum(pieces):
    """Σ weight · matrix over (weight, matrix) pairs of equal shape."""
    total = None
    for weight, mat in pieces:
        scaled = [[weight * p for p in row] for row in mat]
        if total is None:
            total = scaled
        else:
            total = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(total, scaled)]
    return total


def _convex_weights(weights):
    if any(w <= 0 for w in weights):
        return "non-positive weight"
    if sum(weights) != 1:
        return "weights do not sum to 1"
    return None


def witness_error(lib, witness, wp, w):
    """Σ α · D_g ∘ W' ∘ D_f must equal W exactly."""
    cc = lib.channel_core
    bad = _convex_weights([alpha for _pair, alpha in witness.basis_weights])
    if bad:
        return "witness: " + bad
    pieces = []
    for (f, g), alpha in witness.basis_weights:
        if (f.domain_size, f.codomain_size) != (w.input_size, wp.input_size):
            return "witness: encoder shape"
        if (g.domain_size, g.codomain_size) != (wp.output_size, w.output_size):
            return "witness: decoder shape"
        inner = cc.compose(wp, cc.deterministic(f))
        pieces.append((alpha, _matrix(cc.compose(cc.deterministic(g), inner))))
    if _weighted_sum(pieces) != _matrix(w):
        return "witness does not reconstruct the target"
    return None


def optimal_average_payoff(payoff, channel):
    """max over encoders f of (1/|U|) Σ_y max_v Σ_u W(y|f(u)) l(u, v)."""
    u_size, v_size = len(payoff), len(payoff[0])
    rows = channel.rows
    best = None
    for f in product(range(channel.input_size), repeat=u_size):
        total = Fraction(0)
        for y in range(channel.output_size):
            total += max(
                sum((rows[f[u]][y] * payoff[u][v] for u in range(u_size)), Fraction(0))
                for v in range(v_size)
            )
        if best is None or total > best:
            best = total
    return best / u_size


def certificate_error(cert, wp, w):
    """The payoff must be normalized and the gap must be recomputed exactly."""
    entries = [v for row in cert.payoff for v in row]
    if any(v < 0 for v in entries) or sum(entries) != 1:
        return "certificate payoff is not normalized"
    gap = optimal_average_payoff(cert.payoff, w) - optimal_average_payoff(cert.payoff, wp)
    if gap != cert.gap:
        return "certificate gap differs from recomputed optimal payoffs"
    if gap <= 0:
        return "certificate gap is not positive"
    return None


def verdict_error(lib, verdict, wp, w, must_contain):
    if verdict.tag == CONTAINS:
        if verdict.witness is None:
            return "contains verdict without a witness"
        return witness_error(lib, verdict.witness, wp, w)
    if must_contain:
        return "known containment reported as does-not-contain"
    if verdict.certificate is None:
        return "does-not-contain verdict without a certificate"
    return certificate_error(verdict.certificate, wp, w)


def cpc_error(lib, v, w1, w3):
    """Σ α · T ∘ W1 ∘ R over the terms of v must equal W3."""
    cc = lib.channel_core
    bad = _convex_weights([term.weight for term in v.terms])
    if bad:
        return "reduced chain: " + bad
    pieces = [
        (term.weight, _matrix(cc.compose(term.t, cc.compose(w1, term.r))))
        for term in v.terms
    ]
    if _weighted_sum(pieces) != _matrix(w3):
        return "reduced chain does not reconstruct the end channel"
    return None


def _region_points(game):
    """The set of payoff vectors of all deterministic (encoder, decoder) pairs."""
    rows, payoff = game.randomizer.rows, game.payoff_matrix
    return {
        tuple(
            sum((rows[f[u]][y] * payoff[u][g[y]] for y in range(game.y_size)), Fraction(0))
            for u in range(game.u_size)
        )
        for f in product(range(game.x_size), repeat=game.u_size)
        for g in product(range(game.v_size), repeat=game.y_size)
    }


def _best_mean(points):
    return max(sum(p) for p in points) / len(next(iter(points)))


def tv_distance(w1, w2):
    return max(
        sum((abs(a - b) for a, b in zip(r1, r2)), Fraction(0))
        for r1, r2 in zip(w1.rows, w2.rows)
    ) / 2


def capacity_bounds(channel, eps):
    """(I(uniform; W) − eps, max_x D(W_x ‖ q)) with q the uniform-input output law."""
    rows = [[float(p) for p in row] for row in channel.rows]
    n, m = len(rows), len(rows[0])
    q = [sum(row[y] for row in rows) / n for y in range(m)]
    dens = [
        sum(p * math.log(p / q[y]) for y, p in enumerate(row) if p > 0) for row in rows
    ]
    return sum(dens) / n - eps, max(dens)


def error_probability_bounds(n, big_m, channel):
    """0 ≤ perr ≤ 1 − 1/M, and perr ≥ 1 − (Σ_blocks max_word W^n(block|word)) / M."""
    rows = channel.rows
    credited = Fraction(0)
    for block in product(range(channel.output_size), repeat=n):
        best = Fraction(0)
        for word in product(range(channel.input_size), repeat=n):
            likelihood = Fraction(1)
            for x, y in zip(word, block):
                likelihood *= rows[x][y]
            best = max(best, likelihood)
        credited += best
    return max(Fraction(0), 1 - credited / big_m), 1 - Fraction(1, big_m)


def check(lib, q, answer):
    """None when the answer to query q is correct, else a reason."""
    a = q.args
    kind = q.kind
    if kind in ("contains-sim", "contains-rand"):
        return verdict_error(lib, answer, a[0], a[1], kind == "contains-sim")
    if kind == "equiv-embed":
        w, emb = a
        first, second = answer
        return verdict_error(lib, first, emb, w, True) or verdict_error(
            lib, second, w, emb, True
        )
    if kind == "degrade":
        case, w, wp = a
        if case.endswith("-no"):
            return None if answer is None else "impossible degradation reported"
        if answer is None:
            return "known degradation not found"
        cc = lib.channel_core
        rebuilt = cc.compose(answer, wp) if case == "output-yes" else cc.compose(wp, answer)
        return None if _matrix(rebuilt) == _matrix(w) else "degradation witness is wrong"
    if kind == "chain":
        w1, w2, w3 = a
        v21, v32, chained, reduced = answer
        bad = verdict_error(lib, v21, w1, w2, True) or verdict_error(lib, v32, w2, w3, True)
        if bad:
            return bad
        if len(reduced.terms) > len(chained.terms):
            return "Carathéodory reduction grew the term list"
        atom_dim = w3.input_size * w1.output_size * w1.input_size * w3.output_size
        if len(reduced.terms) > atom_dim + 1:
            return "Carathéodory reduction left too many terms"
        return cpc_error(lib, reduced, w1, w3)
    if kind in ("region-sim", "region-rand"):
        inner_game, outer_game = a
        inner, outer, inclusion = answer
        inner_pts, outer_pts = _region_points(inner_game), _region_points(outer_game)
        if set(inner.points) != inner_pts or set(outer.points) != outer_pts:
            return "region generators differ from the recomputed payoff vectors"
        if inclusion.inside_all:
            if _best_mean(inner_pts) > _best_mean(outer_pts):
                return "inclusion reported although the optimal payoff grows"
            return None
        if kind == "region-sim":
            return "known region inclusion reported as failing"
        if inclusion.violator not in inner_pts or inclusion.violator in outer_pts:
            return "violator is not an escaping generator"
        return None
    if kind == "metric":
        w1, w2, _seed = a
        lower, upper = answer
        if upper != tv_distance(w1, w2):
            return "channel distance differs from the recomputed one"
        return None if 0 <= lower <= upper else "metric bound outside [0, tv]"
    if kind in ("capacity", "capacity-sim"):
        low, high = capacity_bounds(a[0], CAPACITY_EPS)
        slack = 1e-9
        return None if low - slack <= answer <= high + slack else "capacity outside its bounds"
    if kind == "perr":
        low, high = error_probability_bounds(*a)
        return None if low <= answer <= high else "error probability outside its bounds"
    raise ValueError(f"unknown query kind {kind!r}")


def summary(q, answer):
    """Verdict tags and exact scalars, as recorded in the expected-answers files.

    Witnesses, certificates, metric search values and (floating-point)
    capacities are left out: a correct new algorithm may change them.
    """
    kind = q.kind
    if kind in ("contains-sim", "contains-rand"):
        return answer.tag
    if kind == "equiv-embed":
        return [answer[0].tag, answer[1].tag]
    if kind == "degrade":
        return answer is not None
    if kind == "chain":
        return [answer[0].tag, answer[1].tag]
    if kind in ("region-sim", "region-rand"):
        return answer[2].inside_all
    if kind == "metric":
        return str(answer[1])
    if kind in ("capacity", "capacity-sim"):
        return None
    if kind == "perr":
        return str(answer)
    raise ValueError(f"unknown query kind {kind!r}")
