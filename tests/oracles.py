"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes results by brute force or direct formula
evaluation, deliberately avoiding the library's own algorithmic paths;
the exceptions, rational_hull_program, cold_start_contains,
DenseTableau with dense_solve_feasibility, dense_maximize,
dense_priced_hull and dense_hull_outcomes, unpruned_best_pair,
rational_contains, fraction_caratheodory_reduce,
fraction_skew_compose_cpc, rational_group_degraded_from,
rational_brm_distance_lower_bound and rational_canonical_reduction, are
earlier forms of an algorithm, kept as the reference of the form that
replaced them.
"""

import math
from itertools import combinations, islice, product
from operator import mul

from chanord import lp_solver, metric, ordering
from chanord.brm import BrmGame, _plus, optimal_average_payoff
from chanord.channel_core import Channel, DeterministicMap, compose, deterministic
from chanord.cpc import DEFAULT_MAX_PAIRS, CpcChannel, CpcTerm, as_channel, pair_column
from chanord.errors import (
    DimensionMismatchError,
    InternalCheckError,
    LpInfeasibleError,
    LpUnboundedError,
)
from chanord.lp_solver import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    LpOutcome,
    _eliminate,
    _ScaledGroup,
    _spend_pivot,
    hull_lp,
    hull_outcomes,
    maximize,
    priced_hull,
    solve_feasibility,
    standard_lp,
)
from chanord.prng import counter_int
from chanord.rational import ONE, ZERO, Rat, scaled_ints


def solve_square(matrix, rhs):
    """Exact Gaussian elimination for a square system; None when singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][-1] for i in range(n)]


def matrix_rank(rows):
    """Rank of a rational matrix by exact row reduction."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def vertex_enumeration_maximum(matrix, rhs, objective):
    """Best objective over all basic feasible solutions of A·x=b, x>=0.

    Returns (value, point) or None when no basic feasible solution exists.
    Independent of the simplex path: every square column subset is solved
    directly.
    """
    rows = len(matrix)
    cols = len(objective)
    best = None
    for subset in combinations(range(cols), min(rows, cols)):
        square = [[matrix[i][j] for j in subset] for i in range(rows)]
        solved = solve_square(square, rhs)
        if solved is None or any(v < 0 for v in solved):
            continue
        point = [ZERO] * cols
        for idx, j in enumerate(subset):
            point[j] = solved[idx]
        value = sum(
            (objective[j] * point[j] for j in range(cols)), start=ZERO
        )
        if best is None or value > best[0]:
            best = (value, tuple(point))
    return best


class _RationalTableau:
    """Dense simplex tableau of exact rationals, the artificial identity
    block kept live: [original 0..c-1 | artificial c..c+r-1 | rhs]."""

    def __init__(self, lp):
        self.ncols = lp.num_cols
        self.pivots_used = 0
        self.row_signs = []
        self.rows = []
        self.basis = []
        for i, (arow, bval) in enumerate(zip(lp.constraint_matrix, lp.rhs)):
            sign = -ONE if bval < 0 else ONE
            self.row_signs.append(sign)
            art = [ZERO] * lp.num_rows
            art[i] = ONE
            self.rows.append([sign * v for v in arow] + art + [sign * bval])
            self.basis.append(self.ncols + i)
        self.num_orig_rows = lp.num_rows

    def zrow(self, cost):
        z = list(cost) + [ZERO]
        for i, bi in enumerate(self.basis):
            if cost[bi] != 0:
                z = [zj - cost[bi] * v for zj, v in zip(z, self.rows[i])]
        return z

    def pivot(self, z, pr, pc):
        self.pivots_used += 1
        row = self.rows[pr]
        self.rows[pr] = row = [v / row[pc] for v in row]
        for i, target in enumerate(self.rows):
            if i != pr and target[pc] != 0:
                factor = target[pc]
                self.rows[i] = [t - factor * v for t, v in zip(target, row)]
        factor = z[pc]
        z[:] = [zj - factor * v for zj, v in zip(z, row)]
        self.basis[pr] = pc

    def run(self, cost, entering_limit):
        """Bland's rule; the reduced-cost row at optimality, None if unbounded."""
        z = self.zrow(cost)
        while True:
            pc = next((j for j in range(entering_limit) if z[j] > 0), None)
            if pc is None:
                return z
            pr = None
            for i, row in enumerate(self.rows):
                if row[pc] > 0:
                    ratio = row[-1] / row[pc]
                    if pr is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[pr]
                    ):
                        best, pr = ratio, i
            if pr is None:
                return None
            self.pivot(z, pr, pc)

    def duals(self, z, cost):
        return [
            self.row_signs[k] * (cost[self.ncols + k] - z[self.ncols + k])
            for k in range(self.num_orig_rows)
        ]


def reference_simplex(lp, maximize=False):
    """Two-phase Bland simplex on a tableau of exact rationals.

    The rational-arithmetic form of lp_solver's algorithm: rows with a
    negative rhs are negated, phase one maximizes minus the sum of the
    artificials, artificials left basic at zero are pivoted out on the
    first nonzero original column (all-zero rows are dropped), and phase
    two runs Bland's rule on the original columns only. Returns (tag,
    primal, dual_certificate, value, pivots), pivots counting every
    pivot, expulsions included; tag is "feasible", "infeasible",
    "optimal" or "unbounded" (maximize only; nothing else is set).
    """
    tab = _RationalTableau(lp)
    cost = [ZERO] * tab.ncols + [-ONE] * lp.num_rows
    z = tab.run(cost, tab.ncols + lp.num_rows)
    if z[-1] > 0:
        farkas = tuple(-v for v in tab.duals(z, cost))
        return "infeasible", None, farkas, None, tab.pivots_used
    keep = []
    for i, row in enumerate(tab.rows):
        if tab.basis[i] < tab.ncols:
            keep.append(i)
            continue
        pc = next((j for j in range(tab.ncols) if row[j] != 0), None)
        if pc is not None:
            tab.pivot([ZERO] * len(row), i, pc)
            keep.append(i)
    tab.rows = [tab.rows[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
    if maximize:
        cost = list(lp.objective) + [ZERO] * lp.num_rows
        z = tab.run(cost, tab.ncols)
        if z is None:
            return "unbounded", None, None, None, tab.pivots_used
    point = [ZERO] * tab.ncols
    for i, bi in enumerate(tab.basis):
        point[bi] = tab.rows[i][-1]
    primal = tuple(point)
    if not maximize:
        return "feasible", primal, None, None, tab.pivots_used
    return "optimal", primal, tuple(tab.duals(z, cost)), -z[-1], tab.pivots_used


def _column_dot(lp, y, j):
    return sum(
        (y[i] * lp.constraint_matrix[i][j] for i in range(lp.num_rows)), start=ZERO
    )


def check_primal(lp, x):
    """A·x = b and x ≥ 0, in the program's own rational fields."""
    assert all(v >= 0 for v in x)
    for row, b in zip(lp.constraint_matrix, lp.rhs):
        assert sum((a * v for a, v in zip(row, x)), start=ZERO) == b


def check_farkas(lp, y):
    """yᵀA ≤ 0 on every column and yᵀb > 0, in rationals."""
    for j in range(lp.num_cols):
        assert _column_dot(lp, y, j) <= 0
    assert sum((yi * bi for yi, bi in zip(y, lp.rhs)), start=ZERO) > 0


def check_optimal(lp, x, y, value):
    """x is feasible with cᵀx = value, and y is dual feasible (yᵀA ≥ c on
    every column) with yᵀb = value, in rationals."""
    check_primal(lp, x)
    assert sum((c * v for c, v in zip(lp.objective, x)), start=ZERO) == value
    for j in range(lp.num_cols):
        assert _column_dot(lp, y, j) >= lp.objective[j]
    assert sum((yi * bi for yi, bi in zip(y, lp.rhs)), start=ZERO) == value


def rational_hull_program(point, *groups):
    """(A, b, c) in exact rationals of: is point in conv(G₁) + … + conv(G_k)?
    With one group it is hull_lp(point, group)'s program, built the way
    hull_lp built its rational rows before a program became its integer
    image: one row per coordinate, holding that coordinate of every
    generator, group after group; then one convexity row per group, 1 on
    its own generators; b is the point and then a 1 per group; c is
    zero."""
    groups = [list(group) for group in groups]
    width = sum(len(group) for group in groups)
    rows = [
        tuple(gen[i] for group in groups for gen in group) for i in range(len(point))
    ]
    start = 0
    for group in groups:
        end = start + len(group)
        rows.append((ZERO,) * start + (ONE,) * len(group) + (ZERO,) * (width - end))
        start = end
    return tuple(rows), tuple(point) + (ONE,) * len(groups), (ZERO,) * width


def cpc_entry(v, x, yp, xp, y):
    """Direct evaluation of Σ_i α_i R_i(x'|x) T_i(y|y') (1-based indices)."""
    acc = ZERO
    for term in v.terms:
        acc += term.weight * term.r.rows[x - 1][xp - 1] * term.t.rows[yp - 1][y - 1]
    return acc


def flat_skew_contraction(v_flat, dims_v, vp_flat, dims_vp):
    """Generic joint-channel contraction of two flattened matrices.

    dims_v = (x, xp, yp, y) and dims_vp = (xp, xpp, ypp, yp); the result is
    indexed (x, y'') -> (x'', y) with second coordinates fastest. This is
    the reference path the structured skew-compositions are checked
    against.
    """
    x_n, xp_n, yp_n, y_n = dims_v
    xp2_n, xpp_n, ypp_n, yp2_n = dims_vp
    assert xp_n == xp2_n and yp_n == yp2_n
    out = [
        [ZERO] * (xpp_n * y_n) for _ in range(x_n * ypp_n)
    ]
    for x in range(x_n):
        for ypp in range(ypp_n):
            row = out[x * ypp_n + ypp]
            for xpp in range(xpp_n):
                for y in range(y_n):
                    acc = ZERO
                    for xp in range(xp_n):
                        for yp in range(yp_n):
                            a = v_flat[x * yp_n + yp][xp * y_n + y]
                            if a == 0:
                                continue
                            b = vp_flat[xp * ypp_n + ypp][xpp * yp_n + yp]
                            if b != 0:
                                acc += a * b
                    row[xpp * y_n + y] = acc
    return out


def brute_force_optimal_pair(game):
    """First optimal deterministic pair by full enumeration.

    Every (f, g) pair is scored from its definition, in lexicographic
    order (encoder first), and only a strictly better pair replaces the
    best so far. Returns (value, f_img, g_img) with 1-based images.
    """
    best = None
    for f_img in product(range(1, game.x_size + 1), repeat=game.u_size):
        for g_img in product(range(1, game.v_size + 1), repeat=game.y_size):
            total = ZERO
            for u in range(1, game.u_size + 1):
                row = game.randomizer.rows[f_img[u - 1] - 1]
                for y in range(game.y_size):
                    if row[y] != 0:
                        total += row[y] * game.payoff_matrix[u - 1][g_img[y] - 1]
            value = total / game.u_size
            if best is None or value > best[0]:
                best = (value, f_img, g_img)
    return best


def brute_force_region_points(game):
    """Payoff vector of every deterministic pair, encoder images varying
    slowest, each entry Σ_y W(y|f(u))·l(u, g(y)) summed in rationals."""
    points = []
    for f_img in product(range(game.x_size), repeat=game.u_size):
        for g_img in product(range(game.v_size), repeat=game.y_size):
            points.append(tuple(
                sum(
                    (p * game.payoff_matrix[u][g_img[y]]
                     for y, p in enumerate(game.randomizer.rows[x])),
                    start=ZERO,
                )
                for u, x in enumerate(f_img)
            ))
    return points


def brute_force_optimal_average(game):
    """Max average payoff over every deterministic pair, by full enumeration."""
    return brute_force_optimal_pair(game)[0]


def brute_force_error_probability(n, big_m, w):
    """Least ML error probability over every ordered (n, M)-codebook, each
    scored from its definition: 1 − (1/M)·Σ over output blocks of the
    largest likelihood Π W(y_i | x_i) among its codewords."""
    words = list(product(range(w.input_size), repeat=n))
    best = None
    for codebook in product(words, repeat=big_m):
        credited = ZERO
        for block in product(range(w.output_size), repeat=n):
            credited += max(
                math.prod((w.rows[x][y] for x, y in zip(word, block)), start=ONE)
                for word in codebook
            )
        error = ONE - credited / big_m
        if best is None or error < best:
            best = error
    return best


def all_simulation_columns(wp, x, y):
    """Every column D_g ∘ wp ∘ D_f, one per deterministic pair, flattened
    row-major: |X'|^x · y^|Y'| of them, duplicates kept."""
    columns = []
    for f_img in product(range(wp.input_size), repeat=x):
        for g_img in product(range(y), repeat=wp.output_size):
            flat = [ZERO] * (x * y)
            for u, xp in enumerate(f_img):
                for yp, p in enumerate(wp.rows[xp]):
                    flat[u * y + g_img[yp]] += p
            columns.append(tuple(flat))
    return columns


def all_decoder_columns(wp, y):
    """Every column D_g ∘ wp, one per decoder g: Y' -> Y, flattened
    row-major: y^|Y'| of them, duplicates kept. w is degraded from wp
    exactly when flat w lies in their convex hull."""
    columns = []
    for g_img in product(range(y), repeat=wp.output_size):
        flat = [ZERO] * (wp.input_size * y)
        for x, row in enumerate(wp.rows):
            for yp, p in enumerate(row):
                flat[x * y + g_img[yp]] += p
        columns.append(tuple(flat))
    return columns


def binary_entropy_capacity_nats(p: float) -> float:
    """Closed form for the binary symmetric channel: ln2 + p·ln p + (1-p)·ln(1-p)."""
    if p in (0.0, 1.0):
        return math.log(2.0)
    return math.log(2.0) + p * math.log(p) + (1.0 - p) * math.log(1.0 - p)


def _divergence(row, q):
    """D(row ‖ q) in nats; +inf when q misses mass of row."""
    total = 0.0
    for v, qy in zip(row, q):
        if v > 0.0:
            if qy <= 0.0:
                return math.inf
            total += v * math.log(v / qy)
    return total


def two_input_capacity(rows) -> float:
    """Capacity in nats of a two-input channel, by bisection to machine precision.

    I(p1) is concave in the mass p1 of the first input, with derivative
    D(W1 ‖ q) − D(W2 ‖ q) for q = p1·W1 + (1 − p1)·W2; the derivative
    decreases in p1, from D(W1 ‖ W2) ≥ 0 at 0 to −D(W2 ‖ W1) ≤ 0 at 1, so
    bisecting on its sign finds the maximizer.
    """
    w1, w2 = ([float(v) for v in row] for row in rows)

    def mix(p1):
        q = [p1 * a + (1.0 - p1) * b for a, b in zip(w1, w2)]
        return _divergence(w1, q), _divergence(w2, q)

    lo, hi = 0.0, 1.0
    while True:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        d1, d2 = mix(mid)
        if d1 > d2:
            lo = mid
        else:
            hi = mid
    d1, d2 = mix(mid)
    return mid * d1 + (1.0 - mid) * d2


def cold_start_contains(wp, w_red):
    """Column generation for "wp contains w_red" with every restricted
    master solved from nothing: one cold solve_feasibility(hull_lp(target,
    columns)) per round, priced by the game that the Farkas dual defines.

    This is how ordering.contains ran before its master was kept warm; it
    is the reference the warm master's verdicts are checked against, so
    it uses the library's game oracle and simplex but none of the master.
    w_red must have distinct rows and no mass-free output. Returns the
    final tag, FEASIBLE when wp contains w_red.
    """
    n, m = w_red.input_size, w_red.output_size
    target = [p for row in w_red.rows for p in row]
    columns = []
    while True:
        outcome = solve_feasibility(hull_lp(target, columns))
        if outcome.tag == FEASIBLE:
            return outcome.tag
        dual = outcome.dual_certificate
        payoff = tuple(tuple(dual[x * m : (x + 1) * m]) for x in range(n))
        game = BrmGame(n, wp.input_size, wp.output_size, m, payoff, wp)
        value, (f, g) = optimal_average_payoff(game)
        if n * value + dual[-1] <= 0:
            return outcome.tag
        column = pair_column(wp, f, g)
        assert column not in columns
        columns.append(column)


def round_by_round(on_round):
    """A stand-in for lp_solver.priced_hull that reports every restricted
    answer of its master as on_round(point, columns, outcome), with point
    and the columns entered so far as rationals: each dual handed to the
    pricer as an INFEASIBLE outcome (ints over D, so a positive multiple
    of the rational Farkas dual), and a FEASIBLE final answer.
    """

    def wrapper(point_ints, price, scale, *args, **kwargs):
        point = tuple(Rat(v, scale) for v in point_ints)
        columns = []

        def recording_price(dual):
            restricted = LpOutcome(tag=INFEASIBLE, dual_certificate=tuple(map(Rat, dual)))
            on_round(point, tuple(columns), restricted)
            column = price(dual)
            if column is not None:
                columns.append(tuple(Rat(v, scale) for v in column))
            return column

        out = priced_hull(point_ints, recording_price, scale, *args, **kwargs)
        if out.tag == FEASIBLE:
            on_round(point, tuple(columns), out)
        return out

    return wrapper


def point_by_point(on_point):
    """A stand-in for lp_solver.hull_outcomes that reports every answer of
    its warm tableau as on_point(point, group, outcome), with point as
    rationals and group the _ScaledGroup it is tested against.
    """

    def wrapper(points_ints, group, scale, *args, **kwargs):
        points = list(points_ints)
        outcomes = hull_outcomes(points, group, scale, *args, **kwargs)
        for point_ints, out in zip(points, outcomes):
            on_point(tuple(Rat(v, scale) for v in point_ints), group, out)
            yield out

    return wrapper


class DenseTableau:
    """Dense simplex tableau of Python ints over one shared denominator.

    Column layout: [original 0..c-1 | artificial c..c+r-1 | rhs]. The
    artificial block tracks B⁻¹, which is what the Farkas and optimality
    dual extractions read. The tableau is rows / denom: every row, and
    every reduced-cost row, holds ints over the one positive denom D.

    The initial rows are [s·L·A_i | e_i | s·L·b_i], read off image, the
    program's integer image (L·A, L·b), kept for the exit checks, with
    s = ±1 making the rhs nonnegative; the artificial block stays the
    identity. A pivot on entry p leaves its row as it is, replaces each
    other entry t of a row whose pivot-column entry is f by
    (p·t − f·v) // D, v being the pivot row's entry in t's column, and
    makes p the new D (Edmonds 1967, Bareiss 1968): every entry is then a
    minor of the initial rows, so each division is exact. Only expelling
    an artificial can pivot on a negative entry; all rows and D are then
    negated to keep D positive.

    lp_solver._Tableau as it was before it stored only the nonbasic
    columns: the reference that the kernel, a revised simplex on a
    condensed inverse, must match pivot for pivot (dense_solve_feasibility,
    dense_maximize, dense_priced_hull, dense_hull_outcomes).

    Scaling [A | b] by one L > 0 multiplies the phase-one reduced costs of
    the original columns by L and all ratio-test quotients of one column
    by one common factor, and the int objective of phase two is c times
    its own common denominator; so each sign test and tie falls as in the
    same simplex on exact rationals, and the pivot sequence, vertex and
    duals are identical. A separate scale per row would reweight the
    artificials in the phase-one objective and could change Bland's
    pivot path.
    """

    def __init__(self, image, ncols: int, max_pivots: int):
        self.ncols = ncols
        a_rows, b = self.image = image
        self.num_orig_rows = r = len(b)
        self.max_pivots = max_pivots
        self.pivots_used = 0
        self.denom = 1
        # Row signs are flipped so the rhs is nonnegative; remembering the
        # signs lets duals be mapped back to the caller's row order.
        self.row_signs = [-1 if bval < 0 else 1 for bval in b]
        self.rows = [
            [s * v for v in arow] + [0] * i + [1] + [0] * (r - i - 1) + [s * bval]
            for i, (s, arow, bval) in enumerate(zip(self.row_signs, a_rows, b))
        ]
        self.basis = list(range(ncols, ncols + r))

    def append_column(self, ints):
        """Enter one more original column, given as L·a over the rows, at
        the end of the original block, keeping the basis.

        Every stored row is its artificial block, D·B⁻¹, times the initial
        rows [s·L·A | I | s·L·b] (a Bareiss pivot is a row operation), so
        the new column's entries are that block times s·L·a, exact ints.
        The artificial columns move one place right and keep their order
        after every original column, so Bland's rule sees the same order.
        """
        start, r = self.ncols, self.num_orig_rows
        signed = [sign * v for sign, v in zip(self.row_signs, ints)]
        for row in self.rows:
            row.insert(start, sum(map(mul, row[start : start + r], signed)))
        self.basis = [bi + 1 if bi >= start else bi for bi in self.basis]
        self.ncols += 1

    def _zrow(self, cost):
        """Reduced-cost row over the denominator, for int per-column costs."""
        d = self.denom
        z = [d * c for c in cost] + [0]
        for bi, row in zip(self.basis, self.rows):
            cb = cost[bi]
            if cb != 0:
                z = [zj - cb * v for zj, v in zip(z, row)]
        return z

    def _pivot(self, z, pr: int, pc: int):
        _spend_pivot(self)
        row = self.rows[pr]
        p = row[pc]
        d = self.denom
        for i, target in enumerate(self.rows):
            if i != pr:
                self.rows[i] = _eliminate(target, row, p, d, target[pc])
        if z is not None:
            z[:] = _eliminate(z, row, p, d, z[pc])
        if p < 0:
            # Only an expulsion pivots on a negative entry, and it keeps
            # no reduced-cost row.
            self.rows = [[-v for v in r] for r in self.rows]
            p = -p
        self.denom = p
        self.basis[pr] = pc

    def run(self, cost, entering_limit: int):
        """Bland-rule simplex on columns [0, entering_limit). Returns the
        reduced-cost row at optimality; raises LpUnboundedError otherwise."""
        z = self._zrow(cost)
        while True:
            pc = -1
            for j in range(entering_limit):
                if z[j] > 0:
                    pc = j
                    break
            if pc < 0:
                return z
            # Smallest rhs / coeff over positive coeffs, compared by
            # cross-multiplication (D cancels); ties go to the smallest
            # basis index.
            pr = -1
            for i, row in enumerate(self.rows):
                coeff = row[pc]
                if coeff > 0:
                    if pr < 0:
                        pr, best_rhs, best_coeff = i, row[-1], coeff
                        continue
                    lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[pr]):
                        pr, best_rhs, best_coeff = i, row[-1], coeff
            if pr < 0:
                raise LpUnboundedError("objective unbounded above")
            self._pivot(z, pr, pc)

    def drop_redundant_and_expel_artificials(self):
        """After a zero-value phase 1, or from the start on a zero rhs,
        pivot each basic artificial out onto the first nonzero original
        column of its row; rows that admit no pivot are redundant and
        removed."""
        keep = []
        for i in range(len(self.rows)):
            if self.basis[i] < self.ncols:
                keep.append(i)
                continue
            row = self.rows[i]
            pc = -1
            for j in range(self.ncols):
                if row[j] != 0:
                    pc = j
                    break
            if pc < 0:
                continue  # all-zero constraint: drop
            self._pivot(None, i, pc)
            keep.append(i)
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def support(self):
        """[(j, r_j)] over the basic point's nonzero coordinates x_j = r_j/D;
        L scales A and b alike, so x needs only D."""
        return [
            (bi, row[-1])
            for bi, row in zip(self.basis, self.rows)
            if bi < self.ncols and row[-1] != 0
        ]

    def farkas_duals(self, z):
        """Negated phase-one duals times D, read off the artificial block.
        L cancels in the artificial columns' phase-one reduced costs, so
        the Farkas dual is these ints over D."""
        d = self.denom
        return [sign * (d + z[self.ncols + k]) for k, sign in enumerate(self.row_signs)]

    def optimal_duals(self, z):
        """(prices, value) of phase two under costs Lc·c, as ints.

        Against the original columns the artificial ones carry a factor
        1/L, so the dual prices are L·prices / (Lc·D) and the value is
        value / (Lc·D).
        """
        prices = [-sign * z[self.ncols + k] for k, sign in enumerate(self.row_signs)]
        return prices, -z[-1]


def dense_phase_one(tab):
    """lp_solver._phase_one on a DenseTableau: the phase-one row is built
    afresh from the current basis on every call."""
    r = tab.num_orig_rows
    z = tab.run([0] * tab.ncols + [-1] * r, tab.ncols + r)
    if z[-1] > 0:
        y = tab.farkas_duals(z)
        lp_solver._check_farkas(tab.image, y, tab.ncols)
        return y
    tab.drop_redundant_and_expel_artificials()
    return None


def dense_solve_feasibility(lp, max_pivots=lp_solver.DEFAULT_MAX_PIVOTS):
    """lp_solver.solve_feasibility on a DenseTableau."""
    tab = DenseTableau((lp.a_ints, lp.b_ints), lp.num_cols, max_pivots)
    return lp_solver._feasibility_outcome(tab, dense_phase_one(tab))


def dense_maximize(lp, max_pivots=lp_solver.DEFAULT_MAX_PIVOTS):
    """lp_solver.maximize on a DenseTableau, with the same exit checks."""
    tab = DenseTableau((lp.a_ints, lp.b_ints), lp.num_cols, max_pivots)
    if dense_phase_one(tab) is not None:
        raise LpInfeasibleError("maximize called on an infeasible program")
    objective_scale, cost = scaled_ints(lp.objective)
    z = tab.run(cost + [0] * tab.num_orig_rows, tab.ncols)
    support = tab.support()
    prices, value = tab.optimal_duals(z)
    lp_solver._check_optimal(tab.image, cost, support, tab.denom, prices, value)
    den = objective_scale * tab.denom
    return LpOutcome(
        tag=OPTIMAL,
        primal=lp_solver._rationals(support, tab.denom, tab.ncols),
        dual_certificate=lp_solver._rationals(
            ((k, lp.scale * p) for k, p in enumerate(prices)), den, len(prices)
        ),
        value=Rat(value, den),
    )


def dense_priced_hull(point_ints, price, scale, max_pivots=lp_solver.DEFAULT_MAX_PIVOTS):
    """lp_solver.priced_hull on a DenseTableau, whose phase-one row is
    rebuilt every round."""
    b = (*point_ints, scale)
    tab = DenseTableau((tuple([] for _ in b), b), 0, max_pivots)
    keys = set()
    while True:
        farkas = dense_phase_one(tab)
        column = None if farkas is None else price(farkas)
        if column is None:
            return lp_solver._feasibility_outcome(tab, farkas)
        if len(column) != len(point_ints):
            raise DimensionMismatchError("generator length does not match the point")
        ints = (*column, scale)
        if ints in keys:
            raise InternalCheckError("priced column is already in the master program")
        keys.add(ints)
        for arow, v in zip(tab.image[0], ints):
            arow.append(v)
        tab.append_column(ints)


def dense_hull_outcomes(
    points_ints, group, scale, max_pivots=lp_solver.DEFAULT_MAX_PIVOTS
):
    """lp_solver.hull_outcomes as it ran on the dense tableau: the crash
    and every dual repair pivot a DenseTableau of [L·A | I | rhs], as wide as
    the group's generators, with the Farkas dual read off the artificial
    block of the leaving row. The same pivots, answers and per-point pivot
    counts as the kernel's crash and dual repairs.
    """
    common = math.lcm(scale, group.scale)
    point_factor = common // scale
    rows = lp_solver._hull_rows(group, group.length, common)
    tab = DenseTableau((rows, (0,) * len(rows)), group.size, max_pivots)
    tab.drop_redundant_and_expel_artificials()
    if len(tab.rows) < len(rows):
        return
    for point in points_ints:
        if len(point) != group.length:
            raise DimensionMismatchError("generator length does not match the point")
        yield _dense_warm_outcome(tab, (rows, (*(v * point_factor for v in point), common)))
        tab.pivots_used = 0


def _dense_warm_outcome(tab, image):
    """One point of dense_hull_outcomes: the new rhs (D·B⁻¹)·(s·L·b), then
    dual simplex under the least-index rule on the whole tableau."""
    tab.image = image
    start, r = tab.ncols, tab.num_orig_rows
    signed = [sign * v for sign, v in zip(tab.row_signs, image[1])]
    for row in tab.rows:
        row[-1] = sum(v * b for v, b in zip(row[start : start + r], signed))
    while True:
        pr = -1
        for i, row in enumerate(tab.rows):
            if row[-1] < 0 and (pr < 0 or tab.basis[i] < tab.basis[pr]):
                pr = i
        if pr < 0:
            return lp_solver._feasibility_outcome(tab, None)
        row = tab.rows[pr]
        pc = next((j for j in range(start) if row[j] < 0), -1)
        if pc < 0:
            block = row[start : start + r]
            farkas = [-sign * v for sign, v in zip(tab.row_signs, block)]
            lp_solver._check_farkas(image, farkas, start)
            return lp_solver._feasibility_outcome(tab, farkas)
        tab._pivot(None, pr, pc)


def unpruned_best_pair(tables):
    """(best total, encoder images, decoder images) over int score tables.

    The total of a pair is Σ_u Σ_y tables[u][f(u)][y][g(y)]; images are
    0-based. Encoders are walked in itertools.product order, so encoders
    sharing a prefix share its partial score sums and each encoder costs
    |Y|·|V| integer additions and |Y| maxima. Only a strict improvement
    replaces the best, so the first optimal encoder is kept, and per
    output the smallest optimal decoder image.

    brm._best_pair as it was before it pruned prefixes by a bound: every
    encoder is scored, the reference the pruned scan must match.
    """
    x_size, y_size, v_size = len(tables[0]), len(tables[0][0]), len(tables[0][0][0])
    # An odometer over encoders in itertools.product order, without
    # recursion: partial[u] holds the score sums of images[:u], so moving
    # position d recomputes only the sums from d on. The last secret's
    # images are scanned directly against its prefix.
    last = len(tables) - 1
    images = [0] * last
    partial = [[[0] * v_size for _ in range(y_size)]] + [None] * last
    best_total = None
    d = 0
    while True:
        for u in range(d, last):
            partial[u + 1] = _plus(partial[u], tables[u][images[u]])
        for x, row in enumerate(tables[last]):
            sums = _plus(partial[last], row)
            total = sum(max(acc) for acc in sums)
            if best_total is None or total > best_total:
                best_total, best_sums, best_images = total, sums, (*images, x)
        d = last - 1
        while d >= 0 and images[d] == x_size - 1:
            d -= 1
        if d < 0:
            break
        images[d] += 1
        images[d + 1 :] = [0] * (last - d - 1)
    # max returns the first maximal index, the smallest optimal decoder.
    g_img = tuple(max(range(v_size), key=acc.__getitem__) for acc in best_sums)
    return best_total, best_images, g_img


def rational_price(wp, n, m, scale, pairs, max_pairs=DEFAULT_MAX_PAIRS):
    """The pricer ordering.contains ran on rationals, scaled to L = scale.

    The master's int dual (any positive multiple of a Farkas dual will do)
    becomes a rational payoff game against wp, solved by
    optimal_average_payoff; the optimal pair prices positive when
    n·value + c > 0, and its pair_column enters as L·column. Each pair
    priced positive is appended to pairs as (encoder, decoder).
    """

    def price(dual):
        dual = [Rat(v) for v in dual]
        payoff = tuple(tuple(dual[x * m : (x + 1) * m]) for x in range(n))
        game = BrmGame(n, wp.input_size, wp.output_size, m, payoff, wp)
        value, (f, g) = optimal_average_payoff(game, max_encoders=max_pairs)
        if n * value + dual[-1] <= 0:
            return None
        pairs.append((f, g))
        column = [v * scale for v in pair_column(wp, f, g)]
        if any(v.denominator != 1 for v in column):
            raise InternalCheckError("a column's denominators do not divide L")
        return [int(v) for v in column]

    return price


def rational_contains(wp, w, max_pairs=DEFAULT_MAX_PAIRS):
    """ordering.contains with lp_solver.priced_hull driven by rational_price.

    The same target reduction, scale L, certificate and witness pull-back
    as the library, so the verdict must be identical wherever the two
    pricers return the same columns. wp and w must differ (contains
    answers wp == w without a master).
    """
    w_red, input_map, output_injection = ordering._reduce_target(w)
    n, m = w_red.input_size, w_red.output_size
    target = [p for row in w_red.rows for p in row]
    scale = math.lcm(
        scaled_ints(target)[0], scaled_ints(p for row in wp.rows for p in row)[0]
    )
    pairs = []
    price = rational_price(wp, n, m, scale, pairs, max_pairs)
    outcome = priced_hull([int(p * scale) for p in target], price, scale)
    if outcome.tag != FEASIBLE:
        certificate = ordering._certificate_from_farkas(
            wp, w_red, outcome.dual_certificate, max_pairs
        )
        return ordering.OrderingVerdict(
            tag=ordering.DOES_NOT_CONTAIN, certificate=certificate
        )
    weights = []
    for alpha, (f, g) in zip(outcome.primal, pairs):
        if alpha != 0:
            # Inputs of w collapse onto their representatives first, and
            # simulated outputs re-inject into w's full output alphabet.
            f_w = DeterministicMap(w.input_size, wp.input_size, tuple(map(f, input_map.image)))
            g_w = DeterministicMap(
                wp.output_size, w.output_size, tuple(map(output_injection, g.image))
            )
            weights.append(((f_w, g_w), alpha))
    witness = ordering.ContainmentWitness(tuple(weights))
    return ordering.OrderingVerdict(tag=ordering.CONTAINS, witness=witness)


def _flat_atom(term, v):
    """Flattened R⊗T matrix of one term (the term's as_channel, weight 1)."""
    single = CpcChannel(
        v.x_size, v.xp_size, v.yp_size, v.y_size, (CpcTerm(ONE, term.r, term.t),)
    )
    return tuple(p for row in as_channel(single).rows for p in row)


def fraction_caratheodory_reduce(v):
    """cpc.caratheodory_reduce as it ran on rationals: identical (R, T)
    atoms merged on their Channel values, every atom and the point built
    through as_channel, and one vertex solve of the full hull program,
    every coordinate row kept. It is the reference the integer-image
    reduction must agree with term for term.
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


def fraction_skew_compose_cpc(v, vp):
    """cpc.skew_compose_cpc as it ran on rationals: every term pair
    composed with channel_core.compose, R'_j ∘ R_i and T_i ∘ T'_j, each a
    new Channel. It is the reference the integer-image skew-composition
    must agree with term for term.
    """
    if v.xp_size != vp.x_size or v.yp_size != vp.y_size:
        raise DimensionMismatchError("skew_compose_cpc: middle alphabets differ")
    terms = tuple(
        CpcTerm(a.weight * b.weight, compose(b.r, a.r), compose(a.t, b.t))
        for a in v.terms
        for b in vp.terms
    )
    return CpcChannel(v.x_size, vp.xp_size, vp.yp_size, v.y_size, terms)


def rational_group_degraded_from(w, wp):
    """ordering.degraded_from as the polynomial sum-of-hulls program it
    solved before it moved onto the containment master: group y2 holds
    |Y| rational generators, generator y1 putting column y2 of wp at
    output y1 of every input's block and ZERO elsewhere, and row y2 of T
    is the point chosen in hull y2. The verdict must match the master's.
    """
    m_from, m_to = wp.output_size, w.output_size
    groups = [
        [
            tuple(p if y == y1 else ZERO for p in column for y in range(m_to))
            for y1 in range(m_to)
        ]
        for column in zip(*wp.rows)
    ]
    program = rational_hull_program([p for row in w.rows for p in row], *groups)
    outcome = solve_feasibility(standard_lp(*program))
    if outcome.tag != FEASIBLE:
        return None
    return Channel(
        m_from, m_to,
        tuple(outcome.primal[y2 * m_to : (y2 + 1) * m_to] for y2 in range(m_from)),
    )


def rational_canonical_reduction(w):
    """ordering._canonical_reduction as it merged on rationals: the same
    hull pass over the reduced target's integer image, then every kept
    column divided by its rational sum to key the proportional ones, the
    merged channel built from rational sums, and K rebuilt by composing
    the output injection with the kept rows. Both reduction witnesses are
    checked as the library checks them. It is the reference the merge on
    ints must agree with under == and repr.
    """
    base, _input_map, injection = ordering._reduce_target(w)
    (d, ints), m = base._image, base.output_size
    int_rows = [ints[i : i + m] for i in range(0, len(ints), m)]
    keep = []
    for i, row in enumerate(int_rows):
        others = [*keep, *range(i + 1, base.input_size)]
        hull = _ScaledGroup(d, [v for k in others for v in int_rows[k]], len(others), m)
        point = _ScaledGroup(d, row, 1, m)
        if not others or solve_feasibility(hull_lp(point, hull)).tag != FEASIBLE:
            keep.append(i)
    kept = [base.rows[i] for i in keep]
    groups = {}
    for y in range(m):
        column = [row[y] for row in kept]
        total = sum(column, start=ZERO)
        groups.setdefault(tuple(p / total for p in column), []).append(y)
    w_red = Channel(
        len(kept),
        len(groups),
        tuple(
            tuple(sum((row[y] for y in ys), start=ZERO) for ys in groups.values())
            for row in kept
        ),
    )
    k = compose(deterministic(injection), Channel(len(kept), m, tuple(kept)))
    if ordering.input_degraded_from(w, k) is None:
        raise InternalCheckError("a dropped row is not a mixture of the kept rows")
    if ordering.degraded_from(k, w_red) is None:
        raise InternalCheckError("merged output columns cannot be split back")
    return w_red


def rational_restricted_ascent(active, pieces, n, m):
    """metric._restricted_ascent as it ran on rationals: the exact maximizer
    of ⟨active, l⟩ − max_j ⟨piece_j, l⟩ over the simplex, read off the dual
    prices of the program built through standard_lp from rational pair
    columns, returned as n rows of m rationals.
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
    candidate = outcome.dual_certificate[:dim]
    if any(v < 0 for v in candidate) or sum(candidate, start=ZERO) != ONE:
        raise InternalCheckError("ascent subproblem produced an invalid payoff")
    return tuple(tuple(candidate[u * m + v] for v in range(m)) for u in range(n))


def _rational_opt(w, n, m, payoff, max_encoders):
    game = BrmGame(n, w.input_size, w.output_size, m, payoff, w)
    return optimal_average_payoff(game, max_encoders)


def rational_ascent_step(
    active, other, other_pair, n, m, max_encoders=DEFAULT_MAX_PAIRS
):
    """metric._ascent_step as it ran on rationals: pieces are pair_columns
    of other, generated from other_pair by pricing each optimum with
    other's optimal pair until the priced piece is already present.
    """
    pieces = [pair_column(other, *other_pair)]
    while True:
        candidate = rational_restricted_ascent(active, pieces, n, m)
        _value, pair = _rational_opt(other, n, m, candidate, max_encoders)
        piece = pair_column(other, *pair)
        if piece in pieces:
            return candidate
        pieces.append(piece)


def rational_sample_payoff(seed, trial, n, m):
    """metric._sample_payoff as rational rows: the draws over their total."""
    bound = metric._SAMPLE_BOUND
    draws = [
        [counter_int(seed, trial, u, v, bound=bound) + 1 for v in range(m)]
        for u in range(n)
    ]
    total = sum(sum(row) for row in draws)
    return tuple(tuple(Rat(k, total) for k in row) for row in draws)


def rational_brm_distance_lower_bound(
    w1, w2, n_max, m_max, budget, seed=0, max_encoders=DEFAULT_MAX_PAIRS
):
    """metric.brm_distance_lower_bound as it ran on rationals: every payoff
    a tuple of rational rows, every game optimum optimal_average_payoff on
    a rational game, every piece a pair_column, and both channels scored
    afresh at every candidate. It is the reference the integer-image
    search must agree with field for field.
    """
    shapes = (
        (n, size // n)
        for size in range(1, n_max * m_max + 1)
        for n in range(max(1, -(-size // m_max)), min(n_max, size) + 1)
        if size % n == 0
    )
    dims = list(islice(shapes, budget))

    def diff(n, m, payoff):
        v1, pair1 = _rational_opt(w1, n, m, payoff, max_encoders)
        v2, pair2 = _rational_opt(w2, n, m, payoff, max_encoders)
        return v1 - v2, pair1, pair2

    best = None  # (abs difference, payoff, dims)
    for trial in range(budget):
        n, m = dims[trial % len(dims)]
        payoff = rational_sample_payoff(seed, trial, n, m)
        signed, pair1, pair2 = diff(n, m, payoff)
        score = abs(signed)
        for _step in range(metric._MAX_REFINE_STEPS):
            candidates = []
            for own, pair, other, other_pair in (
                (w1, pair1, w2, pair2),
                (w2, pair2, w1, pair1),
            ):
                active = pair_column(own, *pair)
                candidate = rational_ascent_step(
                    active, other, other_pair, n, m, max_encoders
                )
                cand_signed, cand_pair1, cand_pair2 = diff(n, m, candidate)
                candidates.append((abs(cand_signed), candidate, cand_pair1, cand_pair2))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            if candidates[0][0] <= score:
                break
            score, payoff, pair1, pair2 = candidates[0]
        if best is None or score > best[0]:
            best = (score, payoff, (n, m))
    lower, witness, game_dims = best
    return metric.MetricEstimate(
        lower_bound=lower,
        witness_payoff=witness,
        game_dims=game_dims,
        search_budget=budget,
        seed=seed,
    )
