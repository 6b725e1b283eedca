"""Exact rational simplex for equality-form linear programs.

Programs are max cᵀx subject to A·x = b, x ≥ 0, with every coefficient an
exact rational. The solver is a dense-tableau two-phase simplex with
Bland's pivoting rule, so it terminates on every input; nothing is ever
rounded. The tableau is fraction-free: [A | b] is scaled by one common
denominator L, every row is kept as Python ints over one shared positive
denominator D, and pivots are integer-preserving (Edmonds–Bareiss), so
the inner loops never build a rational, whichever backend rational.py
picks. One global L, rather than a scale per row, keeps every sign test
and tie of the rational simplex, hence its pivot path, vertex and duals.
The answer is converted to exact rationals once and carries a certificate
that is re-verified against the original data before being returned:

  feasible    -> a primal point with A·x = b and x ≥ 0 exactly
  infeasible  -> a Farkas dual y with yᵀA ≤ 0 and yᵀb > 0 exactly
  optimal     -> a vertex, its value, and dual prices y with yᵀA ≥ cᵀ and
                 yᵀb equal to the value (strong duality, exact)

The pivot budget is a number of pivots per LP solve: one call of
solve_feasibility or maximize may pivot DEFAULT_MAX_PIVOTS (100,000)
times over both phases, expulsions of artificials included. Every oracle
of the library solves under that default; exceeding it raises
ResourceLimitError instead of ever returning an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    LpInfeasibleError,
    LpUnboundedError,
    ResourceLimitError,
)
from .rational import ONE, ZERO, Rat, scaled_ints

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"

DEFAULT_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class StandardLp:
    """Equality-form data: A (r×c), right-hand side b, objective c_vec.

    Variables are implicitly nonnegative. Use a zero objective for pure
    feasibility questions.
    """

    constraint_matrix: tuple
    rhs: tuple
    objective: tuple

    def __post_init__(self):
        r = len(self.constraint_matrix)
        if len(self.rhs) != r:
            raise DimensionMismatchError("rhs length does not match row count")
        c = len(self.objective)
        for row in self.constraint_matrix:
            if len(row) != c:
                raise DimensionMismatchError("constraint row length mismatch")

    @property
    def num_rows(self) -> int:
        return len(self.constraint_matrix)

    @property
    def num_cols(self) -> int:
        return len(self.objective)


def standard_lp(matrix, rhs, objective=None) -> StandardLp:
    """Convenience constructor converting entries to exact rationals."""
    mat = tuple(tuple(Rat(v) for v in row) for row in matrix)
    b = tuple(Rat(v) for v in rhs)
    if objective is None:
        width = len(mat[0]) if mat else 0
        c = (ZERO,) * width
    else:
        c = tuple(Rat(v) for v in objective)
    return StandardLp(mat, b, c)


def hull_lp(point, *groups) -> StandardLp:
    """Feasibility program: is point in conv(G₁) + … + conv(G_k)?

    Each group G_i is a sequence of generators. The variables are the
    weights λ of every generator, group after group. One row per
    coordinate (Σ λ_g · g = point), then one convexity row per group
    (Σ_{g∈G_i} λ_g = 1), with a zero objective; entries must already be
    exact rationals. With one group this asks whether point is a convex
    combination of its generators. A FEASIBLE primal is λ, group after
    group. An INFEASIBLE Farkas dual is (l, c₁, …, c_k), l over the
    coordinates and c_i on group i's convexity row, with l·g + c_i ≤ 0 for
    every g in G_i and l·point + Σ c_i > 0: the hyperplane l strictly
    separates the point from the sum of hulls. An empty group has an
    empty hull, so the sum is empty and the program infeasible.
    """
    generators = [gen for group in groups for gen in group]
    width = len(generators)
    rows = [tuple(gen[coord] for gen in generators) for coord in range(len(point))]
    start = 0
    for group in groups:
        end = start + len(group)
        rows.append((ZERO,) * start + (ONE,) * (end - start) + (ZERO,) * (width - end))
        start = end
    return StandardLp(tuple(rows), tuple(point) + (ONE,) * len(groups), (ZERO,) * width)


@dataclass(frozen=True)
class LpOutcome:
    tag: str
    primal: tuple | None = None
    dual_certificate: tuple | None = None
    value: object | None = None


class _Tableau:
    """Dense simplex tableau of Python ints over one shared denominator.

    Column layout: [original 0..c-1 | artificial c..c+r-1 | rhs]. The
    artificial block tracks B⁻¹, which is what the Farkas and optimality
    dual extractions read. The tableau is rows / denom: every row, and
    every reduced-cost row, holds ints over the one positive denom D.

    The initial rows are [s·L·A_i | e_i | s·L·b_i]: one global scale L,
    the common denominator of A and b, with s = ±1 making the rhs
    nonnegative; the artificial block stays the identity. A pivot on
    entry p leaves its row as it is, replaces each other entry t of a row
    whose pivot-column entry is f by (p·t − f·v) // D, v being the pivot
    row's entry in t's column, and makes p the new D (Edmonds 1967,
    Bareiss 1968): every entry is then a minor of the initial rows, so
    each division is exact. Only expelling an artificial can pivot on a
    negative entry; all rows and D are then negated to keep D positive.

    Scaling [A | b] by one L > 0 multiplies the phase-one reduced costs of
    the original columns by L and all ratio-test quotients of one column
    by one common factor, and the int objective of phase two is c times
    its own common denominator; so each sign test and tie falls as in the
    same simplex on exact rationals, and the pivot sequence, vertex and
    duals are identical. A separate scale per row would reweight the
    artificials in the phase-one objective and could change Bland's
    pivot path.
    """

    def __init__(self, lp: StandardLp, max_pivots: int):
        self.ncols = lp.num_cols
        self.num_orig_rows = lp.num_rows
        self.max_pivots = max_pivots
        self.pivots_used = 0
        self.scale, flat = scaled_ints(
            v
            for arow, bval in zip(lp.constraint_matrix, lp.rhs)
            for v in (*arow, bval)
        )
        self.denom = 1
        # Row signs are flipped so the rhs is nonnegative; remembering the
        # signs lets duals be mapped back to the caller's row order.
        self.row_signs = []
        self.rows = []
        self.basis = []
        width = self.ncols + 1
        for i in range(lp.num_rows):
            *body, bval = flat[i * width : (i + 1) * width]
            sign = -1 if bval < 0 else 1
            self.row_signs.append(sign)
            art = [0] * lp.num_rows
            art[i] = 1
            self.rows.append([sign * v for v in body] + art + [sign * bval])
            self.basis.append(self.ncols + i)

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
        self.pivots_used += 1
        if self.pivots_used > self.max_pivots:
            raise ResourceLimitError(
                f"simplex pivot budget exceeded ({self.max_pivots})"
            )
        row = self.rows[pr]
        p = row[pc]
        d = self.denom
        for i, target in enumerate(self.rows):
            if i != pr:
                self.rows[i] = _eliminate(target, row, p, d, pc)
        if z is not None:
            z[:] = _eliminate(z, row, p, d, pc)
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
        """After a zero-value phase 1, pivot artificials out of the basis;
        rows that admit no pivot are redundant and removed."""
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

    def primal_point(self):
        """The basic solution; L scales A and b alike, so x needs only D."""
        x = [ZERO] * self.ncols
        for i, bi in enumerate(self.basis):
            if bi < self.ncols:
                x[bi] = Rat(self.rows[i][-1], self.denom)
        return tuple(x)

    def farkas_from_zrow(self, z):
        """Negated phase-one duals, read off the artificial block. L
        cancels in the artificial columns' phase-one reduced costs, so
        only D is divided out."""
        d = self.denom
        return tuple(
            Rat(sign * (d + z[self.ncols + k]), d)
            for k, sign in enumerate(self.row_signs)
        )

    def optimal_from_zrow(self, z, objective_scale):
        """(dual prices, value) of phase two under costs objective_scale·c.

        Against the original columns the artificial ones carry a factor
        1/L, so the prices gain L; both lose the objective's scale and D.
        """
        den = objective_scale * self.denom
        y = tuple(
            Rat(-sign * self.scale * z[self.ncols + k], den)
            for k, sign in enumerate(self.row_signs)
        )
        return y, Rat(-z[-1], den)


def _eliminate(target, row, p, d, pc):
    """(p·target − target[pc]·row) / d entrywise, exact by Bareiss."""
    f = target[pc]
    return [(p * t - f * v) // d for t, v in zip(target, row)]


def _check_primal(lp: StandardLp, x):
    if any(v < 0 for v in x):
        raise InternalCheckError("primal point has a negative coordinate")
    for arow, bval in zip(lp.constraint_matrix, lp.rhs):
        acc = ZERO
        for a, v in zip(arow, x):
            if a != 0 and v != 0:
                acc += a * v
        if acc != bval:
            raise InternalCheckError("primal point violates a constraint")


def _check_farkas(lp: StandardLp, y):
    for j in range(lp.num_cols):
        acc = ZERO
        for i, arow in enumerate(lp.constraint_matrix):
            if y[i] != 0 and arow[j] != 0:
                acc += y[i] * arow[j]
        if acc > 0:
            raise InternalCheckError("Farkas dual fails yᵀA <= 0")
    if sum(yi * bi for yi, bi in zip(y, lp.rhs)) <= 0:
        raise InternalCheckError("Farkas dual fails yᵀb > 0")


def _check_optimal(lp: StandardLp, x, y, value):
    _check_primal(lp, x)
    if sum(cj * xj for cj, xj in zip(lp.objective, x)) != value:
        raise InternalCheckError("objective value mismatch")
    for j in range(lp.num_cols):
        acc = ZERO
        for i, arow in enumerate(lp.constraint_matrix):
            if y[i] != 0 and arow[j] != 0:
                acc += y[i] * arow[j]
        if acc < lp.objective[j]:
            raise InternalCheckError("dual prices fail yᵀA >= c")
    if sum(yi * bi for yi, bi in zip(y, lp.rhs)) != value:
        raise InternalCheckError("strong duality check failed")


def _phase_one(lp: StandardLp, max_pivots: int):
    tab = _Tableau(lp, max_pivots)
    cost = [0] * tab.ncols + [-1] * lp.num_rows
    z = tab.run(cost, tab.ncols + lp.num_rows)
    if z[-1] > 0:  # -value·L·D; positive iff artificials remain
        y = tab.farkas_from_zrow(z)
        _check_farkas(lp, y)
        return None, y
    tab.drop_redundant_and_expel_artificials()
    return tab, None


def solve_feasibility(lp: StandardLp, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpOutcome:
    """Decide A·x = b, x ≥ 0, returning a verified point or Farkas dual."""
    tab, farkas = _phase_one(lp, max_pivots)
    if tab is None:
        return LpOutcome(tag=INFEASIBLE, dual_certificate=farkas)
    x = tab.primal_point()
    _check_primal(lp, x)
    return LpOutcome(tag=FEASIBLE, primal=x)


def maximize(lp: StandardLp, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpOutcome:
    """Maximize cᵀx over A·x = b, x ≥ 0 to a verified optimal vertex.

    Raises LpInfeasibleError / LpUnboundedError accordingly. The outcome's
    dual_certificate holds the optimal dual prices.
    """
    tab, _farkas = _phase_one(lp, max_pivots)
    if tab is None:
        raise LpInfeasibleError("maximize called on an infeasible program")
    objective_scale, cost = scaled_ints(lp.objective)
    # Artificial columns stay out of the entering scan; they only track B⁻¹.
    z = tab.run(cost + [0] * tab.num_orig_rows, tab.ncols)
    x = tab.primal_point()
    y, value = tab.optimal_from_zrow(z, objective_scale)
    _check_optimal(lp, x, y, value)
    return LpOutcome(tag=OPTIMAL, primal=x, dual_certificate=y, value=value)
