"""Exact rational simplex for equality-form linear programs.

Programs are max cᵀx subject to A·x = b, x ≥ 0, with every coefficient an
exact rational. The solver is a dense-tableau two-phase simplex with
Bland's pivoting rule, so it terminates on every input; denominators are
never rounded. Every answer ships with a certificate that is re-verified
against the original data before being returned:

  feasible    -> a primal point with A·x = b and x ≥ 0 exactly
  infeasible  -> a Farkas dual y with yᵀA ≤ 0 and yᵀb > 0 exactly
  optimal     -> a vertex, its value, and dual prices y with yᵀA ≥ cᵀ and
                 yᵀb equal to the value (strong duality, exact)

A configurable pivot budget raises ResourceLimitError instead of ever
returning an unverified answer.
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
from .rational import ONE, ZERO, Rat

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


def hull_lp(point, generators) -> StandardLp:
    """Feasibility program: is point a convex combination of generators?

    One row per coordinate (Σ_j λ_j · g_j = point), then the convexity row
    of ones (Σ_j λ_j = 1), with a zero objective; entries must already be
    exact rationals. A FEASIBLE primal is the vector of generator weights
    λ. An INFEASIBLE Farkas dual is (l, c), l over the coordinates and c
    on the convexity row, with l·g + c ≤ 0 for every generator g and
    l·point + c > 0: the hyperplane l strictly separates the point from
    the hull.
    """
    rows = [tuple(gen[coord] for gen in generators) for coord in range(len(point))]
    rows.append((ONE,) * len(generators))
    return StandardLp(tuple(rows), tuple(point) + (ONE,), (ZERO,) * len(generators))


@dataclass(frozen=True)
class LpOutcome:
    tag: str
    primal: tuple | None = None
    dual_certificate: tuple | None = None
    value: object | None = None


class _Tableau:
    """Dense simplex tableau with the artificial identity block kept live.

    Column layout: [original 0..c-1 | artificial c..c+r-1 | rhs]. The
    artificial block tracks B⁻¹, which is what the Farkas and optimality
    dual extractions read.
    """

    def __init__(self, lp: StandardLp, max_pivots: int):
        self.ncols = lp.num_cols
        self.max_pivots = max_pivots
        self.pivots_used = 0
        # Row signs are flipped so the rhs is nonnegative; remembering the
        # signs lets duals be mapped back to the caller's row order.
        self.row_signs = []
        self.rows = []
        self.basis = []
        for i, (arow, bval) in enumerate(zip(lp.constraint_matrix, lp.rhs)):
            sign = -ONE if bval < 0 else ONE
            self.row_signs.append(sign)
            body = [sign * v for v in arow]
            art = [ZERO] * lp.num_rows
            art[i] = ONE
            self.rows.append(body + art + [sign * bval])
            self.basis.append(self.ncols + i)
        self.num_orig_rows = lp.num_rows

    def _zrow(self, cost):
        """Reduced-cost row for the given per-column cost vector."""
        width = self.ncols + self.num_orig_rows + 1
        z = [ZERO] * width
        z[: len(cost)] = list(cost)
        for i, bi in enumerate(self.basis):
            cb = cost[bi] if bi < len(cost) else ZERO
            if cb == 0:
                continue
            row = self.rows[i]
            for j in range(width):
                if row[j] != 0:
                    z[j] -= cb * row[j]
        return z

    def _pivot(self, z, pr: int, pc: int):
        self.pivots_used += 1
        if self.pivots_used > self.max_pivots:
            raise ResourceLimitError(
                f"simplex pivot budget exceeded ({self.max_pivots})"
            )
        row = self.rows[pr]
        inv = 1 / row[pc]
        if inv != 1:
            self.rows[pr] = row = [v * inv for v in row]
        for target in self.rows:
            if target is row:
                continue
            factor = target[pc]
            if factor != 0:
                for j, v in enumerate(row):
                    if v != 0:
                        target[j] -= factor * v
        factor = z[pc]
        if factor != 0:
            for j, v in enumerate(row):
                if v != 0:
                    z[j] -= factor * v
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
            pr = -1
            best = None
            for i, row in enumerate(self.rows):
                coeff = row[pc]
                if coeff > 0:
                    ratio = row[-1] / coeff
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[pr]
                    ):
                        best = ratio
                        pr = i
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
            z = [ZERO] * len(row)
            self._pivot(z, i, pc)
            keep.append(i)
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def primal_point(self):
        x = [ZERO] * self.ncols
        for i, bi in enumerate(self.basis):
            if bi < self.ncols:
                x[bi] = self.rows[i][-1]
        return tuple(x)

    def duals_from_zrow(self, z, cost):
        """Dual prices on the original rows, read off the artificial block."""
        y = [ZERO] * self.num_orig_rows
        for k in range(self.num_orig_rows):
            col = self.ncols + k
            ck = cost[col] if col < len(cost) else ZERO
            y[k] = self.row_signs[k] * (ck - z[col])
        return y


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
    cost = [ZERO] * tab.ncols + [-ONE] * lp.num_rows
    z = tab.run(cost, tab.ncols + lp.num_rows)
    infeasibility = z[-1]  # -value; positive iff artificials remain
    if infeasibility > 0:
        # Negated phase-1 duals certify infeasibility.
        y = [-v for v in tab.duals_from_zrow(z, cost)]
        _check_farkas(lp, y)
        return None, tuple(y)
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
    cost = list(lp.objective) + [ZERO] * tab.num_orig_rows
    # Artificial columns stay out of the entering scan; they only track B⁻¹.
    z = tab.run(cost, tab.ncols)
    x = tab.primal_point()
    value = -z[-1]
    y = tuple(tab.duals_from_zrow(z, cost))
    _check_optimal(lp, x, y, value)
    return LpOutcome(tag=OPTIMAL, primal=x, dual_certificate=y, value=value)
