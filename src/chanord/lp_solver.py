"""Exact rational simplex for equality-form linear programs.

Programs are max cᵀx subject to A·x = b, x ≥ 0, with every coefficient an
exact rational. The solver is a dense-tableau two-phase simplex with
Bland's pivoting rule, so it terminates on every input; nothing is ever
rounded. Each program has one integer image, L·[A | b]: the caller's
rationals scaled by their common denominator L (rational.scaled_ints)
before any pivot. hull_lp builds it group by group and attaches it; any
other StandardLp computes it on first use. The tableau starts from that
image, keeps every row as Python ints over one shared positive
denominator D, and pivots integer-preserving (Edmonds–Bareiss), so the
inner loops never build a rational, whichever backend rational.py picks.
One global L, rather than a scale per row, keeps every sign test and tie
of the rational simplex, hence its pivot path, vertex and duals. A row
whose pivot-column entry is 0 only rescales at a pivot, p·t // D, and
skips the pivot row; in a tall hull program most rows do.

Every answer carries a certificate that is re-verified exactly against
the image, never against tableau rows, on ints; the exact rationals
returned are built from the very ints that were checked:

  feasible    -> a primal point with A·x = b and x ≥ 0 exactly; a basic
                 point x = r/D has at most one nonzero per row, so the
                 check sums over its support only
  infeasible  -> a Farkas dual y with yᵀA ≤ 0 (every column) and yᵀb > 0
  optimal     -> a vertex, its value, and dual prices y with yᵀA ≥ cᵀ
                 (every column) and yᵀb equal to the value (strong
                 duality, exact)

priced_hull is column generation over one such hull program, whose
generators are priced one at a time instead of listed (Dantzig–Wolfe
1960, Gilmore–Gomory 1961). Its master speaks its integer image: the
caller fixes L up front and passes L·point, the pricer receives the
checked Farkas dual as ints over D and returns L·a as ints, and the
column enters the live tableau as (D·B⁻¹)·(s·L·a); Bland's rule then
continues phase one from the current basis. Rationals are built once,
for the final answer. Every restricted answer is verified as above, on
the master's image: a Farkas dual over every column entered so far, a
point over its support.

The pivot budget is a number of pivots per LP solve: one call of
solve_feasibility or maximize may pivot DEFAULT_MAX_PIVOTS (100,000)
times over both phases, expulsions of artificials included. A master of
priced_hull is one solve: the budget counts every pivot of all its
restricted solves and of the final expulsion together. Every oracle of
the library solves under that default; exceeding it raises
ResourceLimitError instead of ever returning an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

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

    @cached_property
    def _image(self):
        """(L, L·A as int rows, L·b as ints), L the common denominator of
        A and b. hull_lp sets the same image without this scan."""
        scale, flat = scaled_ints(
            v
            for arow, bval in zip(self.constraint_matrix, self.rhs)
            for v in (*arow, bval)
        )
        width = self.num_cols + 1
        rows = tuple(tuple(flat[k : k + width - 1]) for k in range(0, len(flat), width))
        return scale, rows, tuple(flat[width - 1 :: width])


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


class _ScaledGroup:
    """A generator group of hull_lp, transposed and scaled to ints once.

    rows[i] holds coordinate i of every generator (none for an empty
    group) and int_rows[i] the same times scale, a common denominator
    of the group. hull_lp scales a plain sequence into one of these on
    every call; a caller that asks about many points against one group
    passes it pre-scaled instead. A caller that has scaled the generators
    already passes scaled, (scale, ints generator after generator), as
    rational.scaled_ints returns it for their entries in that order; any
    common denominator will do, not only the least.
    """

    __slots__ = ("size", "rows", "scale", "int_rows")

    def __init__(self, generators, scaled=None):
        generators = tuple(generators)
        if len({len(gen) for gen in generators}) > 1:
            raise DimensionMismatchError("hull generators differ in length")
        self.size = len(generators)
        self.rows = tuple(zip(*generators))
        if scaled is None:
            scaled = scaled_ints(v for gen in generators for v in gen)
        self.scale, flat = scaled
        dim = len(self.rows)
        self.int_rows = tuple(tuple(flat[i::dim]) for i in range(dim))


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
    empty hull, so the sum is empty and the program infeasible. A
    generator whose length is not the point's raises
    DimensionMismatchError.

    The program's integer image is built here, one scaled_ints per group
    and one for the point, brought to L, the lcm of their scales: the
    same L and ints as one scaled_ints over the whole program. A
    pre-scaled group whose scale is not the least may bring a larger L;
    one L > 0 scales every row alike, so no sign test or answer changes.
    """
    dim = len(point)
    groups = [g if isinstance(g, _ScaledGroup) else _ScaledGroup(g) for g in groups]
    filled = [g for g in groups if g.size]
    if any(len(g.rows) != dim for g in filled):
        raise DimensionMismatchError("generator length does not match the point")
    point_scale, point_ints = scaled_ints(point)
    scale = lcm(point_scale, *(g.scale for g in groups))
    rows = [sum((g.rows[i] for g in filled), ()) for i in range(dim)]
    factors = [(g, scale // g.scale) for g in filled]
    int_rows = [
        tuple(v * f for g, f in factors for v in g.int_rows[i]) for i in range(dim)
    ]
    width = sum(g.size for g in groups)
    start = 0
    for g in groups:
        end = start + g.size
        rows.append((ZERO,) * start + (ONE,) * g.size + (ZERO,) * (width - end))
        int_rows.append((0,) * start + (scale,) * g.size + (0,) * (width - end))
        start = end
    k = len(groups)
    factor = scale // point_scale
    lp = StandardLp(tuple(rows), tuple(point) + (ONE,) * k, (ZERO,) * width)
    image = (scale, tuple(int_rows), tuple(v * factor for v in point_ints) + (scale,) * k)
    object.__setattr__(lp, "_image", image)
    return lp


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

    The initial rows are [s·L·A_i | e_i | s·L·b_i], read off the
    program's integer image (L the common denominator of A and b), with
    s = ±1 making the rhs nonnegative; the artificial block stays the
    identity. A pivot on entry p leaves its row as it is, replaces each
    other entry t of a row whose pivot-column entry is f by
    (p·t − f·v) // D, v being the pivot row's entry in t's column, and
    makes p the new D (Edmonds 1967,
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

    def __init__(self, image, ncols: int, max_pivots: int):
        self.ncols = ncols
        self.scale, a_rows, b = image
        self.num_orig_rows = r = len(b)
        self.max_pivots = max_pivots
        self.pivots_used = 0
        self.denom = 1
        # Row signs are flipped so the rhs is nonnegative; remembering the
        # signs lets duals be mapped back to the caller's row order.
        self.row_signs = []
        self.rows = []
        self.basis = []
        for i, (arow, bval) in enumerate(zip(a_rows, b)):
            sign = -1 if bval < 0 else 1
            self.row_signs.append(sign)
            art = [0] * r
            art[i] = 1
            self.rows.append([sign * v for v in arow] + art + [sign * bval])
            self.basis.append(ncols + i)

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


def _eliminate(target, row, p, d, pc):
    """(p·target − target[pc]·row) / d entrywise, exact by Bareiss.

    A row whose multiplier target[pc] is 0 only rescales, p·t // d: the
    same ints without the pivot row. Guarding its zero entries as well
    (`if t else 0`) was measured faster on the sparse Carathéodory rows
    but slower on the denser rows of the game regions, so it is not kept.
    """
    f = target[pc]
    if f == 0:
        return [p * t // d for t in target]
    return [(p * t - f * v) // d for t, v in zip(target, row)]


# The exit checks read the program's integer image (L, L·A, L·b), never
# tableau rows. Every scale in play (L, D, Lc) is positive, so each sign
# test and equality below is the rational one on the caller's data.


def _check_primal(image, support, denom):
    """x = r/D over its support: x ≥ 0 and (L·A)·r = D·(L·b)."""
    _scale, a_rows, b = image
    if any(r < 0 for _j, r in support):
        raise InternalCheckError("primal point has a negative coordinate")
    for arow, bval in zip(a_rows, b):
        if sum(arow[j] * r for j, r in support) != denom * bval:
            raise InternalCheckError("primal point violates a constraint")


def _dual_columns(a_rows, y, ncols):
    """yᵀ(L·A), every column, for int y."""
    acc = [0] * ncols
    for yi, arow in zip(y, a_rows):
        if yi:
            acc = [s + yi * v for s, v in zip(acc, arow)]
    return acc


def _check_farkas(image, y, ncols):
    """y (ints, over D > 0): yᵀA ≤ 0 and yᵀb > 0."""
    _scale, a_rows, b = image
    if any(v > 0 for v in _dual_columns(a_rows, y, ncols)):
        raise InternalCheckError("Farkas dual fails yᵀA <= 0")
    if sum(map(mul, y, b)) <= 0:
        raise InternalCheckError("Farkas dual fails yᵀb > 0")


def _check_optimal(image, cost, support, denom, prices, value):
    """cost = Lc·c as ints, x = r/D, dual prices L·prices/(Lc·D) and value
    value/(Lc·D): A·x = b, x ≥ 0, cᵀx = value, yᵀA ≥ c and yᵀb = value."""
    _check_primal(image, support, denom)
    _scale, a_rows, b = image
    if sum(cost[j] * r for j, r in support) != value:
        raise InternalCheckError("objective value mismatch")
    columns = _dual_columns(a_rows, prices, len(cost))
    if any(s < denom * c for s, c in zip(columns, cost)):
        raise InternalCheckError("dual prices fail yᵀA >= c")
    if sum(map(mul, prices, b)) != value:
        raise InternalCheckError("strong duality check failed")


def _rationals(entries, den, width):
    """The exact rationals of a checked answer: entries (k, v) become
    v/den at position k of a width-long tuple, ZERO elsewhere."""
    out = [ZERO] * width
    for k, v in entries:
        out[k] = Rat(v, den)
    return tuple(out)


def _phase_one(tab: _Tableau, image):
    """Phase one from the tableau's current basis: the checked Farkas dual,
    as ints over D, when artificials stay positive; else None, with them
    expelled."""
    r = tab.num_orig_rows
    z = tab.run([0] * tab.ncols + [-1] * r, tab.ncols + r)
    if z[-1] > 0:  # -value·L·D; positive iff artificials remain
        y = tab.farkas_duals(z)
        _check_farkas(image, y, tab.ncols)
        return y
    tab.drop_redundant_and_expel_artificials()
    return None


def _feasibility_outcome(tab: _Tableau, image, farkas) -> LpOutcome:
    """The verified answer after phase one: the point of the expelled
    tableau when farkas is None, else the Farkas dual farkas/D."""
    if farkas is not None:
        dual = _rationals(enumerate(farkas), tab.denom, len(farkas))
        return LpOutcome(tag=INFEASIBLE, dual_certificate=dual)
    support = tab.support()
    _check_primal(image, support, tab.denom)
    return LpOutcome(tag=FEASIBLE, primal=_rationals(support, tab.denom, tab.ncols))


def solve_feasibility(lp: StandardLp, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpOutcome:
    """Decide A·x = b, x ≥ 0, returning a verified point or Farkas dual."""
    tab = _Tableau(lp._image, lp.num_cols, max_pivots)
    return _feasibility_outcome(tab, lp._image, _phase_one(tab, lp._image))


def maximize(lp: StandardLp, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpOutcome:
    """Maximize cᵀx over A·x = b, x ≥ 0 to a verified optimal vertex.

    Raises LpInfeasibleError / LpUnboundedError accordingly. The outcome's
    dual_certificate holds the optimal dual prices.
    """
    tab = _Tableau(lp._image, lp.num_cols, max_pivots)
    if _phase_one(tab, lp._image) is not None:
        raise LpInfeasibleError("maximize called on an infeasible program")
    objective_scale, cost = scaled_ints(lp.objective)
    # Artificial columns stay out of the entering scan; they only track B⁻¹.
    z = tab.run(cost + [0] * tab.num_orig_rows, tab.ncols)
    support = tab.support()
    prices, value = tab.optimal_duals(z)
    _check_optimal(lp._image, cost, support, tab.denom, prices, value)
    den = objective_scale * tab.denom
    return LpOutcome(
        tag=OPTIMAL,
        primal=_rationals(support, tab.denom, tab.ncols),
        dual_certificate=_rationals(
            ((k, tab.scale * p) for k, p in enumerate(prices)), den, len(prices)
        ),
        value=Rat(value, den),
    )


def priced_hull(
    point_ints, price, scale: int, max_pivots: int = DEFAULT_MAX_PIVOTS
) -> LpOutcome:
    """Column generation for: is point in the hull of the columns price knows?

    The master is hull_lp(point, columns) with one group, on its integer
    image at the caller's scale L: point_ints is L·point, and every column
    enters as L·a. It starts with no columns. While it is infeasible, its
    checked Farkas dual y, ints over D (l over the coordinates, c on the
    convexity row), goes to price(y); a positive multiple of a separating
    (l, c) still separates. price returns L·a as ints for a column a with
    l·a + c > 0, or None when no column has one. Each column enters the
    live tableau; no round starts over.
    Returns the last restricted outcome, as exact rationals: FEASIBLE with
    weights over the columns in the order price returned them, or
    INFEASIBLE with the dual y/D that price found no column against, hence
    a hyperplane separating point from every column price knows.

    max_pivots bounds the pivots of the whole master, every restricted
    solve and the final expulsion together.
    """
    b = (*point_ints, scale)
    image = (scale, tuple([] for _ in b), b)
    tab = _Tableau(image, 0, max_pivots)
    keys = set()
    while True:
        farkas = _phase_one(tab, image)
        column = None if farkas is None else price(farkas)
        if column is None:
            return _feasibility_outcome(tab, image, farkas)
        if len(column) != len(point_ints):
            raise DimensionMismatchError("generator length does not match the point")
        ints = (*column, scale)
        if ints in keys:
            raise InternalCheckError("priced column is already in the master program")
        keys.add(ints)
        for arow, v in zip(image[1], ints):
            arow.append(v)
        tab.append_column(ints)
