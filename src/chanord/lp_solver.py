"""Exact rational simplex for equality-form linear programs.

Programs are max cᵀx subject to A·x = b, x ≥ 0, with every coefficient an
exact rational. The solver is a two-phase simplex with Bland's pivoting
rule, so it terminates on every input; nothing is ever rounded. One-shot
programs and priced masters pivot a condensed tableau, which stores only
the nonbasic columns and the right-hand side (a dictionary, as in Avis's
lrs); the dual repairs of hull_outcomes pivot a compact basis that keeps
only D·B⁻¹ and the right-hand side (a revised simplex). A program is its
integer image, L·[A | b] as Python ints (L > 0 a common denominator),
and its rational objective c; A and b are read back from the image.
standard_lp scales the caller's rationals once (rational.scaled_ints),
and hull_lp builds the image of one hull question from ints a caller may
already hold. The tableau starts from that image, keeps every row as
Python ints over one shared positive denominator D, and pivots
integer-preserving (Edmonds–Bareiss), so the inner loops never build a
rational, whichever backend rational.py picks. One global L, rather than
a scale per row, keeps every sign test and tie of the rational simplex,
hence its pivot path, vertex and duals. A basic column of the dense
tableau is D times a unit vector, so the condensed tableau leaves it
implicit: a row is n + 1 ints for n original columns, however many rows
(hence artificials) the program has, and Bland's rule reads the nonbasic
variables in index order, originals first, so each pivot is the dense
tableau's. A row whose pivot-column entry is 0 only rescales at a pivot,
p·t // D, and skips the pivot row; in a tall hull program most rows do.

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
column enters the live tableau as (D·B⁻¹)·(s·L·a), with the phase-one
reduced cost y·(L·a) that the Farkas dual y priced it at; Bland's rule
then continues phase one from the current basis and its kept phase-one
row. Rationals are built once, for the final answer. Every restricted
answer is verified as above, on the master's image: a Farkas dual over
every column entered so far, a point over its support.

hull_outcomes answers hull programs that share their generators and
differ only in the point, one after another, from one warm basis. The
basis is built from the generators before any point: each row of their
program, with a zero right-hand side, is pivoted onto the first original
column with a nonzero entry in it (a crash basis). Only D·B⁻¹, the
right-hand side and the columns of L·A are kept: a tableau entry is row
i of D·B⁻¹ times column j of L·A, as append_column computes a column,
and a repair pivot reads one row and one column of them. Every point,
the first included, enters as a new right-hand side, (D·B⁻¹)·(L·b), and
the image's b becomes the new L·b, which the exit checks read. With a
zero objective every basis is dual feasible, so dual simplex repairs the
basis under the least-index rule (Lemke 1954, Bland 1977): the row of
negative rhs whose basic index is smallest leaves, the first original
column with a negative entry in that row enters, and artificials never
enter. All rhs nonnegative is a FEASIBLE point; a negative row with no
negative entry is INFEASIBLE, with Farkas dual −(that row of D·B⁻¹)/D.
The pivots, vertices and duals are those of the dense tableau. The
crash basis is made of original columns only if the program has full
row rank: when the crash meets a redundant row (a degenerate or empty
group), hull_outcomes answers no point.

The pivot budget is a number of pivots per LP solve: one call of
solve_feasibility or maximize may pivot DEFAULT_MAX_PIVOTS (100,000)
times over both phases, expulsions of artificials included. A master of
priced_hull is one solve: the budget counts every pivot of all its
restricted solves and of the final expulsion together. Each point of
hull_outcomes is one solve: its dual-simplex repair pivots count against
a budget of its own, and the first point's budget also covers the crash
that builds the basis. Every oracle of the library solves under that
default; exceeding it raises ResourceLimitError instead of ever
returning an unverified answer.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import gcd, lcm
from operator import mul

from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    LpInfeasibleError,
    LpUnboundedError,
    ResourceLimitError,
)
from .rational import ZERO, Rat, scaled_ints

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"

DEFAULT_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class StandardLp:
    """max cᵀx over A·x = b, x ≥ 0, held as its integer image.

    scale is L, a positive int common denominator; a_ints are the rows of
    L·A and b_ints is L·b, as ints; objective is c, exact rationals (zero
    for a feasibility question). constraint_matrix and rhs, A and b as
    exact rationals, are derived from the image once, on first use.
    """

    scale: int
    a_ints: tuple
    b_ints: tuple
    objective: tuple

    def __post_init__(self):
        if type(self.scale) is not int or self.scale < 1:
            raise ValueError(f"scale must be a positive int, got {self.scale!r}")
        if len(self.b_ints) != len(self.a_ints):
            raise DimensionMismatchError("rhs length does not match row count")
        c = len(self.objective)
        for row in self.a_ints:
            if len(row) != c:
                raise DimensionMismatchError("constraint row length mismatch")

    @property
    def num_rows(self) -> int:
        return len(self.a_ints)

    @property
    def num_cols(self) -> int:
        return len(self.objective)

    @cached_property
    def constraint_matrix(self) -> tuple:
        return tuple(tuple(Rat(v, self.scale) for v in row) for row in self.a_ints)

    @cached_property
    def rhs(self) -> tuple:
        return tuple(Rat(v, self.scale) for v in self.b_ints)


def standard_lp(matrix, rhs, objective=None) -> StandardLp:
    """The program of A = matrix, b = rhs and c = objective (zero if None),
    their entries anything Rat accepts, each read through Rat once; A and
    b are scaled once, to their least common denominator L."""
    rows = [tuple(map(Rat, row)) for row in (*matrix, rhs)]
    scale, flat = scaled_ints(v for row in rows for v in row)
    ints = iter(flat)
    *a_ints, b_ints = (tuple(islice(ints, len(row))) for row in rows)
    if objective is None:
        objective = (ZERO,) * (len(rows[0]) if a_ints else 0)
    return StandardLp(scale, tuple(a_ints), b_ints, tuple(map(Rat, objective)))


class _ScaledGroup:
    """A generator group of hull_lp, as ints over one scale, transposed.

    Built from (scale, ints, size, length): the entries of size generators
    of length coordinates, times scale, generator after generator, as
    scaled_ints returns them. Any common denominator will do; the gcd
    reduces it to the least. int_rows[i] holds coordinate i of every
    generator. hull_lp scales plain generators with of() on every call; a
    caller that holds the ints, or tests many points against one group,
    passes a group, and may pass the point as a group of one generator.
    """

    __slots__ = ("scale", "size", "length", "int_rows")

    def __init__(self, scale: int, ints, size: int, length: int):
        common = gcd(scale, *ints)
        if common > 1:
            scale, ints = scale // common, [v // common for v in ints]
        self.scale, self.size, self.length = scale, size, length
        self.int_rows = tuple(tuple(ints[i::length]) for i in range(length))

    @classmethod
    def of(cls, generators):
        """The group of a sequence of equally long rational generators."""
        generators = tuple(generators)
        lengths = {len(gen) for gen in generators}
        if len(lengths) > 1:
            raise DimensionMismatchError("hull generators differ in length")
        scale, ints = scaled_ints(v for gen in generators for v in gen)
        return cls(scale, ints, len(generators), lengths.pop() if lengths else 0)


def hull_lp(point, generators) -> StandardLp:
    """Feasibility program: is point in the convex hull of generators?

    The variables are the weights λ of the generators. One row per
    coordinate (Σ λ_g · g = point), then the convexity row (Σ λ_g = 1),
    with a zero objective; entries must already be exact rationals. A
    FEASIBLE primal is λ. An INFEASIBLE Farkas dual is (l, c), l over the
    coordinates and c on the convexity row, with l·g + c ≤ 0 for every
    generator g and l·point + c > 0: the hyperplane l strictly separates
    the point from the hull. No generators make an empty hull, so the
    program is infeasible. A generator whose length is not the point's
    raises DimensionMismatchError.

    Only the integer image is built: the point and the generators as ints
    at their least scale (a _ScaledGroup; the point may come as one of a
    single generator), brought to L, the lcm of the two scales. That is
    the L and the ints of one scaled_ints over the whole program.
    """
    if isinstance(point, _ScaledGroup):
        point_scale, point_ints = point.scale, [v for (v,) in point.int_rows]
    else:
        point_scale, point_ints = scaled_ints(point)
    if not isinstance(generators, _ScaledGroup):
        generators = _ScaledGroup.of(generators)
    scale = lcm(point_scale, generators.scale)
    rows = _hull_rows(generators, len(point_ints), scale)
    factor = scale // point_scale
    b_ints = (*(v * factor for v in point_ints), scale)
    return StandardLp(scale, tuple(rows), b_ints, (ZERO,) * generators.size)


def _hull_rows(group: _ScaledGroup, dim: int, scale: int):
    """L·A of hull_lp over group at L = scale, a multiple of the group's
    scale: one row per coordinate of a dim-long point, then the convexity
    row."""
    if group.size and group.length != dim:
        raise DimensionMismatchError("generator length does not match the point")
    rows = [()] * dim
    if group.size:
        factor = scale // group.scale
        rows = [tuple(v * factor for v in row) for row in group.int_rows]
    return [*rows, (scale,) * group.size]


@dataclass(frozen=True)
class LpOutcome:
    tag: str
    primal: tuple | None = None
    dual_certificate: tuple | None = None
    value: object | None = None


class _Tableau:
    """Condensed simplex tableau of Python ints over one shared denominator.

    Each row holds the entries of the nonbasic variables, in slot order,
    then the rhs: r rows of width n + 1 in place of the dense tableau's
    [original 0..c-1 | artificial c..c+r-1 | rhs], whose r×r artificial
    block and basic columns are not stored (integer pivoting on a
    dictionary, as in Avis's lrs). Variables are numbered as the dense
    columns: originals 0..c-1, then artificials c..c+r-1. nonbasic[s] is
    the variable in slot s, order lists the slots by their variable, and
    basis[i] is the variable basic at row i. The tableau is rows / denom:
    every row, and every reduced-cost row, holds ints over the one
    positive denom D.

    The initial rows are [s·L·A_i | s·L·b_i], read off image, the
    program's integer image (L·A, L·b), kept for the exit checks, with
    s = ±1 making the rhs nonnegative; artificial i is basic at row i. A
    pivot on entry p leaves its row as it is, replaces each other entry t
    of a row whose pivot-column entry is f by (p·t − f·v) // D, v being
    the pivot row's entry in t's slot, and makes p the new D (Edmonds 1967,
    Bareiss 1968): every entry is then a minor of the initial rows, so
    each division is exact. A basic column of the dense tableau is D·e_i,
    so the leaving variable takes the entering one's slot with the entries
    that step gives it: D_old at the pivot row, −f in every other row and
    in the reduced-cost row. Only expelling an artificial can pivot on a
    negative entry; all rows and D are then negated to keep D positive.

    Bland's rule scans the slots in order, originals first, then
    artificials, so every entering choice, ratio test and tie is the dense
    tableau's, and so are the pivots, vertex and duals. The duals are read
    off the reduced costs of the artificials: a nonbasic one's at its
    slot, 0 for a basic one or one whose row was dropped, as the dense
    tableau reads them.

    phase_one_row is the reduced-cost row of phase one (cost −1 on every
    artificial), kept from one phase one to the next: a master of
    priced_hull enters each priced column into it, so a round continues
    from the row the last one left. It is the primal kernel of
    solve_feasibility, maximize and priced_hull; the dual repairs of
    hull_outcomes run on _WarmBasis.

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
            [s * v for v in arow] + [s * bval]
            for s, arow, bval in zip(self.row_signs, a_rows, b)
        ]
        self.basis = list(range(ncols, ncols + r))
        self.nonbasic = list(range(ncols))
        self.order = list(range(ncols))
        self.phase_one_row = self._zrow([0] * ncols + [-1] * r)

    def append_column(self, ints):
        """Enter one more original column, given as L·a over the rows, as
        variable c (the last original), keeping the basis.

        Every stored row is D·B⁻¹ times the initial rows [s·L·A | s·L·b]
        (a Bareiss pivot is a row operation), so the new column's entries
        are D·B⁻¹ times s·L·a, exact ints: row i of D·B⁻¹ is the row's
        entries at the nonbasic artificials' slots, and D at artificial k
        if k is basic at row i. Its phase-one reduced cost is
        Σ_k (D + z_k)·s_k·(L·a)_k, z_k the phase-one row at artificial k:
        the Farkas dual of phase one times L·a. The artificials' indices
        move one up and keep their order after every original, so Bland's
        rule sees the same order.
        """
        start, d = self.ncols, self.denom
        signed = [sign * v for sign, v in zip(self.row_signs, ints)]
        slots = [
            (s, signed[v - start])
            for s, v in enumerate(self.nonbasic)
            if v >= start and signed[v - start]
        ]
        for row, bi in zip(self.rows, self.basis):
            entry = sum(row[s] * a for s, a in slots)
            if bi >= start:
                entry += d * signed[bi - start]
            row.insert(-1, entry)
        z = self.phase_one_row
        z.insert(-1, sum(map(mul, self.farkas_duals(z), ints)))
        self.basis = [bi + 1 if bi >= start else bi for bi in self.basis]
        self.nonbasic = [v + 1 if v >= start else v for v in self.nonbasic] + [start]
        insort(self.order, len(self.nonbasic) - 1, key=self.nonbasic.__getitem__)
        self.ncols += 1

    def _zrow(self, cost):
        """Reduced-cost row over the denominator, for int per-variable
        costs: D·c at each slot, then minus c_B times each basic row."""
        d = self.denom
        z = [d * cost[v] for v in self.nonbasic] + [0]
        for bi, row in zip(self.basis, self.rows):
            cb = cost[bi]
            if cb != 0:
                z = [zj - cb * v for zj, v in zip(z, row)]
        return z

    def _first_slot(self, z, limit: int):
        """The slot of the least variable below limit whose reduced cost in
        z is positive, or −1: Bland's entering choice."""
        for s in self.order:
            if self.nonbasic[s] >= limit:
                break
            if z[s] > 0:
                return s
        return -1

    def _pivot(self, z, pr: int, pc: int):
        """Pivot variable pc into the basis at row pr."""
        _spend_pivot(self)
        slot = self.nonbasic.index(pc)
        row = self.rows[pr]
        p = row[slot]
        d = self.denom
        for i, target in enumerate(self.rows):
            if i != pr:
                f = target[slot]
                self.rows[i] = target = _eliminate(target, row, p, d, slot)
                target[slot] = -f
        if z is not None:
            f = z[slot]
            z[:] = _eliminate(z, row, p, d, slot)
            z[slot] = -f
        row[slot] = d
        if p < 0:
            # Only an expulsion pivots on a negative entry, and it keeps
            # no reduced-cost row.
            self.rows = [[-v for v in r] for r in self.rows]
            p = -p
        self.denom = p
        self.nonbasic[slot] = self.basis[pr]
        self.basis[pr] = pc
        self.order.remove(slot)
        insort(self.order, slot, key=self.nonbasic.__getitem__)

    def run(self, z, entering_limit: int):
        """Bland-rule simplex on variables [0, entering_limit), pivoting the
        reduced-cost row z in place to optimality; raises LpUnboundedError
        otherwise."""
        while True:
            slot = self._first_slot(z, entering_limit)
            if slot < 0:
                return
            # Smallest rhs / coeff over positive coeffs, compared by
            # cross-multiplication (D cancels); ties go to the smallest
            # basis index.
            pr = -1
            for i, row in enumerate(self.rows):
                coeff = row[slot]
                if coeff > 0:
                    if pr < 0:
                        pr, best_rhs, best_coeff = i, row[-1], coeff
                        continue
                    lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[pr]):
                        pr, best_rhs, best_coeff = i, row[-1], coeff
            if pr < 0:
                raise LpUnboundedError("objective unbounded above")
            self._pivot(z, pr, self.nonbasic[slot])

    def drop_redundant_and_expel_artificials(self):
        """After a zero-value phase 1, or from the start on a zero rhs,
        pivot each basic artificial out onto the first nonzero original
        column of its row; rows that admit no pivot are redundant and
        removed, and their artificials with them."""
        keep = []
        for i in range(len(self.rows)):
            if self.basis[i] < self.ncols:
                keep.append(i)
                continue
            row = self.rows[i]
            slot = next((s for s in self.order if self.nonbasic[s] < self.ncols and row[s]), -1)
            if slot < 0:
                continue  # all-zero constraint: drop
            self._pivot(None, i, self.nonbasic[slot])
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

    def _artificial_costs(self, z):
        """z's entry at each artificial, in row order: the reduced cost at
        its slot when nonbasic, 0 when basic or its row was dropped."""
        costs = [0] * self.num_orig_rows
        for v, zj in zip(self.nonbasic, z):
            if v >= self.ncols:
                costs[v - self.ncols] = zj
        return costs

    def farkas_duals(self, z):
        """Negated phase-one duals times D, read off the artificials'
        reduced costs. L cancels in the artificial columns' phase-one
        reduced costs, so the Farkas dual is these ints over D."""
        d = self.denom
        return [sign * (d + zk) for sign, zk in zip(self.row_signs, self._artificial_costs(z))]

    def optimal_duals(self, z):
        """(prices, value) of phase two under costs Lc·c, as ints.

        Against the original columns the artificial ones carry a factor
        1/L, so the dual prices are L·prices / (Lc·D) and the value is
        value / (Lc·D).
        """
        prices = [-sign * zk for sign, zk in zip(self.row_signs, self._artificial_costs(z))]
        return prices, -z[-1]


def _spend_pivot(state):
    """Count one pivot against the budget of a _Tableau or _WarmBasis."""
    state.pivots_used += 1
    if state.pivots_used > state.max_pivots:
        raise ResourceLimitError(f"simplex pivot budget exceeded ({state.max_pivots})")


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


# The exit checks read the program's integer image (L·A, L·b), never
# tableau rows. Every scale in play (L, D, Lc) is positive, so each sign
# test and equality below is the rational one on the caller's data.


def _check_primal(image, support, denom):
    """x = r/D over its support: x ≥ 0 and (L·A)·r = D·(L·b)."""
    a_rows, b = image
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
    a_rows, b = image
    if any(v > 0 for v in _dual_columns(a_rows, y, ncols)):
        raise InternalCheckError("Farkas dual fails yᵀA <= 0")
    if sum(map(mul, y, b)) <= 0:
        raise InternalCheckError("Farkas dual fails yᵀb > 0")


def _check_optimal(image, cost, support, denom, prices, value):
    """cost = Lc·c as ints, x = r/D, dual prices L·prices/(Lc·D) and value
    value/(Lc·D): A·x = b, x ≥ 0, cᵀx = value, yᵀA ≥ c and yᵀb = value."""
    _check_primal(image, support, denom)
    a_rows, b = image
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


def _phase_one(tab: _Tableau):
    """Phase one from the tableau's current basis: the checked Farkas dual,
    as ints over D, when artificials stay positive; else None, with them
    expelled."""
    z = tab.phase_one_row
    tab.run(z, tab.ncols + tab.num_orig_rows)
    if z[-1] > 0:  # -value·L·D; positive iff artificials remain
        y = tab.farkas_duals(z)
        _check_farkas(tab.image, y, tab.ncols)
        return y
    tab.drop_redundant_and_expel_artificials()
    return None


def _feasibility_outcome(tab, farkas) -> LpOutcome:
    """The verified answer of a _Tableau after phase one, or of a
    _WarmBasis after a repair: the point of its basis when farkas is None,
    else the Farkas dual farkas/D."""
    if farkas is not None:
        dual = _rationals(enumerate(farkas), tab.denom, len(farkas))
        return LpOutcome(tag=INFEASIBLE, dual_certificate=dual)
    support = tab.support()
    _check_primal(tab.image, support, tab.denom)
    return LpOutcome(tag=FEASIBLE, primal=_rationals(support, tab.denom, tab.ncols))


def solve_feasibility(lp: StandardLp, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpOutcome:
    """Decide A·x = b, x ≥ 0, returning a verified point or Farkas dual."""
    tab = _Tableau((lp.a_ints, lp.b_ints), lp.num_cols, max_pivots)
    return _feasibility_outcome(tab, _phase_one(tab))


def maximize(lp: StandardLp, max_pivots: int = DEFAULT_MAX_PIVOTS) -> LpOutcome:
    """Maximize cᵀx over A·x = b, x ≥ 0 to a verified optimal vertex.

    Raises LpInfeasibleError / LpUnboundedError accordingly. The outcome's
    dual_certificate holds the optimal dual prices.
    """
    tab = _Tableau((lp.a_ints, lp.b_ints), lp.num_cols, max_pivots)
    if _phase_one(tab) is not None:
        raise LpInfeasibleError("maximize called on an infeasible program")
    objective_scale, cost = scaled_ints(lp.objective)
    # Artificial columns stay out of the entering scan; they only track B⁻¹.
    z = tab._zrow(cost + [0] * tab.num_orig_rows)
    tab.run(z, tab.ncols)
    support = tab.support()
    prices, value = tab.optimal_duals(z)
    _check_optimal(tab.image, cost, support, tab.denom, prices, value)
    den = objective_scale * tab.denom
    return LpOutcome(
        tag=OPTIMAL,
        primal=_rationals(support, tab.denom, tab.ncols),
        dual_certificate=_rationals(
            ((k, lp.scale * p) for k, p in enumerate(prices)), den, len(prices)
        ),
        value=Rat(value, den),
    )


def priced_hull(
    point_ints, price, scale: int, max_pivots: int = DEFAULT_MAX_PIVOTS
) -> LpOutcome:
    """Column generation for: is point in the hull of the columns price knows?

    The master is hull_lp(point, columns), on its integer image at the
    caller's scale L: point_ints is L·point, and every column enters as
    L·a. It starts with no columns. While it is infeasible, its
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
    tab = _Tableau((tuple([] for _ in b), b), 0, max_pivots)
    keys = set()
    while True:
        farkas = _phase_one(tab)
        column = None if farkas is None else price(farkas)
        if column is None:
            return _feasibility_outcome(tab, farkas)
        if len(column) != len(point_ints):
            raise DimensionMismatchError("generator length does not match the point")
        ints = (*column, scale)
        if ints in keys:
            raise InternalCheckError("priced column is already in the master program")
        keys.add(ints)
        for arow, v in zip(tab.image[0], ints):
            arow.append(v)
        tab.append_column(ints)


def hull_outcomes(
    points_ints, group: _ScaledGroup, scale: int, max_pivots: int = DEFAULT_MAX_PIVOTS
):
    """The verified answers to hull_lp(point, group), point after point,
    from one warm basis.

    points_ints yields each point as L·point, ints at the caller's scale
    L; every program is hull_lp's, on its image at the lcm of L and the
    group's scale, and only its right-hand side changes from point to
    point. One basis is built from the generators before the first point:
    each row of the group's program, with a zero right-hand side, pivoted
    onto its first original column with a nonzero entry (a crash basis of
    original columns). Each point then enters as a new right-hand side and
    is repaired by dual simplex pivots (see _WarmBasis). Yields one
    LpOutcome per point, as exact rationals, verified on that point's
    image. max_pivots bounds the pivots of each point; the first point's
    budget also covers the crash.

    A basis of original columns exists only if the program has full row
    rank. When the crash meets a redundant row (the generators lie in a
    proper affine subspace, or there are none), nothing is yielded: the
    caller answers every point cold. A point whose length is not the
    generators' raises DimensionMismatchError.
    """
    common = lcm(scale, group.scale)
    point_factor = common // scale
    basis = _WarmBasis(_hull_rows(group, group.length, common), group.size, max_pivots)
    if not basis.crash():
        return
    for point in points_ints:
        if len(point) != group.length:
            raise DimensionMismatchError("generator length does not match the point")
        yield basis.repair((*(v * point_factor for v in point), common))
        basis.pivots_used = 0


class _WarmBasis:
    """The basis of hull_outcomes, kept compact for dual repairs.

    A revised simplex (Dantzig & Orchard-Hays 1954): the state is the
    basis list, the rows of [D·B⁻¹ | rhs] as Python ints over one shared
    positive denominator D, and the columns of L·A, transposed once. These
    are the artificial block and the rhs column of the dense tableau that
    starts from [L·A | I | 0] and pivots alike, so every pivot, vertex and
    dual is the dense tableau's. Entry (i, j) of that tableau is row i of
    D·B⁻¹ times column j of L·A, as append_column computes it, and is
    computed only where a pivot rule reads it; a repair pivot needs one
    row and one column, not the whole tableau; map stops at the shorter
    of a row and a column, so the rhs never enters that product. The
    crash starts from a zero right-hand side, so every row sign is +1.
    """

    def __init__(self, rows, ncols: int, max_pivots: int):
        r = len(rows)
        self.ncols = ncols
        self.columns = list(zip(*rows))
        self.image = (rows, (0,) * r)
        self.rows = [[0] * i + [1] + [0] * (r - i) for i in range(r)]
        self.basis = list(range(ncols, ncols + r))
        self.denom = 1
        self.max_pivots = max_pivots
        self.pivots_used = 0

    def _pivot(self, pr: int, pc: int):
        """The Bareiss pivot of the dense tableau on [D·B⁻¹ | rhs], with column pc's
        entries computed for every row."""
        _spend_pivot(self)
        column = self.columns[pc]
        row = self.rows[pr]
        p = sum(map(mul, row, column))
        d = self.denom
        for i, target in enumerate(self.rows):
            if i != pr:
                f = sum(map(mul, target, column))
                if f == 0:
                    self.rows[i] = [p * t // d for t in target]
                else:
                    self.rows[i] = [(p * t - f * v) // d for t, v in zip(target, row)]
        if p < 0:
            self.rows = [[-v for v in r] for r in self.rows]
            p = -p
        self.denom = p
        self.basis[pr] = pc

    def crash(self) -> bool:
        """Pivot each row onto the first original column with a nonzero
        entry in it, entry by entry; False if some row has none (a
        redundant row, left on its artificial)."""
        full_rank = True
        for i in range(len(self.rows)):
            row = self.rows[i]
            for j, column in enumerate(self.columns):
                if sum(map(mul, row, column)):
                    self._pivot(i, j)
                    break
            else:
                full_rank = False
        return full_rank

    def repair(self, b) -> LpOutcome:
        """The verified answer for the right-hand side b = L·b′, from the
        current basis of original columns.

        The new rhs is (D·B⁻¹)·b. With a zero objective every basis is
        dual feasible, so dual simplex repairs it under the least-index
        rule (Lemke 1954, Bland 1977): the row of negative rhs whose basic
        index is smallest leaves, and the first original column with a
        negative entry in that row enters. Every rhs nonnegative is a
        FEASIBLE basic point; a negative row with no negative entry
        proves the program INFEASIBLE (row_farkas).
        """
        self.image = (self.image[0], b)
        for row in self.rows:
            row[-1] = sum(map(mul, row, b))
        while True:
            pr = -1
            for i, row in enumerate(self.rows):
                if row[-1] < 0 and (pr < 0 or self.basis[i] < self.basis[pr]):
                    pr = i
            if pr < 0:
                return _feasibility_outcome(self, None)
            row = self.rows[pr]
            for j, column in enumerate(self.columns):
                if sum(map(mul, row, column)) < 0:
                    self._pivot(pr, j)
                    break
            else:
                farkas = self.row_farkas(pr)
                _check_farkas(self.image, farkas, self.ncols)
                return _feasibility_outcome(self, farkas)

    def support(self):
        """[(j, r_j)] over the basic point's nonzero coordinates x_j = r_j/D;
        every basic column is original."""
        return [(bi, row[-1]) for bi, row in zip(self.basis, self.rows) if row[-1] != 0]

    def row_farkas(self, i):
        """The Farkas dual of row i, ints over D, when its rhs is negative
        and its original entries nonnegative: that tableau row is
        y′ᵀ[L·A | L·b] for y′ row i of D·B⁻¹, so y = −y′ has
        yᵀ(L·A) ≤ 0 and yᵀ(L·b) > 0."""
        return [-v for v in self.rows[i][:-1]]
