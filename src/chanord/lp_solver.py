"""Exact rational simplex for equality-form linear programs.

Programs are max cᵀx subject to A·x = b, x ≥ 0, with every coefficient an
exact rational. The solver is a two-phase simplex with Bland's pivoting
rule, so it terminates on every input; nothing is ever rounded. A
program is its integer image, L·[A | b] as Python ints (L > 0 a common
denominator), and its rational objective c; A and b are read back from
the image. standard_lp scales the caller's rationals once
(rational.scaled_ints), and hull_lp builds the image of one hull question
from ints a caller may already hold. One global L, rather than a scale
per row, keeps every sign test and tie of the rational simplex, hence its
pivot path, vertex and duals.

One kernel, _Tableau, solves every program: a revised simplex (Dantzig &
Orchard-Hays 1954) on a condensed inverse. Its rows are Python ints over
one shared positive denominator D, pivoted integer-preserving
(Edmonds–Bareiss), so the inner loops never build a rational, whichever
backend rational.py picks. A row keeps D·B⁻¹ only at the nonbasic
artificial columns, then the rhs; no original column is stored. A
column is read from the image on demand, D·B⁻¹·(s·L·a) (s = ±1 the row
signs), and Bland's scan prices an original as D·c_j + w·(s·L·a_j), w
read off the reduced-cost row at the artificials. A row is thus as wide
as the nonbasic artificials, plus one, whatever the program: r + 1 once a
region's r rows are crashed, at most k + 1 on a master after k columns
entered, at most n + 1 on a tall program of n columns. Bland's rule reads
originals first, then artificials, in index order, so every pivot is the
dense tableau's. A row whose pivot-column entry is 0 only rescales at a
pivot, p·t // D, and skips the pivot row; in a tall hull program most
rows do.

Every answer carries a certificate that is re-verified exactly against
the image, never against tableau rows, on ints, before it is returned.
The answer keeps the very ints that were checked, and builds its exact
rationals from them on first read (LpOutcome); a caller that reads only
the tag builds none:

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
column is appended to the image, with no row arithmetic: Bland's scan
prices it from the phase-one row the last round left, and phase one
continues from the current basis. Rationals are built only for the
final answer, on first read. Every restricted answer is verified as
above, on the master's image: a Farkas dual over every column entered
so far, a point over its support.

hull_outcomes answers hull programs that share their generators and
differ only in the point, one after another, on one tableau. The
generators' program with a zero right-hand side is crashed first, each
row's artificial expelled onto the first original column with a nonzero
entry in that row (drop_redundant_and_expel_artificials); every row is
then its row of D·B⁻¹ and the rhs. Every point, the first included,
enters as a new right-hand side, (D·B⁻¹)·(L·b), and the image's b
becomes the new L·b, which the exit checks read. With a zero objective
every basis is dual feasible, so dual simplex repairs the basis under
the least-index rule (Lemke 1954, Bland 1977): the row of negative rhs
whose basic index is smallest leaves, the first original column with a
negative entry in that row enters, and artificials never enter. All rhs
nonnegative is a FEASIBLE point; a negative row with no negative entry
is INFEASIBLE, with Farkas dual −(that row of D·B⁻¹)/D. The pivots,
vertices and duals are those of the dense tableau. The crash basis is
made of original columns only if the program has full row rank: when
the crash meets a redundant row (a degenerate or empty group),
hull_outcomes answers no point.

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

from bisect import bisect_left
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
from .rational import ZERO, OnFirstRead, Rat, scaled_ints, unbuilt

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
    b_ints = (*map(factor.__mul__, point_ints), scale)
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
        rows = [tuple(map(factor.__mul__, row)) for row in group.int_rows]
    return [*rows, (scale,) * group.size]


@dataclass(frozen=True)
class LpOutcome:
    """A verified answer: its tag and the exact rationals of its certificate.

    An answer of the solver holds the ints its exit check read, and
    builds each rational field from them on first read (rational.unbuilt,
    with _rationals or Rat); one built as LpOutcome(...) holds the values
    given. The two compare, hash and print alike.
    """

    tag: str
    primal: tuple | None = OnFirstRead(None)
    dual_certificate: tuple | None = OnFirstRead(None)
    value: object | None = OnFirstRead(None)


class _Tableau:
    """The simplex kernel: a revised simplex on a condensed inverse.

    Variables are numbered as the columns of the dense tableau
    [s·L·A | I | s·L·b] that starts from the program's integer image
    (L·A, L·b), kept for the exit checks: originals 0..c-1, then
    artificials c..c+r-1, with s = ±1 per row making the rhs nonnegative
    (row_signs) and artificial i basic at row i; basis[i] is the variable
    basic at row i. A Bareiss pivot is a row operation, so every row of
    that tableau is D·B⁻¹ times the initial rows, over one shared
    positive denominator D. A row here keeps only the part of D·B⁻¹ the
    basis does not fix: its entries at the nonbasic artificials, one
    slot each in artificial order (arts lists them), then the rhs. The
    rest is implicit: D at the row's own artificial if that is basic, 0
    at every other basic or dropped one. So a row holds one int per
    nonbasic artificial, plus one.

    No original column is stored as tableau entries: columns holds the
    image's columns, times the row signs, and _read computes a column's
    entries when a pivot rule needs them, D·B⁻¹·(s·L·a): a row's slots
    times the column at the slots, plus D·s_k·(L·a)_k at the row whose
    artificial k is basic. The reduced-cost row z has the same slots,
    with the objective value last. Bland's scan (run) prices an original
    as D·c_j + w·(s·L·a_j), w being z at the slots less D times each
    artificial's cost: D + z_k in phase one (cost −1 on every artificial,
    c_j = 0, cost None) and z_k in phase two (cost holds the originals'
    int costs), 0 at a dropped artificial.

    A pivot on entry p leaves its row as it is, replaces each other entry
    t of a row whose entering-column entry is f by (p·t − f·v) // D, v
    being the pivot row's entry in t's slot, and makes p the new D
    (Edmonds 1967, Bareiss 1968): every entry is then a minor of the
    initial rows, so each division is exact. A leaving artificial gets
    its slot back with the entries that step gives its column D·e_i:
    D_old at the pivot row, −f in every other row and in z; an entering
    one's slot becomes D·e_i and is dropped. A pivot without a
    reduced-cost row (an expulsion or a dual repair) may pivot on a
    negative entry; all rows and D are then negated to keep D positive.

    Bland's rule reads the originals, then the artificials, each in index
    order, so every entering choice, ratio test and tie is the dense
    tableau's, and so are the pivots, vertex and duals; the duals are read
    off z at the artificials (_spread). phase_one_row is the reduced-cost
    row of phase one, kept from one phase one to the next: a master of
    priced_hull appends each priced column to the image, and the next
    round continues from the row the last one left.

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
        self.columns = list(zip(*a_rows)) or [()] * ncols
        if -1 in self.row_signs:
            self.columns = [tuple(map(mul, self.row_signs, column)) for column in self.columns]
        self.rows = [[s * bval] for s, bval in zip(self.row_signs, b)]
        self.basis = list(range(ncols, ncols + r))
        self.arts = []
        self.cost = None
        self.entering = None
        self.phase_one_row = [sum(row[0] for row in self.rows)]

    def append_column(self, ints):
        """Enter one more original column, given as L·a over the rows, as
        variable c (the last original), keeping the basis. Only the image
        grows (the caller appends L·a to its rows): every row reads the
        column on demand. The artificials' indices move one up and keep
        their order after every original, so Bland's rule sees the same
        order."""
        self.columns.append(tuple(map(mul, self.row_signs, ints)))
        self.basis = [bi + 1 if bi >= self.ncols else bi for bi in self.basis]
        self.ncols += 1

    def _read(self, j):
        """Variable j's entry in every row: a nonbasic artificial's slot, or
        an original's column D·B⁻¹·(s·L·a_j)."""
        start, d = self.ncols, self.denom
        if j >= start:
            slot = self.arts.index(j - start)
            return [row[slot] for row in self.rows]
        column = self.columns[j]
        if len(self.arts) == self.num_orig_rows:
            # Every artificial is nonbasic: the slots are all of D·B⁻¹.
            return [sum(map(mul, row, column)) for row in self.rows]
        # Else D·s_k·(L·a)_k at each row whose artificial k is basic, plus,
        # slot by slot, the slot's column of D·B⁻¹ times the column's
        # entry there, so that a zero entry costs nothing.
        read = [d * column[bi - start] if bi >= start else 0 for bi in self.basis]
        for slot, k in enumerate(self.arts):
            if a := column[k]:
                read = [v + a * row[slot] for v, row in zip(read, self.rows)]
        return read

    def _zrow(self, cost):
        """The reduced-cost row of phase two, for int costs of the originals
        (every basic variable is one): minus c_B times each basic row."""
        z = [0] * (len(self.arts) + 1)
        for bi, row in zip(self.basis, self.rows):
            cb = cost[bi]
            if cb != 0:
                z = [zj - cb * v for zj, v in zip(z, row)]
        return z

    def _pivot(self, z, pr: int, pc: int):
        """Pivot variable pc into the basis at row pr. run hands over the
        entering column it read, with z's entry last (entering); an
        expulsion or a repair has no z, and the column is read here."""
        _spend_pivot(self)
        column, self.entering = self.entering, None
        if column is None:
            column = self._read(pc)
        row, p, d = self.rows[pr], column[pr], self.denom
        # _eliminate on every other row, inline: this is the inner loop.
        self.rows = targets = [
            target if i == pr
            else [p * t // d for t in target] if f == 0
            else [(p * t - f * v) // d for t, v in zip(target, row)]
            for i, (target, f) in enumerate(zip(self.rows, column))
        ]
        if z is not None:
            z[:] = _eliminate(z, row, p, d, column[-1])
            targets = [*targets, z]
        start = self.ncols
        if pc >= start:
            slot = self.arts.index(pc - start)
            del self.arts[slot]
            for target in targets:
                del target[slot]
        leaving = self.basis[pr]
        if leaving >= start:
            k = leaving - start
            slot = bisect_left(self.arts, k)
            self.arts.insert(slot, k)
            for target, f in zip(targets, column):
                target.insert(slot, -f)
            row[slot] = d
        if p < 0:
            # Only a pivot without z (an expulsion or a dual repair) can
            # be on a negative entry.
            self.rows = [[-v for v in r] for r in self.rows]
            p = -p
        self.denom = p
        self.basis[pr] = pc

    def run(self, z):
        """Bland-rule simplex, pivoting the reduced-cost row z in place to
        optimality; raises LpUnboundedError otherwise. Artificials enter
        in phase one only."""
        while True:
            # D·c_j + w·(s·L·a_j) at each original, in index order until
            # one is positive; a basic original's is 0, so it is skipped.
            # w is z at the slots less D times each artificial's cost: −1
            # in phase one, where c_j = 0, and 0 in phase two.
            d, basic, pc = self.denom, set(self.basis), -1
            w = [d if self.cost is None else 0] * self.num_orig_rows
            for k, zk in zip(self.arts, z):
                w[k] += zk
            if self.cost is None:
                for j, column in enumerate(self.columns):
                    if j not in basic and (reduced := sum(map(mul, w, column))) > 0:
                        pc = j
                        break
                else:
                    arts = zip(self.arts, z)
                    pc = next((self.ncols + k for k, zk in arts if (reduced := zk) > 0), -1)
            else:
                for j, (c, column) in enumerate(zip(self.cost, self.columns)):
                    if j not in basic and (reduced := d * c + sum(map(mul, w, column))) > 0:
                        pc = j
                        break
            if pc < 0:
                return
            column = self._read(pc)
            column.append(reduced)
            # Smallest rhs / coeff over positive coeffs, compared by
            # cross-multiplication (D cancels); ties go to the smallest
            # basis index.
            pr = -1
            for i, (row, coeff) in enumerate(zip(self.rows, column)):
                if coeff > 0:
                    if pr < 0:
                        pr, best_rhs, best_coeff = i, row[-1], coeff
                        continue
                    lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[pr]):
                        pr, best_rhs, best_coeff = i, row[-1], coeff
            if pr < 0:
                raise LpUnboundedError("objective unbounded above")
            self.entering = column
            self._pivot(z, pr, pc)

    def drop_redundant_and_expel_artificials(self):
        """After a zero-value phase 1, or from the start on a zero rhs,
        pivot each basic artificial out onto the first nonzero original
        column of its row; rows that admit no pivot are redundant and
        removed, and their artificials with them. A basic original's
        entry is 0 in every row but its own, so only the nonbasic ones
        are read."""
        basic = set(self.basis)
        keep = []
        for i in range(len(self.rows)):
            if self.basis[i] >= self.ncols:
                y = self._inverse_row(i)
                for j, column in enumerate(self.columns):
                    if j not in basic and sum(map(mul, y, column)):
                        self._pivot(None, i, j)
                        basic.add(j)
                        break
                else:
                    continue  # all-zero constraint: drop
            keep.append(i)
        if len(keep) < len(self.rows):
            self.rows = [self.rows[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]

    def repair(self, b) -> LpOutcome:
        """The verified answer for the right-hand side b = L·b′, from a
        basis of original columns, all rows signed +1.

        Every artificial is then nonbasic, so a row's slots are its whole
        row of D·B⁻¹ and its new rhs is that row times b. With a zero
        objective every basis is dual feasible, so dual simplex repairs it
        under the least-index rule (Lemke 1954, Bland 1977): the row of
        negative rhs whose basic index is smallest leaves, and the first
        original column with a negative entry in that row enters. Every
        rhs nonnegative is a FEASIBLE basic point; a negative row with no
        negative entry proves the program INFEASIBLE (row_farkas).
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
            # The slots are every artificial, in order, so row pr times
            # column j of s·L·A is its entry there.
            row = self.rows[pr]
            for j, column in enumerate(self.columns):
                if sum(map(mul, row, column)) < 0:
                    self._pivot(None, pr, j)
                    break
            else:
                farkas = self.row_farkas(pr)
                _check_farkas(self.image, farkas, self.ncols)
                return _feasibility_outcome(self, farkas)

    def support(self):
        """[(j, r_j)] over the basic point's nonzero coordinates x_j = r_j/D;
        L scales A and b alike, so x needs only D."""
        return [
            (bi, row[-1])
            for bi, row in zip(self.basis, self.rows)
            if bi < self.ncols and row[-1] != 0
        ]

    def _spread(self, vector, base):
        """A row or z over every artificial, in row order: base plus its
        slot at a nonbasic artificial, base alone at a basic or dropped
        one."""
        spread = [base] * self.num_orig_rows
        for k, v in zip(self.arts, vector):
            spread[k] += v
        return spread

    def _inverse_row(self, i):
        """Row i of D·B⁻¹, in artificial order: its slots, D at its own
        artificial if that is basic, 0 elsewhere. Its entry at original j
        is this row times column j of s·L·A."""
        y = self._spread(self.rows[i], 0)
        if self.basis[i] >= self.ncols:
            y[self.basis[i] - self.ncols] = self.denom
        return y

    def farkas_duals(self, z):
        """Negated phase-one duals times D: D plus z at each artificial,
        times its row sign. L cancels in the artificial columns' phase-one
        reduced costs, so the Farkas dual is these ints over D."""
        return list(map(mul, self.row_signs, self._spread(z, self.denom)))

    def optimal_duals(self, z):
        """(prices, value) of phase two under costs Lc·c, as ints.

        Against the original columns the artificial ones carry a factor
        1/L, so the dual prices are L·prices / (Lc·D) and the value is
        value / (Lc·D).
        """
        return [-s * v for s, v in zip(self.row_signs, self._spread(z, 0))], -z[-1]

    def row_farkas(self, i):
        """The Farkas dual of row i, ints over D, when its rhs is negative
        and its original entries nonnegative: that row is y′ᵀ[s·L·A | s·L·b]
        for y′ row i of D·B⁻¹, so y = −y′ times the row signs has
        yᵀ(L·A) ≤ 0 and yᵀ(L·b) > 0."""
        return [-s * v for s, v in zip(self.row_signs, self._inverse_row(i))]


def _spend_pivot(tab):
    """Count one pivot against the tableau's budget."""
    tab.pivots_used += 1
    if tab.pivots_used > tab.max_pivots:
        raise ResourceLimitError(f"simplex pivot budget exceeded ({tab.max_pivots})")


def _eliminate(target, row, p, d, f):
    """(p·target − f·row) / d entrywise, exact by Bareiss, f the target's
    entry in the pivot column.

    A row whose multiplier f is 0 only rescales, p·t // d: the same ints
    without the pivot row. Guarding its zero entries as well
    (`if t else 0`) was measured faster on the sparse Carathéodory rows
    but slower on the denser rows of the game regions, so it is not kept.
    """
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
    v/den at position k of a width-long tuple, ZERO elsewhere (a zero v
    builds no rational)."""
    out = [ZERO] * width
    for k, v in entries:
        if v:
            out[k] = Rat(v, den)
    return tuple(out)


def _phase_one(tab: _Tableau):
    """Phase one from the tableau's current basis: the checked Farkas dual,
    as ints over D, when artificials stay positive; else None, with them
    expelled."""
    z = tab.phase_one_row
    tab.run(z)
    if z[-1] > 0:  # -value·L·D; positive iff artificials remain
        y = tab.farkas_duals(z)
        _check_farkas(tab.image, y, tab.ncols)
        return y
    tab.drop_redundant_and_expel_artificials()
    return None


def _feasibility_outcome(tab, farkas) -> LpOutcome:
    """The verified answer of the one kernel, after phase one or after a
    warm repair: the point of its basis when farkas is None, else the
    Farkas dual farkas/D, each built on first read. Either way a row of
    the tableau holds one int per nonbasic artificial, plus one: after
    phase one, one per artificial that left the basis (at most n + 1 for
    n columns); after a repair, r + 1 for the r rows of a crashed region."""
    if farkas is not None:
        dual = (list(enumerate(farkas)), tab.denom, len(farkas))
        return unbuilt(LpOutcome, {"tag": INFEASIBLE}, dual_certificate=(_rationals, dual))
    support = tab.support()
    _check_primal(tab.image, support, tab.denom)
    primal = (support, tab.denom, tab.ncols)
    return unbuilt(LpOutcome, {"tag": FEASIBLE}, primal=(_rationals, primal))


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
    objective_scale, tab.cost = scaled_ints(lp.objective)
    z = tab._zrow(tab.cost)
    tab.run(z)
    support = tab.support()
    prices, value = tab.optimal_duals(z)
    _check_optimal(tab.image, tab.cost, support, tab.denom, prices, value)
    den = objective_scale * tab.denom
    dual = [(k, lp.scale * p) for k, p in enumerate(prices)]
    return unbuilt(
        LpOutcome,
        {"tag": OPTIMAL},
        primal=(_rationals, (support, tab.denom, tab.ncols)),
        dual_certificate=(_rationals, (dual, den, len(dual))),
        value=(Rat, (value, den)),
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
    l·a + c > 0, or None when no column has one. Each column is appended
    to the image, and phase one continues from the basis and phase-one
    row the last round left; no row is touched and no round starts over.
    A row holds one int per artificial that has left the basis, plus one:
    at most k + 1 after k columns entered, however tall the master.
    Returns the last restricted outcome, its exact rationals built on
    first read: FEASIBLE with weights over the columns in the order price
    returned them, or INFEASIBLE with the dual y/D that price found no
    column against, hence a hyperplane separating point from every column
    price knows.

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
    the group's program with a zero right-hand side, each row's artificial
    expelled onto the first original column with a nonzero entry in it
    (drop_redundant_and_expel_artificials, a crash basis of original
    columns). Every artificial is then nonbasic, so each row is its row of
    D·B⁻¹ and the rhs, r + 1 ints for r rows however many generators
    there are. Each point then enters as a new right-hand side and is
    repaired by dual simplex pivots on the same tableau (_Tableau.repair).
    Yields one LpOutcome per point, verified on that point's image, that
    holds the checked ints and builds its exact rationals from them on
    first read: a caller that reads only the tag, as region_subset does,
    builds none. max_pivots bounds the pivots of each point; the first
    point's budget also covers the crash.

    A basis of original columns exists only if the program has full row
    rank. When the crash meets a redundant row (the generators lie in a
    proper affine subspace, or there are none), nothing is yielded: the
    caller answers every point cold. A point whose length is not the
    generators' raises DimensionMismatchError.
    """
    common = lcm(scale, group.scale)
    point_factor = common // scale
    rows = _hull_rows(group, group.length, common)
    tab = _Tableau((rows, (0,) * len(rows)), group.size, max_pivots)
    tab.drop_redundant_and_expel_artificials()
    if len(tab.rows) < len(rows):
        return
    for point in points_ints:
        if len(point) != group.length:
            raise DimensionMismatchError("generator length does not match the point")
        yield tab.repair((*map(point_factor.__mul__, point), common))
        tab.pivots_used = 0
