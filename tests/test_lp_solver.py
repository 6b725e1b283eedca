from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    DenseTableau,
    check_farkas,
    check_optimal,
    check_primal,
    dense_hull_outcomes,
    dense_maximize,
    dense_priced_hull,
    dense_solve_feasibility,
    matrix_rank,
    point_by_point,
    rational_hull_program,
    reference_simplex,
    round_by_round,
    vertex_enumeration_maximum,
)

from chanord import brm, cpc, lp_solver, metric, ordering
from chanord.channel_core import compose, random_channel
from chanord.errors import (
    DimensionMismatchError,
    InternalCheckError,
    LpInfeasibleError,
    LpUnboundedError,
    ResourceLimitError,
)
from chanord.lp_solver import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    LpOutcome,
    StandardLp,
    _ScaledGroup,
    _Tableau,
    _eliminate,
    hull_lp,
    hull_outcomes,
    maximize,
    priced_hull,
    solve_feasibility,
    standard_lp,
)
from chanord.prng import counter_int
from chanord.rational import ONE, ZERO, Rat, scaled_ints


def random_matrix(rows, cols, seed, lo=-4, hi=4):
    span = hi - lo
    return [
        [Rat(counter_int(seed, i, j, bound=span) + lo) for j in range(cols)]
        for i in range(rows)
    ]


def test_identity_system_feasible():
    lp = standard_lp([[1, 0], [0, 1]], [3, Rat(1, 2)])
    out = solve_feasibility(lp)
    assert out.tag == FEASIBLE
    assert out.primal == (Rat(3), Rat(1, 2))


def test_sign_obstruction_infeasible():
    lp = standard_lp([[1]], [-1])
    out = solve_feasibility(lp)
    assert out.tag == INFEASIBLE
    check_farkas(lp, out.dual_certificate)


def test_construct_then_solve_round_trip():
    for seed in range(25):
        rows = counter_int(seed, 0, bound=3) + 2
        cols = counter_int(seed, 1, bound=3) + 2
        matrix = random_matrix(rows, cols, seed * 7 + 1)
        x0 = [Rat(counter_int(seed, 2, j, bound=5)) for j in range(cols)]
        rhs = [
            sum((row[j] * x0[j] for j in range(cols)), start=ZERO) for row in matrix
        ]
        out = solve_feasibility(standard_lp(matrix, rhs))
        assert out.tag == FEASIBLE
        check_primal(standard_lp(matrix, rhs), out.primal)


def test_maximize_simplex_vertex():
    lp = standard_lp([[1, 1]], [1], [1, 0])
    out = maximize(lp)
    assert out.tag == OPTIMAL
    assert out.value == ONE
    assert out.primal == (ONE, ZERO)


def test_maximize_zero_objective():
    lp = standard_lp([[1, 2], [0, 1]], [3, 1], [0, 0])
    assert maximize(lp).value == ZERO


def test_maximize_reports_infeasible_and_unbounded():
    with pytest.raises(LpInfeasibleError):
        maximize(standard_lp([[1]], [-1], [1]))
    # x1 - x2 free direction: maximize x1 with x1 - x2 = 0.
    with pytest.raises(LpUnboundedError):
        maximize(standard_lp([[1, -1]], [0], [1, 0]))


def test_maximize_agrees_with_vertex_enumeration():
    hits = 0
    for seed in range(40):
        rows = counter_int(seed, 10, bound=3) + 2
        cols = counter_int(seed, 11, bound=3) + 2
        matrix = random_matrix(rows, cols, seed * 13 + 3, lo=0, hi=5)
        x0 = [Rat(counter_int(seed, 12, j, bound=3)) for j in range(cols)]
        rhs = [
            sum((row[j] * x0[j] for j in range(cols)), start=ZERO) for row in matrix
        ]
        objective = [
            Rat(counter_int(seed, 13, j, bound=8) - 4) for j in range(cols)
        ]
        lp = standard_lp(matrix, rhs, objective)
        oracle = vertex_enumeration_maximum(matrix, rhs, objective)
        if oracle is None:
            continue
        try:
            out = maximize(lp)
        except LpUnboundedError:
            continue
        hits += 1
        assert out.value == oracle[0]
        check_primal(lp, out.primal)
    assert hits >= 20


def test_random_infeasible_systems_produce_valid_farkas():
    found = 0
    for seed in range(60):
        matrix = random_matrix(3, 3, seed * 17 + 5)
        rhs = [Rat(counter_int(seed, 20, i, bound=8) - 4) for i in range(3)]
        lp = standard_lp(matrix, rhs)
        out = solve_feasibility(lp)
        if out.tag == INFEASIBLE:
            found += 1
            check_farkas(lp, out.dual_certificate)
        else:
            check_primal(lp, out.primal)
    assert found >= 5


def test_pivot_budget_raises_resource_error():
    matrix = random_matrix(4, 6, 99, lo=0, hi=3)
    x0 = [ONE] * 6
    rhs = [sum((row[j] for j in range(6)), start=ZERO) for row in matrix]
    with pytest.raises(ResourceLimitError):
        solve_feasibility(standard_lp(matrix, rhs), max_pivots=1)


def test_pivot_budget_boundary_counts_expulsion_pivots():
    # Phase one pivots once and leaves the second row's artificial basic at
    # zero; expelling it pivots on the entry -2; phase two pivots once more.
    lp = standard_lp([[1, 1, 1], [1, -1, 1]], [1, 1], [0, 0, 1])
    cases = ((solve_feasibility, 2, (ONE, ZERO, ZERO)), (maximize, 3, (ZERO, ZERO, ONE)))
    for solve, pivots, vertex in cases:
        assert reference_simplex(lp, maximize=solve is maximize)[-1] == pivots
        assert solve(lp, max_pivots=pivots).primal == vertex
        with pytest.raises(ResourceLimitError):
            solve(lp, max_pivots=pivots - 1)


def test_optimal_dual_prices_certify_value():
    lp = standard_lp([[2, 1, 0], [1, 3, 1]], [4, 6], [3, 5, 1])
    out = maximize(lp)
    check_optimal(lp, out.primal, out.dual_certificate, out.value)


def small_rationals():
    return st.builds(Rat, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def hull_instances(draw):
    """A point and generators in a small dimension; half the points are
    drawn as convex combinations of the generators, so both answers occur."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    generators = [
        tuple(draw(small_rationals()) for _ in range(dim)) for _ in range(count)
    ]
    if draw(st.booleans()):
        raw = [draw(st.integers(0, 3)) for _ in range(count)]
        if not any(raw):
            raw[0] = 1
        mix = [Rat(k, sum(raw)) for k in raw]
        point = tuple(
            sum((m * gen[i] for m, gen in zip(mix, generators)), start=ZERO)
            for i in range(dim)
        )
    else:
        point = tuple(draw(small_rationals()) for _ in range(dim))
    return point, generators


@settings(max_examples=150)
@given(instance=hull_instances())
def test_hull_lp_weights_or_separating_hyperplane(instance):
    point, generators = instance
    out = solve_feasibility(hull_lp(point, generators))
    if out.tag == FEASIBLE:
        weights = out.primal
        assert all(v >= 0 for v in weights)
        assert sum(weights, start=ZERO) == ONE
        for i in range(len(point)):
            assert sum(
                (v * gen[i] for v, gen in zip(weights, generators)), start=ZERO
            ) == point[i]
    else:
        assert out.tag == INFEASIBLE
        *normal, offset = out.dual_certificate
        assert len(normal) == len(point)

        def level(p):
            return sum((a * b for a, b in zip(normal, p)), start=ZERO) + offset

        assert all(level(gen) <= 0 for gen in generators)
        assert level(point) > 0


def check_hull_outcome(point, generators, out):
    """Re-check a hull_lp outcome against its documented meaning."""
    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), start=ZERO)

    if out.tag == FEASIBLE:
        weights = out.primal
        assert len(weights) == len(generators)
        assert all(v >= 0 for v in weights)
        assert sum(weights, start=ZERO) == ONE
        total = [ZERO] * len(point)
        for v, gen in zip(weights, generators):
            total = [t + v * g for t, g in zip(total, gen)]
        assert tuple(total) == point
    else:
        assert out.tag == INFEASIBLE
        *normal, offset = out.dual_certificate
        assert len(normal) == len(point)
        assert all(dot(normal, gen) + offset <= 0 for gen in generators)
        assert dot(normal, point) + offset > 0


def test_hull_lp_groups_with_one_and_no_generators():
    half = Rat(1, 2)
    shift = [(ONE, ZERO)]
    out = solve_feasibility(hull_lp((ONE, half), shift))
    assert out.tag == INFEASIBLE
    check_hull_outcome((ONE, half), shift, out)
    out = solve_feasibility(hull_lp((ONE, ZERO), shift))
    assert out.tag == FEASIBLE and out.primal == (ONE,)
    check_hull_outcome((ONE, ZERO), shift, out)
    for empty in ([], _ScaledGroup(1, [], 0, 2)):
        out = solve_feasibility(hull_lp((ONE, ZERO), empty))
        assert out.tag == INFEASIBLE
        check_hull_outcome((ONE, ZERO), [], out)


@st.composite
def bounded_programs(draw):
    """max c·x over A·x = b, x >= 0, feasible by construction (b = A·x0)
    and bounded by a last row fixing the sum of x; A has full row rank, so
    every optimal vertex is a basic solution of some square column set."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(0, cols - 1))
    matrix = [
        [Rat(draw(st.integers(-3, 3))) for _ in range(cols)] for _ in range(rows)
    ]
    matrix.append([ONE] * cols)
    assume(matrix_rank(matrix) == len(matrix))
    x0 = [Rat(draw(st.integers(0, 3))) for _ in range(cols)]
    rhs = [sum((a * v for a, v in zip(row, x0)), start=ZERO) for row in matrix]
    objective = [draw(small_rationals()) for _ in range(cols)]
    return matrix, rhs, objective


@settings(max_examples=150)
@given(program=bounded_programs())
def test_maximize_duals_certify_the_vertex_enumeration_optimum(program):
    matrix, rhs, objective = program
    lp = standard_lp(matrix, rhs, objective)
    out = maximize(lp)
    assert out.tag == OPTIMAL
    check_optimal(lp, out.primal, out.dual_certificate, out.value)
    assert out.value == vertex_enumeration_maximum(matrix, rhs, objective)[0]


def mixed_rationals():
    return st.builds(Rat, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def general_programs(draw):
    """A·x = b with mixed denominators and any signs. b is A·x0 or drawn
    freely, so negative rhs entries and infeasible programs occur; scaled
    copies of rows (some negated) leave artificials basic at zero, whose
    expulsion may pivot on a negative entry; an all-zero row is dropped
    (rhs 0) or makes the program infeasible; the objective has any sign,
    so unbounded programs occur. A tall program has more rows than
    columns, with several 0 = 0 rows and duplicated rows among them, as a
    Carathéodory hull program has: their rows mostly update with a zero
    multiplier."""
    cols = draw(st.integers(1, 5))
    tall = draw(st.integers(0, 3)) == 0
    rows = draw(st.integers(cols + 1, cols + 4) if tall else st.integers(1, 4))
    matrix = [[draw(mixed_rationals()) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        x0 = [Rat(draw(st.integers(0, 2))) for _ in range(cols)]
        rhs = [sum((a * v for a, v in zip(row, x0)), start=ZERO) for row in matrix]
    else:
        rhs = [draw(mixed_rationals()) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(matrix) - 1))
        factor = draw(st.sampled_from([Rat(-2), Rat(-1), Rat(1, 3), Rat(2)]))
        matrix.append([factor * v for v in matrix[i]])
        rhs.append(factor * rhs[i])
    if tall:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(matrix)))
            if draw(st.booleans()):
                matrix.insert(i, [ZERO] * cols)
                rhs.insert(i, ZERO)
            else:
                j = draw(st.integers(0, len(matrix) - 1))
                matrix.insert(i, list(matrix[j]))
                rhs.insert(i, rhs[j])
    if draw(st.integers(0, 3)) == 0:
        matrix.append([ZERO] * cols)
        rhs.append(draw(st.sampled_from([ZERO, ONE])))
    objective = [draw(mixed_rationals()) for _ in range(cols)]
    return standard_lp(matrix, rhs, objective)


def solve_outcome(solve, lp, max_pivots):
    try:
        out = solve(lp, max_pivots=max_pivots)
    except LpInfeasibleError:
        return ("infeasible",)
    except LpUnboundedError:
        return ("unbounded",)
    return out.tag, out.primal, out.dual_certificate, out.value


@settings(max_examples=300)
@given(lp=general_programs(), maximizing=st.booleans())
def test_simplex_matches_rational_reference_pivot_for_pivot(lp, maximizing):
    tag, primal, dual, value, pivots = reference_simplex(lp, maximize=maximizing)
    solve = maximize if maximizing else solve_feasibility
    if maximizing and tag in (INFEASIBLE, "unbounded"):
        expected = (tag,)
    else:
        expected = (tag, primal, dual, value)
    assert solve_outcome(solve, lp, pivots) == expected
    if tag == INFEASIBLE:
        check_farkas(lp, dual)
    if pivots:
        with pytest.raises(ResourceLimitError):
            solve(lp, max_pivots=pivots - 1)


@settings(max_examples=200)
@given(data=st.data())
def test_eliminate_is_the_bareiss_update_with_and_without_a_multiplier(data):
    """Every entry becomes (p·t − f·v) // d, f the target's pivot-column
    entry, whether f is 0 (the rescaling shortcut) or not."""
    width = data.draw(st.integers(1, 8))
    ints = st.integers(-(10**12), 10**12)
    target = data.draw(st.lists(ints, min_size=width, max_size=width))
    row = data.draw(st.lists(ints, min_size=width, max_size=width))
    pc = data.draw(st.integers(0, width - 1))
    if data.draw(st.booleans()):
        target[pc] = 0
    p = data.draw(ints.filter(bool))
    d = data.draw(st.integers(1, 10**6))
    f = target[pc]
    assert _eliminate(target, row, p, d, f) == [
        (p * t - f * v) // d for t, v in zip(target, row)
    ]


@pytest.mark.parametrize(
    "generators",
    [
        [(ONE, Rat(5))],
        [()],
        [(ONE,), (ONE, ONE)],
        _ScaledGroup.of([(ONE, Rat(5))]),
        _ScaledGroup(1, [], 1, 0),
    ],
    ids=["longer", "shorter", "mixed-group", "pre-scaled", "pre-scaled-shorter"],
)
def test_hull_lp_rejects_a_generator_of_another_length(generators):
    with pytest.raises(DimensionMismatchError):
        hull_lp((ONE,), generators)


def _corrupt_first(change):
    """Apply change to the first int of a list, or to r in its first (j, r)."""

    def corrupted(items):
        first, *rest = items
        return [(first[0], change(first[1])) if isinstance(first, tuple) else change(first), *rest]

    return corrupted


def _corrupt_value(change):
    return lambda answer: (answer[0], change(answer[1]))


def _corrupt_prices(change):
    return lambda answer: (_corrupt_first(change)(answer[0]), answer[1])


# x = (1, 0) is the only point and y = 1 the only optimal price of
# x₁ + x₂ = 1 under the costs (1, 0); y = -1 is a Farkas dual of x₁ = -1.
SEGMENT = ([[1, 1]], [1], [1, 0])
TAMPERS = [
    (solve_feasibility, SEGMENT, "support", _corrupt_first(lambda r: -r),
     "primal point has a negative coordinate"),
    (solve_feasibility, SEGMENT, "support", _corrupt_first(lambda r: r + 1),
     "primal point violates a constraint"),
    (maximize, SEGMENT, "support", _corrupt_first(lambda r: -r),
     "primal point has a negative coordinate"),
    (maximize, SEGMENT, "support", _corrupt_first(lambda r: r + 1),
     "primal point violates a constraint"),
    (solve_feasibility, ([[1]], [-1], [0]), "farkas_duals", _corrupt_first(lambda y: -y),
     "Farkas dual fails yᵀA <= 0"),
    (solve_feasibility, ([[1]], [-1], [0]), "farkas_duals", _corrupt_first(lambda y: 0),
     "Farkas dual fails yᵀb > 0"),
    (maximize, SEGMENT, "optimal_duals", _corrupt_value(lambda v: v + 1),
     "objective value mismatch"),
    (maximize, SEGMENT, "optimal_duals", _corrupt_prices(lambda p: p - 1),
     "dual prices fail yᵀA >= c"),
    (maximize, SEGMENT, "optimal_duals", _corrupt_prices(lambda p: p + 1),
     "strong duality check failed"),
]


@pytest.mark.parametrize("solve, program, method, change, message", TAMPERS)
def test_every_exit_check_rejects_a_tampered_certificate(
    monkeypatch, solve, program, method, change, message
):
    lp = standard_lp(*program)
    solve(lp)  # the untouched answer passes every check
    original = getattr(_Tableau, method)
    monkeypatch.setattr(_Tableau, method, lambda tab, *args: change(original(tab, *args)))
    with pytest.raises(InternalCheckError) as caught:
        solve(lp)
    assert str(caught.value) == message


def _flat(channel):
    return tuple(p for row in channel.rows for p in row)


def test_library_lp_outcomes_pass_the_rational_oracles(monkeypatch):
    """Every LP answer the oracles get back is re-checked against the
    program's rational A, b and c, derived from its integer image, outside
    the solver's integer checks."""
    seen = []

    def recording(solve):
        def wrapper(lp, *args, **kwargs):
            out = solve(lp, *args, **kwargs)
            seen.append((lp, out))
            return out

        return wrapper

    for module in (brm, cpc, ordering):
        monkeypatch.setattr(module, "solve_feasibility", recording(solve_feasibility))
    monkeypatch.setattr(metric, "maximize", recording(maximize))
    # Every restricted answer of a warm master, as the cold program over
    # the columns entered so far.
    master_tags = []

    def recording_master(point, columns, out):
        seen.append((hull_lp(point, columns), out))
        master_tags.append(out.tag)

    monkeypatch.setattr(ordering, "priced_hull", round_by_round(recording_master))
    # Every answer of region_subset's warm tableau, as the cold program of
    # its point.
    warm_tags = []

    def recording_point(point, group, out):
        seen.append((hull_lp(point, group), out))
        warm_tags.append(out.tag)

    monkeypatch.setattr(brm, "hull_outcomes", point_by_point(recording_point))

    chain_rows = []
    for seed in range(4):
        # The noisier randomizer's region lies inside the cleaner one's.
        clean = random_channel(2, 3, seed * 3, 6)
        noisy = compose(random_channel(3, 3, seed * 3 + 1, 4), clean)
        payoff = ((Rat(1, 2), ZERO, ZERO), (ZERO, Rat(1, 4), Rat(1, 4)))
        regions = [brm.region_generators(brm.BrmGame(2, 2, 3, 3, payoff, ch)) for ch in (noisy, clean)]
        assert brm.region_subset(regions[0], regions[1]).inside_all
        brm.region_subset(regions[1], regions[0])
        w, wp = random_channel(2, 3, seed + 40, 5), random_channel(3, 3, seed + 50, 5)
        ordering.contains(wp, w)
        ordering.contains(w, wp)
        assert ordering.contains(wp, compose(wp, random_channel(3, 3, seed + 90, 4))).holds
        ordering.degraded_from(w, random_channel(2, 2, seed + 60, 4))
        ordering.degraded_from(compose(random_channel(3, 2, seed + 70, 4), wp), wp)
        terms = tuple(
            cpc.CpcTerm(Rat(1, 3), random_channel(2, 2, seed * 7 + i, 4),
                        random_channel(2, 2, seed * 7 + i + 3, 4))
            for i in range(3)
        )
        cpc.caratheodory_reduce(cpc.CpcChannel(2, 2, 2, 2, terms))
        # A chained containment witness: its hull program keeps one row
        # per coordinate where the mixture is nonzero, plus convexity.
        w2 = compose(random_channel(3, 2, seed + 100, 4), compose(wp, random_channel(2, 3, seed + 110, 4)))
        w3 = compose(random_channel(2, 2, seed + 120, 4), compose(w2, random_channel(2, 2, seed + 130, 4)))
        chained = cpc.skew_compose_cpc(
            ordering.witness_to_cpc(ordering.contains(w2, w3).witness),
            ordering.witness_to_cpc(ordering.contains(wp, w2).witness),
        )
        cpc.caratheodory_reduce(chained)
        support = sum(1 for row in cpc.as_channel(chained).rows for p in row if p)
        assert seen[-1][0].num_rows == support + 1
        chain_rows.append((seen[-1][0].num_rows, len(_flat(cpc.as_channel(chained))) + 1))
        metric.brm_vs_tv(w, random_channel(2, 3, seed + 80, 5), n_max=2, m_max=2, budget=4,
                         seed=seed)

    tags = {FEASIBLE: 0, INFEASIBLE: 0, OPTIMAL: 0}
    for lp, out in seen:
        tags[out.tag] += 1
        if out.tag == FEASIBLE:
            check_primal(lp, out.primal)
        elif out.tag == INFEASIBLE:
            check_farkas(lp, out.dual_certificate)
        else:
            check_optimal(lp, out.primal, out.dual_certificate, out.value)
    assert min(tags.values()) >= 5, tags
    assert min(master_tags.count(tag) for tag in (FEASIBLE, INFEASIBLE)) >= 5, master_tags
    assert warm_tags.count(FEASIBLE) >= 5 and warm_tags.count(INFEASIBLE) >= 2, warm_tags
    # At least one chain leaves coordinates out, so the count guard bites.
    assert any(kept < full for kept, full in chain_rows), chain_rows


def image_by_one_scaling(matrix, rhs):
    """(L, L·A, L·b) from one scaled_ints over the whole program."""
    scale, flat = scaled_ints(v for row, b in zip(matrix, rhs) for v in (*row, b))
    width = len(flat) // len(rhs)
    rows = tuple(tuple(flat[k : k + width - 1]) for k in range(0, len(flat), width))
    return scale, rows, tuple(flat[width - 1 :: width])


def prescaled(generators, length, factor):
    """generators as a _ScaledGroup at factor times their least scale."""
    scale, ints = scaled_ints(v for gen in generators for v in gen)
    return _ScaledGroup(scale * factor, [v * factor for v in ints], len(generators), length)


@st.composite
def prescaled_hull_programs(draw):
    """hull_lp arguments drawn as hull_instances, the generators dropped
    in one draw of four, so empty groups occur; the generators, and the
    point, are each passed either as rationals or pre-scaled at a
    multiple of their least scale. Returns (point, generators as
    rationals, the arguments as passed)."""
    point, generators = draw(hull_instances())
    if draw(st.integers(0, 3)) == 0:
        generators = []
    factors = st.one_of(st.none(), st.sampled_from([1, 2, 6]))

    def as_passed(gens, plain):
        factor = draw(factors)
        return plain if factor is None else prescaled(gens, len(point), factor)

    return point, generators, [as_passed([point], point), as_passed(generators, generators)]


@settings(max_examples=200)
@given(program=prescaled_hull_programs())
def test_hull_lp_image_equals_one_scaling_of_the_program(program):
    point, generators, passed = program
    lp = hull_lp(*passed)
    assert lp == hull_lp(point, generators)
    assert (lp.scale, lp.a_ints, lp.b_ints) == image_by_one_scaling(
        *rational_hull_program(point, generators)[:2]
    )


@settings(max_examples=200)
@given(program=prescaled_hull_programs())
def test_hull_lp_derives_the_rational_program(program):
    point, generators, passed = program
    lp = hull_lp(*passed)
    assert (lp.constraint_matrix, lp.rhs, lp.objective) == rational_hull_program(
        point, generators
    )
    assert (lp.num_rows, lp.num_cols) == (len(point) + 1, len(generators))


# (A, b, c) with mixed denominators, and one of whole numbers for int.
FRACTIONAL = (
    [[Rat(1, 2), Rat(-3)], [ZERO, Rat(5, 6)], [Rat(7), Rat(-1, 4)]],
    [Rat(2, 3), ONE, Rat(-9, 10)],
    [Rat(-1, 5), Rat(4)],
)
WHOLE = ([[Rat(3), Rat(-2)], [ZERO, ONE], [Rat(4), Rat(-7)]], [Rat(5), ZERO, -ONE],
         [Rat(2), Rat(-3)])


@pytest.mark.parametrize(
    "convert, program",
    [(int, WHOLE), (str, FRACTIONAL), (Fraction, FRACTIONAL), (Rat, FRACTIONAL)],
    ids=["int", "str", "Fraction", "Rat"],
)
def test_standard_lp_round_trips_its_entries(convert, program):
    matrix, rhs, objective = program
    lp = standard_lp(
        [[convert(v) for v in row] for row in matrix],
        [convert(v) for v in rhs],
        [convert(v) for v in objective],
    )
    assert lp.constraint_matrix == tuple(map(tuple, matrix))
    assert lp.rhs == tuple(rhs) and lp.objective == tuple(objective)
    assert all(type(v) is Rat for v in lp.objective)
    assert (lp.scale, lp.a_ints, lp.b_ints) == image_by_one_scaling(matrix, rhs)
    # The derived rationals are computed once and are read-only.
    assert lp.constraint_matrix is lp.constraint_matrix and lp.rhs is lp.rhs
    with pytest.raises(AttributeError):
        lp.rhs = ()
    assert standard_lp(matrix, rhs).objective == (ZERO, ZERO)
    assert standard_lp([], []).num_cols == 0


@pytest.mark.parametrize(
    "fields, error",
    [
        ((0, ((1,),), (1,), (ZERO,)), ValueError),
        ((-2, ((1,),), (1,), (ZERO,)), ValueError),
        ((Rat(2), ((1,),), (1,), (ZERO,)), ValueError),
        ((True, ((1,),), (1,), (ZERO,)), ValueError),
        ((1, ((1,),), (1, 2), (ZERO,)), DimensionMismatchError),
        ((1, ((1, 2),), (1,), (ZERO,)), DimensionMismatchError),
    ],
    ids=["zero-scale", "negative-scale", "rational-scale", "bool-scale",
         "rhs-length", "row-length"],
)
def test_standard_lp_rejects_a_bad_scale_or_shape(fields, error):
    StandardLp(1, ((1,),), (1,), (ZERO,))  # the well-formed program passes
    with pytest.raises(error):
        StandardLp(*fields)
    if error is DimensionMismatchError:
        scale, a_ints, b_ints, objective = fields
        with pytest.raises(error):
            standard_lp(a_ints, b_ints, objective)


def listed_price(generators, scale):
    """A priced_hull callback over listed generators, on the master's
    integer image: for the int dual (l, c), L·g for the first generator g
    with the largest l·g + c, or None when that is not positive."""

    def price(dual):
        *normal, offset = dual
        best, value = None, ZERO
        for gen in generators:
            level = sum((a * b for a, b in zip(normal, gen)), start=offset)
            if level > value:
                best, value = gen, level
        return None if best is None else [int(v * scale) for v in best]

    return price


def common_scale(point, generators):
    return scaled_ints([*point, *(v for gen in generators for v in gen)])[0]


@settings(max_examples=150)
@given(instance=hull_instances())
def test_priced_hull_agrees_with_the_listed_hull_program(instance):
    point, generators = instance
    entered = []
    scale = common_scale(point, generators)
    price = listed_price(generators, scale)

    def recording_price(dual):
        column = price(dual)
        if column is not None:
            entered.append(tuple(Rat(v, scale) for v in column))
        return column

    out = priced_hull([int(v * scale) for v in point], recording_price, scale)
    assert out.tag == solve_feasibility(hull_lp(point, generators)).tag
    # The answer is one of hull_lp over the columns entered, and a final
    # Farkas dual separates the point from every listed generator.
    check_hull_outcome(point, entered, out)
    if out.tag == INFEASIBLE:
        check_hull_outcome(point, generators, out)


def test_master_pivot_budget_counts_every_round_and_the_expulsion(monkeypatch):
    # The master needs four rounds, and an artificial left basic at zero
    # is expelled by a pivot at the end.
    half = Rat(1, 2)
    point = (0, 0)
    price = listed_price([(ZERO, ZERO), (ZERO, half), (half, ONE)], 2)
    pivots = []
    original = _Tableau._pivot

    def counting(tab, z, pr, pc):
        pivots.append(z is None)  # only an expulsion pivots without a z row
        original(tab, z, pr, pc)

    monkeypatch.setattr(_Tableau, "_pivot", counting)
    rounds = []  # one phase one per restricted solve of the master
    phase_one = lp_solver._phase_one
    monkeypatch.setattr(
        lp_solver, "_phase_one", lambda tab: rounds.append(1) or phase_one(tab)
    )
    out = priced_hull(point, price, 2)
    assert out.tag == FEASIBLE and len(rounds) == 4 and pivots[-1]
    budget = len(pivots)
    assert priced_hull(point, price, 2, max_pivots=budget) == out
    with pytest.raises(ResourceLimitError, match="pivot budget"):
        priced_hull(point, price, 2, max_pivots=budget - 1)


def counted_solve(monkeypatch, kernel, solve, *args, **kwargs):
    """(the outcome, or the error it stopped with, and for each pivot of
    the kernel class whether it was an expulsion) of one solve."""
    pivots = []
    original = kernel._pivot

    def counting(tab, z, pr, pc):
        pivots.append(z is None)  # only an expulsion pivots without a z row
        original(tab, z, pr, pc)

    monkeypatch.setattr(kernel, "_pivot", counting)
    try:
        out = solve(*args, **kwargs)
    except ResourceLimitError as error:
        out = str(error)
    finally:
        monkeypatch.undo()
    return out, pivots


def assert_pivots_as_dense(monkeypatch, solve, dense_solve, *args):
    """solve and dense_solve give equal answers with equal pivots, and
    both stop at a budget one short of them; returns the answer and the
    pivots."""
    got = counted_solve(monkeypatch, _Tableau, solve, *args)
    assert got == counted_solve(monkeypatch, DenseTableau, dense_solve, *args)
    out, pivots = got
    assert counted_solve(monkeypatch, _Tableau, solve, *args, max_pivots=len(pivots)) == got
    if pivots:
        short = counted_solve(monkeypatch, _Tableau, solve, *args, max_pivots=len(pivots) - 1)
        assert short == counted_solve(
            monkeypatch, DenseTableau, dense_solve, *args, max_pivots=len(pivots) - 1
        )
        assert "pivot budget" in short[0]
    return got


@pytest.mark.parametrize("kind", ("random", "repeated", "affine"))
def test_master_pivots_as_the_dense_master(monkeypatch, kind):
    """priced_hull, on the condensed tableau with its phase-one row kept
    across rounds, answers every seeded master of a listed pricer as the
    dense master of oracles.dense_priced_hull does: the same outcome and
    the same pivots over all rounds, the final expulsion included."""
    tags, expulsions = [], 0
    for seed in range(30):
        points, generators = warm_sequence(kind, seed)
        for point in points[:6]:
            scale = common_scale(point, generators)
            point_ints = [int(v * scale) for v in point]
            price = listed_price(generators, scale)
            out, pivots = assert_pivots_as_dense(
                monkeypatch, priced_hull, dense_priced_hull, point_ints, price, scale
            )
            tags.append(out.tag)
            expulsions += bool(pivots) and pivots[-1]
    assert min(tags.count(tag) for tag in (FEASIBLE, INFEASIBLE)) >= 20, tags
    assert expulsions >= 5


def test_tall_feasibility_pivots_as_the_dense_tableau(monkeypatch):
    """solve_feasibility answers the tall programs of Carathéodory
    reduction, one row per coordinate of a mixture's support and one
    column per atom, as the dense tableau does, pivot for pivot; and the
    same programs with their point moved, most of them infeasible."""
    programs = []

    def recording(lp):
        programs.append(lp)
        return solve_feasibility(lp)

    monkeypatch.setattr(cpc, "solve_feasibility", recording)
    for seed in range(12):
        x, xp, yp, y = (2 + counter_int(seed, 0, k, bound=1) for k in range(4))
        terms = tuple(
            cpc.CpcTerm(Rat(1 + counter_int(seed, 1, i, bound=3)),
                        random_channel(x, xp, seed * 50 + i, 4),
                        random_channel(yp, y, seed * 50 + i + 25, 4))
            for i in range(3 + seed % 6)
        )
        total = sum((term.weight for term in terms), start=ZERO)
        cpc.caratheodory_reduce(cpc.CpcChannel(
            x, xp, yp, y, tuple(cpc.CpcTerm(t.weight / total, t.r, t.t) for t in terms)
        ))
    monkeypatch.undo()
    tags = []
    for lp in programs:
        assert lp.num_rows > lp.num_cols
        moved = StandardLp(lp.scale, lp.a_ints, (*lp.b_ints[1:-1], lp.b_ints[0], lp.b_ints[-1]),
                           lp.objective)
        for program in (lp, moved):
            out, _pivots = assert_pivots_as_dense(
                monkeypatch, solve_feasibility, dense_solve_feasibility, program
            )
            tags.append(out.tag)
    assert min(tags.count(tag) for tag in (FEASIBLE, INFEASIBLE)) >= 6, tags


def read_on_demand_program(kind, seed):
    """A seeded tall feasibility program (more rows than columns, the
    point moved off the range for a third of the seeds) or a wide
    maximize program bounded by a convexity row."""

    def draw(*words, bound):
        return counter_int(seed, 11, kind == "tall", *words, bound=bound)

    rows, cols = (6 + draw(0, bound=3), 3 + draw(1, bound=2)) if kind == "tall" else (
        3 + draw(0, bound=2), 5 + draw(1, bound=3)
    )
    matrix = [[Rat(draw(2, i, j, bound=6) - 3) for j in range(cols)] for i in range(rows)]
    x = [Rat(draw(3, j, bound=2)) for j in range(cols)]
    rhs = [sum((a * v for a, v in zip(row, x)), start=ZERO) for row in matrix]
    if kind == "tall" and draw(4, bound=2) == 0:
        rhs[0] += 1
    if kind == "maximize":
        matrix.append([ONE] * cols)
        rhs.append(sum(x, start=ZERO) or ONE)
    return standard_lp(matrix, rhs, [Rat(draw(5, j, bound=6) - 3) for j in range(cols)])


def pivot_path(monkeypatch, kernel, solve, *args):
    """(the answer or the error it raised, every pivot of the kernel class
    as (row, variable, expulsion), and for _Tableau how often an original
    re-entered after leaving and how often a column was read while an
    artificial was basic)."""
    path, left, counts = [], set(), {"re-entered": 0, "read with a basic artificial": 0}
    pivot = kernel._pivot

    def recording(tab, z, pr, pc):
        path.append((pr, pc, z is None))
        counts["re-entered"] += pc in left
        if tab.basis[pr] < tab.ncols:
            left.add(tab.basis[pr])
        pivot(tab, z, pr, pc)

    monkeypatch.setattr(kernel, "_pivot", recording)
    if kernel is _Tableau:
        read = _Tableau._read

        def reading(tab, j):
            basic = j < tab.ncols and any(bi >= tab.ncols for bi in tab.basis)
            counts["read with a basic artificial"] += basic
            return read(tab, j)

        monkeypatch.setattr(_Tableau, "_read", reading)
    try:
        out = solve(*args)
    except LpInfeasibleError as error:
        out = type(error).__name__
    finally:
        monkeypatch.undo()
    return out, path, counts


@pytest.mark.parametrize("kind", ("tall", "priced", "maximize"))
def test_columns_read_on_demand_pivot_as_the_dense_tableau(monkeypatch, kind):
    """Every original column is read from the image when a pivot rule
    needs it: D·B⁻¹ at the slots times the column, plus D·s_k·(L·a)_k at
    a row whose artificial k is still basic. Tall programs, priced masters
    and maximize programs pivot as the dense tableau does, row for row and
    variable for variable, where an original leaves the basis and enters
    it again and where a column is read beside a basic artificial; the
    tall and maximize programs also match the rational reference simplex.
    """
    counts = {"re-entered": 0, "read with a basic artificial": 0}
    for seed in range(120):
        if kind == "priced":
            points, generators = warm_sequence("random", seed // 3)
            scale = common_scale(points[seed % 3], generators)
            point = [int(v * scale) for v in points[seed % 3]]
            args = (point, listed_price(generators, scale), scale)
            solve, dense_solve = priced_hull, dense_priced_hull
        else:
            args = (read_on_demand_program(kind, seed),)
            solve, dense_solve = {
                "tall": (solve_feasibility, dense_solve_feasibility),
                "maximize": (maximize, dense_maximize),
            }[kind]
        out, path, seen = pivot_path(monkeypatch, _Tableau, solve, *args)
        assert (out, path) == pivot_path(monkeypatch, DenseTableau, dense_solve, *args)[:2]
        for name, count in seen.items():
            counts[name] += count > 0
        if kind != "priced":
            tag, primal, dual, value, pivots = reference_simplex(args[0], kind == "maximize")
            assert len(path) == pivots
            expected = (tag, primal, dual, value)
            if tag == INFEASIBLE and kind == "maximize":
                expected = (tag,)
            assert solve_outcome(solve, args[0], pivots) == expected
    assert min(counts.values()) >= 10, counts


def test_master_rejects_a_column_entered_twice_or_of_another_length():
    columns = iter([(0,), (0,)])
    with pytest.raises(InternalCheckError, match="already in the master"):
        priced_hull((1,), lambda dual: next(columns, None), 1)
    with pytest.raises(DimensionMismatchError):
        priced_hull((1,), lambda dual: (1, 0), 1)


WARM_KINDS = ("random", "one", "empty", "repeated", "affine")


def warm_sequence(kind, seed):
    """(points, generators) of one seeded sequence for hull_outcomes.

    The generators live in 1–3 dimensions and are random, one, none,
    random with repeats, or on the hyperplane where the coordinates sum to
    1 (a proper affine subspace, so the hull program has a redundant row).
    The 12 points mix generators, midpoints of two generators (on an edge
    or a facet), inner mixtures and random points, in seeded order.
    """
    key = WARM_KINDS.index(kind)

    def draw(*words, bound):
        return counter_int(seed, key, *words, bound=bound)

    def rat(*words):
        return Rat(draw(*words, bound=12) - 6, 1 + draw(*words, 1, bound=3))

    dim = 1 + draw(0, bound=2)
    count = {"one": 1, "empty": 0}.get(kind, 2 + draw(1, bound=4))
    generators = [tuple(rat(2, g, i) for i in range(dim)) for g in range(count)]
    if kind == "repeated":
        generators += generators[::2]
    if kind == "affine":
        generators = [(*gen[:-1], 1 - sum(gen[:-1], start=ZERO)) for gen in generators]
    points = []
    for k in range(12):
        form = draw(3, k, bound=3) if generators else 3
        if form < 2:
            first, second = (
                generators[draw(4, k, j, bound=len(generators) - 1)] for j in (0, 1)
            )
        if form == 0:
            points.append(first)
        elif form == 1:
            points.append(tuple((a + b) / 2 for a, b in zip(first, second)))
        elif form == 2:
            weights = [1 + draw(5, k, g, bound=3) for g in range(len(generators))]
            total = sum(weights)
            points.append(tuple(
                sum((Rat(wgt, total) * gen[i] for wgt, gen in zip(weights, generators)), start=ZERO)
                for i in range(dim)
            ))
        else:
            points.append(tuple(rat(6, k, i) for i in range(dim)))
    return points, generators


def scaled_points(points):
    """(L, each point as ints over L), from one scaled_ints."""
    scale, flat = scaled_ints(v for point in points for v in point)
    dim = len(points[0])
    return scale, [tuple(flat[k : k + dim]) for k in range(0, len(flat), dim)]


@pytest.mark.parametrize("kind", WARM_KINDS)
def test_warm_outcomes_match_the_cold_programs(kind):
    warm_tags, infeasible_starts = [], 0
    for seed in range(30):
        points, generators = warm_sequence(kind, seed)
        group = _ScaledGroup.of(generators)
        scale, ints = scaled_points(points)
        outcomes = list(hull_outcomes(ints, group, scale))
        # Every point is answered exactly when the program has full row
        # rank; otherwise none, since the crash basis drops a row.
        first = hull_lp(points[0], group)
        full_rank = matrix_rank(first.constraint_matrix) == first.num_rows
        assert len(outcomes) == (len(points) if full_rank else 0)
        for point, out in zip(points, outcomes):
            lp = hull_lp(point, group)
            assert out.tag == solve_feasibility(lp).tag
            if out.tag == FEASIBLE:
                check_primal(lp, out.primal)
            else:
                check_farkas(lp, out.dual_certificate)
        warm_tags += [out.tag for out in outcomes]
        # A first point outside the hull is repaired like any other; the
        # points after it start from the basis it left.
        infeasible_starts += len(outcomes) > 1 and outcomes[0].tag == INFEASIBLE
    if kind in ("random", "repeated"):
        assert min(warm_tags.count(tag) for tag in (FEASIBLE, INFEASIBLE)) >= 20, warm_tags
        assert infeasible_starts >= 3
    else:
        assert warm_tags == []


def test_warm_outcomes_of_no_points_and_of_points_of_other_lengths():
    group = _ScaledGroup.of([(ONE, ZERO), (ZERO, ONE), (ZERO, ZERO)])
    assert list(hull_outcomes([], group, 1)) == []
    with pytest.raises(DimensionMismatchError):
        list(hull_outcomes([(1,)], group, 1))
    with pytest.raises(DimensionMismatchError):
        list(hull_outcomes([(0, 0), (1,)], group, 1))
    # Two generators in the plane leave a redundant row, so no point is
    # read; the caller's cold hull_lp raises instead.
    flat = _ScaledGroup.of([(ONE, ZERO), (ZERO, ONE)])
    assert list(hull_outcomes([(1,)], flat, 1)) == []
    with pytest.raises(DimensionMismatchError):
        hull_lp((ONE,), flat)


def per_point_pivots(monkeypatch, points_ints, group, scale, **budget):
    """(outcomes, pivots of each point) of hull_outcomes, as far as it
    gets, and the error it stopped with, if any."""
    pivots = []
    original = _Tableau._pivot
    monkeypatch.setattr(
        _Tableau, "_pivot", lambda tab, *args: pivots.append(1) or original(tab, *args)
    )
    outcomes, counts = [], []
    try:
        for out in hull_outcomes(points_ints, group, scale, **budget):
            counts.append(len(pivots) - sum(counts))
            outcomes.append(out)
    except ResourceLimitError as error:
        return outcomes, counts, error
    finally:
        monkeypatch.undo()
    return outcomes, counts, None


def test_warm_pivot_budget_is_per_point(monkeypatch):
    # A sequence whose warm points need different numbers of pivots, one
    # of them at least two.
    for seed in range(100):
        points, generators = warm_sequence("random", seed)
        group = _ScaledGroup.of(generators)
        scale, ints = scaled_points(points)
        outcomes, counts, error = per_point_pivots(monkeypatch, ints, group, scale)
        if error is None and len(counts) > 1 and max(counts[1:]) >= 2:
            break
    else:
        raise AssertionError("no sequence needs two repair pivots at a warm point")
    top = max(counts)
    assert per_point_pivots(monkeypatch, ints, group, scale, max_pivots=top)[:2] == (
        outcomes, counts
    )
    for budget in sorted({1, top - 1}):
        # The points before the first that needs more are answered as
        # before; that point raises and is never answered.
        kept = next(k for k, c in enumerate(counts) if c > budget)
        got, got_counts, error = per_point_pivots(
            monkeypatch, ints, group, scale, max_pivots=budget
        )
        assert got == outcomes[:kept] and got_counts == counts[:kept]
        assert isinstance(error, ResourceLimitError) and "pivot budget" in str(error)


def test_first_warm_point_budget_covers_the_crash(monkeypatch):
    # The crash pivots once per row of a full-rank program, before any
    # point; a budget below that raises before the first answer.
    for seed in range(30):
        points, generators = warm_sequence("random", seed)
        group = _ScaledGroup.of(generators)
        scale, ints = scaled_points(points)
        outcomes, counts, error = per_point_pivots(monkeypatch, ints, group, scale)
        if not outcomes:
            continue  # a redundant row: the crash answers nothing
        crash = len(generators[0]) + 1
        assert error is None and counts[0] >= crash
        assert per_point_pivots(monkeypatch, [], group, scale, max_pivots=crash) == ([], [], None)
        got, got_counts, error = per_point_pivots(
            monkeypatch, ints, group, scale, max_pivots=crash - 1
        )
        assert got == [] and got_counts == []
        assert isinstance(error, ResourceLimitError) and "pivot budget" in str(error)


# Generators 0 and 2 on the line: the first point, 1, is inside; 2 is
# inside and 3 outside, all answered from the crash basis.
WARM_TAMPERS = [
    ("support", _corrupt_first(lambda r: -r), "primal point has a negative coordinate"),
    ("support", _corrupt_first(lambda r: r + 1), "primal point violates a constraint"),
    ("row_farkas", lambda y: [-v for v in y], "Farkas dual fails yᵀA <= 0"),
    ("row_farkas", lambda y: [0 for _ in y], "Farkas dual fails yᵀb > 0"),
]


@pytest.mark.parametrize("method, change, message", WARM_TAMPERS)
def test_every_warm_exit_check_rejects_a_tampered_certificate(
    monkeypatch, method, change, message
):
    group = _ScaledGroup.of([(ZERO,), (Rat(2),)])
    points = [(1,), (2,), (3,)]
    assert [out.tag for out in hull_outcomes(points, group, 1)] == [
        FEASIBLE, FEASIBLE, INFEASIBLE
    ]
    answers = hull_outcomes(points, group, 1)
    next(answers)  # the first point, answered before the tampering
    original = getattr(_Tableau, method)
    monkeypatch.setattr(_Tableau, method, lambda tab, *args: change(original(tab, *args)))
    with pytest.raises(InternalCheckError) as caught:
        list(answers)
    assert str(caught.value) == message


def wide_sequence(seed):
    """(points, generators) of one seeded sequence with 300 to 340
    generators in 2–3 dimensions, drawn on a coarse grid so some repeat;
    the 12 points are generators, mixtures of two or three of them, and
    random points, some far outside the hull."""

    def draw(*words, bound):
        return counter_int(seed, 7, *words, bound=bound)

    def rat(*words):
        return Rat(draw(*words, bound=40) - 20, 1 + draw(*words, 1, bound=5))

    dim = 2 + draw(0, bound=1)
    count = 300 + draw(1, bound=40)
    generators = [tuple(rat(2, g, i) for i in range(dim)) for g in range(count)]
    points = []
    for k in range(12):
        form = draw(3, k, bound=2)
        chosen = [generators[draw(4, k, j, bound=count - 1)] for j in range(3)]
        if form == 0:
            points.append(chosen[0])
        elif form == 1:
            weights = [Rat(1 + draw(5, k, j, bound=3)) for j in range(3)]
            total = sum(weights)
            points.append(tuple(
                sum((wgt / total * gen[i] for wgt, gen in zip(weights, chosen)), start=ZERO)
                for i in range(dim)
            ))
        else:
            points.append(tuple(4 * rat(6, k, i) for i in range(dim)))
    return points, generators


def counted_answers(monkeypatch, kernel, answers):
    """(answers, pivots of each, the error it stopped with or None) of a
    hull_outcomes generator, counting the pivots of the kernel class."""
    pivots, outcomes, counts = [], [], []
    original = kernel._pivot
    monkeypatch.setattr(kernel, "_pivot", lambda tab, *args: pivots.append(1) or original(tab, *args))
    try:
        for out in answers:
            counts.append(len(pivots) - sum(counts))
            outcomes.append(out)
    except ResourceLimitError as error:
        return outcomes, counts, str(error)
    finally:
        monkeypatch.undo()
    return outcomes, counts, None


@pytest.mark.parametrize("kind", (*WARM_KINDS, "wide"))
def test_compact_basis_repairs_as_the_dense_tableau(monkeypatch, kind):
    """The compact basis of hull_outcomes answers every point as the
    dense tableau of oracles.dense_hull_outcomes does: tags, primal
    points, Farkas duals and the pivots of each point, under the default
    budget and under budgets that stop it part way."""
    tags, repairs = [], 0
    for seed in range(4 if kind == "wide" else 30):
        points, generators = wide_sequence(seed) if kind == "wide" else warm_sequence(kind, seed)
        group = _ScaledGroup.of(generators)
        scale, ints = scaled_points(points)
        compact = counted_answers(monkeypatch, _Tableau, hull_outcomes(ints, group, scale))
        dense = counted_answers(monkeypatch, DenseTableau, dense_hull_outcomes(ints, group, scale))
        assert compact == dense
        tags += [out.tag for out in compact[0]]
        repairs += sum(compact[1][1:])
        for budget in sorted({1, 2, max(compact[1], default=1) - 1} - {0}):
            assert counted_answers(
                monkeypatch, _Tableau, hull_outcomes(ints, group, scale, max_pivots=budget)
            ) == counted_answers(
                monkeypatch, DenseTableau, dense_hull_outcomes(ints, group, scale, max_pivots=budget)
            )
    if kind in ("random", "repeated", "wide"):
        assert min(tags.count(tag) for tag in (FEASIBLE, INFEASIBLE)) >= 4, tags
        assert repairs >= 4
    else:
        assert tags == []


def eager(out):
    """The LpOutcome of out's values, built by its constructor."""
    return LpOutcome(out.tag, out.primal, out.dual_certificate, out.value)


def assert_read_as_eager(answers, expected):
    """answers() solves afresh and returns solver outcomes with no field
    built yet; expected lists the dense oracle's eager outcomes. Whatever
    is read first (==, hash, repr, one field, or a dataclasses.replace
    copy), the outcomes are expected's, and stay so once read."""
    fields = {"primal", "dual_certificate", "value"}
    assert all(not fields & vars(out).keys() for out in answers())
    assert answers() == expected
    assert list(map(hash, answers())) == list(map(hash, expected))
    assert list(map(repr, answers())) == list(map(repr, expected))
    assert [replace(out) for out in answers()] == expected
    for name in sorted(fields):
        got = answers()
        assert [getattr(out, name) for out in got] == [getattr(out, name) for out in expected]
        assert got == expected and list(map(repr, got)) == list(map(repr, expected))
        marked = [replace(out, tag="read") for out in got]
        assert marked == [replace(out, tag="read") for out in expected]


def seeded_answers(solver, seed):
    """(answers, expected) for one seeded program of the tests above, or
    None for an infeasible maximize program: answers() solves it afresh,
    and expected lists the dense oracle's answers as eager outcomes."""
    if solver in ("feasibility", "maximize"):
        lp = read_on_demand_program("tall" if solver == "feasibility" else "maximize", seed)
        if solver == "feasibility":
            return lambda: [solve_feasibility(lp)], [eager(dense_solve_feasibility(lp))]
        try:
            return lambda: [maximize(lp)], [dense_maximize(lp)]
        except LpInfeasibleError:
            return None
    wide = solver == "warm" and seed < 2
    points, generators = wide_sequence(seed) if wide else warm_sequence("random", seed)
    if solver == "priced":
        scale = common_scale([v for point in points for v in point], generators)
        chosen = [[int(v * scale) for v in point] for point in points[seed % 3 :: 3]]
        price = listed_price(generators, scale)
        return (
            lambda: [priced_hull(point, price, scale) for point in chosen],
            [eager(dense_priced_hull(point, price, scale)) for point in chosen],
        )
    group = _ScaledGroup.of(generators)
    scale, ints = scaled_points(points)
    return (
        lambda: list(hull_outcomes(ints, group, scale)),
        list(map(eager, dense_hull_outcomes(ints, group, scale))),
    )


@pytest.mark.parametrize("solver", ("feasibility", "maximize", "priced", "warm"))
def test_solver_outcomes_read_as_the_dense_eager_outcomes(solver):
    """Each answer of the solver holds the ints its exit check read and
    builds its rationals on first read; it compares, hashes and prints as
    the eager LpOutcome of the dense oracle's answer."""
    tags = []
    for seed in range(24):
        case = seeded_answers(solver, seed)
        if case is not None:
            assert_read_as_eager(*case)
            tags += [out.tag for out in case[1]]
    wanted = (OPTIMAL,) if solver == "maximize" else (FEASIBLE, INFEASIBLE)
    assert min(tags.count(tag) for tag in wanted) >= 6, tags


def test_a_feasible_warm_answer_builds_no_rational_until_read(monkeypatch):
    # The weights of a FEASIBLE answer of hull_outcomes are built from its
    # support on the first read of primal, one rational per nonzero
    # weight, and only then.
    built = []

    def counted(*args):
        built.append(args)
        return Rat(*args)

    monkeypatch.setattr(lp_solver, "Rat", counted)
    feasible = 0
    for seed in range(10):
        points, generators = warm_sequence("random", seed)
        scale, ints = scaled_points(points)
        for out in hull_outcomes(ints, _ScaledGroup.of(generators), scale):
            if out.tag == FEASIBLE:
                feasible += 1
                assert built == []
                weights = out.primal
                assert len(built) == sum(1 for w in weights if w)
                assert out.primal is weights  # built once, then read as stored
            built.clear()
    assert feasible >= 20
