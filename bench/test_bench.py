"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_percentile_and_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == (50, 50)
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile([7], 90) == (7, 0)
    assert run.tail_percentile(5) is None
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_self_time_of_nested_spans():
    spans = [
        ["query.contains-sim", 0.0, 10.0, -1, 0],
        ["ordering.contains", 1.0, 6.0, 0, 0],
        ["lp_solver.solve_feasibility", 2.0, 3.0, 1, 0],
        ["lp_solver.solve_feasibility", 4.0, 5.5, 1, 0],
        ["channel_core.compose", 7.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0]
    metrics = tracing.layer_metrics(spans, {"lp_solver.columns": 12}, 2, 0.25)
    assert metrics["lp_solver.solve_feasibility.calls"] == 2
    assert metrics["lp_solver.solve_feasibility.self_s"] == 2.5
    assert metrics["ordering.contains.self_s"] == 2.5
    assert metrics["channel_core.compose.calls"] == 1
    assert metrics["lp_solver.solves_per_query"] == 1.0
    assert metrics["lp_solver.columns"] == 12
    assert metrics["trace.overhead_s"] == 0.25


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(lib, workload):
    first = workloads.generate(lib, workload, 7, 40)
    again = workloads.generate(lib, workload, 7, 40)
    other = workloads.generate(lib, workload, 8, 40)
    assert repr(first) == repr(again)
    assert repr(first) != repr(other)
    # Every seed draws the same kinds and shapes; only the entries differ.
    assert [(q.kind, q.shape) for q in first] == [(q.kind, q.shape) for q in other]


def _library_functions(lib):
    return {
        (module_name, attr): getattr(module, attr)
        for module_name in run.LIBRARY_MODULES
        for module in [getattr(lib, module_name)]
        for attr in dir(module)
        if callable(getattr(module, attr))
    }


def test_shims_restore_every_library_function(lib):
    before = _library_functions(lib)
    queries = [
        q for workload in workloads.WORKLOADS
        for q in workloads.generate(lib, workload, 3, 6)
    ]
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        assert lib.ordering.solve_feasibility is not before[("ordering", "solve_feasibility")]
        for q in queries:
            answer = tracer.query(q.index, q.kind, lambda q=q: workloads.execute(lib, q))
            assert checks.check(lib, q, answer) is None
    finally:
        tracer.uninstall()
    after = _library_functions(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in tracer.spans}
    assert {"ordering.contains", "lp_solver.solve_feasibility", "brm.region_subset",
            "metric.brm_vs_tv", "params.capacity"} <= names


def test_checks_reject_a_tampered_witness(lib):
    q = next(q for q in workloads.generate(lib, "contain", 3, 8) if q.kind == "contains-sim")
    verdict = workloads.execute(lib, q)
    assert checks.check(lib, q, verdict) is None
    (pair, weight), *rest = verdict.witness.basis_weights
    if not rest:
        pytest.skip("single-term witness")
    shifted = lib.ordering.ContainmentWitness(
        ((pair, weight / 2),) + tuple(rest[:-1]) + ((rest[-1][0], rest[-1][1] + weight / 2),)
    )
    tampered = lib.ordering.OrderingVerdict(tag=verdict.tag, witness=shifted)
    assert checks.check(lib, q, tampered) is not None


def test_checks_reject_a_wrong_capacity(lib):
    q = next(q for q in workloads.generate(lib, "params", 3, 3) if q.kind == "capacity")
    answer = workloads.execute(lib, q)
    assert checks.check(lib, q, answer) is None
    assert checks.check(lib, q, answer + 0.01) is not None
    assert checks.check(lib, q, answer - 0.01) is not None


def test_independent_optimal_payoff_matches_library(lib):
    w = lib.channel_core.make_channel([[Fraction(1, 3), Fraction(2, 3)], [1, 0]])
    payoff = ((Fraction(1, 10), Fraction(2, 10)), (Fraction(3, 10), Fraction(4, 10)))
    game = lib.brm.BrmGame(2, 2, 2, 2, payoff, w)
    value, _pair = lib.brm.optimal_average_payoff(game)
    assert checks.optimal_average_payoff(payoff, w) == value


def test_benchmark_json_matches_the_harness():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(run.BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (entry["unit"], entry["better"]) for name, entry in layers.items()
    }
    assert set(layers) == set(tracing.layer_metrics([], {}, 1, 0.0))
