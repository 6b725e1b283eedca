"""Per-layer tracing from outside the library.

While a ``Tracer`` is installed, each layer's public functions are replaced
by shims at the module attributes through which their callers look them
up (for example ``chanord.ordering.solve_feasibility``). A shim records a
span (name, start, end, parent, query id) in memory and a few counts, then
calls the original. ``uninstall`` puts every original back. Self time of a
span is its duration minus the durations of its direct children; spans
nest properly because the benchmark runs on one thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name): each layer function at its defining module
# and at every library module that calls it, so calls are seen whichever
# binding a caller uses. Children of ordering.contains that belong to other
# layers (LP solves, game optima, cpc construction and wiring) get their own
# spans, so that ordering's self time is only its own column work.
SHIMS = (
    ("lp_solver", "solve_feasibility", "lp_solver.solve_feasibility"),
    ("ordering", "solve_feasibility", "lp_solver.solve_feasibility"),
    ("brm", "solve_feasibility", "lp_solver.solve_feasibility"),
    ("lp_solver", "maximize", "lp_solver.maximize"),
    ("metric", "maximize", "lp_solver.maximize"),
    ("ordering", "contains", "ordering.contains"),
    ("ordering", "degraded_from", "ordering.degrade"),
    ("ordering", "input_degraded_from", "ordering.degrade"),
    ("brm", "optimal_average_payoff", "brm.optimal_average_payoff"),
    ("ordering", "optimal_average_payoff", "brm.optimal_average_payoff"),
    ("metric", "optimal_average_payoff", "brm.optimal_average_payoff"),
    ("brm", "region_generators", "brm.region_generators"),
    ("brm", "region_subset", "brm.region_subset"),
    ("cpc", "skew_compose_channel", "cpc.skew_compose_channel"),
    ("ordering", "skew_compose_channel", "cpc.skew_compose_channel"),
    ("cpc", "cpc_from_pairs", "cpc.cpc_from_pairs"),
    ("ordering", "cpc_from_pairs", "cpc.cpc_from_pairs"),
    ("cpc", "caratheodory_reduce", "cpc.caratheodory_reduce"),
    ("channel_core", "compose", "channel_core.compose"),
    ("cpc", "compose", "channel_core.compose"),
    ("ordering", "compose", "channel_core.compose"),
    ("metric", "brm_vs_tv", "metric.brm_vs_tv"),
    ("params", "capacity", "params.capacity"),
    ("params", "optimal_error_probability", "params.optimal_error_probability"),
)

QUERY_SPAN = "query"
HOOK_SPAN = "trace.hook"  # time spent computing counts, kept out of self times


def _max_bits(values):
    best = 0
    for v in values:
        best = max(best, int(v.numerator).bit_length(), int(v.denominator).bit_length())
    return best


def _lp_counts(counts, args, result):
    lp = args[0]
    counts["lp_solver.columns"] += lp.num_cols
    counts["lp_solver.max_columns"] = max(counts["lp_solver.max_columns"], lp.num_cols)
    bits = _max_bits(
        list(result.primal or ()) + list(result.dual_certificate or ())
        + ([result.value] if result.value is not None else [])
    )
    counts["lp_solver.max_bits"] = max(counts["lp_solver.max_bits"], bits)


def _reduce_counts(counts, _args, result):
    counts["cpc.caratheodory_reduce.terms_out"] += len(result.terms)


HOOKS = {
    "lp_solver.solve_feasibility": _lp_counts,
    "lp_solver.maximize": _lp_counts,
    "cpc.caratheodory_reduce": _reduce_counts,
}


class Tracer:
    """Span recorder whose shims replace library functions while installed."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # [name, start, end, parent index or -1, query id]
        self.counts = defaultdict(int)
        self.stack = []
        self.query_id = None
        self.originals = []

    def install(self):
        if self.originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in SHIMS:
            module = getattr(self.lib, module_name)
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._shim(span_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals = []

    def _open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.query_id]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def _shim(self, name, original):
        hook = HOOKS.get(name)

        def shim(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook_span = self._open(HOOK_SPAN)
                try:
                    hook(self.counts, args, result)
                finally:
                    self._close(hook_span)
            return result

        shim.__wrapped__ = original
        return shim

    def query(self, query_id, kind, call):
        """Run call() inside a root span for one query."""
        self.query_id = query_id
        span = self._open(f"{QUERY_SPAN}.{kind}")
        try:
            return call()
        finally:
            self._close(span)
            self.query_id = None

    def write(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, qid in self.spans:
                out.write(json.dumps([name, start, end, parent, qid]) + "\n")


def self_times(spans):
    """Per span: duration minus the total duration of its direct children."""
    own = [end - start for _name, start, end, _parent, _qid in spans]
    for _name, start, end, parent, _qid in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts, queries, overhead_s):
    """Per-layer metric values (name -> value) from one traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    longest = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        self_s[name] += own
        longest[name] = max(longest[name], span[2] - span[1])
    solves = calls["lp_solver.solve_feasibility"] + calls["lp_solver.maximize"]
    return {
        "lp_solver.solve_feasibility.calls": calls["lp_solver.solve_feasibility"],
        "lp_solver.solve_feasibility.self_s": self_s["lp_solver.solve_feasibility"],
        "lp_solver.maximize.calls": calls["lp_solver.maximize"],
        "lp_solver.maximize.self_s": self_s["lp_solver.maximize"],
        "lp_solver.columns": counts.get("lp_solver.columns", 0),
        "lp_solver.max_columns": counts.get("lp_solver.max_columns", 0),
        "lp_solver.solves_per_query": solves / queries,
        "lp_solver.max_bits": counts.get("lp_solver.max_bits", 0),
        "ordering.contains.calls": calls["ordering.contains"],
        "ordering.contains.self_s": self_s["ordering.contains"],
        "ordering.degrade.self_s": self_s["ordering.degrade"],
        "brm.optimal_average_payoff.calls": calls["brm.optimal_average_payoff"],
        "brm.optimal_average_payoff.self_s": self_s["brm.optimal_average_payoff"],
        "brm.region_generators.self_s": self_s["brm.region_generators"],
        "brm.region_subset.calls": calls["brm.region_subset"],
        "brm.region_subset.self_s": self_s["brm.region_subset"],
        "cpc.skew_compose_channel.calls": calls["cpc.skew_compose_channel"],
        "cpc.skew_compose_channel.self_s": self_s["cpc.skew_compose_channel"],
        "cpc.caratheodory_reduce.self_s": self_s["cpc.caratheodory_reduce"],
        "cpc.caratheodory_reduce.terms_out": counts.get("cpc.caratheodory_reduce.terms_out", 0),
        "channel_core.compose.calls": calls["channel_core.compose"],
        "channel_core.compose.self_s": self_s["channel_core.compose"],
        "metric.brm_vs_tv.self_s": self_s["metric.brm_vs_tv"],
        "params.capacity.calls": calls["params.capacity"],
        "params.capacity.self_s": self_s["params.capacity"],
        "params.capacity.max_ms": longest["params.capacity"] * 1e3,
        "params.optimal_error_probability.self_s": self_s["params.optimal_error_probability"],
        "trace.overhead_s": overhead_s,
    }
