"""Command-line surface: file I/O and JSON reports for all oracles.

Every subcommand prints a single machine-parseable JSON report to stdout;
verdicts always ship with their verifying object. Exit codes: 0 answered,
1 usage or input error, 2 resource cap exceeded, 3 internal check failed
(any other library error, such as a certificate failing its own
re-verification). `rand` and `embed` build n·m channel entries from two
flags, at most MAX_ENTRIES (10^6); a larger count exits 2 before any row
is built. Reports are deterministic given inputs and seeds,
except for the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .brm import game_from_json, optimal_average_payoff, region_generators, region_subset
from .channel_core import channel_from_json, channel_to_json, random_channel, tv_distance
from .cpc import DEFAULT_MAX_PAIRS
from .errors import ChanordError, ResourceLimitError, enforce_cap
from .metric import brm_distance_lower_bound, metric_estimate_to_json
from .ordering import (
    contains,
    degraded_from,
    embed,
    input_degraded_from,
    shannon_equivalent,
    srank_upper_bound,
    verdict_to_json,
)
from .params import capacity_certificate, optimal_error_probability
from .rational import rat_str

# Entries n·m that rand and embed may build: rand takes about 7 s for 10^6
# on a 2-core machine with Python 3.11.
MAX_ENTRIES = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise _UsageError(message)


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:  # the decoder recurses once per level
            raise ValueError(f"JSON nested too deeply in {path}") from exc


def _load_channel(path: str):
    return channel_from_json(_load_json(path))


def _load_game(path: str):
    return game_from_json(_load_json(path))


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an int no smaller than low, and no larger than high
    if given, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value error
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="chanord", description=__doc__)
    caps = _Parser(add_help=False)
    caps.add_argument(
        "--max-pairs",
        type=_int_at_least(1),
        default=DEFAULT_MAX_PAIRS,
        help="cap on enumerations: encoders per game optimum, whole pairs for "
        f"regions (default {DEFAULT_MAX_PAIRS})",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("contain", parents=[caps], help="does channel A contain channel B")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("equiv", parents=[caps], help="are A and B Shannon-equivalent")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("degrade", help="is A = T∘B for some channel T")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("indegrade", help="is A = B∘R for some channel R")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("brm-opt", parents=[caps], help="optimal average payoff of a game")
    p.add_argument("game")

    p = sub.add_parser("region", parents=[caps], help="achievable-region generators")
    p.add_argument("game")

    p = sub.add_parser(
        "region-subset", parents=[caps], help="is region(game1) inside region(game2)"
    )
    p.add_argument("game1")
    p.add_argument("game2")

    p = sub.add_parser("dist-brm", parents=[caps], help="game-metric lower bound")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--budget", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dist-tv", help="exact channel distance")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("capacity", help="channel capacity in nats")
    p.add_argument("a")
    p.add_argument("--eps", type=float, default=1e-9)

    p = sub.add_parser("perr", help="optimal (n,M) error probability")
    p.add_argument("a")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument(
        "--max-outputs-pow",
        type=_int_at_least(0, 18),  # no run enumerates 10^18 blocks or codebooks
        default=6,
        help="cap output-block/codebook enumerations at 10^THIS, 0..18 (default 6)",
    )

    p = sub.add_parser("embed", help="canonical embedding of a channel")
    p.add_argument("a")
    p.add_argument("--n2", type=_int_at_least(1), required=True)
    p.add_argument("--m2", type=_int_at_least(1), required=True)

    p = sub.add_parser("rand", help="seeded random channel")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--den", type=int, default=16)

    p = sub.add_parser("srank", help="equivalence-rank upper bound")
    p.add_argument("a")
    return parser


def _dispatch(args) -> dict:
    report = {}
    if args.command == "contain":
        wp, w = _load_channel(args.a), _load_channel(args.b)
        verdict = contains(wp, w, max_pairs=args.max_pairs)
        report.update(verdict_to_json(verdict))
    elif args.command == "equiv":
        a, b = _load_channel(args.a), _load_channel(args.b)
        b_contains_a, a_contains_b = shannon_equivalent(a, b, max_pairs=args.max_pairs)
        report["equivalent"] = b_contains_a.holds and a_contains_b.holds
        report["b_contains_a"] = verdict_to_json(b_contains_a)
        report["a_contains_b"] = verdict_to_json(a_contains_b)
    elif args.command == "degrade":
        a, b = _load_channel(args.a), _load_channel(args.b)
        witness = degraded_from(a, b)
        report["degraded"] = witness is not None
        if witness is not None:
            report["witness"] = channel_to_json(witness)
    elif args.command == "indegrade":
        a, b = _load_channel(args.a), _load_channel(args.b)
        witness = input_degraded_from(a, b)
        report["input_degraded"] = witness is not None
        if witness is not None:
            report["witness"] = channel_to_json(witness)
    elif args.command == "brm-opt":
        game = _load_game(args.game)
        value, (f, g) = optimal_average_payoff(game, max_encoders=args.max_pairs)
        report["value"] = rat_str(value)
        report["encoder"] = list(f.image)
        report["decoder"] = list(g.image)
    elif args.command == "region":
        game = _load_game(args.game)
        gens = region_generators(game, max_pairs=args.max_pairs)
        report["u_size"] = gens.u_size
        report["points"] = [[rat_str(v) for v in point] for point in gens.points]
    elif args.command == "region-subset":
        g1, g2 = _load_game(args.game1), _load_game(args.game2)
        result = region_subset(
            region_generators(g1, max_pairs=args.max_pairs),
            region_generators(g2, max_pairs=args.max_pairs),
        )
        report["inside_all"] = result.inside_all
        if result.violator is not None:
            report["violator"] = [rat_str(v) for v in result.violator]
    elif args.command == "dist-brm":
        a, b = _load_channel(args.a), _load_channel(args.b)
        estimate = brm_distance_lower_bound(
            a,
            b,
            n_max=args.nmax,
            m_max=args.mmax,
            budget=args.budget,
            seed=args.seed,
            max_encoders=args.max_pairs,
        )
        report["estimate"] = metric_estimate_to_json(estimate)
    elif args.command == "dist-tv":
        a, b = _load_channel(args.a), _load_channel(args.b)
        report["distance"] = rat_str(tv_distance(a, b))
    elif args.command == "capacity":
        cert = capacity_certificate(_load_channel(args.a), args.eps)
        report["capacity_nats"] = max(cert.lower, 0.0)
        report["capacity_upper_nats"] = cert.upper
        report["input_distribution"] = list(cert.input_distribution)
        report["eps"] = args.eps
    elif args.command == "perr":
        a = _load_channel(args.a)
        cap = 10**args.max_outputs_pow
        value = optimal_error_probability(
            args.n, args.M, a, max_codebooks=cap, max_output_blocks=cap
        )
        report["n"] = args.n
        report["M"] = args.M
        report["error_probability"] = rat_str(value)
    elif args.command == "embed":
        a = _load_channel(args.a)
        enforce_cap(args.n2 * args.m2, MAX_ENTRIES, "embedding", "entries")
        report["channel"] = channel_to_json(embed(a, args.n2, args.m2))
    elif args.command == "rand":
        enforce_cap(args.n * args.m, MAX_ENTRIES, "random channel", "entries")
        w = random_channel(args.n, args.m, args.seed, args.den)
        report["channel"] = channel_to_json(w)
    elif args.command == "srank":
        a = _load_channel(args.a)
        report["srank_upper_bound"] = srank_upper_bound(a)
    else:  # pragma: no cover - argparse enforces the command set
        raise _UsageError(f"unknown command {args.command!r}")
    return report


def _input_digests(args) -> dict:
    digests = {}
    for attr in ("a", "b", "game", "game1", "game2"):
        path = getattr(args, attr, None)
        if path is not None:
            digests[path] = _digest(path)
    return digests


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        report = {
            "command": argv,
            "inputs": _input_digests(args),
        }
        report.update(_dispatch(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ChanordError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
