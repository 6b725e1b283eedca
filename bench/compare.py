"""Compare saved benchmark outputs of a base and a new commit.

    python3 bench/compare.py --base base-*.log --new new-*.log

Each file is the standard output of one ``bench/run.py`` run. Runs are
compared only when every file was made with the same rational backend,
Python version, workload and trace mode; otherwise nothing is compared
and the exit code is 2. For each metric the medians of both sides and
the change as a share of the base median are printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

MATCHING_ENV = ("backend", "python", "workload", "trace")


def load(path):
    """(env, result) from the last two JSON lines of a run's output."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError(f"{path}: no env and result lines")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {name: [load(p) for p in paths] for name, paths in
             (("base", args.base), ("new", args.new))}
    runs = sides["base"] + sides["new"]
    for key in MATCHING_ENV:
        seen = {env[key] for env, _result in runs}
        if len(seen) > 1:
            print(f"refusing to compare: runs differ in {key}: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    failed = [result for _env, result in runs if not result["correct"]]
    if failed:
        print(f"warning: {len(failed)} runs report incorrect answers", file=sys.stderr)
    names = list(runs[0][1]["metrics"])
    print(f"{'metric':44s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for name in names:
        medians = [
            statistics.median(result["metrics"][name]["value"] for _env, result in sides[s])
            for s in ("base", "new")
        ]
        change = (medians[1] - medians[0]) / medians[0] if medians[0] else float("nan")
        unit = runs[0][1]["metrics"][name]["unit"]
        print(f"{name:44s} {medians[0]:>12.4f} {medians[1]:>12.4f} {change:>+8.1%} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
