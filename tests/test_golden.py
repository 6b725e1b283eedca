"""Golden CLI cases: each file in tests/golden/ pins part of one report.

A case is a JSON object with four keys:
- "argv": the arguments after `chanord`;
- "files": each input file's JSON, keyed by the name argv gives it;
- "expect": the pinned subset of the report;
- "why": what the pin guards.

`mismatches` is the one matcher. A dict matches when every expected key is
present and matches, so report keys absent from "expect" (such as
"elapsed_ms" and "inputs") are ignored; any other value must equal the
expected one as JSON, so `true` is not `1` and a list must have the same
length and equal items.

Under pytest every case runs in-process through `chanord.cli.main`, in a
temporary directory that holds its files. Run as a script,

    python tests/test_golden.py

runs the same cases through the installed `chanord` console script, one
subprocess each, prints one line per case and exits 1 if any fails.

To add a case, write tests/golden/<name>.json with the four keys and run
`pytest tests/test_golden.py`.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
KEYS = {"argv", "files", "expect", "why"}


def load_case(path: Path) -> dict:
    case = json.loads(path.read_text(encoding="utf-8"))
    if set(case) != KEYS:
        raise ValueError(f"{path.name}: a case has exactly the keys {sorted(KEYS)}")
    return case


def write_files(case: dict, directory: Path) -> None:
    for name, content in case["files"].items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


def mismatches(expect, actual, where: str = "report") -> list:
    """Each place where actual fails to match expect, as one line."""
    if isinstance(expect, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {_json(actual)}"]
        found = []
        for key, value in expect.items():
            if key not in actual:
                found.append(f"{where}.{key}: missing")
            else:
                found.extend(mismatches(value, actual[key], f"{where}.{key}"))
        return found
    if _json(expect) != _json(actual):
        return [f"{where}: expected {_json(expect)}, got {_json(actual)}"]
    return []


def problems(case: dict, code: int, out: str, err: str) -> list:
    """What is wrong with one run of a case: its exit code, else its report."""
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    return mismatches(case["expect"], json.loads(out))


def test_golden_cases_are_found():
    assert len(CASES) >= 19


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_golden_case(path, tmp_path, monkeypatch, capsys):
    # Imported here, so that the script below needs only the console script.
    from chanord import cli

    case = load_case(path)
    write_files(case, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert problems(case, code, out, err) == []


REPORT = {
    "command": ["contain", "a.json", "b.json"],
    "inputs": {"a.json": "04", "b.json": "fa"},
    "verdict": "does-not-contain",
    "certificate": {"payoff": [["1/4", "0"], ["0", "3/4"]], "gap": "1/8"},
    "elapsed_ms": 1.5,
}


def test_the_matcher_ignores_report_keys_absent_from_expect():
    expect = {"verdict": "does-not-contain", "certificate": {"gap": "1/8"}}
    assert mismatches(expect, REPORT) == []
    assert mismatches({}, REPORT) == []


def test_the_matcher_rejects_a_changed_leaf_a_missing_key_and_another_length():
    assert mismatches({"certificate": {"gap": "1/4"}}, REPORT) == [
        'report.certificate.gap: expected "1/4", got "1/8"'
    ]
    assert mismatches({"witness": {"weights": {}}}, REPORT) == ["report.witness: missing"]
    assert mismatches({"certificate": {"payoff": [["1/4", "0"]]}}, REPORT) == [
        'report.certificate.payoff: expected [["1/4", "0"]], '
        'got [["1/4", "0"], ["0", "3/4"]]'
    ]
    assert mismatches({"elapsed_ms": True}, {"elapsed_ms": 1}) == [
        "report.elapsed_ms: expected true, got 1"
    ]
    assert mismatches({"verdict": {"tag": "x"}}, REPORT) == [
        'report.verdict: expected an object, got "does-not-contain"'
    ]


def run_installed(case: dict) -> list:
    """problems() of one case run through the installed `chanord` script."""
    with tempfile.TemporaryDirectory() as directory:
        write_files(case, Path(directory))
        done = subprocess.run(
            ["chanord", *case["argv"]], cwd=directory, capture_output=True, text=True
        )
    return problems(case, done.returncode, done.stdout, done.stderr)


def main() -> int:
    failed = 0
    for path in CASES:
        found = run_installed(load_case(path))
        print(f"{'FAIL' if found else 'ok'} {path.stem}")
        for line in found:
            print(f"    {line}")
        failed += bool(found)
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases match")
    return 1 if failed or not CASES else 0


if __name__ == "__main__":
    sys.exit(main())
