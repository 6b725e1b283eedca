import json
import math
import time

import pytest

from chanord.brm import BrmGame, game_to_json
from chanord.channel_core import (
    bsc,
    channel_from_json,
    channel_to_json,
    identity_channel,
    make_channel,
    random_channel,
)
from chanord import cli, metric, ordering, params
from chanord.cli import main
from chanord.errors import InternalCheckError, ResourceLimitError, enforce_cap
from chanord.lp_solver import priced_hull
from chanord.ordering import witness_from_json, apply_witness
from chanord.rational import Rat


@pytest.fixture
def write_channel(tmp_path):
    def _write(name, channel):
        path = tmp_path / name
        path.write_text(json.dumps(channel_to_json(channel)))
        return str(path)

    return _write


@pytest.fixture
def write_game(tmp_path):
    def _write(name, game):
        path = tmp_path / name
        path.write_text(json.dumps(game_to_json(game)))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_contain_self_reports_identity_witness(capsys, write_channel):
    path = write_channel("a.json", bsc("1/10"))
    code, report, _err = run_cli(capsys, "contain", path, path)
    assert code == 0
    assert report["verdict"] == "contains"
    assert report["witness"]["weights"] == {"f=[1,2];g=[1,2]": "1"}
    assert path in report["inputs"]
    assert "elapsed_ms" in report


def test_contain_witness_round_trips(capsys, write_channel):
    a = write_channel("id2.json", identity_channel(2))
    b = write_channel("bsc01.json", bsc("1/10"))
    code, report, _err = run_cli(capsys, "contain", a, b)
    assert code == 0 and report["verdict"] == "contains"
    witness = witness_from_json(report["witness"])
    assert apply_witness(witness, identity_channel(2)) == bsc("1/10")


def test_contain_separation(capsys, write_channel):
    a = write_channel("noisy.json", bsc("3/10"))
    b = write_channel("clean.json", bsc("1/10"))
    code, report, _err = run_cli(capsys, "contain", a, b)
    assert code == 0
    assert report["verdict"] == "does-not-contain"
    assert Rat(report["certificate"]["gap"]) > 0


def test_dist_tv_zero(capsys, write_channel):
    path = write_channel("a.json", random_channel(2, 3, 5, 8))
    code, report, _err = run_cli(capsys, "dist-tv", path, path)
    assert code == 0 and report["distance"] == "0"


def test_equiv_and_degrade(capsys, write_channel):
    a = write_channel("a.json", bsc("1/10"))
    b = write_channel("b.json", bsc("1/5"))
    code, report, _err = run_cli(capsys, "equiv", a, b)
    assert code == 0 and report["equivalent"] is False

    code, report, _err = run_cli(capsys, "degrade", b, a)
    assert code == 0 and report["degraded"] is True
    witness = channel_from_json(report["witness"])
    assert witness.input_size == 2

    code, report, _err = run_cli(capsys, "indegrade", b, a)
    assert code == 0 and report["input_degraded"] is True


def test_game_commands(capsys, write_game, tmp_path):
    payoff = ((Rat(1, 2), Rat(0)), (Rat(0), Rat(1, 2)))
    g1 = BrmGame(2, 2, 2, 2, payoff, bsc("3/10"))
    g2 = BrmGame(2, 2, 2, 2, payoff, bsc("1/10"))
    p1 = write_game("g1.json", g1)
    p2 = write_game("g2.json", g2)

    code, report, _err = run_cli(capsys, "brm-opt", p1)
    assert code == 0 and Rat(report["value"]) > 0

    code, report, _err = run_cli(capsys, "region", p1)
    assert code == 0 and len(report["points"]) == 16

    code, report, _err = run_cli(capsys, "region-subset", p1, p2)
    assert code == 0 and report["inside_all"] is True
    code, report, _err = run_cli(capsys, "region-subset", p2, p1)
    assert code == 0 and report["inside_all"] is False and "violator" in report


def test_dist_brm_deterministic_modulo_timing(capsys, write_channel):
    a = write_channel("a.json", bsc(0))
    b = write_channel("b.json", bsc("1/2"))
    args = ("dist-brm", a, b, "--nmax", "2", "--mmax", "2", "--budget", "8", "--seed", "1")
    code1, report1, _ = run_cli(capsys, *args)
    code2, report2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    report1.pop("elapsed_ms")
    report2.pop("elapsed_ms")
    assert report1 == report2
    assert Rat(report1["estimate"]["lower_bound"]) >= Rat(1, 4)


def test_capacity_perr_embed_rand_srank(capsys, write_channel, tmp_path):
    a = write_channel("a.json", bsc("11/100"))
    code, report, _err = run_cli(capsys, "capacity", a, "--eps", "1e-9")
    assert code == 0 and 0 < report["capacity_nats"] < 0.7

    code, report, _err = run_cli(capsys, "perr", a, "--n", "1", "--M", "2")
    assert code == 0 and report["error_probability"] == "11/100"

    code, report, _err = run_cli(capsys, "embed", a, "--n2", "3", "--m2", "3")
    assert code == 0
    embedded = channel_from_json(report["channel"])
    assert (embedded.input_size, embedded.output_size) == (3, 3)

    code, report, _err = run_cli(capsys, "rand", "--n", "2", "--m", "3", "--seed", "9", "--den", "12")
    assert code == 0
    drawn = channel_from_json(report["channel"])
    assert drawn == random_channel(2, 3, 9, 12)

    code, report, _err = run_cli(capsys, "srank", a)
    assert code == 0 and report["srank_upper_bound"] == 2


def test_exit_codes(capsys, write_channel, tmp_path):
    # Usage error: unknown command.
    code, report, err = run_cli(capsys, "no-such-command")
    assert code == 1 and report is None and err

    # Parse error: malformed JSON.
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, err = run_cli(capsys, "dist-tv", str(bad), str(bad))
    assert code == 1 and report is None

    # Invariant violation: rows not summing to one.
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"input_size": 1, "output_size": 2, "rows": [["1/3", "1/3"]]}))
    code, report, err = run_cli(capsys, "dist-tv", str(invalid), str(invalid))
    assert code == 1 and report is None

    # Resource cap: pair basis larger than allowed.
    a = write_channel("a.json", random_channel(3, 3, 1, 6))
    b = write_channel("b.json", random_channel(3, 3, 2, 6))
    code, report, err = run_cli(capsys, "contain", a, b, "--max-pairs", "5")
    assert code == 2 and report is None and "resource" in err.lower()

    # The game-metric search honours the same cap.
    code, report, err = run_cli(capsys, "dist-brm", a, b, "--max-pairs", "1")
    assert code == 2 and report is None and "resource" in err.lower()

    # Alphabet mismatch is an input error, not an internal failure.
    c = write_channel("c.json", random_channel(2, 3, 3, 6))
    code, report, err = run_cli(capsys, "degrade", a, c)
    assert code == 1 and report is None

    # Missing file.
    code, report, err = run_cli(capsys, "dist-tv", str(tmp_path / "ghost.json"), a)
    assert code == 1 and report is None


def test_capacity_report_carries_its_certificate(capsys, write_channel):
    w = random_channel(3, 3, 17, 9)
    path = write_channel("a.json", w)
    code, report, _err = run_cli(capsys, "capacity", path, "--eps", "1e-7")
    assert code == 0 and report["eps"] == 1e-7
    p = report["input_distribution"]
    assert len(p) == 3 and abs(sum(p) - 1.0) <= 1e-12 and min(p) >= 0.0
    # Recompute both bounds from the reported p alone.
    rows = [[float(v) for v in row] for row in w.rows]
    q = [sum(p[x] * rows[x][y] for x in range(3)) for y in range(3)]
    dens = [
        sum(v * math.log(v / q[y]) for y, v in enumerate(row) if v > 0) for row in rows
    ]
    lower = sum(px * dx for px, dx in zip(p, dens))
    upper = max(dens)
    assert abs(report["capacity_upper_nats"] - upper) <= 1e-12
    assert abs(report["capacity_nats"] - max(lower, 0.0)) <= 1e-12
    assert upper - lower <= 1e-7


def test_capacity_budget_exhaustion_is_a_resource_failure(capsys, write_channel, monkeypatch):
    a = write_channel("a.json", bsc("11/100"))
    monkeypatch.setattr(params, "_MAX_CAPACITY_ROUNDS", 0)
    code, report, err = run_cli(capsys, "capacity", a, "--eps", "1e-9")
    assert code == 2 and report is None and "resource" in err.lower()


def test_internal_check_failure_exit_code(capsys, write_channel, monkeypatch):
    def broken(*_args, **_kwargs):
        raise InternalCheckError("witness failed verification")

    monkeypatch.setattr(cli, "contains", broken)
    path = write_channel("a.json", bsc("1/10"))
    code, report, err = run_cli(capsys, "contain", path, path)
    assert code == 3 and report is None and "internal check failed" in err


def test_failed_ascent_check_exits_3(capsys, write_channel, monkeypatch):
    def broken(*_args, **_kwargs):
        raise InternalCheckError("ascent subproblem produced an invalid payoff")

    monkeypatch.setattr(metric, "_restricted_ascent", broken)
    a = write_channel("a.json", bsc(0))
    b = write_channel("b.json", bsc("1/2"))
    code, report, err = run_cli(
        capsys, "dist-brm", a, b, "--nmax", "2", "--mmax", "2", "--budget", "4"
    )
    assert code == 3 and report is None and "internal check failed" in err


def test_nan_eps_is_an_input_error(capsys, write_channel):
    a = write_channel("a.json", bsc("11/100"))
    code, report, err = run_cli(capsys, "capacity", a, "--eps", "nan")
    assert code == 1 and report is None and "input error" in err


def test_eps_below_double_precision_is_an_input_error(capsys, write_channel):
    a = write_channel("a.json", random_channel(3, 3, 1, 9))
    code, report, err = run_cli(capsys, "capacity", a, "--eps", "1e-17")
    assert code == 1 and report is None and "input error" in err


def test_cap_flags_only_on_subcommands_that_read_them(capsys, write_channel):
    a = write_channel("a.json", bsc("11/100"))
    for command in ("capacity", "srank"):
        code, report, err = run_cli(capsys, command, a, "--max-pairs", "1")
        assert code == 1 and report is None and "usage error" in err


@pytest.mark.parametrize("rows", [5, [None]])
def test_malformed_channel_rows_are_an_input_error(capsys, tmp_path, rows):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input_size": 1, "output_size": 1, "rows": rows}))
    code, report, err = run_cli(capsys, "capacity", str(bad))
    assert code == 1 and report is None and "malformed channel JSON" in err


@pytest.mark.parametrize("command, games", [("brm-opt", 1), ("region-subset", 2)])
def test_malformed_payoff_rows_are_an_input_error(capsys, tmp_path, command, games):
    game = game_to_json(BrmGame(1, 1, 1, 2, ((Rat(1), Rat(0)),), identity_channel(1)))
    game["l"] = ["10"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(game))
    code, report, err = run_cli(capsys, command, *[str(bad)] * games)
    assert code == 1 and report is None and "malformed game JSON" in err


def test_out_of_range_cap_flags_are_usage_errors(capsys, write_channel):
    a = write_channel("a.json", bsc("1/10"))
    for value in ("0", "-5"):
        code, report, err = run_cli(capsys, "contain", a, a, "--max-pairs", value)
        assert code == 1 and report is None and "usage error" in err
    code, report, err = run_cli(
        capsys, "perr", a, "--n", "1", "--M", "2", "--max-outputs-pow", "-1"
    )
    assert code == 1 and report is None and "usage error" in err
    code, report, _err = run_cli(capsys, "contain", a, a, "--max-pairs", "1")
    assert code == 0 and report["verdict"] == "contains"
    # A cap of 10^0 = 1 parses; the two output blocks then exceed it.
    code, report, err = run_cli(
        capsys, "perr", a, "--n", "1", "--M", "1", "--max-outputs-pow", "0"
    )
    assert code == 2 and report is None and "cap 1)" in err


def test_outputs_pow_above_18_is_a_usage_error(capsys, write_channel):
    # 10^N is never computed for an N out of range.
    a = write_channel("a.json", bsc("1/10"))
    for value in ("19", str(10**7)):
        code, report, err = run_cli(
            capsys, "perr", a, "--n", "1", "--M", "1", "--max-outputs-pow", value
        )
        assert code == 1 and report is None and "must be in 0..18" in err
    code, report, _err = run_cli(
        capsys, "perr", a, "--n", "1", "--M", "1", "--max-outputs-pow", "18"
    )
    assert code == 0 and report["error_probability"] == "0"


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, report, err = run_cli(capsys, "contain", str(deep), str(deep))
    assert code == 1 and report is None
    assert err.startswith("input error:") and "nested too deeply" in err


def test_pivot_budget_exhaustion_exits_2(capsys, write_channel, monkeypatch):
    monkeypatch.setattr(
        ordering,
        "priced_hull",
        lambda point, price, scale: priced_hull(point, price, scale, max_pivots=0),
    )
    a = write_channel("a.json", identity_channel(2))
    b = write_channel("b.json", bsc("1/10"))
    code, report, err = run_cli(capsys, "contain", a, b)
    assert code == 2 and report is None and "pivot budget" in err


def test_degrade_pivot_budget_exhaustion_exits_2(capsys, write_channel, monkeypatch):
    monkeypatch.setattr(
        ordering,
        "priced_hull",
        lambda point, price, scale: priced_hull(point, price, scale, max_pivots=0),
    )
    a = write_channel("a.json", bsc("1/4"))
    b = write_channel("b.json", identity_channel(2))
    code, report, err = run_cli(capsys, "degrade", a, b)
    assert code == 2 and report is None and "pivot budget" in err


def test_non_integer_channel_size_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input_size": 1.9, "output_size": True, "rows": [["1"]]}))
    code, report, err = run_cli(capsys, "capacity", str(bad))
    assert code == 1 and report is None and "malformed channel JSON" in err


def test_a_cap_failure_with_an_unprintable_count_exits_2(capsys, tmp_path):
    # 2^14300 pairs has more digits than Python prints as a str.
    y = 14300
    w = {"input_size": 1, "output_size": y, "rows": [["1"] + ["0"] * (y - 1)]}
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"u": 1, "x": 1, "y": y, "v": 2, "l": [["1/2", "1/2"]], "w": w}))
    code, report, err = run_cli(capsys, "region", str(game))
    assert code == 2 and report is None
    assert "has at least 2^14300 elements (cap 65536)" in err


MULTISETS = "codebook enumeration has more than 1000000 multisets (cap 1000000)"
ONE_INPUT = make_channel([["1/3", "2/3"]])


# On the BSC, 2^n words decide the first three by bit length; in the
# fourth, 2^19 words do not, and the count C(2^19 + 399999, 400000) is at
# least 2^400000. A one-input channel has a single multiset for every n
# and M, so its blocks and its codewords are capped on their own.
@pytest.mark.parametrize(
    "w, n, m, message",
    [
        *(
            pytest.param(bsc("1/10"), n, m, MULTISETS, id=f"{n}-{m}")
            for n, m in [
                ("20", "400000"), ("30", "100000000"), ("100000000", "2"), ("19", "400000")
            ]
        ),
        pytest.param(
            ONE_INPUT, "100000000", "2",
            "output enumeration has more than 1000000 blocks (cap 1000000)",
            id="one-input-100000000-2",
        ),
        pytest.param(
            ONE_INPUT, "2", "100000000",
            "codebook enumeration has 100000000 codewords per codebook (cap 1000000)",
            id="one-input-2-100000000",
        ),
    ],
)
def test_perr_decides_a_huge_codebook_count_at_once(capsys, write_channel, w, n, m, message):
    a = write_channel("a.json", w)
    started = time.perf_counter()
    code, report, err = run_cli(capsys, "perr", a, "--n", n, "--M", m)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and report is None
    assert message in err


def test_cap_messages_print_the_count_or_a_power_of_two_below_it():
    enforce_cap(5, 5, "enumeration", "elements")
    for count, text in [(6, "6"), (None, "more than 5"), (3 * 2**20000, "at least 2^20001")]:
        with pytest.raises(ResourceLimitError) as caught:
            enforce_cap(count, 5, "enumeration", "elements")
        assert str(caught.value) == f"enumeration has {text} elements (cap 5)"


def test_one_secret_or_one_action_dist_brm_reports_zero(capsys, write_channel):
    a = write_channel("a.json", random_channel(2, 3, 31, 6))
    b = write_channel("b.json", random_channel(3, 2, 32, 6))
    for flag in ("--nmax", "--mmax"):
        code, report, _err = run_cli(
            capsys, "dist-brm", a, b, flag, "1", "--budget", "5", "--seed", "2"
        )
        assert code == 0
        assert report["estimate"]["lower_bound"] == "0"
        assert report["estimate"]["game_dims"] == [1, 1]
        # b has three inputs, so a cap of two encoders is exceeded.
        code, report, err = run_cli(
            capsys, "dist-brm", a, b, flag, "1", "--max-pairs", "2"
        )
        assert code == 2 and report is None and "resource" in err.lower()


# rand and embed build n·m entries from two flags: a count above
# cli.MAX_ENTRIES exits 2 at once, before any row is built, and a count at
# the cap (lowered here to 6, so the run is short) is answered. A size
# below 1 is a usage error, so two negative sizes never multiply into a cap.
@pytest.mark.parametrize("command, n, m", [("rand", "--n", "--m"), ("embed", "--n2", "--m2")])
def test_rand_and_embed_cap_their_entries(capsys, write_channel, monkeypatch, command, n, m):
    if command == "rand":
        head = ["rand", "--seed", "1"]
    else:
        head = ["embed", write_channel("a.json", bsc("1/10"))]
    started = time.perf_counter()
    code, report, err = run_cli(capsys, *head, n, "1000000000", m, "2")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and report is None
    assert "has 2000000000 entries (cap 1000000)" in err
    monkeypatch.setattr(cli, "MAX_ENTRIES", 6)
    code, report, _err = run_cli(capsys, *head, n, "3", m, "2")
    assert code == 0 and report["channel"]["input_size"] == 3
    code, report, err = run_cli(capsys, *head, n, "4", m, "2")
    assert code == 2 and report is None and "has 8 entries (cap 6)" in err
    code, report, err = run_cli(capsys, *head, n, "-4", m, "-2")
    assert code == 1 and report is None and "must be >= 1, got -4" in err
