"""Hostile command-line values: every subcommand exits 0, or exits 1 or 2
with exactly one JSON error object on stderr, and never with a traceback.
Usage errors, such as a non-numeric --K, exit 2 by SystemExit.

Each example runs `bestarm.cli.main` in-process. Values that would make a
run long or large (huge K, budgets, samples or bins) must be refused before
any work, so the safe values around them stay small: at most three trials,
K at most 16 and budgets of a few hundred plays.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestarm.cli import main

WORDS = [
    "nan", "NaN", "inf", "-inf", "1e400", "1e300", "-1e300", "1.7e308",
    "-1.7e308", "abc", "", " ", "0x10", "1.5", "-0", "-1", "0", str(2**63),
    str(-(2**63) - 1), str(10**30), "1_000", "٣",
]
HUGE = st.integers(min_value=2**33, max_value=10**40).map(str)
NEGATIVE = st.integers(min_value=-(10**40), max_value=-1).map(str)
HOSTILE = st.sampled_from(WORDS) | HUGE | NEGATIVE
# finite values whose squares, sums or spans overflow
OVERFLOWING = ["1e300", "-1e300", "1.7e308", "-1.7e308"]
FLOATS = st.sampled_from(OVERFLOWING) | HOSTILE
GRIDS = st.sampled_from([
    "1:1e300:1", "2:1e300:x2", "nan:5:1", "1:inf:1", "1:5:0", "1:5:-1",
    "5:1:x2", "1:5:x1", "1:5:xnan", "0:4:x2", "1,,2", "1:2", "1:2:3:4",
    ",", "nan", "inf", "1e300", "-5,3", "3,-5", "abc", "1e-300:1:x1.0000001",
    "1e300,2",
]) | HOSTILE


def small(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(str)


def trials():
    # never huge: a huge trial count is a long run, not a wrong input
    return small(1, 3) | st.sampled_from(
        ["0", "-1", "-5", "nan", "abc", "", "1.5", "1e3", str(-(10**30))]
    )


def write_capture(workdir: Path, value: str, row: int) -> Path:
    """A 120-sample capture whose windows outshine the idle channels, but
    for the I sample `value` at `row`."""
    rows = [f"{k},5.0,0.25\n" for k in range(120)]
    rows[row] = f"{row},{value},0.25\n"
    path = workdir / "capture.csv"
    path.write_text("n,i,q\n" + "".join(rows))
    return path


# pick() calls per subcommand, counting flags that are drawn only sometimes
PICKS = {
    "groups": 1, "hardness": 0, "bounds": 2, "simulate": 8,
    "case-jammer": 4, "case-radar": 5, "group-mean-dist": 7,
}


@st.composite
def cli_args(draw, workdir: Path):
    sub = draw(st.sampled_from(list(PICKS)))
    # one flag of the call (or, at slot PICKS[sub], none) takes a hostile
    # value, so that the others let the run reach the code that must refuse it
    hostile_slot = draw(st.integers(0, PICKS[sub]))
    slots = iter(range(PICKS[sub]))

    def pick(draw, safe, hostile=HOSTILE):
        return draw(hostile if next(slots) == hostile_slot else safe)

    if sub == "groups":
        return ["groups", "--K", pick(draw, small(2, 16))]
    if sub in ("hardness", "bounds"):
        means = draw(st.lists(
            st.sampled_from([1.0, 0.5, 0.2, 0.0, -1.0, 1e308, -1e308, 1e200,
                             float("nan"), float("inf"), "x", None, True, "0.5"]),
            max_size=5,
        ))
        family = draw(st.sampled_from(
            [{"gaussian": {"sigma2": 0.1}}, "bernoulli", {"gaussian": {"sigma2": -1}},
             "bounded"]
        ))
        path = workdir / "instance.json"
        path.write_text(json.dumps({"means": means, "family": family}))
        if sub == "hardness":
            return ["hardness", "--instance", str(path)]
        budgets = pick(draw, st.sampled_from(["4,40", "8:64:x2", "10"]), GRIDS)
        algorithms = pick(
            draw, st.sampled_from(["UE,SR,SH,RE", "UE,RE", "SR"]), HOSTILE | st.just(" , ")
        )
        return [
            "bounds", "--instance", str(path), "--budgets", budgets,
            "--algorithms", algorithms,
        ]
    if sub == "simulate":
        json_value = st.sampled_from([
            float("nan"), float("inf"), -1, 0, 1.5, 1e300, 10**30, 2**63,
            "abc", None, [], {},
        ])
        config = {
            "instance": {
                "K": pick(draw, st.integers(2, 16), json_value),
                "generator": "single_gap",
                "family": draw(st.sampled_from([
                    {"gaussian": {"sigma2": pick(draw, st.just(0.1), json_value)}},
                    "bernoulli",
                    "bounded",
                ])),
                "mu_star": pick(draw, st.just(0.9), json_value),
                "delta_min": pick(draw, st.just(0.5), json_value),
                "delta_max": 0.5,
                "seed": pick(draw, st.integers(0, 5), json_value),
            },
            "budgets": pick(
                draw,
                st.lists(st.integers(1, 200), min_size=1, max_size=3),
                st.lists(st.integers(1, 200) | json_value, min_size=1, max_size=3)
                | GRIDS,
            ),
            "trials": pick(
                draw,
                st.integers(1, 3),
                st.sampled_from([0, -1, float("nan"), "many", None, 1.5]),
            ),
            "master_seed": pick(draw, st.integers(0, 5), json_value),
        }
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        return ["simulate", "--config", str(path)]
    if sub == "case-jammer":
        argv = [
            "case-jammer",
            "--K", pick(draw, small(2, 16)),
            "--T", pick(draw, small(1, 200)),
            "--trials", draw(trials()),
            "--seed", pick(draw, small(0, 5)),
        ]
        if draw(st.booleans()):
            argv += ["--noise-grid", pick(draw, st.just("0.01,0.1"), GRIDS)]
        return argv
    if sub == "case-radar":
        argv = [
            "case-radar",
            "--plays", pick(draw, st.sampled_from(["30", "24,60"]), GRIDS),
            "--trials", draw(trials()),
            "--seed", pick(draw, small(0, 5)),
        ]
        if draw(st.booleans()):
            argv += ["--noise-var", pick(draw, st.just("21"), FLOATS)]
        if draw(st.booleans()):
            argv += ["--active-channel", pick(draw, small(1, 8))]
        if draw(st.booleans()):
            value = pick(draw, st.just("5.0"), FLOATS)
            path = write_capture(workdir, value, draw(st.integers(0, 119)))
            argv += ["--iq", str(path)]
        return argv
    return [
        "group-mean-dist",
        "--K", pick(draw, small(1, 16)),
        "--samples", pick(draw, small(1, 50)),
        "--bins", pick(draw, small(1, 20)),
        "--delta-min", pick(draw, st.just("0.1"), FLOATS),
        "--delta-max", pick(draw, st.just("0.4"), FLOATS),
        "--mu-star", pick(draw, st.just("1.0"), FLOATS),
        "--seed", pick(draw, small(0, 5)),
    ]


def run_main(argv):
    """Exit status, stdout and stderr of one call; a usage error exits
    through SystemExit, as argparse's do."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def assert_one_json_error_or_success(argv):
    status, out, err = run_main(argv)
    assert "Traceback" not in err
    if status == 0:
        # a header and at least one data row: never a silent empty table
        assert err == "" and len(out.splitlines()) >= 2, (argv, out)
        return
    assert status in (1, 2), (argv, status, err)
    lines = err.strip().splitlines()
    assert len(lines) == 1, (argv, err)
    payload = json.loads(lines[0])
    assert set(payload) == {"code", "message"}, (argv, err)
    assert (status == 2) == (payload["code"] == "ConfigParse"), (argv, err)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hostile_values_give_one_json_error_or_success(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(cli_args(Path(tmp)), label="argv")
        assert_one_json_error_or_success(argv)


@pytest.mark.parametrize("value", OVERFLOWING)
@pytest.mark.parametrize(
    "flag", ["--noise-var", "--iq", "--delta-min", "--delta-max", "--mu-star"]
)
def test_overflowing_float_gives_one_json_error_or_success(flag, value, tmp_path):
    """Each float flag, and a capture sample, at each overflowing value with
    every other value safe: the draws above reach these too seldom."""
    if flag in ("--noise-var", "--iq"):
        argv = ["case-radar", "--plays", "24,60", "--trials", "3"]
        if flag == "--iq":
            value = str(write_capture(tmp_path, value, 7))
    else:
        argv = ["group-mean-dist", "--K", "4", "--samples", "10", "--bins", "5"]
    assert_one_json_error_or_success(argv + [f"{flag}={value}"])


@pytest.mark.parametrize(
    "argv",
    [
        ["groups", "--K", "nan"],
        ["case-jammer", "--K", str(10**30), "--trials", "1"],
        ["case-radar", "--plays", "nan", "--trials", "1"],
        ["case-radar", "--plays", "1e300", "--trials", "1"],
        ["group-mean-dist", "--K", str(2**17), "--samples", "1"],
        ["group-mean-dist", "--samples", str(10**12)],
        ["group-mean-dist", "--bins", str(10**30), "--samples", "1"],
        ["simulate"],
        ["no-such-subcommand"],
        ["bounds", "--instance", "{instance}", "--budgets", "10", "--algorithms", ","],
        ["bounds", "--instance", "{instance}", "--budgets", "10", "--algorithms", "REfoo"],
        ["bounds", "--instance", "{instance}", "--budgets", "10", "--algorithms", "UE,UE"],
        ["simulate", "--config", "{config}"],
    ],
)
def test_refused_at_once(argv, tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"means": [1.0, 0.5], "family": "bernoulli"}))
    # an explicit config whose K does not match its means
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "instance": {
            "K": 99, "generator": "explicit", "means": [1.0, 0.5, 0.5, 0.5],
            "family": {"gaussian": {"sigma2": 0.1}},
        },
        "budgets": [8],
        "trials": 1,
    }))
    argv = [a.format(instance=instance, config=config) for a in argv]
    status, out, err = run_main(argv)
    assert status in (1, 2) and out == ""
    assert set(json.loads(err)) == {"code", "message"}
