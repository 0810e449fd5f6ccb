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
    "nan", "NaN", "inf", "-inf", "1e400", "1e300", "-1e300", "abc", "", " ",
    "0x10", "1.5", "-0", "-1", "0", str(2**63), str(-(2**63) - 1), str(10**30),
    "1_000", "٣",
]
HUGE = st.integers(min_value=2**33, max_value=10**40).map(str)
NEGATIVE = st.integers(min_value=-(10**40), max_value=-1).map(str)
HOSTILE = st.sampled_from(WORDS) | HUGE | NEGATIVE
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


@st.composite
def cli_args(draw, workdir: Path):
    sub = draw(st.sampled_from([
        "groups", "hardness", "bounds", "simulate",
        "case-jammer", "case-radar", "group-mean-dist",
    ]))
    # one flag of the call (or none) takes a hostile value, so that the
    # others let the run reach the code that must refuse it
    hostile_slot = draw(st.integers(0, 6))
    slots = iter(range(7))

    def pick(draw, safe, hostile=HOSTILE):
        return draw(hostile if next(slots) == hostile_slot else safe)

    if sub == "groups":
        return ["groups", "--K", pick(draw, small(2, 16))]
    if sub in ("hardness", "bounds"):
        means = draw(st.lists(
            st.sampled_from([1.0, 0.5, 0.2, 0.0, -1.0, 1e308, -1e308, 1e200,
                             float("nan"), float("inf"), "x", None]),
            max_size=5,
        ))
        family = draw(st.sampled_from(
            [{"gaussian": {"sigma2": 0.1}}, "bernoulli", {"gaussian": {"sigma2": -1}}]
        ))
        path = workdir / "instance.json"
        path.write_text(json.dumps({"means": means, "family": family}))
        if sub == "hardness":
            return ["hardness", "--instance", str(path)]
        budgets = pick(draw, st.sampled_from(["4,40", "8:64:x2", "10"]), GRIDS)
        return ["bounds", "--instance", str(path), "--budgets", budgets]
    if sub == "simulate":
        json_value = st.sampled_from([
            float("nan"), float("inf"), -1, 0, 1.5, 1e300, 10**30, 2**63,
            "abc", None, [], {},
        ])
        config = {
            "instance": {
                "K": pick(draw, st.integers(2, 16), json_value),
                "generator": "single_gap",
                "family": draw(
                    st.sampled_from([{"gaussian": {"sigma2": 0.1}}, "bernoulli"])
                ),
                "mu_star": 0.9,
                "delta_min": 0.5,
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
            argv += ["--noise-var", pick(draw, st.just("21"))]
        if draw(st.booleans()):
            argv += ["--active-channel", pick(draw, small(1, 8))]
        return argv
    return [
        "group-mean-dist",
        "--K", pick(draw, small(1, 16)),
        "--samples", pick(draw, small(1, 50)),
        "--bins", pick(draw, small(1, 20)),
        "--delta-min", pick(draw, st.just("0.1")),
        "--mu-star", pick(draw, st.just("1.0")),
        "--seed", pick(draw, small(0, 5)),
    ]


def run_main(argv):
    """Exit status and stderr of one call; a usage error exits through
    SystemExit, as argparse's do."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hostile_values_give_one_json_error_or_success(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(cli_args(Path(tmp)), label="argv")
        status, err = run_main(argv)
    assert "Traceback" not in err
    if status == 0:
        assert err == ""
        return
    assert status in (1, 2), (argv, status, err)
    lines = err.strip().splitlines()
    assert len(lines) == 1, (argv, err)
    payload = json.loads(lines[0])
    assert set(payload) == {"code", "message"}, (argv, err)
    assert (status == 2) == (payload["code"] == "ConfigParse"), (argv, err)


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
    ],
)
def test_refused_at_once(argv):
    status, err = run_main(argv)
    assert status in (1, 2)
    assert set(json.loads(err)) == {"code", "message"}
