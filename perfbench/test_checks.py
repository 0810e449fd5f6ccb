"""The benchmark's checks accept what the program writes and reject doctored
copies of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each workload runs once through the CLI at seed 0 (about 15 s on 2 cores).
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

bestarm_cli = pytest.importorskip("bestarm.cli")

SEED = 0


@pytest.fixture(scope="module")
def ref():
    return reference.load()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """CSV text per workload, as the CLI writes it today."""
    out = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.make_inputs(name, SEED)
        d = tmp_path_factory.mktemp(name)
        if inputs.config is not None:
            (d / "config.json").write_text(inputs.config)
        argv = [a.replace("{config}", str(d / "config.json")) for a in inputs.argv]
        assert bestarm_cli.main(argv + ["--out", str(d / "out.csv")]) == 0
        out[name] = (inputs, (d / "out.csv").read_text())
    return out


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _set_errors(row, errors):
    """A row with another error count and a consistent p_hat and interval."""
    trials = int(row[3])
    lo, hi = checks.wilson(errors, trials)
    return row[:4] + [str(errors), repr(errors / trials), repr(lo), repr(hi)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_accepts_program_output(written, ref, name):
    inputs, text = written[name]
    assert checks.check_csv(text, inputs, ref) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rejects_missing_row(written, ref, name):
    inputs, text = written[name]
    rows = _rows(text)
    del rows[2]
    problems = checks.check_csv(_text(rows), inputs, ref)
    assert len(problems) == 1 and "missing" in problems[0]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rejects_p_hat_not_errors_over_trials(written, ref, name):
    inputs, text = written[name]
    rows = _rows(text)
    rows[1][5] = repr(float(rows[1][5]) + 1.0 / (4 * int(rows[1][3])))
    problems = checks.check_csv(_text(rows), inputs, ref)
    assert len(problems) == 1 and "p_hat" in problems[0]


def test_rejects_wrong_interval_and_trials(written, ref):
    inputs, text = written["jammer"]
    rows = _rows(text)
    rows[1][7] = repr(float(rows[1][7]) * 0.5)
    rows[2][3] = str(int(rows[2][3]) + 1)
    problems = checks.check_csv(_text(rows), inputs, ref)
    assert any("Wilson" in p for p in problems)
    assert any("trials" in p for p in problems)


def test_rejects_empty_cell(written, ref):
    inputs, text = written["grid-k512"]
    rows = _rows(text)
    rows[3][4:] = ["", "", "", ""]
    problems = checks.check_csv(_text(rows), inputs, ref)
    assert len(problems) == 1 and "empty" in problems[0]


@pytest.mark.parametrize(
    "name, algorithm",
    [("re-exact", "RE"), ("grid-k512", "RE"), ("jammer", "RE"), ("radar", "RE-oracle")],
)
def test_rejects_re_error_outside_law(written, ref, name, algorithm):
    inputs, text = written[name]
    rows = _rows(text)
    laws = checks.cell_laws(inputs, ref)
    i = next(i for i, r in enumerate(rows) if r[1] == algorithm)
    key = (rows[i][0], rows[i][1], int(rows[i][2]))
    p = laws[key][0]
    trials = int(rows[i][3])
    # the far end from the law's rate
    rows[i] = _set_errors(rows[i], 0 if p > 0.5 else trials)
    problems = checks.check_csv(_text(rows), inputs, ref)
    assert len(problems) == 1 and "implausible under the RE" in problems[0]


@pytest.mark.parametrize(
    "name, algorithm, T, errors",
    # references: jammer SR 0/4000 at T=64, grid-k512 SH about 0.89 at T=576
    [("jammer", "SR", "64", 100), ("grid-k512", "SH", "576", 0)],
)
def test_rejects_error_far_from_reference(written, ref, name, algorithm, T, errors):
    inputs, text = written[name]
    rows = _rows(text)
    i = next(i for i, r in enumerate(rows) if r[1] == algorithm and r[2] == T)
    rows[i] = _set_errors(rows[i], errors)
    problems = checks.check_csv(_text(rows), inputs, ref)
    assert len(problems) == 1 and "reference" in problems[0]


def test_law_values():
    # jammer RE at nv = 0.02 has error 0.1455; two arms reduce UE to one
    # normal tail.
    assert checks.re_jammer_error(0.02) == pytest.approx(0.1455, abs=5e-4)
    two_arm = checks.NormalDist().cdf(-0.5 / (0.2**0.5))
    assert checks.ue_error(2, 0.5, 0.1, 1) == pytest.approx(two_arm, rel=1e-9)
    # K = 256, T = 512: z = 0.559, 1 - (1 - Q(z))^8 = 0.934
    assert checks.re_gaussian_error(256, 0.5, 0.1, 512) == pytest.approx(0.934, abs=1e-3)


def test_energy_check_rejects_wrong_variance(ref):
    mom = checks.radar_moments(ref["pulse_count_mean"], ref["pulse_count_var"])
    n = 10_000

    def sample(mean, var):
        return {"n": n, "mean": mean, "var": var, "m4": 3 * var * var}

    good = {
        "idle": sample(mom["idle_mean"], mom["idle_var"]),
        "active": sample(mom["active_mean"], mom["active_var"]),
    }
    assert checks.check_energies(good, ref["pulse_count_mean"], ref["pulse_count_var"]) == []
    bad = dict(good, idle=sample(mom["idle_mean"], 1.2 * mom["idle_var"]))
    problems = checks.check_energies(bad, ref["pulse_count_mean"], ref["pulse_count_var"])
    assert len(problems) == 1 and "idle channel energy variance" in problems[0]
