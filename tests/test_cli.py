"""CLI subcommands, exit codes, and the stderr JSON failure contract."""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bestarm import BanditInstance, Gaussian, RESULT_COLUMNS
from bestarm.cli import main
from bestarm.hardness import bound_ue
from oracles import instance_to_json


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def read_csv_text(text):
    return list(csv.reader(io.StringIO(text)))


def gaussian_instance_file(tmp_path, means, sigma2):
    path = tmp_path / "instance.json"
    inst = BanditInstance(means=tuple(means), family=Gaussian(sigma2))
    path.write_text(instance_to_json(inst))
    return str(path)


# --------------------------------------------------------------------- groups


def test_groups_k8(capsys):
    status, out, err = run_cli(capsys, ["groups", "--K", "8"])
    assert status == 0 and err == ""
    rows = read_csv_text(out)
    assert rows[0] == ["group_id", "members"]
    assert rows[1] == ["G1", "2;4;6;8"]
    assert rows[2] == ["G2", "3;4;7;8"]
    assert rows[3] == ["G3", "5;6;7;8"]


def test_groups_k6_lists_only_real_arms(capsys):
    status, out, err = run_cli(capsys, ["groups", "--K", "6"])
    assert status == 0 and err == ""
    assert read_csv_text(out)[1:] == [["G1", "2;4;6"], ["G2", "3;4"], ["G3", "5;6"]]


def test_groups_rejects_k1(capsys):
    status, out, err = run_cli(capsys, ["groups", "--K", "1"])
    assert status == 1 and out == ""
    payload = json.loads(err)
    assert payload["code"] == "InvalidK"
    assert "message" in payload


def test_unknown_flag_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["groups", "--nope", "4"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- hardness


def test_hardness_single_gap_row(capsys, tmp_path):
    path = gaussian_instance_file(tmp_path, (1.0, 0.5, 0.5, 0.5), 0.1)
    status, out, err = run_cli(capsys, ["hardness", "--instance", path])
    assert status == 0
    header, row = read_csv_text(out)
    assert header == ["K", "H1", "H2", "H3", "H4", "KH4", "margin", "eta"]
    vals = dict(zip(header, row))
    assert float(vals["H1"]) == float(vals["H2"]) == float(vals["H3"]) == 16.0
    assert float(vals["KH4"]) * 4 == 16.0
    assert float(vals["eta"]) == 1.0

    # a generated instance block is an instance file too: its row matches
    # the explicit file of the same means
    explicit = gaussian_instance_file(tmp_path, (1.0,) + (0.5,) * 7, 0.1)
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps({
        "K": 8,
        "generator": "single_gap",
        "family": {"gaussian": {"sigma2": 0.1}},
        "delta_min": 0.5,
        "delta_max": 0.5,
    }))
    runs = [
        run_cli(capsys, ["hardness", "--instance", path])
        for path in (explicit, str(generated))
    ]
    assert runs[0][0] == 0 and runs[1] == runs[0]
    assert read_csv_text(runs[0][1])[1][:2] == ["8", "32.0"]


def test_hardness_missing_file(capsys, tmp_path):
    status, out, err = run_cli(
        capsys, ["hardness", "--instance", str(tmp_path / "absent.json")]
    )
    assert status == 2 and out == ""
    assert json.loads(err)["code"] == "ConfigParse"


# --------------------------------------------------------------------- bounds


def test_bounds_table(capsys, tmp_path):
    path = gaussian_instance_file(tmp_path, (1.0, 0.5, 0.5, 0.5), 0.1)
    status, out, err = run_cli(
        capsys,
        ["bounds", "--instance", path, "--budgets", "4,40",
         "--algorithms", "UE,SR,RE"],
    )
    assert status == 0
    rows = read_csv_text(out)
    assert rows[0] == ["algorithm", "T", "bound"]
    cells = {(r[0], int(r[1])): r[2] for r in rows[1:]}
    assert len(cells) == 6
    assert float(cells[("UE", 40)]) == pytest.approx(
        bound_ue("gaussian", 4, 40, 16.0, 0.1)
    )
    assert cells[("SR", 4)] == ""  # bound needs T > K
    assert cells[("SR", 40)] != ""
    assert float(cells[("RE", 40)]) > 0


def test_bounds_blank_for_unpadded_group_bound(capsys, tmp_path):
    # six arms: the grouped bound applies only to power-of-two K
    path = gaussian_instance_file(tmp_path, (1.0,) + (0.5,) * 5, 0.1)
    status, out, err = run_cli(
        capsys,
        ["bounds", "--instance", path, "--budgets", "40", "--algorithms", "RE"],
    )
    assert status == 0
    rows = read_csv_text(out)
    assert rows[1] == ["RE", "40", ""]


@pytest.mark.parametrize("subcommand", ["hardness", "bounds"])
@pytest.mark.parametrize("K", ["x", None, 2.5])
def test_instance_file_k_not_a_whole_number_exits_2(capsys, tmp_path, subcommand, K):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"K": K, "means": [1.0, 0.5], "family": "bernoulli"}))
    argv = [subcommand, "--instance", str(path)]
    if subcommand == "bounds":
        argv += ["--budgets", "40"]
    out_path = tmp_path / "out.csv"
    status, out, err = run_cli(capsys, argv + ["--out", str(out_path)])
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)


def run_cli_process(cli_env, argv):
    """The CLI in a fresh interpreter, so stderr holds everything the process
    writes there, numpy's warnings included."""
    return subprocess.run(
        [sys.executable, "-m", "bestarm", *argv],
        env=cli_env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("subcommand", ["hardness", "bounds"])
def test_gaps_that_overflow_the_hardness_terms_fail(tmp_path, cli_env, subcommand):
    """A gap of 1e-200 squares to zero: H1-H4 would read inf and eta
    min(1, inf * 0). The instance is refused with one JSON line instead."""
    path = tmp_path / "instance.json"
    path.write_text('{"means": [1e-200, 0], "family": {"gaussian": {"sigma2": 0.1}}}')
    argv = [subcommand, "--instance", str(path)]
    if subcommand == "bounds":
        argv += ["--budgets", "4,8"]
    proc = run_cli_process(cli_env, argv)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "SupportViolation"


def test_bounds_tiny_variance_writes_zeros_and_no_warning(tmp_path, cli_env):
    """With sigma2 = 1e-320 every exponent t/s overflows to inf: each bound
    is 0.0, and numpy's overflow is no warning on stderr."""
    path = tmp_path / "instance.json"
    path.write_text('{"means": [1, 0.5], "family": {"gaussian": {"sigma2": 1e-320}}}')
    proc = run_cli_process(
        cli_env, ["bounds", "--instance", str(path), "--budgets", "4,8"]
    )
    assert proc.returncode == 0 and proc.stderr == ""
    rows = read_csv_text(proc.stdout)
    assert len(rows) == 1 + 4 * 2
    assert all(float(r[2]) == 0.0 for r in rows[1:])


def test_bounds_rejects_unknown_algorithm(capsys, tmp_path):
    path = gaussian_instance_file(tmp_path, (1.0, 0.5), 0.1)
    status, out, err = run_cli(
        capsys,
        ["bounds", "--instance", path, "--budgets", "40", "--algorithms", "XX"],
    )
    assert status == 2
    assert json.loads(err)["code"] == "ConfigParse"


# ------------------------------------------------------------------- simulate


SIM_CONFIG = {
    "instance": {
        "K": 4,
        "generator": "single_gap",
        "family": {"gaussian": {"sigma2": 0.1}},
        "delta_min": 0.5,
        "delta_max": 0.5,
    },
    "budgets": "8:16:x2",
    "algorithms": "UE,RE",
    "trials": 12,
    "master_seed": 5,
}


def test_simulate_writes_csv(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out_path = tmp_path / "result.csv"
    status, out, err = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)]
    )
    assert status == 0 and out == "" and err == ""
    rows = read_csv_text(out_path.read_text())
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 1 + 2 * 2  # two algorithms, two budgets
    assert {r[1] for r in rows[1:]} == {"UE", "RE"}

    first_bytes = out_path.read_bytes()
    status, _, _ = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)]
    )
    assert status == 0
    assert out_path.read_bytes() == first_bytes


def test_simulate_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SIM_CONFIG, "oops": 1}))
    status, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert status == 2
    assert json.loads(err)["code"] == "ConfigParse"


def test_simulate_tied_best_arm_fails_before_any_row(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "instance": {
            "generator": "explicit",
            "means": [1.0, 1.0, 0.5, 0.5],
            "family": {"gaussian": {"sigma2": 0.1}},
        },
        "budgets": [64, 128],
        "algorithms": "UE,SR,SH,RE",
        "trials": 5,
    }))
    out_path = tmp_path / "result.csv"
    status, out, err = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)]
    )
    assert status == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "DuplicateBestArm"
    assert not out_path.exists()


def test_simulate_unwritable_out(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    status, out, err = run_cli(
        capsys,
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "no" / "x.csv")],
    )
    assert status == 1
    assert json.loads(err)["code"] == "IoFailure"


# --------------------------------------------------------------- case studies


def test_case_jammer_cli(capsys, tmp_path):
    out_path = tmp_path / "jammer.csv"
    status, out, err = run_cli(
        capsys,
        ["case-jammer", "--K", "8", "--noise-grid", "0.002,0.02", "--T", "32",
         "--trials", "10", "--out", str(out_path)],
    )
    assert status == 0 and err == ""
    rows = read_csv_text(out_path.read_text())
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 1 + 2 * 4  # two noise levels, four algorithms
    assert rows[1][0] == "jammer-K8-nv0.002"


def test_case_radar_cli(capsys, tmp_path):
    out_path = tmp_path / "radar.csv"
    status, out, err = run_cli(
        capsys,
        ["case-radar", "--plays", "300", "--trials", "3", "--noise-var", "21",
         "--active-channel", "2", "--out", str(out_path)],
    )
    assert status == 0 and err == ""
    rows = read_csv_text(out_path.read_text())
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 1 + 4  # SH, SR, RE-plugin, RE-oracle at one budget
    assert {r[1] for r in rows[1:]} == {"SH", "SR", "RE-plugin", "RE-oracle"}
    assert all(r[0] == "radar-K8" for r in rows[1:])


def assert_one_error(status, out, err, code, out_path, exit_code=1):
    assert status == exit_code and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == code
    assert not out_path.exists()


def test_case_radar_noise_var_keeps_seed_drawn_channel(capsys, tmp_path):
    # seed 3 draws channel 2; naming the default noise variance keeps it
    argv = ["case-radar", "--plays", "300", "--trials", "3", "--seed", "3"]
    outputs = []
    for k, extra in enumerate(([], ["--noise-var", "21"])):
        out_path = tmp_path / f"radar{k}.csv"
        status, out, err = run_cli(capsys, argv + extra + ["--out", str(out_path)])
        assert status == 0 and err == ""
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_case_radar_weak_capture_fails(capsys, tmp_path, monkeypatch):
    # unit-variance noise has window energy 2N, below the idle channels'
    # N * 21, so the idle channels tie for the best arm
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("bestarm.experiments.run_policy", no_trial)
    capture = tmp_path / "weak.csv"
    r = np.random.default_rng(3)
    capture.write_text(
        "n,i,q\n" + "".join(f"{k},{r.normal()},{r.normal()}\n" for k in range(200))
    )
    out_path = tmp_path / "radar.csv"
    status, out, err = run_cli(
        capsys,
        ["case-radar", "--iq", str(capture), "--active-channel", "2",
         "--plays", "300", "--trials", "5", "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "DuplicateBestArm", out_path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_case_radar_non_finite_noise_var_fails(capsys, tmp_path, value):
    out_path = tmp_path / "radar.csv"
    status, out, err = run_cli(
        capsys,
        ["case-radar", "--noise-var", value, "--plays", "300", "--trials", "3",
         "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "SupportViolation", out_path)


def test_case_radar_noise_var_whose_variance_overflows_fails(capsys, tmp_path):
    # 96 * 1e308**2 overflows the idle play variance N * noise_var**2
    out_path = tmp_path / "radar.csv"
    status, out, err = run_cli(
        capsys,
        ["case-radar", "--noise-var", "1e308", "--plays", "300", "--trials", "3",
         "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "SupportViolation", out_path)
    assert "noise_var" in json.loads(err)["message"]


@pytest.mark.parametrize("value", ["inf", "nan", "1e200"])
def test_case_radar_hostile_capture_fails_once(capsys, tmp_path, value):
    """A capture with a non-finite sample is refused at its row; one whose
    window energies overflow is refused whole, with no numpy warning."""
    capture = tmp_path / "hostile.csv"
    rows = [f"{k},0.5,0.25\n" for k in range(200)]
    rows[3] = f"3,{value},0.1\n"
    capture.write_text("n,i,q\n" + "".join(rows))
    out_path = tmp_path / "radar.csv"
    status, out, err = run_cli(
        capsys,
        ["case-radar", "--iq", str(capture), "--plays", "300", "--trials", "3",
         "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "CsvFormatError", out_path)
    message = json.loads(err)["message"]
    assert ("row 5" in message) == (value != "1e200"), message


def test_case_jammer_nan_noise_fails(capsys, tmp_path):
    out_path = tmp_path / "jammer.csv"
    status, out, err = run_cli(
        capsys,
        ["case-jammer", "--K", "8", "--noise-grid", "nan", "--T", "32",
         "--trials", "5", "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "SupportViolation", out_path)


@pytest.mark.parametrize("algorithms", ["UE", "SR", "SH", "RE", "UE,SR,SH,RE"])
def test_simulate_variance_too_large_for_the_budget_fails(capsys, tmp_path, algorithms):
    # 64 * 1e308 overflows, so no 64-play sum has a finite variance
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "instance": {
            "K": 8,
            "generator": "single_gap",
            "delta_min": 0.5,
            "delta_max": 0.5,
            "family": {"gaussian": {"sigma2": 1e308}},
        },
        "budgets": [64],
        "algorithms": algorithms,
        "trials": 10,
        "master_seed": 1,
    }))
    out_path = tmp_path / "result.csv"
    status, out, err = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "SupportViolation", out_path)


def test_case_jammer_noise_too_large_for_the_budget_fails(capsys, tmp_path):
    # the first noise level runs; the second refuses, and no row is written
    out_path = tmp_path / "jammer.csv"
    status, out, err = run_cli(
        capsys,
        ["case-jammer", "--K", "8", "--noise-grid", "0.1,1e307", "--T", "32",
         "--trials", "5", "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "SupportViolation", out_path)


def test_case_radar_csv_determinism(tmp_path, cli_env):
    """Two runs of one case-radar invocation write the same bytes."""
    argv = [sys.executable, "-m", "bestarm.cli", "case-radar", "--plays",
            "300,600", "--trials", "12", "--seed", "4"]
    outputs = []
    for k in range(2):
        out = tmp_path / f"run{k}.csv"
        proc = subprocess.run(
            argv + ["--out", str(out)],
            env=cli_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) == 1 + 2 * 4
    assert outputs[1] == outputs[0]


def test_group_mean_dist_cli(capsys):
    status, out, err = run_cli(
        capsys,
        ["group-mean-dist", "--K", "8", "--samples", "2000", "--bins", "20"],
    )
    assert status == 0
    rows = read_csv_text(out)
    assert rows[0] == ["variable", "bin_lo", "bin_hi", "count", "density",
                       "clt_density"]
    assert len(rows) == 1 + 40
    assert {r[0] for r in rows[1:]} == {"mu_H", "mu_L"}


# ------------------------------------------------------ inputs that fail fast


def test_hardness_one_arm_fails(capsys, tmp_path):
    path = gaussian_instance_file(tmp_path, (1.0,), 0.1)
    out_path = tmp_path / "hardness.csv"
    status, out, err = run_cli(
        capsys, ["hardness", "--instance", path, "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "InvalidK", out_path)


def test_hardness_nan_mean_fails(capsys, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text('{"means": [NaN, 1.0], "family": {"gaussian": {"sigma2": 0.1}}}')
    out_path = tmp_path / "hardness.csv"
    status, out, err = run_cli(
        capsys, ["hardness", "--instance", str(path), "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)


def test_hardness_bounded_family_is_refused(capsys, tmp_path):
    # "bernoulli" draws the same law, and the message says so
    path = tmp_path / "instance.json"
    path.write_text('{"means": [1.0, 0.5], "family": "bounded"}')
    out_path = tmp_path / "hardness.csv"
    status, out, err = run_cli(
        capsys, ["hardness", "--instance", str(path), "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)
    assert '"bernoulli"' in json.loads(err)["message"]


def with_instance(**fields):
    return {"instance": {**SIM_CONFIG["instance"], **fields}}


@pytest.mark.parametrize(
    "override",
    [
        {"trials": "many"},
        {"master_seed": -1},
        {"re_options": {"eta_override": 0.5}},
        # whole numbers: neither truncated nor read as one trial
        {"trials": 1.5},
        {"trials": True},
        {"master_seed": 2.7},
        {"instance": {**SIM_CONFIG["instance"], "seed": 1.2}},
        {"instance": {**SIM_CONFIG["instance"], "K": 4.9}},
        {"algorithms": "UE,UE"},
        # every number a finite JSON number, every object read key by key
        with_instance(family={"gaussian": {"sigma2": "0.1"}}),
        with_instance(family={"gaussian": {"sigma2": True}}),
        with_instance(family={"gaussian": {"sigma2": float("nan")}}),
        with_instance(family={"gaussian": {"sigma2": 0.1, "typo": 5}}),
        with_instance(family={"gaussian": {"sigma2": 0.1}, "extra": 1}),
        with_instance(mu_star="0.9"),
        with_instance(mu_star=float("nan")),
        with_instance(generator="explicit", means=[float("nan"), 1.0, 0.5, 0.5]),
        {"re_options": {"alpha": "0.5", "prior_mode": "plugin"}},
        {"budgets": [True]},
        {"budgets": ["8"]},
        with_instance(label=[1]),
        with_instance(label=7),
        # a value outside its family's support, given or generated
        with_instance(family={"gaussian": {"sigma2": -1}}),
        with_instance(family="bernoulli", mu_star=1.5),
    ],
)
def test_simulate_bad_config_value_exits_2(capsys, tmp_path, override):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SIM_CONFIG, **override}))
    out_path = tmp_path / "result.csv"
    status, out, err = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)


@pytest.mark.parametrize(
    "argv, code, exit_code",
    [
        (["case-jammer", "--noise-grid", ""], "ConfigParse", 2),
        (["case-radar", "--iq", ""], "IoFailure", 1),
    ],
    ids=["case-jammer --noise-grid ''", "case-radar --iq ''"],
)
def test_empty_flag_value_is_not_the_default(capsys, tmp_path, argv, code, exit_code):
    """An empty grid or capture path is refused, not read as "not given"."""
    out_path = tmp_path / "out.csv"
    status, out, err = run_cli(capsys, argv + ["--trials", "3", "--out", str(out_path)])
    assert_one_error(status, out, err, code, out_path, exit_code=exit_code)


def test_empty_out_path_fails_instead_of_writing_stdout(capsys):
    status, out, err = run_cli(capsys, ["groups", "--K", "8", "--out", ""])
    assert status == 1 and out == ""
    assert [json.loads(line)["code"] for line in err.splitlines()] == ["IoFailure"]


def test_case_jammer_zero_trials_exits_2(capsys, tmp_path):
    out_path = tmp_path / "jammer.csv"
    status, out, err = run_cli(
        capsys, ["case-jammer", "--trials", "0", "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["case-jammer", "--seed", "-1", "--trials", "3"],
        ["case-radar", "--seed", "-1", "--trials", "3"],
        ["group-mean-dist", "--seed", "-1"],
        ["case-jammer", "--T", "-5", "--trials", "3"],
        ["case-radar", "--plays", "-300", "--trials", "3"],
        ["case-radar", "--plays", "0.4", "--trials", "3"],  # rounds to T = 0
        ["group-mean-dist", "--bins", "0"],
        ["group-mean-dist", "--delta-min", "nan"],
        ["group-mean-dist", "--mu-star", "inf"],
        # gap sums, and a gap span, that overflow
        ["group-mean-dist", "--K", "4", "--delta-min", "1e308",
         "--delta-max", "1.7e308", "--samples", "10"],
        ["group-mean-dist", "--delta-min=-1.7e308", "--delta-max", "1.7e308"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_seed_budget_or_histogram_exits_2(capsys, tmp_path, argv):
    out_path = tmp_path / "out.csv"
    status, out, err = run_cli(capsys, argv + ["--out", str(out_path)])
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["groups", "--K", "65537"], ["case-jammer", "--K", "65537", "--trials", "1"]],
    ids=lambda argv: " ".join(argv),
)
def test_k_above_max_k_fails(capsys, tmp_path, argv):
    out_path = tmp_path / "out.csv"
    status, out, err = run_cli(capsys, argv + ["--out", str(out_path)])
    assert_one_error(status, out, err, "InvalidK", out_path)


def test_simulate_k_above_max_k_exits_2(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    instance = {**SIM_CONFIG["instance"], "K": 65537}
    cfg.write_text(json.dumps(
        {**SIM_CONFIG, "instance": instance, "budgets": [8], "trials": 1}
    ))
    out_path = tmp_path / "result.csv"
    status, out, err = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)]
    )
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)


def test_bounds_huge_grid_exits_2(capsys, tmp_path):
    # 1e12 budgets: counted, not built, so this returns at once
    path = gaussian_instance_file(tmp_path, (1.0, 0.5), 0.1)
    out_path = tmp_path / "bounds.csv"
    status, out, err = run_cli(
        capsys,
        ["bounds", "--instance", path, "--budgets", "1:1e12:1",
         "--out", str(out_path)],
    )
    assert_one_error(status, out, err, "ConfigParse", out_path, exit_code=2)


# ------------------------------------------------------------ console script


def test_console_script_wiring(cli_env):
    """pyproject.toml maps `bestarm` to `bestarm.cli:main`, and the call an
    installed console script makes runs the CLI from a source checkout."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["bestarm"] == "bestarm.cli:main"
    script = "import sys; from bestarm.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "groups", "--K", "4"],
        env=cli_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "group_id,members"
    assert proc.stdout.splitlines()[1] == "G1,2;4"


def test_python_m_bestarm(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "bestarm", "groups", "--K", "4"],
        env=cli_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["group_id,members", "G1,2;4", "G2,3;4"]


@pytest.mark.skipif(shutil.which("bestarm") is None,
                    reason="bestarm console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        [shutil.which("bestarm"), "groups", "--K", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "group_id,members"
    assert proc.stdout.splitlines()[1] == "G1,2;4"


# ------------------------------------------------------------- BLAS threads

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Imports the modules named in argv[1], sleeps argv[2] seconds, and reports
# the process's OS threads, its CPU time across the sleep, and whether the
# imports left os.environ as they found it.
PROBE = """
import json, os, sys, time
before = dict(os.environ)
for name in sys.argv[1].split(","):
    __import__(name)
start = time.process_time()
time.sleep(float(sys.argv[2]))
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")),
    "idle_cpu_s": time.process_time() - start,
    "environ_kept": dict(os.environ) == before,
    "openblas_var": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


@pytest.fixture
def probe_env(cli_env):
    """`cli_env` without any BLAS thread setting, where the OS lists a
    process's threads and numpy's BLAS is OpenBLAS."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS")
    return {k: v for k, v in cli_env.items() if k not in BLAS_THREAD_VARS}


def probe(env, modules, sleep_s=0.0):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, modules, str(sleep_s)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_bestarm_starts_no_blas_worker(probe_env):
    """A fresh `import bestarm` runs one OS thread, burns no CPU while it
    sleeps, and takes its one-thread OpenBLAS setting back out of
    os.environ."""
    got = probe(probe_env, "bestarm", 0.3)
    assert got["threads"] == 1
    assert got["idle_cpu_s"] < 0.03
    assert got["environ_kept"]
    assert got["openblas_var"] is None


@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_import_bestarm_keeps_callers_blas_threads(probe_env, name):
    """A thread count the caller set stays in os.environ and is the one
    OpenBLAS runs, as with numpy alone."""
    env = {**probe_env, name: "2"}
    got = probe(env, "bestarm")
    assert got["environ_kept"]
    assert got["threads"] == probe(env, "numpy")["threads"]


def test_import_bestarm_after_numpy_changes_nothing(probe_env):
    """A host that loaded numpy first keeps its environment and its BLAS
    threads."""
    got = probe(probe_env, "numpy,bestarm")
    assert got["environ_kept"]
    assert got["openblas_var"] is None
    assert got["threads"] == probe(probe_env, "numpy")["threads"]
