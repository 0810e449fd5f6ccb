"""Byte-for-byte CSV output of the CLI on fixed inputs.

Each case runs one subcommand in-process and compares the CSV it writes with
a file under tests/golden/. The files pin the RNG contract: a change that
keeps it must reproduce them exactly. A change that alters the draws on
purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bestarm.cli import main

GOLDEN = Path(__file__).parent / "golden"

# K = 512 single-gap Gaussian instance, every policy.
GRID_CONFIG = {
    "instance": {
        "K": 512,
        "generator": "single_gap",
        "family": {"gaussian": {"sigma2": 0.1}},
        "mu_star": 1.0,
        "delta_min": 0.5,
        "delta_max": 0.5,
        "seed": 3,
    },
    "budgets": [576, 1152, 4608],
    "algorithms": "UE,SR,SH,RE",
    "trials": 12,
    "master_seed": 7,
}

# K = 12 pads to 16 arms; RE estimates its priors from a 20% first phase.
PADDED_BERNOULLI_CONFIG = {
    "instance": {
        "K": 12,
        "generator": "arithmetic",
        "family": "bernoulli",
        "mu_star": 0.9,
        "delta_min": 0.1,
        "delta_max": 0.5,
        "seed": 2,
    },
    "budgets": [120, 240, 480],
    "algorithms": "UE,SR,SH,RE",
    "trials": 40,
    "master_seed": 11,
    "re_options": {"alpha": 0.2, "prior_mode": "plugin"},
}

CONFIGS = {
    "simulate-grid-k512": GRID_CONFIG,
    "simulate-padded-bernoulli-k12": PADDED_BERNOULLI_CONFIG,
}

ARGV = {
    "case-jammer-k12": ["case-jammer", "--K", "12", "--trials", "50", "--seed", "1"],
    # 20 000 trials at K = 16 run in blocks of 4 096 (UE, SR, SH: rows of
    # K arms) and of 16 384 (RE: rows of m = 4 groups), so every cell spans
    # several blocks and the golden pins the block rule.
    "case-jammer-k16-blocks": [
        "case-jammer", "--K", "16", "--noise-grid", "0.2,0.4",
        "--trials", "20000", "--seed", "2",
    ],
    "case-radar": ["case-radar", "--plays", "300,600", "--trials", "12", "--seed", "4"],
}

# Runs given an I/Q capture for the active channel: 400 samples of complex
# noise, N(0, 3.3^2) on each rail, written as repr floats.
IQ_ARGV = {
    "case-radar-iq": [
        "case-radar", "--plays", "300,600", "--trials", "40", "--seed", "4",
    ],
}

CASES = sorted([*CONFIGS, *ARGV, *IQ_ARGV])


def write_capture(path: Path) -> None:
    rng = np.random.default_rng(27)
    i, q = rng.normal(scale=3.3, size=400), rng.normal(scale=3.3, size=400)
    rows = [f"{n},{a!r},{b!r}" for n, (a, b) in enumerate(zip(i.tolist(), q.tolist()))]
    path.write_text("\n".join(["n,i,q", *rows]) + "\n")


def argv_for(name: str, workdir: Path) -> list[str]:
    if name in CONFIGS:
        cfg = workdir / f"{name}.json"
        cfg.write_text(json.dumps(CONFIGS[name]))
        return ["simulate", "--config", str(cfg)]
    if name in IQ_ARGV:
        capture = workdir / f"{name}-capture.csv"
        write_capture(capture)
        return [*IQ_ARGV[name], "--iq", str(capture)]
    return list(ARGV[name])


def write_csv(name: str, workdir: Path) -> bytes:
    out = workdir / f"{name}.csv"
    assert main(argv_for(name, workdir) + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_csv_matches_golden(name, tmp_path, capsys):
    got = write_csv(name, tmp_path)
    assert capsys.readouterr().err == ""
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            (GOLDEN / f"{name}.csv").write_bytes(write_csv(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)
