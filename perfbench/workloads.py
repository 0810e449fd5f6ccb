"""The four benchmark workloads: the CLI arguments each runs for a seed, the
cells its CSV must hold, and the constants the checks need.

Every input is made from the workload seed alone. The program only sees the
generated config file or command-line flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Gaussian single-gap instances (grid-k512, re-exact).
MU_STAR = 1.0
DELTA = 0.5
SIGMA2 = 0.1

GRID_K = 512
GRID_BUDGETS = (576, 768, 960, 1152)
GRID_ALGORITHMS = ("UE", "SR", "SH", "RE")
GRID_TRIALS = 12

RE_K = 1024
RE_BUDGETS = (4096, 8192, 16384, 32768)
RE_TRIALS = 120

# case-jammer defaults.
JAMMER_K = 16
JAMMER_T = 64
JAMMER_TRIALS = 500
JAMMER_NOISE = tuple(float(v) for v in np.geomspace(0.002, 0.02, 6))
JAMMER_ALGORITHMS = ("UE", "SR", "SH", "RE")

# case-radar defaults, apart from the trial count and the active channel.
# RE's work grows with the number of its groups that hold the active channel
# (the bits set in active - 1), so the channel is fixed and the seed drives
# only the trial streams: every seed then does the same work.
RADAR_K = 8
RADAR_FS = 3.2e6
RADAR_DWELL = 30e-6
RADAR_N = int(round(RADAR_FS * RADAR_DWELL))  # 96 complex samples per play
RADAR_NOISE_VAR = 21.0
RADAR_PLAYS = (1200, 3000, 6000)
RADAR_ALGORITHMS = ("SH", "SR", "RE-plugin", "RE-oracle")
RADAR_TRIALS = 100
RADAR_ACTIVE = 6
# Pulse-train law of a play: count 2..6, width, repetition interval and
# initial delay uniform on these ranges (seconds).
RADAR_WIDTH = (10e-6, 16e-6)
RADAR_PRI = (17e-6, 23e-6)
RADAR_DELAY = (1e-6, 10e-6)
RADAR_PULSES = (2, 6)


@dataclass(frozen=True)
class Cell:
    instance_id: str
    algorithm: str
    T: int


@dataclass(frozen=True)
class Inputs:
    """What one round of a workload runs, and what its CSV must hold."""

    workload: str
    argv: tuple[str, ...]  # CLI arguments without --out
    config: str | None  # simulate config JSON, written next to the CSV
    cells: tuple[Cell, ...]
    trials: int

    @property
    def total_trials(self) -> int:
        return self.trials * len(self.cells)


def jammer_label(nv: float) -> str:
    return f"jammer-K{JAMMER_K}-nv{nv:.6g}"


def _gaussian_config(label, K, budgets, trials, seed, algorithms=None) -> str:
    payload = {
        "instance": {
            "K": K,
            "generator": "single_gap",
            "family": {"gaussian": {"sigma2": SIGMA2}},
            "mu_star": MU_STAR,
            "delta_min": DELTA,
            "delta_max": DELTA,
            "seed": seed,
            "label": label,
        },
        "budgets": list(budgets),
        "trials": trials,
        "master_seed": seed,
    }
    if algorithms is not None:
        payload["algorithms"] = list(algorithms)
        payload["re_options"] = {"alpha": 0.0, "prior_mode": "oracle"}
    return json.dumps(payload)


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "grid-k512":
        return Inputs(
            workload,
            ("simulate", "--config", "{config}"),
            _gaussian_config("grid-k512", GRID_K, GRID_BUDGETS, GRID_TRIALS, seed),
            tuple(Cell("grid-k512", a, T) for a in GRID_ALGORITHMS for T in GRID_BUDGETS),
            GRID_TRIALS,
        )
    if workload == "re-exact":
        return Inputs(
            workload,
            ("simulate", "--config", "{config}"),
            _gaussian_config("re-exact", RE_K, RE_BUDGETS, RE_TRIALS, seed, ("RE",)),
            tuple(Cell("re-exact", "RE", T) for T in RE_BUDGETS),
            RE_TRIALS,
        )
    if workload == "jammer":
        return Inputs(
            workload,
            ("case-jammer", "--seed", str(seed)),
            None,
            tuple(
                Cell(jammer_label(nv), a, JAMMER_T)
                for nv in JAMMER_NOISE
                for a in JAMMER_ALGORITHMS
            ),
            JAMMER_TRIALS,
        )
    if workload == "radar":
        return Inputs(
            workload,
            (
                "case-radar",
                "--seed", str(seed),
                "--trials", str(RADAR_TRIALS),
                "--active-channel", str(RADAR_ACTIVE),
            ),
            None,
            tuple(
                Cell(f"radar-K{RADAR_K}", a, T)
                for a in RADAR_ALGORITHMS
                for T in RADAR_PLAYS
            ),
            RADAR_TRIALS,
        )
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("grid-k512", "re-exact", "jammer", "radar")
