"""Fixed-budget best-arm identification toolkit.

Single-pull baselines (uniform exploration, successive rejects, sequential
halving) next to a combinatorial strategy that pulls binary arm groups and
decodes the best arm from likelihood-ratio detections, plus hardness and
error-bound calculators, a seeded Monte-Carlo harness, and two case studies
(jammer waveform selection, radar channel detection).

The names below are what the command line and the README use; everything
else lives in the submodules.
"""

import os
import sys

# No bestarm code calls BLAS, yet OpenBLAS starts worker threads that spin
# for about 0.1 s of CPU once it loads. OpenBLAS reads its thread count
# once, when it loads, so numpy is imported here with one thread and the
# variable is then removed, so that child processes and later libraries do
# not inherit it. A thread count the user set, or a numpy that a host
# program loaded first, is left as it is.
if "numpy" not in sys.modules and not any(
    name in os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .core import (
    BanditInstance,
    Bernoulli,
    Gaussian,
    gap_profile,
)
from .errors import (
    BestArmError,
    BudgetTooSmall,
    ConfigParse,
    CsvFormatError,
    DegenerateInterval,
    DuplicateBestArm,
    IndexOutOfRange,
    InvalidK,
    IoFailure,
    SeparabilityViolated,
    SupportViolation,
)
from .grouping import construct_groups
from .hardness import bound_re, hardness
from .policies import BanditEnv, ReOptions, run_policy
from .experiments import (
    RESULT_COLUMNS,
    ExperimentConfig,
    InstanceSpec,
    experiment_config_from_json,
    group_mean_distribution,
    group_mean_distribution_rows,
    instance_from_json,
    parse_grid,
    result_rows,
    run_experiment,
    theoretical_bound,
)
from .casestudies import (
    RadarScenario,
    run_jammer_experiment,
    run_radar_experiment,
)

__all__ = [
    "BanditInstance", "Bernoulli", "Gaussian", "gap_profile",
    "BestArmError", "BudgetTooSmall", "ConfigParse", "CsvFormatError",
    "DegenerateInterval", "DuplicateBestArm", "IndexOutOfRange",
    "InvalidK", "IoFailure",
    "SeparabilityViolated", "SupportViolation",
    "construct_groups", "bound_re", "hardness",
    "BanditEnv", "ReOptions", "run_policy",
    "RESULT_COLUMNS", "ExperimentConfig", "InstanceSpec",
    "experiment_config_from_json", "group_mean_distribution",
    "group_mean_distribution_rows", "instance_from_json", "parse_grid",
    "result_rows", "run_experiment", "theoretical_bound",
    "RadarScenario", "run_jammer_experiment", "run_radar_experiment",
]

__version__ = "0.1.0"
