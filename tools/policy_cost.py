"""Per-trial CPU cost of each policy, in-process, at K = 16, 256 and 1024.

    PYTHONPATH=src python tools/policy_cost.py [--trials 640] [--seconds 0.25]

Each cell is one `experiments.run_cells` call for one algorithm on a
single-gap Gaussian instance (gap 0.5, sigma2 0.1) at T = 1.5 K, so the
figure includes making the trials' generators and the harness's own work.
After one warm-up call per cell, the cell is called with seeds 1, 2, ...
until the calls have taken --seconds of the calling thread's CPU time, so
a cheap cell is timed over as long a span as a costly one. The script
prints one JSON object: per K and policy, the median over those calls of
their thread CPU time divided by the trial count, in microseconds, and
under "machine" the core count and the Python and numpy versions.
bestarm is imported before numpy, so this process, like the CLI, loads
OpenBLAS with one thread and no idle BLAS worker spins beside the timed
calls. It runs against whichever bestarm is first on the path, so the
same command measures two checkouts.
"""

import argparse
import json
import os
import platform
import statistics
import time

from bestarm import BanditEnv, BanditInstance, Gaussian
from bestarm.experiments import run_cells

import numpy as np  # after bestarm, which loads it with one BLAS thread

KS = (16, 256, 1024)
POLICIES = ("UE", "SR", "SH", "RE")


def cost_us(env, policy, T, trials, seconds) -> float:
    run_cells(env, (policy,), (T,), trials, 0, "warm-up")
    samples = []
    while sum(samples) * trials < seconds * 1e6:
        start = time.thread_time()
        run_cells(env, (policy,), (T,), trials, len(samples) + 1, "cost")
        samples.append((time.thread_time() - start) * 1e6 / trials)
    return statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=640)
    parser.add_argument("--seconds", type=float, default=0.25)
    args = parser.parse_args()
    table = {}
    for K in KS:
        means = (1.0,) + (0.5,) * (K - 1)
        env = BanditEnv(BanditInstance(means=means, family=Gaussian(0.1)))
        T = 3 * K // 2
        table[str(K)] = {
            p: round(cost_us(env, p, T, args.trials, args.seconds), 1) for p in POLICIES
        }
    table["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(table))


if __name__ == "__main__":
    main()
