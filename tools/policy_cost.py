"""Per-trial CPU cost of each policy, in-process, at K = 16, 256 and 1024.

    PYTHONPATH=src python tools/policy_cost.py [--trials 640] [--seconds 0.25]
        [--family gaussian|bernoulli]

Each cell is one `experiments.run_cells` call for one algorithm on a
single-gap instance at T = 1.5 K: Gaussian means 1.0 and 0.5 with sigma2
0.1 (the default), or Bernoulli means 0.9 and 0.4. So the figure includes
making the trials' generators and the harness's own work.
After one warm-up call per cell, the cell is called with seeds 1, 2, ...
until the calls have taken --seconds of the calling thread's CPU time, so
a cheap cell is timed over as long a span as a costly one. A pass times
every cell once; the whole table is timed in PASSES = 3 interleaved passes,
so that a cell whose cost swings between runs shows a wide range rather
than one figure. The script prints one JSON object: per K and policy, the
median over the passes of each pass's figure (the median over its calls
of their thread CPU time divided by the trial count, in microseconds) and
the [min, max] of those figures, and "minflt": the median over the passes
of the minor page faults per trial (`getrusage`'s `ru_minflt` of this
process, read around the timed calls), which counts the block arrays
faulted in afresh. The family is under "family", and under "machine" the
core count and the Python and numpy versions.
bestarm is imported before numpy, so this process, like the CLI, loads
OpenBLAS with one thread and no idle BLAS worker spins beside the timed
calls. It runs against whichever bestarm is first on the path, so the
same command measures two checkouts.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import time

from bestarm import BanditEnv, BanditInstance, Bernoulli, Gaussian
from bestarm.experiments import run_cells

import numpy as np  # after bestarm, which loads it with one BLAS thread

KS = (16, 256, 1024)
POLICIES = ("UE", "SR", "SH", "RE")
PASSES = 3
# the best arm's mean, the others' mean and the reward family
FAMILIES = {"gaussian": (1.0, 0.5, Gaussian(0.1)), "bernoulli": (0.9, 0.4, Bernoulli())}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cost_us(env, policy, T, trials, seconds) -> tuple[float, float]:
    """Median thread CPU per trial, in us, and minor faults per trial."""
    run_cells(env, (policy,), (T,), trials, 0, "warm-up")
    samples = []
    faults = -minflt()
    while sum(samples) * trials < seconds * 1e6:
        start = time.thread_time()
        run_cells(env, (policy,), (T,), trials, len(samples) + 1, "cost")
        samples.append((time.thread_time() - start) * 1e6 / trials)
    faults += minflt()
    return statistics.median(samples), faults / (len(samples) * trials)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=640)
    parser.add_argument("--seconds", type=float, default=0.25)
    parser.add_argument("--family", choices=sorted(FAMILIES), default="gaussian")
    args = parser.parse_args()
    best, rest, family = FAMILIES[args.family]
    envs = {
        K: BanditEnv(BanditInstance(means=(best,) + (rest,) * (K - 1), family=family))
        for K in KS
    }
    costs = {(K, p): [] for K in KS for p in POLICIES}
    for _ in range(PASSES):
        for (K, p), figures in costs.items():
            figures.append(cost_us(envs[K], p, 3 * K // 2, args.trials, args.seconds))
    table = {str(K): {} for K in KS}
    for (K, p), figures in costs.items():
        us = [cpu for cpu, _ in figures]
        table[str(K)][p] = {
            "median": round(statistics.median(us), 1),
            "range": [round(min(us), 1), round(max(us), 1)],
            "minflt": round(statistics.median(f for _, f in figures), 3),
        }
    table["family"] = args.family
    table["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(table))


if __name__ == "__main__":
    main()
