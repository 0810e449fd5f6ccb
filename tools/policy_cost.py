"""Per-trial CPU cost of each policy, in-process, at K = 16, 256 and 1024.

    PYTHONPATH=src python tools/policy_cost.py [--trials 640] [--repeats 5]

Each cell is one `experiments.run_cells` call for one algorithm on a
single-gap Gaussian instance (gap 0.5, sigma2 0.1) at T = 1.5 K, so the
figure includes making the trials' generators and the harness's own work.
After one warm-up call per cell, the script prints one JSON object: per
K and policy, the median over --repeats of the calling thread's CPU time
divided by the trial count, in microseconds. Thread time leaves out
whatever other threads of the process spin meanwhile. It runs against whichever bestarm is
first on the path, so the same command measures two checkouts.
"""

import argparse
import json
import statistics
import time

from bestarm import BanditEnv, BanditInstance, Gaussian
from bestarm.experiments import run_cells

KS = (16, 256, 1024)
POLICIES = ("UE", "SR", "SH", "RE")


def cost_us(env, policy, T, trials, repeats) -> float:
    run_cells(env, (policy,), (T,), trials, 0, "warm-up")
    samples = []
    for seed in range(1, repeats + 1):
        start = time.thread_time()
        run_cells(env, (policy,), (T,), trials, seed, "cost")
        samples.append((time.thread_time() - start) * 1e6 / trials)
    return statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=640)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    table = {}
    for K in KS:
        means = (1.0,) + (0.5,) * (K - 1)
        env = BanditEnv(BanditInstance(means=means, family=Gaussian(0.1)))
        T = 3 * K // 2
        table[str(K)] = {
            p: round(cost_us(env, p, T, args.trials, args.repeats), 1) for p in POLICIES
        }
    print(json.dumps(table))


if __name__ == "__main__":
    main()
