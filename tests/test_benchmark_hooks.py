"""The benchmark in perfbench/ still runs against this source tree.

perfbench wraps names of the package (experiments.run_policy,
policies.construct_groups, policies.decode_best_arm and
RadarEnv.pull_arm_sum) to time its layers, and checks each workload's
error counts against its law. A change that deletes one of those names,
or alters a group law that a workload checks, breaks the benchmark; one
short traced run per workload shows it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["radar", "re-exact", "jammer"])
def test_traced_workload_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
