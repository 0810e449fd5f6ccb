"""The benchmark in perfbench/ still runs against this source tree.

perfbench wraps names of the package (experiments.run_policy,
policies.construct_groups, policies.decode_best_arm and
RadarEnv.pull_arm_sum) to time its layers, and checks each workload's
error counts against its law. A change that deletes one of those names,
or alters a group law that a workload checks, breaks the benchmark; one
short traced run per workload shows it.

Each run is made in a copy of perfbench/ under a temporary directory,
beside a link to the package's source, so it writes its rounds and
traces there and leaves perfbench/out/ as it was. The files are copied,
not linked, because run.py finds its source and output through its own
resolved path.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bestarm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["radar", "re-exact", "jammer"])
def test_traced_workload_run_is_correct(workload, tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in [*PERFBENCH.glob("*.py"), PERFBENCH / "reference.json"]:
        shutil.copy(path, bench)
    src = Path(bestarm.__file__).resolve().parents[1]
    (tmp_path / "src").symlink_to(src, target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
    if workload in ("radar", "re-exact"):
        # RE decodes each block through the name the tracer wraps
        assert last["metrics"]["grouping.decode_best_arm.s"]["value"] > 0, proc.stdout
    assert (bench / "out" / f"{workload}-trace.csv").is_file()
