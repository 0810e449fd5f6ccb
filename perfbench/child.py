"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec gives the CLI arguments, where to write the report, whether to
trace, and whether to sample radar play energies after the timed sweep.
The report holds readings of the system-wide monotonic clock, so the
parent can subtract the time it started this process, and of the process's
CPU clock at the first trial and at the end of the sweep.
"""

import json
import resource
import sys
import threading
import time

spec = json.loads(sys.argv[1])

t_import = time.monotonic()
import bestarm.cli  # noqa: E402
import bestarm.experiments  # noqa: E402

import_s = time.monotonic() - t_import

tracer = None
if spec["trace"]:
    from tracer import Tracer, layer_metrics, write_spans

    tracer = Tracer()
    tracer.install()

# The first trial starts at the first run_policy call; the hook then puts
# back whatever it replaced, so the sweep runs without it.
first_trial = []
_lock = threading.Lock()
_run_policy = bestarm.experiments.run_policy


def _first_run_policy(*args, **kwargs):
    with _lock:
        if not first_trial:
            first_trial.append((time.monotonic(), time.process_time()))
            bestarm.experiments.run_policy = _run_policy
    return _run_policy(*args, **kwargs)


bestarm.experiments.run_policy = _first_run_policy

status = bestarm.cli.main(spec["argv"])
t_end = time.monotonic()
cpu_end = time.process_time()
peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

report = {
    "import_s": import_s,
    "t_first_trial": first_trial[0][0] if first_trial else None,
    "cpu_first_trial": first_trial[0][1] if first_trial else None,
    "t_end": t_end,
    "cpu_end": cpu_end,
    "peak_rss_kb": peak_rss_kb,
}

if tracer is not None:
    spans = tracer.spans()
    write_spans(spec["trace_out"], spans)
    report["layers"] = layer_metrics(spans)

if spec.get("energy_sample"):
    # Per-play energies from the program's radar environment, drawn after
    # the timed sweep.
    import numpy as np
    from bestarm.casestudies import RadarEnv, RadarScenario

    active, draws, seed = spec["energy_sample"]
    env = RadarEnv(RadarScenario(active_channel=active))
    rng = np.random.default_rng(seed)
    idle = 1 + active % env.K
    sample = {}
    for kind, channel in (("active", active), ("idle", idle)):
        x = np.array([env.pull_arm_sum(channel, 1, rng) for _ in range(draws)])
        d = x - x.mean()
        sample[kind] = {
            "n": draws,
            "mean": float(x.mean()),
            "var": float(d @ d / (draws - 1)),
            "m4": float(np.mean(d**4)),
        }
    report["energy_sample"] = sample

with open(spec["report"], "w") as fh:
    json.dump(report, fh)
sys.exit(0 if status == 0 else 3)
