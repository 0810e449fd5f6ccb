"""Spans around the program's public functions, wrapped from outside.

Each wrapper records (id, parent, name, start, end, thread CPU time, arm
plays) in a list kept per thread, since trials run on the pool's worker
threads. A worker's outermost span takes as parent the innermost span open
on the thread that installed the tracer (the `run_cells` that handed it the
trial). The lists are written out and reduced to per-layer figures when the
round ends.

Functions are wrapped where their callers look them up: a module attribute
for functions, the class for environment methods.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
import time
from collections import defaultdict

POLICIES = ("UE", "SR", "SH", "RE")
PULL_METHODS = ("pull_arm_sum", "pull_arms_sum", "pull_group_sum")


def _n_plays(method):
    """Arm plays of one pull call: n for one arm, n*|arms| for several."""
    if method == "pull_arm_sum":
        return lambda args, kwargs: int(kwargs.get("n", args[2] if len(args) > 2 else 0))

    def plays(args, kwargs):
        arms = kwargs.get("arms", kwargs.get("members", args[1]))
        n = kwargs.get("n", args[2] if len(args) > 2 else 0)
        return int(n) * len(arms)

    return plays


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []  # one span list per thread that recorded any
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_stack = self._state()[1]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append(state[0])
        return state

    def wrap(self, name, fn, cpu=False, plays=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._state()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            stack.append(sid)
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time() if cpu else 0.0
                stack.pop()
                n = plays(args, kwargs) if plays is not None else 0
                spans.append((sid, parent, name, t0, t1, c1 - c0, n))

        return traced

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def install(self):
        """Wrap the layers of bestarm; the package must be imported."""
        import bestarm.casestudies as casestudies
        import bestarm.cli as cli
        import bestarm.core as core
        import bestarm.experiments as experiments
        import bestarm.policies as policies

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "run_experiment", "experiments.run_experiment")
        self.patch(cli, "run_jammer_experiment", "experiments.run_jammer_experiment")
        self.patch(cli, "run_radar_experiment", "experiments.run_radar_experiment")
        self.patch(experiments, "run_cells", "experiments.run_cells")
        self.patch(casestudies, "run_cells", "experiments.run_cells")
        self.patch(casestudies, "mean_signal_energy", "casestudies.signal_energy")
        self.patch(experiments, "run_policy", "policies.run_policy", cpu=True)
        self.patch(core.RngStream, "generator", "core.rng_stream")
        for p in POLICIES:
            self.patch(policies, f"run_{p.lower()}", f"policies.{p}")
        self.patch(policies, "construct_groups", "grouping.construct_groups")
        self.patch(policies, "decode_best_arm", "grouping.decode_best_arm")
        for env in (policies.BanditEnv, casestudies.JammerEnv, casestudies.RadarEnv):
            for method in PULL_METHODS:
                if method in vars(env):
                    self.patch(env, method, "sampler.pull", plays=_n_plays(method))

    def spans(self):
        with self._lock:
            return [s for spans in self._threads for s in spans]


def write_spans(path, spans):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["id", "parent", "name", "start", "end", "thread_cpu", "arm_plays"])
        out.writerows(spans)


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced round."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))

    def self_time(s):
        return (s[4] - s[3]) - _covered(s[3], s[4], children.get(s[0], ()))

    def parent_name(s):
        p = by_id.get(s[1])
        return p[2] if p else ""

    sums = defaultdict(float)
    counts = defaultdict(int)
    plays = 0
    for s in spans:
        name = s[2]
        counts[name] += 1
        if name == "sampler.pull" and parent_name(s) == "sampler.pull":
            continue  # a pull made inside another pull is part of it
        if name == "sampler.pull":
            sums["sampler.pull.s"] += s[4] - s[3]
            counts["sampler.pull.outer"] += 1
            plays += s[6]
        elif name == "cli.main":
            sums["cli.self"] += self_time(s)
        elif name.startswith("experiments."):
            sums["experiments.self"] += self_time(s)
        elif name == "policies.run_policy":
            sums["policies.wait"] += (s[4] - s[3]) - s[5]
        elif name.startswith("policies."):
            sums[f"{name}.self"] += self_time(s)
        elif name in ("grouping.construct_groups", "grouping.decode_best_arm"):
            sums[f"{name}.s"] += s[4] - s[3]
        elif name == "core.rng_stream":
            sums["core.rng_stream"] += s[4] - s[3]
        elif name == "casestudies.signal_energy":
            sums["casestudies.signal_energy_s"] += s[4] - s[3]

    trials = counts["policies.run_policy"]
    per_trial = 1e6 / trials if trials else 0.0
    out = {
        "cli.self_s": sums["cli.self"],
        "casestudies.signal_energy_s": sums["casestudies.signal_energy_s"],
        "experiments.self_us_per_trial": sums["experiments.self"] * per_trial,
        "core.rng_stream_us_per_trial": sums["core.rng_stream"] * per_trial,
        "policies.wait_us_per_trial": sums["policies.wait"] * per_trial,
    }
    for p in POLICIES:
        n = counts[f"policies.{p}"]
        out[f"policies.{p}.self_us_per_trial"] = (
            sums[f"policies.{p}.self"] * 1e6 / n if n else 0.0
        )
        out[f"policies.{p}.trials"] = n
    out["grouping.construct_groups.calls"] = counts["grouping.construct_groups"]
    out["grouping.construct_groups.s"] = sums["grouping.construct_groups.s"]
    out["grouping.decode_best_arm.s"] = sums["grouping.decode_best_arm.s"]
    out["sampler.pull.calls"] = counts["sampler.pull.outer"]
    out["sampler.pull.s"] = sums["sampler.pull.s"]
    out["sampler.arm_plays"] = plays
    out["sampler.arm_plays_per_s"] = plays / sums["sampler.pull.s"] if plays else 0.0
    return out


COUNTS = (
    "policies.UE.trials",
    "policies.SR.trials",
    "policies.SH.trials",
    "policies.RE.trials",
    "grouping.construct_groups.calls",
    "sampler.pull.calls",
    "sampler.arm_plays",
)
