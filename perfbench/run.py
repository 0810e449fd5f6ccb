"""Benchmark of bestarm's Monte-Carlo sweeps, run through its CLI.

    python3 perfbench/run.py --workload grid-k512 --seed 0 --seconds 40 --trace 0

A run repeats whole rounds of one workload for about --seconds seconds. A
round starts a fresh interpreter (perfbench/child.py) that imports
bestarm.cli and runs one CLI sweep with the default worker count. Every
round of a run gets the same inputs, so every round must write the same
CSV; the first is checked against the laws in checks.py.

--trace 0 reports the end-to-end metrics, each the median over the rounds:
setup_s (process start to the first trial), trials_per_cpu_s (trials over
the child's CPU time from the first trial to the end of the CLI call) and
peak_rss_mb. Throughput is counted in CPU time because the hypervisor
steals the host's vCPUs for a minute or two at a time, which moved
wall-clock throughput between runs by more than its 0.25 bound; the
wall-clock figure is printed for each round. --trace 1 alternates untraced
and traced rounds and reports per-layer metrics from the traced ones, with
the tracing overhead against the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count trials.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import workloads
from tracer import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ROUND_TIMEOUT_S = 120.0
MIN_ROUNDS = 3
ENERGY_DRAWS = 10_000


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BAI_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_round(inputs, workdir: Path, index: int, trace: bool, energy_sample) -> dict:
    """Start one child, wait for it, and return its report with the CSV."""
    csv_path = workdir / f"round{index}.csv"
    report_path = workdir / f"round{index}.json"
    argv = [a.replace("{config}", str(workdir / "config.json")) for a in inputs.argv]
    spec = {
        "argv": argv + ["--out", str(csv_path)],
        "report": str(report_path),
        "trace": trace,
        "trace_out": str(OUT / f"{inputs.workload}-trace.csv"),
        "energy_sample": energy_sample,
    }
    for stale in (csv_path, report_path):
        stale.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return {"ok": False, "stderr": f"round took over {ROUND_TIMEOUT_S} s"}
    if proc.returncode != 0 or not report_path.exists():
        return {"ok": False, "stderr": proc.stderr.strip()[-2000:]}
    report = json.loads(report_path.read_text())
    if report["t_first_trial"] is None:
        return {"ok": False, "stderr": "no trial ran"}
    sweep = report["t_end"] - report["t_first_trial"]
    return {
        "ok": True,
        "trace": trace,
        "csv": csv_path.read_text(),
        "setup_s": report["t_first_trial"] - t_spawn,
        "trials_per_s": inputs.total_trials / sweep,
        "trials_per_cpu_s": inputs.total_trials / (report["cpu_end"] - report["cpu_first_trial"]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "import_s": report["import_s"],
        "round_s": report["t_end"] - t_spawn,
        "layers": report.get("layers"),
        "energy_sample": report.get("energy_sample"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    inputs = workloads.make_inputs(workload, seed)
    workdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    if inputs.config is not None:
        (workdir / "config.json").write_text(inputs.config)

    energy = None
    if workload == "radar":
        energy = [workloads.RADAR_ACTIVE, ENERGY_DRAWS, seed]
    rounds = []
    problems = []
    start = time.monotonic()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        r = run_round(inputs, workdir, index, traced, energy if index == 0 else None)
        if not r["ok"]:
            problems.append(f"round {index} failed: {r['stderr']}")
            rounds.append(r)
            break
        rounds.append(r)
        print(
            f"round {index}{' traced' if traced else ''}: setup {r['setup_s']:.3f} s, "
            f"{r['trials_per_s']:.1f} trials/s, {r['trials_per_cpu_s']:.1f} trials/cpu-s, "
            f"peak {r['peak_rss_mb']:.1f} MB",
            flush=True,
        )
        # stop before a round like the last one would overrun the run
        elapsed = time.monotonic() - start
        need = MIN_ROUNDS + (1 if trace else 0)
        if len(rounds) >= need and elapsed + r["round_s"] > seconds:
            break

    ok = [r for r in rounds if r["ok"]]
    rounds_done = len(ok)
    attempted = len(rounds) * inputs.total_trials
    failed = (len(rounds) - rounds_done) * inputs.total_trials
    if ok:
        ref = reference.load()
        problems += checks.check_csv(ok[0]["csv"], inputs, ref)
        for i, r in enumerate(ok[1:], start=1):
            if r["csv"] != ok[0]["csv"]:
                problems.append(f"round {i} wrote a different CSV from round 0")
        if energy is not None:
            problems += checks.check_energies(
                ok[0]["energy_sample"], ref["pulse_count_mean"], ref["pulse_count_var"]
            )
    print(
        f"{workload} seed {seed}: {rounds_done}/{len(rounds)} rounds, "
        f"{len(inputs.cells) * len(rounds)} cells and {attempted} trials attempted, "
        f"{failed} trials failed",
        flush=True,
    )
    for p in problems:
        print(f"CHECK FAILED: {p}", flush=True)

    metrics = {}
    if ok and not trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(r[name] for r in ok), "unit": unit}
    elif any(r["trace"] for r in ok) and not all(r["trace"] for r in ok):
        metrics = _layer_report(ok, problems)
    return {"correct": not problems, "metrics": metrics}, attempted, failed


END_TO_END = (("setup_s", "s"), ("trials_per_cpu_s", "trials/cpu-s"), ("peak_rss_mb", "MB"))

LAYER_UNITS = {
    "setup.import_s": "s",
    "casestudies.signal_energy_s": "s",
    "cli.self_s": "s",
    "grouping.construct_groups.s": "s",
    "grouping.decode_best_arm.s": "s",
    "sampler.pull.s": "s",
    "sampler.arm_plays_per_s": "plays/s",
    "trace.overhead_pct": "%",
}


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "us" if name.endswith("_us_per_trial") else "count"


def _layer_report(rounds, problems) -> dict:
    traced = [r for r in rounds if r["trace"]]
    plain = [r for r in rounds if not r["trace"]]
    values = {"setup.import_s": statistics.median(r["import_s"] for r in rounds)}
    for name in traced[0]["layers"]:
        column = [r["layers"][name] for r in traced]
        if name in COUNTS:
            if len(set(column)) != 1:
                problems.append(f"count {name} differs between traced rounds: {column}")
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    untraced = statistics.median(r["trials_per_cpu_s"] for r in plain)
    with_trace = statistics.median(r["trials_per_cpu_s"] for r in traced)
    values["trace.overhead_pct"] = 100.0 * (untraced / with_trace - 1.0)
    return {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "bestarm" / "cli.py").is_file():
        print(f"no bestarm source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = {
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
