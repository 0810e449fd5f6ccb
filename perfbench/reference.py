"""Reference error rates for SR and SH, and the radar pulse-count law.

These are made apart from the program: the SR and SH schedules below follow
the docstrings of `run_sr` ("K-1 phases, reject the worst cumulative mean")
and `run_sh` ("sequential halving with fresh per-round pulls", a uniformly
random half when a round's per-arm allocation is zero), and run B trials at
once on (B, K) arrays. The pulse-count law is sampled on the sample grid of
a play, not through the program's span arithmetic.

Regenerate the stored file with

    python3 perfbench/reference.py

(about a minute on 2 cores); it writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import workloads as w

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 20_250_201
REFERENCE_TRIALS = 4000
PULSE_DRAWS = 1_000_000
_BLOCK = 1000


def gaussian_draw(means, sigma2):
    """Sums of n pulls per arm: N(n*mu, n*sigma2), shape (B, K)."""
    means = np.asarray(means, dtype=float)

    def draw(n, B, rng):
        return n * means + math.sqrt(n * sigma2) * rng.standard_normal((B, means.size))

    return draw


def radar_draw(active, pmf):
    """Energy sums over n plays per channel, shape (B, K).

    An idle channel's n-play energy is (nv/2) chi2(2Nn). The active channel
    adds the play's on-pulse count S (unit amplitude) to the noncentrality;
    over n plays the counts add, drawn from the pulse-count law `pmf`.
    """
    nv, N, K = w.RADAR_NOISE_VAR, w.RADAR_N, w.RADAR_K
    values = np.arange(len(pmf), dtype=float)

    def draw(n, B, rng):
        out = (nv / 2.0) * rng.chisquare(2 * N * n, size=(B, K))
        counts = rng.multinomial(n, pmf, size=B) @ values
        out[:, active - 1] = (nv / 2.0) * rng.noncentral_chisquare(
            2 * N * n, 2.0 * counts / nv
        )
        return out

    return draw


def sr_errors(draw, K, best, T, B, rng) -> int:
    """Successive rejects: phase k gives every live arm n_k - n_{k-1} more
    pulls, n_k = ceil((T-K) / (logbar (K+1-k))), and rejects the live arm
    with the lowest cumulative mean (lowest index on ties)."""
    logbar = 0.5 + sum(1.0 / i for i in range(2, K + 1))
    sums = np.zeros((B, K))
    alive = np.ones((B, K), dtype=bool)
    rows = np.arange(B)
    n_prev = 0
    for k in range(1, K):
        n_k = math.ceil((T - K) / (logbar * (K + 1 - k)))
        if n_k > n_prev:
            sums += draw(n_k - n_prev, B, rng)
        n_prev = n_k
        # live arms share the pull count, so sums rank like means
        worst = np.argmin(np.where(alive, sums, np.inf), axis=1)
        alive[rows, worst] = False
    return int(np.sum(np.argmax(alive, axis=1) != best - 1))


def sh_errors(draw, K, best, T, B, rng) -> int:
    """Sequential halving: ceil(log2 K) rounds; a round with n live arms
    pulls each T // (n * rounds) times afresh and keeps the ceil(n/2) best
    round means, or a uniformly random ceil(n/2) when that allocation is 0."""
    rounds = max(1, math.ceil(math.log2(K)))
    alive = np.ones((B, K), dtype=bool)
    n_alive = K
    for _ in range(rounds):
        if n_alive == 1:
            break
        keep = math.ceil(n_alive / 2)
        n_r = T // (n_alive * rounds)
        if n_r == 0:
            score = rng.random((B, K))
        else:
            score = draw(n_r, B, rng) / n_r
        score = np.where(alive, score, -np.inf)
        top = np.argsort(-score, axis=1, kind="stable")[:, :keep]
        alive = np.zeros((B, K), dtype=bool)
        np.put_along_axis(alive, top, True, axis=1)
        n_alive = keep
    return int(np.sum(np.argmax(alive, axis=1) != best - 1))


def error_count(policy, draw, K, T, trials, rng, best=1) -> int:
    run = {"SR": sr_errors, "SH": sh_errors}[policy]
    errors = 0
    for start in range(0, trials, _BLOCK):
        errors += run(draw, K, best, T, min(_BLOCK, trials - start), rng)
    return errors


def pulse_count_pmf(draws: int, rng) -> np.ndarray:
    """Law of a play's on-pulse sample count: sample k (time k/fs) is on a
    pulse when delay + p*pri <= k/fs < delay + p*pri + width for some
    pulse p below the drawn pulse count."""
    N, fs = w.RADAR_N, w.RADAR_FS
    t = np.arange(N) / fs
    hist = np.zeros(N + 1)
    for start in range(0, draws, 50_000):
        n = min(50_000, draws - start)
        pulses = rng.integers(w.RADAR_PULSES[0], w.RADAR_PULSES[1] + 1, size=n)
        width = rng.uniform(*w.RADAR_WIDTH, size=n)
        pri = rng.uniform(*w.RADAR_PRI, size=n)
        delay = rng.uniform(*w.RADAR_DELAY, size=n)
        on = np.zeros((n, N), dtype=bool)
        for p in range(w.RADAR_PULSES[1]):
            lo = (delay + p * pri)[:, None]
            hit = (t >= lo) & (t < lo + width[:, None]) & (p < pulses)[:, None]
            on |= hit
        hist += np.bincount(on.sum(axis=1), minlength=N + 1)
    return hist / draws


def build() -> dict:
    rng = np.random.default_rng(REFERENCE_SEED)
    pmf = pulse_count_pmf(PULSE_DRAWS, rng)
    values = np.arange(pmf.size)
    es_mean = float(pmf @ values)
    es_var = float(pmf @ (values - es_mean) ** 2)
    cells = []

    def add(instance_id, policy, T, draw, K):
        errors = error_count(policy, draw, K, T, REFERENCE_TRIALS, rng)
        cells.append(
            {
                "instance_id": instance_id,
                "algorithm": policy,
                "T": T,
                "errors": errors,
                "trials": REFERENCE_TRIALS,
            }
        )
        print(f"{instance_id} {policy} T={T}: {errors}/{REFERENCE_TRIALS}", file=sys.stderr)

    grid_means = [w.MU_STAR] + [w.MU_STAR - w.DELTA] * (w.GRID_K - 1)
    for policy in ("SR", "SH"):
        for T in w.GRID_BUDGETS:
            add("grid-k512", policy, T, gaussian_draw(grid_means, w.SIGMA2), w.GRID_K)
    jam_means = [1.0] + [0.0] * (w.JAMMER_K - 1)
    for nv in w.JAMMER_NOISE:
        for policy in ("SR", "SH"):
            draw = gaussian_draw(jam_means, nv)
            add(w.jammer_label(nv), policy, w.JAMMER_T, draw, w.JAMMER_K)
    for policy in ("SR", "SH"):
        for T in w.RADAR_PLAYS:
            add(f"radar-K{w.RADAR_K}", policy, T, radar_draw(1, pmf), w.RADAR_K)
    return {
        "command": "python3 perfbench/reference.py",
        "seed": REFERENCE_SEED,
        "pulse_draws": PULSE_DRAWS,
        "pulse_count_mean": es_mean,
        "pulse_count_var": es_var,
        "pulse_count_pmf": [float(p) for p in pmf],
        "cells": cells,
    }


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(build(), indent=1) + "\n")
