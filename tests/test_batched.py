"""Batched policies against the per-trial references and against their laws.

A block of one trial must make the per-trial reference's draws, in its
order, and reach its result. A larger block must agree with the reference
row by row wherever the outcome is deterministic, and its error counts must
be plausible under the closed-form laws of perfbench/checks.py.
"""

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from bestarm import (
    BanditEnv,
    BanditInstance,
    Bernoulli,
    ConfigParse,
    Gaussian,
    ReOptions,
)
from bestarm.casestudies import RadarEnv, RadarScenario, _row_sums
from bestarm.core import MAX_K, RngStream
from bestarm.experiments import block_trials, group_mean_distribution, run_cells
from bestarm.policies import run_policy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import implausible, re_gaussian_error, ue_error  # noqa: E402

REFERENCES = {
    "UE": lambda env, T, rng, opts: oracles.run_ue(env, T, rng),
    "SR": lambda env, T, rng, opts: oracles.run_sr(env, T, rng),
    "SH": lambda env, T, rng, opts: oracles.run_sh(env, T, rng),
    "RE": lambda env, T, rng, opts: oracles.run_re(env, T, rng, opts),
}
PLUGIN = ReOptions(alpha=0.2, prior_mode="plugin")


def random_instance(meta, K, bernoulli, tied):
    if tied:  # sub-optimal arms share a few values
        means = meta.choice([0.2, 0.5, 0.7], size=K)
        means[meta.integers(K)] = 0.9
    else:
        means = meta.uniform(0.05, 0.95, size=K)
    family = Bernoulli() if bernoulli else Gaussian(float(meta.choice([0.0, 0.1, 1.0])))
    return BanditInstance(means=tuple(float(m) for m in means), family=family)


ONE_TRIAL_CASES = [
    (name, opts, K, bernoulli, tied)
    for name, opts in (("UE", None), ("SR", None), ("RE", None), ("RE", PLUGIN))
    for K in (2, 3, 8, 12, 33)
    for bernoulli in (False, True)
    for tied in (False, True)
]


@pytest.mark.parametrize("name,opts,K,bernoulli,tied", ONE_TRIAL_CASES)
def test_one_trial_block_matches_reference(name, opts, K, bernoulli, tied):
    meta = np.random.default_rng([K, bernoulli, tied, name == "RE"])
    env = BanditEnv(random_instance(meta, K, bernoulli, tied))
    for T in (K, 3 * K, 10 * K):
        for seed in range(4):
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = REFERENCES[name](env, T, rng_ref, opts)
            except Exception as exc:  # BudgetTooSmall: both must refuse
                with pytest.raises(type(exc)):
                    run_policy(name, env, T, rng_new, opts)
                continue
            got = run_policy(name, env, T, rng_new, opts)
            assert got.recommended_arm.shape == got.correct.shape == (1,)
            assert (got.recommended_arm[0], got.pulls_used) == (
                want.recommended_arm, want.pulls_used
            )
            assert got.correct[0] == want.correct
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("K", [2, 5, 8, 12, 16, 64])
@pytest.mark.parametrize("name", ["UE", "SR", "SH", "RE"])
def test_noiseless_block_rows_match_reference(name, K):
    # sigma2 = 0 with tied sub-optimal arms: every outcome is deterministic,
    # so each row of a full block must equal the reference. SH keeps a
    # random half in a zero-allocation round, so it runs at the smallest
    # budget that has none; the others run at T = K, where SR pulls nothing
    # and rejects by index alone.
    means = np.full(K, 0.5)
    means[K // 3] = 1.0
    env = BanditEnv(BanditInstance(means=tuple(means), family=Gaussian(0.0)))
    rounds = max(1, math.ceil(math.log2(K)))
    budgets = {"SH": (K * rounds, 3 * K * rounds)}.get(name, (K, 3 * K))
    for T in budgets:
        want = REFERENCES[name](env, T, np.random.default_rng(0), None)
        got = run_policy(name, env, T, np.random.default_rng(1), trials=64)
        assert got.recommended_arm.shape == (64,)
        assert (got.recommended_arm == want.recommended_arm).all()
        assert (got.correct == want.correct).all()
        assert got.pulls_used == want.pulls_used


def test_re_block_diagnostics_have_one_entry_per_trial():
    env = BanditEnv(BanditInstance(means=(1.0,) + (0.5,) * 11, family=Gaussian(0.1)))
    run = run_policy("RE", env, 240, np.random.default_rng(0), PLUGIN, trials=7)
    diag = run.diagnostics
    for key in ("separability_flag", "mu_H_star", "mu_L_star", "decoded_dummy"):
        assert np.shape(diag[key]) == (7,)
    assert len(diag["groups"]) == 4
    for group in diag["groups"]:
        for key in ("mu_hat_G", "pi0", "pi1", "tau", "delta", "phase2_mean"):
            assert group[key].shape == (7,)


def test_run_cells_draws_one_stream_per_block():
    env = BanditEnv(BanditInstance(means=(1.0, 0.8, 0.8, 0.8), family=Gaussian(1.0)))
    B = block_trials(env.K)
    trials, seed = B + 5, 3
    cells = run_cells(env, ("UE", "SR"), (8, 40), trials, seed, "blocks")
    for c, cell in enumerate(cells):
        errors = 0
        for j0, rows in ((0, B), (B, 5)):
            rng = RngStream(seed, c * trials + j0).generator()
            run = run_policy(cell.algorithm, env, cell.T, rng, trials=rows)
            errors += int((~run.correct).sum())
        assert cell.errors == errors


def test_block_size_bounds_the_block_arrays():
    assert block_trials(2) == block_trials(512) == 64
    assert block_trials(1024) == 64 and block_trials(2048) == 32
    assert block_trials(MAX_K) == 1
    for K in (2, 3, 100, 1025, 40_000, MAX_K):
        assert 1 <= block_trials(K) <= 64
        assert block_trials(K) * K <= max(K, 2**16)


# K, budgets: UE at n = 1, 2, 4 plays per arm; RE over the same budgets.
LAW_CASES = [(8, (8, 16, 32)), (64, (64, 128, 256)), (256, (256, 512, 1024))]


@pytest.mark.parametrize("K,budgets", LAW_CASES)
def test_batched_error_counts_follow_their_laws(K, budgets):
    delta, sigma2, trials = 0.5, 0.1, 150  # three blocks, the last one short
    means = (1.0,) + (1.0 - delta,) * (K - 1)
    env = BanditEnv(BanditInstance(means=means, family=Gaussian(sigma2)))
    assert trials > 2 * block_trials(K)
    for cell in run_cells(env, ("UE", "RE"), budgets, trials, 0, "laws"):
        if cell.algorithm == "UE":
            p = ue_error(K, delta, sigma2, cell.T // K)
        else:
            p = re_gaussian_error(K, delta, sigma2, cell.T)
        assert not implausible(cell.errors, trials, p, p), (
            cell.algorithm, cell.T, cell.errors, p
        )


def test_radar_pull_counts_pulses_once_per_block(monkeypatch):
    import bestarm.casestudies as casestudies

    calls = []
    real = casestudies.signal_sample_counts

    def counting(scenario, n, rng):
        calls.append(n)
        return real(scenario, n, rng)

    env = RadarEnv(RadarScenario(active_channel=3))  # runs the energy oracle
    monkeypatch.setattr(casestudies, "signal_sample_counts", counting)
    rng = np.random.default_rng(0)
    arms = np.tile(np.arange(1, 9), (64, 1))
    assert env.pull_arms_sum(arms, 100, rng).shape == (64, 8)
    assert env.pull_group_sum(np.array([3, 4, 7, 8]), 100, rng, 64).shape == (64,)
    assert calls == [6400, 6400]


@pytest.mark.parametrize("rows,n", [(1, 1), (3, 5), (7, 60_000), (2, 450_001)])
def test_row_sums_chunking_keeps_row_order(rows, n):
    def draws(seed):
        r = np.random.default_rng(seed)
        return lambda k: r.integers(0, 1000, size=k)

    whole = draws(1)(rows * n).reshape(rows, n).sum(axis=1)
    assert np.array_equal(_row_sums(rows, n, draws(1)), whole)


def test_group_mean_distribution_memory_is_bounded():
    tracemalloc.start()
    try:
        group_mean_distribution(1024, 0.1, 0.4, samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, f"peak {peak / 1e6:.0f} MB"


def test_group_mean_distribution_refuses_large_inputs():
    with pytest.raises(ConfigParse):
        group_mean_distribution(2 * MAX_K, 0.1, 0.4, samples=10)
    with pytest.raises(ConfigParse):
        group_mean_distribution(16, 0.1, 0.4, samples=10**12)
