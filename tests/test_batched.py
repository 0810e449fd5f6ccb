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
from scipy.special import ndtr
from scipy.stats import binom

import oracles
from oracles import _COUNT_BLOCK, signal_sample_counts
from bestarm import (
    BanditEnv,
    BanditInstance,
    Bernoulli,
    BudgetTooSmall,
    ConfigParse,
    Gaussian,
    ReOptions,
)
import bestarm.casestudies as casestudies
from bestarm.casestudies import (
    JammerEnv,
    JammerScenario,
    RadarEnv,
    RadarScenario,
)
from bestarm.core import MAX_K, RngStream, block_trials, row_sums
from bestarm.experiments import group_mean_distribution, run_cells
from bestarm.grouping import construct_groups
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
    for name, opts in (
        ("UE", None), ("SR", None), ("RE", None), ("RE", PLUGIN), ("SH", None)
    )
    for K in (2, 3, 8, 12, 33)
    for bernoulli in (False, True)
    for tied in (False, True)
]


@pytest.mark.parametrize("name,opts,K,bernoulli,tied", ONE_TRIAL_CASES)
def test_one_trial_block_matches_reference(name, opts, K, bernoulli, tied):
    meta = np.random.default_rng([K, bernoulli, tied, name == "RE"])
    env = BanditEnv(random_instance(meta, K, bernoulli, tied))
    # SH runs where no round has a zero allocation, whose random half the
    # reference draws differently
    rounds = max(1, math.ceil(math.log2(K)))
    for T in {"SH": (K * rounds, 3 * K * rounds)}.get(name, (K, 3 * K, 10 * K)):
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


@pytest.mark.parametrize("K,T", [(8, 5), (12, 20), (33, 100)])
def test_sh_zero_allocation_rounds_keep_the_lowest_draws(K, T):
    # A round with no pulls keeps, in each row, the arms with the lowest
    # values of that round's rng.random((trials, alive)) draw. Noiseless
    # pulls draw nothing, so a twin generator replays every round.
    means = np.linspace(0.2, 0.9, K)
    env = BanditEnv(BanditInstance(means=tuple(means), family=Gaussian(0.0)))
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    got = run_policy("SH", env, T, rng, trials=64)
    rounds = max(1, math.ceil(math.log2(K)))
    alive = np.tile(np.arange(1, K + 1), (64, 1))
    random_rounds = 0
    for _ in range(rounds):
        n_alive = alive.shape[1]
        if n_alive == 1:
            break
        if T // (n_alive * rounds) == 0:
            score = twin.random((64, n_alive))
            random_rounds += 1
        else:
            score = -means[alive - 1]
        head = np.argsort(score, axis=1, kind="stable")[:, : math.ceil(n_alive / 2)]
        alive = np.sort(np.take_along_axis(alive, head, axis=1), axis=1)
    assert random_rounds > 0
    assert (got.recommended_arm == alive[:, 0]).all()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_re_block_diagnostics_have_one_entry_per_trial():
    env = BanditEnv(BanditInstance(means=(1.0,) + (0.5,) * 11, family=Gaussian(0.1)))
    run = run_policy("RE", env, 240, np.random.default_rng(0), PLUGIN, trials=7)
    diag = run.diagnostics
    for key in ("separability_flag", "mu_H_star", "mu_L_star", "decoded_dummy"):
        assert np.shape(diag[key]) == (7,)
    for key in ("mu_hat_G", "pi0", "pi1", "tau", "delta", "phase2_mean"):
        assert diag[key].shape == (7, 4)


def test_run_cells_draws_one_stream_per_block():
    # At K = 4, UE and SR hold rows of 4 arm sums and RE with alpha = 0
    # rows of m = 2 group sums, so their blocks differ in size.
    env = BanditEnv(BanditInstance(means=(1.0, 0.8, 0.8, 0.8), family=Gaussian(1.0)))
    B_arm, B_re = block_trials(4), block_trials(2)
    assert construct_groups(4).m == 2 and (B_arm, B_re) == (2**14, 2**15)
    trials, seed = B_re + 5, 3
    blocks = {
        "UE": ((0, B_arm), (B_arm, B_arm), (2 * B_arm, 5)),
        "SR": ((0, B_arm), (B_arm, B_arm), (2 * B_arm, 5)),
        "RE": ((0, B_re), (B_re, 5)),
    }
    cells = run_cells(env, ("UE", "SR", "RE"), (8, 40), trials, seed, "blocks")
    for c, cell in enumerate(cells):
        errors = 0
        for j0, rows in blocks[cell.algorithm]:
            rng = RngStream(seed, c * trials + j0).generator()
            run = run_policy(cell.algorithm, env, cell.T, rng, trials=rows)
            errors += int((~run.correct).sum())
        assert cell.errors == errors


def test_block_size_bounds_the_block_arrays():
    assert block_trials(1) == 2**16 and block_trials(4) == 2**14
    assert block_trials(10) == 6553 and block_trials(512) == 128
    assert block_trials(MAX_K) == 1
    for width in (1, 2, 3, 10, 100, 1025, 40_000, MAX_K):
        assert block_trials(width) >= 1
        assert block_trials(width) * width <= max(width, 2**16)


def law_env(law, K):
    """An environment of K arms under a reward family (arm 1 best), or a
    case study's, with its class given."""
    if law is JammerEnv:
        return JammerEnv(JammerScenario(K=K, j_star=1, noise_var=0.1))
    if law is RadarEnv:
        return RadarEnv(RadarScenario(K=K, noise_var=2.0))
    return BanditEnv(BanditInstance(means=(0.9,) + (0.4,) * (K - 1), family=law))


@pytest.mark.parametrize("family", [Gaussian(0.1), Bernoulli(), JammerEnv, RadarEnv])
def test_run_cells_sizes_blocks_by_the_row_width(family, monkeypatch):
    # UE, SR, SH and RE with a first phase hold K arm statistics a trial;
    # RE with alpha = 0 holds m group sums whatever the law, since a
    # group draw wider than its row chunks its own rows.
    import bestarm.experiments as experiments

    calls = []

    def record(policy, env, T, rng, opts, rows):
        calls.append((policy, opts.alpha, rows))
        raise BudgetTooSmall("recorded")

    monkeypatch.setattr(experiments, "run_policy", record)
    algorithms, options = ("UE", "SR", "SH", "RE", "RE-1"), {"RE-1": ReOptions(alpha=0.5)}
    for K in (2, 5, 12, 16, 1024, 2048):
        calls.clear()
        run_cells(law_env(family, K), algorithms, (4 * K,), 10**6, 0, "w", options)
        wide, narrow = block_trials(K), block_trials(construct_groups(K).m)
        assert calls == [
            ("UE", 0.0, wide), ("SR", 0.0, wide), ("SH", 0.0, wide),
            ("RE", 0.0, narrow), ("RE", 0.5, wide),
        ]
    assert (wide, narrow) == (32, block_trials(11))


def test_bernoulli_re_block_memory_is_bounded():
    """An RE block with alpha = 0 at K = 1024 runs B = block_trials(m = 10)
    = 6553 trials, so each (B, m) array holds at most 2**16 floats. Its
    run keeps five of them (pi0, pi1, tau, delta and phase2_mean), and
    run_cells still holds one block's run while the next is built: ten
    such arrays, plus room for two more of temporaries and (B,) vectors.
    A Bernoulli group draw chunks its (rows, 512) member counts to the
    same 2**16 floats, so one bound serves the Gaussian and Bernoulli
    laws. Bernoulli means of 0 and 1 draw their counts at once and hold
    the same arrays."""
    K = 1024
    B = block_trials(construct_groups(K).m)
    assert B == 6553
    for family in (Gaussian(0.1), Bernoulli()):
        means = (1.0,) + (0.0,) * (K - 1)
        env = BanditEnv(BanditInstance(means=means, family=family))
        run_cells(env, ("RE",), (1536,), 4, 0, "warm-up")
        tracemalloc.start()
        try:
            run_cells(env, ("RE",), (1536,), 2 * B, 0, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * 2**16, f"{family}: peak {peak / 1024:.0f} KiB"


# K, budgets: UE at n = 1, 2, 4 plays per arm; RE over the same budgets.
LAW_CASES = [(8, (8, 16, 32)), (64, (64, 128, 256)), (256, (256, 512, 1024))]


@pytest.mark.parametrize("K,budgets", LAW_CASES)
def test_batched_error_counts_follow_their_laws(K, budgets):
    delta, sigma2 = 0.5, 0.1
    means = (1.0,) + (1.0 - delta,) * (K - 1)
    env = BanditEnv(BanditInstance(means=means, family=Gaussian(sigma2)))
    for algorithm, width in (("UE", K), ("RE", construct_groups(K).m)):
        trials = 5 * block_trials(width) // 2  # three blocks, the last one short
        for cell in run_cells(env, (algorithm,), budgets, trials, 0, "laws"):
            if algorithm == "UE":
                p = ue_error(K, delta, sigma2, cell.T // K)
            else:
                p = re_gaussian_error(K, delta, sigma2, cell.T)
            assert not implausible(cell.errors, trials, p, p), (
                cell.algorithm, cell.T, cell.errors, trials, p
            )


def real_group_sizes(K):
    return [len(members) for members in construct_groups(K).groups]


def padded_re_error(K, best, delta, sigma2, T):
    """RE with oracle priors and alpha = 0 on a single-gap Gaussian instance.

    Group k tests its g_k real members: its mean is mu_1 - (1 - 1/g_k) Delta
    with the best arm and mu_1 - Delta without, the threshold sits midway,
    and the group mean over n = floor(T/m) plays has variance
    sigma2 / (g_k n). So bit k errs with q_k = Q(Delta sqrt(n / (4 g_k sigma2))),
    independently of the others. Every pattern of the m bits is weighed, and
    a decode past K falls back to clip(arm % K, 1, K).
    """
    m = construct_groups(K).m
    n = T // m
    q = [ndtr(-delta * math.sqrt(n / (4 * g * sigma2))) for g in real_group_sizes(K)]
    p_right = 0.0
    for pattern in range(2**m):
        arm = pattern + 1
        if (arm if arm <= K else min(max(arm % K, 1), K)) != best:
            continue
        flips = pattern ^ (best - 1)
        p_right += math.prod(q[k] if flips >> k & 1 else 1 - q[k] for k in range(m))
    return 1.0 - p_right


def test_bernoulli_group_pull_chunks_its_member_draws():
    """At K = 1024 every group holds 512 members, so a Bernoulli group pull
    of 300 rows plays each group through _arm_sums in three chunks of 128,
    128 and 44 rows: bit for bit the draws of one (300, 512) pull per
    group, group k before group k+1."""
    K, n, rows = 1024, 5, 300
    mu = np.linspace(0.05, 0.95, K)
    env = BanditEnv(BanditInstance(means=tuple(mu), family=Bernoulli()))
    assert block_trials(512) == 128 and set(real_group_sizes(K)) == {512}
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    got = env.pull_groups_sum(n, a, rows)
    want = np.stack(
        [
            b.binomial(n, mu[idx], (rows, len(idx))).sum(1) / len(idx)
            for idx in (g - 1 for g in construct_groups(K).groups)
        ],
        axis=1,
    )
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def bernoulli_re_error(K, best, hi, lo, T, tau):
    """RE with oracle priors and alpha = 0 on a Bernoulli instance whose arm
    `best` has mean hi and every other arm mean lo.

    A play of group k averages its g_k members, so the sum over n = T // m
    plays is g_k times the group sum, a sum of independent binomials:
    Binomial(n, hi) + Binomial(n (g_k - 1), lo) with the best arm, and
    Binomial(n g_k, lo) without. Bit k is 1 where (S / g_k) / n > tau_k,
    in the float operations of the pull and of RE, which are monotone in S:
    bit k is 0 exactly up to a cut. The bits are independent; every pattern
    of them is weighed, and a decode past K falls back to arm - K.
    """
    code = construct_groups(K)
    n = T // code.m
    q = []
    for k, members in enumerate(code.groups):
        g = len(members)
        s = np.arange(n * g + 1)
        cut = np.count_nonzero((s / g) / n <= tau[k]) - 1  # bit 0 for S <= cut
        if best in members:  # P(S <= cut): the bit wrongly reads 0
            j = np.arange(n + 1)
            low = binom.pmf(j, n, hi) @ binom.cdf(cut - j, n * (g - 1), lo)
            q.append(float(low))
        else:  # P(S > cut): the bit wrongly reads 1
            q.append(float(binom.sf(cut, n * g, lo)))
    p_right = 0.0
    for pattern in range(code.K_padded):
        arm = pattern + 1
        if (arm if arm <= K else arm - K) != best:
            continue
        flips = pattern ^ (best - 1)
        p_right += math.prod(
            q[k] if flips >> k & 1 else 1 - q[k] for k in range(code.m)
        )
    return 1.0 - p_right


# K, T and trials: each cell holds more trials than 2**16 // g_max, so
# its blocks hold more rows than one chunk of member draws
BERNOULLI_LAW_CASES = [(12, 240, 12_000), (256, 8192, 2000), (1024, 40_960, 1000)]


@pytest.mark.parametrize("K,T,trials", BERNOULLI_LAW_CASES)
def test_bernoulli_re_error_count_follows_its_law(K, T, trials):
    assert trials > 2**16 // max(real_group_sizes(K))
    best, hi, lo = K // 3 + 1, 0.9, 0.4
    means = [lo] * K
    means[best - 1] = hi
    env = BanditEnv(BanditInstance(means=tuple(means), family=Bernoulli()))
    tau = run_policy("RE", env, T, np.random.default_rng(0)).diagnostics["tau"][0]
    (cell,) = run_cells(env, ("RE",), (T,), trials, 0, "bernoulli")
    p = bernoulli_re_error(K, best, hi, lo, T, tau)
    assert 0.05 < p < 0.95
    assert not implausible(cell.errors, trials, p, p), (cell.errors, trials, p)


# K, T and the best arm; K pads to 16, 32 and 128 arms
PADDED_LAW_CASES = [(12, 192, 1), (12, 192, 12), (24, 384, 7), (100, 1600, 100)]


@pytest.mark.parametrize("K,T,best", PADDED_LAW_CASES)
def test_padded_re_error_count_follows_its_law(K, T, best):
    delta, sigma2, trials = 0.5, 0.1, 400
    means = [0.9 - delta] * K
    means[best - 1] = 0.9
    env = BanditEnv(BanditInstance(means=tuple(means), family=Gaussian(sigma2)))
    (cell,) = run_cells(env, ("RE",), (T,), trials, 0, "padded")
    p = padded_re_error(K, best, delta, sigma2, T)
    assert not implausible(cell.errors, trials, p, p), (cell.errors, p)


def test_padded_re_threshold_is_each_groups_bayes_threshold():
    # K = 12 pads to 16 arms: the groups hold 6, 6, 4 and 4 real members.
    # Close gaps keep every group separable, and a first phase with oracle
    # endpoints gives priors pi0 != pi1.
    K, T, alpha, sigma2 = 12, 480, 0.2, 0.1
    means = (1.0,) + tuple(np.linspace(0.5, 0.45, K - 1))
    env = BanditEnv(BanditInstance(means=means, family=Gaussian(sigma2)))
    opts = ReOptions(alpha=alpha, prior_mode="oracle")
    run = run_policy("RE", env, T, np.random.default_rng(0), opts, trials=64)
    prof = env.true_gap_profile()
    mu1, mu_L = prof.sorted_means[0], prof.sorted_means[0] - prof.delta_min
    m = construct_groups(K).m
    assert not run.diagnostics["separability_flag"].any()
    diag = run.diagnostics
    for k, g in enumerate(real_group_sizes(K)):
        mu_H = mu1 - (1 - 1 / g) * prof.delta_max
        v = sigma2 * m / (g * (1 - alpha) * T)  # variance of the group mean
        pi0, pi1 = diag["pi0"][:, k], diag["pi1"][:, k]
        assert (pi0 != pi1).all()
        # where pi1 N(x; mu_H, v) = pi0 N(x; mu_L, v)
        bayes = 0.5 * (mu_H + mu_L) + v * np.log(pi0 / pi1) / (mu_H - mu_L)
        np.testing.assert_allclose(diag["tau"][:, k], bayes, rtol=1e-12)
    assert run.diagnostics["mu_H_star"] == pytest.approx(mu1 - 5 / 6 * prof.delta_max)


def test_padded_re_threshold_on_the_jammer_is_each_groups_bayes_threshold():
    # K = 12 pads to 16 arms: the groups hold 6, 6, 4 and 4 real members.
    # A jammer group play keeps the receiver's noise_var whatever its size,
    # so a group mean over n plays has variance noise_var / n. The jammer's
    # gaps are all 1, so oracle endpoints give equal priors; plug-in
    # endpoints from a first phase give pi0 != pi1.
    K, T, alpha, nv, trials = 12, 480, 0.2, 0.001, 64
    env = JammerEnv(JammerScenario(K=K, j_star=5, noise_var=nv))
    opts = ReOptions(alpha=alpha, prior_mode="plugin")
    run = run_policy("RE", env, T, np.random.default_rng(0), opts, trials=trials)
    # the first phase is RE's first draw; redraw it for each row's endpoints
    n1 = int(alpha * T) // K
    arms = np.tile(np.arange(1, K + 1), (trials, 1))
    arm_hat = env.pull_arms_sum(arms, n1, np.random.default_rng(0)) / n1
    top = np.sort(arm_hat, axis=1)
    mu1 = top[:, -1]
    d2, d_max = mu1 - top[:, -2], mu1 - top[:, 0]
    mu_L = mu1 - d2
    diag = run.diagnostics
    np.testing.assert_array_equal(diag["mu_L_star"], mu_L)
    assert not diag["separability_flag"].any()
    m = construct_groups(K).m
    for k, g in enumerate(real_group_sizes(K)):
        mu_H = mu1 - (1 - 1 / g) * d_max
        v = nv * m / ((1 - alpha) * T)  # variance of the group mean
        pi0, pi1 = diag["pi0"][:, k], diag["pi1"][:, k]
        assert (pi0 != pi1).all()
        # where pi1 N(x; mu_H, v) = pi0 N(x; mu_L, v)
        bayes = 0.5 * (mu_H + mu_L) + v * np.log(pi0 / pi1) / (mu_H - mu_L)
        np.testing.assert_allclose(diag["tau"][:, k], bayes, rtol=1e-12)


class DrawLog:
    """A generator that records the uniform and multinomial draws made
    through it: ("random", size) and ("multinomial", n, size)."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def multinomial(self, n, pvals, size):
        self.calls.append(("multinomial", n, size))
        return self.rng.multinomial(n, pvals, size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_radar_pull_counts_pulses_once_per_block():
    """A block's active entries draw their summed pulse counts once per
    block, one entry per trial in each draw, whatever the play count: one
    uniform array per set bit of n below the tables' reach, then one
    multinomial row per trial for the plays beyond it."""
    env = RadarEnv(RadarScenario(active_channel=3))
    arms = np.tile(np.arange(1, 9), (64, 1))
    # 100 sets bits 2, 5 and 6; the tables reach 2**11 plays
    for n, beyond in ((100, []), (3 * 2**11 + 100, [("multinomial", 3 * 2**11, 64)])):
        rng = DrawLog(np.random.default_rng(0))
        assert env.pull_arms_sum(arms, n, rng).shape == (64, 8)
        group = oracles.pull_group_sum(env, np.array([3, 4, 7, 8]), n, rng, 64)
        assert group.shape == (64,)
        pull = [("random", 64)] * 3 + beyond
        assert rng.calls == pull + pull


def test_radar_pulse_count_chunks_are_one_multinomial_draw():
    """Plays beyond the tables' reach are drawn in chunks of rows that
    together make the draws of one multinomial over all rows."""
    env = RadarEnv(RadarScenario(noise_var=0.0))  # the pull returns S itself
    rows = block_trials(construct_groups(env.K).m)  # the rows of an RE block
    assert rows == 21_845
    support, pmf = env._counts
    assert rows > 4 * block_trials(len(pmf))  # several chunks
    assert len(env._tables) == 11
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    got = env._active_sums(rows, 3 * 2**11 + 400, a)
    want = oracles.table_count_sums(env, rows, 400, b)
    want += b.multinomial(3 * 2**11, pmf, size=rows) @ support
    np.testing.assert_array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


def test_radar_count_tables_stay_bounded_at_the_largest_budget():
    """The environment builds every table the law allows and keeps them
    within 2 * _COUNT_CHUNK floats, whatever the budget of its pulls."""
    sc = RadarScenario(noise_var=0.0)
    casestudies.pulse_count_pmf(sc)  # memoise the law first: it is not a table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        env = RadarEnv(sc)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(env._tables) == 11
    floats = sum(len(cdf) for lo, cdf in env._tables)
    assert floats <= 2 * casestudies._COUNT_CHUNK
    assert kept < 8 * 2 * casestudies._COUNT_CHUNK, f"{kept / 1024:.0f} KiB"


def test_radar_pull_leaves_its_count_tables_as_built():
    """A pull of 2**32 - 1 plays, past the reach of every table, reads
    the tables built with the environment and neither adds nor changes
    one."""
    env = RadarEnv(RadarScenario(noise_var=0.0))
    tables = list(env._tables)
    built = [(lo, cdf.tobytes()) for lo, cdf in tables]
    env.pull_arms_sum(np.array([1]), 2**32 - 1, np.random.default_rng(0))
    assert len(env._tables) == len(tables) == 11
    assert all(a is b for a, b in zip(env._tables, tables))
    assert [(lo, cdf.tobytes()) for lo, cdf in env._tables] == built


def test_radar_active_pull_memory_is_bounded():
    """Beyond its output, an RE block's active pull holds a few buffers of
    block_trials(len(pmf)) rows of counts, at most 2**16 counts each, not
    one row of counts per trial."""
    env = RadarEnv(RadarScenario())
    rows = block_trials(construct_groups(env.K).m)
    rng = np.random.default_rng(0)
    env._active_sums(rows, 400, rng)  # warm-up
    tracemalloc.start()
    try:
        env._active_sums(rows, 400, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - 8 * rows
    assert extra < 4 * 8 * 2**16, f"{extra / 1024:.0f} KiB"


@pytest.mark.parametrize(
    "rows,n", [(1, 1), (3, 5), (7, 60_000), (2, 450_001), (0, 5), (4, 0), (0, 0)]
)
def test_row_sums_chunking_keeps_row_order(rows, n):
    """Chunked draws of at most 2**16 entries, whole rows or a wide row's
    columns, sum to the rows of one (rows, n) draw; a width or row count
    of 0 calls no draw and gives `rows` zeros."""
    r, calls = np.random.default_rng(1), []

    def draw(a, b):
        calls.append((a, b))
        assert a * b <= 2**16 and (a == 1 or b == n)
        return r.integers(0, 1000, size=(a, b))

    whole = np.random.default_rng(1).integers(0, 1000, size=(rows, n)).sum(axis=1)
    got = row_sums(rows, n, draw)
    assert got.shape == (rows,) and np.array_equal(got, whole)
    assert sum(a * b for a, b in calls) == rows * n
    if rows * n:
        assert calls[0][0] == min(rows, block_trials(n))
    else:
        assert calls == []


def test_radar_iq_pull_memory_is_bounded():
    """An I/Q pull of 300 000 plays a row holds a few 2**16-entry draws at
    once, not every play of a row or a fixed larger chunk of plays."""
    g = np.random.default_rng(3)
    env = RadarEnv(RadarScenario(), iq=(g.normal(size=4000), g.normal(size=4000)))
    rng = np.random.default_rng(0)
    env._active_sums(2, 1000, rng)  # warm-up
    tracemalloc.start()
    try:
        got = env._active_sums(2, 300_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (2,) and (got > 0).all()
    assert peak < 4 * 8 * 2**16, f"{peak / 1024:.0f} KiB"


def test_group_mean_distribution_gap_draws_are_bounded():
    """Beyond its two gap-sum and two group-mean arrays, a draw at
    K = 1024 holds a few 2**16-float buffers (gap rows, histogram blocks),
    not a (rows, K/2) block of 2**20 gaps."""
    samples = 100_000
    group_mean_distribution(1024, 0.1, 0.4, samples=1000)  # warm-up
    tracemalloc.start()
    try:
        group_mean_distribution(1024, 0.1, 0.4, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - 4 * 8 * samples
    assert extra < 6 * 8 * 2**16, f"{extra / 1024:.0f} KiB"


def test_group_mean_distribution_memory_is_bounded():
    tracemalloc.start()
    try:
        group_mean_distribution(1024, 0.1, 0.4, samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, f"peak {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("dwell_T", [30e-6, 120e-6])  # 2 and 6 pulse slots
def test_signal_sample_counts_memory_is_bounded(dwell_T):
    """Beyond its draws and counts (40 bytes a play), a call holds at most
    a few _COUNT_BLOCK-sized buffers, however many slots and plays."""
    sc = RadarScenario(dwell_T=dwell_T)
    n = 50_000
    rng = np.random.default_rng(0)
    signal_sample_counts(sc, n, rng)  # warm-up
    tracemalloc.start()
    try:
        signal_sample_counts(sc, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - 40 * n
    assert extra < 4 * 8 * _COUNT_BLOCK, f"{extra / 1024:.0f} KiB beyond the draws"


def test_group_mean_distribution_refuses_large_inputs():
    with pytest.raises(ConfigParse):
        group_mean_distribution(2 * MAX_K, 0.1, 0.4, samples=10)
    with pytest.raises(ConfigParse):
        group_mean_distribution(16, 0.1, 0.4, samples=10**12)
