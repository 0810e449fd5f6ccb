"""Policy runs: uniform, successive rejects, halving, grouped exploration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bestarm import (
    BanditEnv,
    BanditInstance,
    Bernoulli,
    BudgetTooSmall,
    DegenerateInterval,
    Gaussian,
    ReOptions,
    SeparabilityViolated,
    bound_re,
    construct_groups,
    gap_profile,
    hardness,
    run_policy,
)
from bestarm import policies
from bestarm.experiments import wilson_interval
from bestarm.hardness import q_function
from bestarm.policies import (
    _lowest,
    compute_priors,
    lrt_threshold_gaussian,
    run_re,
    run_sh,
    run_sr,
    run_ue,
)
from oracles import composite_lrt_decision


def rng(seed=0):
    return np.random.default_rng(seed)


def gaussian_env(means, sigma2):
    return BanditEnv(BanditInstance(means=tuple(means), family=Gaussian(sigma2)))


def single_gap_env(K, delta, sigma2, mu_star=1.0):
    means = (mu_star,) + (mu_star - delta,) * (K - 1)
    return gaussian_env(means, sigma2)


class CountingEnv:
    """Forwarding wrapper that logs per-arm pull counts and each group
    played, with its n."""

    def __init__(self, env):
        self._env = env
        self.arm_pulls = {}
        self.group_pulls = []

    K = property(lambda self: self._env.K)
    best_arm = property(lambda self: self._env.best_arm)
    sigma2 = property(lambda self: self._env.sigma2)

    def true_gap_profile(self):
        return self._env.true_gap_profile()

    def pull_arms_sum(self, arms, n, r):
        for arm in np.ravel(arms):
            self.arm_pulls[int(arm)] = self.arm_pulls.get(int(arm), 0) + n
        return self._env.pull_arms_sum(arms, n, r)

    def pull_groups_sum(self, n, r, trials=1):
        for members in construct_groups(self.K).groups:
            self.group_pulls.append((tuple(members), n))
        return self._env.pull_groups_sum(n, r, trials)


# --------------------------------------------------------------------- UE


def test_ue_noiseless_always_correct():
    env = gaussian_env((0.2, 0.9, 0.5), 0.0)
    for seed in range(20):
        run = run_ue(env, 30, rng(seed))
        assert run.correct
        assert run.recommended_arm == 2


def test_ue_deterministic_bernoulli():
    env = BanditEnv(BanditInstance(means=(1.0, 0.0), family=Bernoulli()))
    assert all(run_ue(env, 2, rng(s)).correct for s in range(50))


def test_ue_budget_too_small():
    env = gaussian_env((0.2, 0.9, 0.5), 1.0)
    with pytest.raises(BudgetTooSmall):
        run_ue(env, 2, rng())


def test_ue_discards_budget_remainder():
    env = gaussian_env((0.2, 0.9, 0.5), 1.0)
    run = run_ue(env, 10, rng())
    assert run.pulls_used == 9
    assert run.budget_T == 10


def test_ue_error_matches_two_arm_closed_form():
    # two arms pulled T/2 times each: error = Q(delta * sqrt(T/4) / sigma)
    delta, T, trials = 0.5, 32, 3000
    env = gaussian_env((delta, 0.0), 1.0)
    errors = sum(not run_ue(env, T, rng(s)).correct for s in range(trials))
    want = q_function(delta * math.sqrt(T / 4))
    sd = math.sqrt(want * (1 - want) / trials)
    assert abs(errors / trials - want) < 3 * sd


# --------------------------------------------------------------------- SR


def test_sr_noiseless_always_correct():
    env = gaussian_env((0.9, 0.6, 0.5, 0.4), 0.0)
    run = run_sr(env, 100, rng())
    assert run.correct and run.recommended_arm == 1


def test_sr_two_arms_equal_allocation():
    env = CountingEnv(gaussian_env((0.9, 0.1), 0.0))
    run = run_sr(env, 10, rng())
    # single phase: both arms get ceil((T-K)/(logbar(2)*2)) = 4 pulls
    assert env.arm_pulls == {1: 4, 2: 4}
    assert run.pulls_used == 8


def test_sr_schedule_k4_t100():
    # hand-computed phase table: logbar(4) = 0.5 + 1/2 + 1/3 + 1/4
    # n_1 = ceil(96 / (logbar*4)) = 16, n_2 = 21, n_3 = 31
    env = CountingEnv(gaussian_env((0.9, 0.6, 0.5, 0.4), 0.0))
    run = run_sr(env, 100, rng())
    assert env.arm_pulls == {1: 31, 2: 31, 3: 21, 4: 16}
    assert run.pulls_used == 99
    assert run.recommended_arm == 1


def test_sr_budget_too_small():
    env = gaussian_env((0.9, 0.6, 0.5), 1.0)
    with pytest.raises(BudgetTooSmall):
        run_sr(env, 2, rng())


def test_sr_zero_increment_phases_drop_lowest_index():
    # T == K gives n_k = 0 everywhere: never-pulled arms tie at the bottom
    # and the lowest index is rejected each phase, leaving the last arm
    env = gaussian_env((0.9, 0.6, 0.5, 0.4), 1.0)
    run = run_sr(env, 4, rng())
    assert run.recommended_arm == 4
    assert run.pulls_used == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lowest_is_the_head_of_a_stable_argsort(data):
    # tie-heavy rows: a few integer values, -0.0 beside 0.0, some rows flat
    rows = data.draw(st.integers(1, 64))
    n = data.draw(st.integers(2, 40))
    r = data.draw(st.integers(1, n - 1))
    pool = data.draw(
        st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]), min_size=1, max_size=4)
    )
    values = data.draw(arrays(np.float64, (rows, n), elements=st.sampled_from(pool)))
    flat = data.draw(arrays(np.bool_, rows))
    values[flat] = values[flat, :1]
    want = np.zeros(values.shape, dtype=bool)
    head = np.argsort(values, axis=1, kind="stable")[:, :r]
    np.put_along_axis(want, head, True, axis=1)
    assert (_lowest(values, r) == want).all()


# --------------------------------------------------------------------- SH


def test_sh_noiseless_always_correct():
    env = gaussian_env((0.1, 0.2, 0.95, 0.4, 0.5, 0.6, 0.7, 0.8), 0.0)
    run = run_sh(env, 48, rng())
    assert run.correct and run.recommended_arm == 3


def test_sh_round_structure_k8():
    env = CountingEnv(single_gap_env(8, 0.5, 0.0))
    run = run_sh(env, 24, rng())
    # rounds see 8 -> 4 -> 2 arms with 1, 2, 4 pulls per arm
    counts = sorted(env.arm_pulls.values(), reverse=True)
    assert counts == [7, 7, 3, 3, 1, 1, 1, 1]
    assert run.pulls_used == 24
    assert run.correct


def test_sh_single_round_for_two_arms():
    env = CountingEnv(gaussian_env((0.9, 0.1), 0.0))
    run = run_sh(env, 8, rng())
    assert env.arm_pulls == {1: 4, 2: 4}
    assert run.correct


def test_sh_zero_allocation_degrades_to_random_choice():
    # budget far below K*rounds: every round keeps a random half
    env = single_gap_env(8, 0.5, 0.0)
    trials = 2000
    errors = sum(not run_sh(env, 5, rng(s)).correct for s in range(trials))
    p = errors / trials
    assert abs(p - (1 - 1 / 8)) < 0.03


def test_sh_one_arm_recommends_it_without_pulls():
    env = CountingEnv(gaussian_env((0.5,), 0.1))
    run = run_sh(env, 10, rng())
    assert run.recommended_arm == 1 and run.correct
    assert run.pulls_used == 0 and env.arm_pulls == {}


class UlpEnv:
    """Two arms whose sums of any pull are 7 and the next float above it,
    which a division by n = 3 rounds to one mean."""

    K = 2
    best_arm = 2

    def pull_arms_sum(self, arms, n, r):
        return np.array([7.0, np.nextafter(7.0, 8.0)])[np.asarray(arms) - 1]


@pytest.mark.parametrize("policy", [run_ue, run_sh])
def test_policy_ranks_sums_that_a_division_would_merge(policy):
    """UE and SH pull every alive arm n times and rank the sums, so the
    larger of two sums one ulp apart wins even where their means tie."""
    low, high = UlpEnv().pull_arms_sum(np.array([1, 2]), 3, None)
    assert low < high and low / 3 == high / 3
    assert policy(UlpEnv(), 6, rng()).recommended_arm == 2


# ------------------------------------------------------------------ priors


def test_priors_half_at_typical_in_group_mean():
    E_muH, E_muL, len1, len0 = 0.6, 0.4, 0.1, 0.2
    pi0, pi1 = compute_priors(E_muH, E_muH, E_muL, len1, len0)
    sig_out = 1 / (1 + math.exp((E_muH - E_muL) / len0))
    assert pi1 == pytest.approx(0.5 / (0.5 + sig_out), rel=1e-12)
    assert pi0 + pi1 == pytest.approx(1.0, rel=1e-12)


def test_priors_saturate_in_the_tails():
    pi0, pi1 = compute_priors(1e6, 0.6, 0.4, 0.1, 0.2)
    assert pi1 > 1 - 1e-9
    pi0, pi1 = compute_priors(-1e6, 0.6, 0.4, 0.1, 0.2)
    assert pi0 > 1 - 1e-9


def test_priors_need_positive_interval_lengths():
    with pytest.raises(DegenerateInterval):
        compute_priors(0.5, 0.6, 0.4, 0.0, 0.2)
    with pytest.raises(DegenerateInterval):
        compute_priors(0.5, 0.6, 0.4, 0.1, -0.1)


@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=1e-3, max_value=10),
    st.floats(min_value=1e-3, max_value=10),
)
def test_priors_always_normalized(mu_hat, e_h, e_l, l1, l0):
    pi0, pi1 = compute_priors(mu_hat, e_h, e_l, l1, l0)
    assert 0.0 <= pi0 <= 1.0
    assert pi0 + pi1 == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- threshold


def test_threshold_is_midpoint_at_equal_priors():
    tau = lrt_threshold_gaussian(0.8, 0.2, 0.5, 0.5, 16, 1000, 0.0, 2.0)
    assert tau == pytest.approx(0.5, abs=1e-12)


def test_threshold_is_midpoint_at_equal_priors_when_the_shift_overflows():
    # 2 * sigma2 * log2(K) overflows to inf, and inf * log(1) would be NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = lrt_threshold_gaussian(0.9, 0.5, 0.5, 0.5, 1024, 8192, 0.0, 1e308)
        taus = lrt_threshold_gaussian(
            np.array([0.9, 0.9]), 0.5, np.array([0.5, 0.6]), np.array([0.5, 0.4]),
            1024, 8192, 0.0, 1.0,
        )
    assert tau == 0.5 * (0.9 + 0.5)
    assert taus[0] == 0.5 * (0.9 + 0.5) and taus[1] > taus[0]  # pi0 > pi1


def test_threshold_shifts_up_when_null_is_favored():
    mid = 0.5
    tau = lrt_threshold_gaussian(0.8, 0.2, 0.7, 0.3, 16, 1000, 0.0, 2.0)
    assert tau > mid


def test_threshold_spot_value():
    e = math.e
    tau = lrt_threshold_gaussian(0.6, 0.4, e / (1 + e), 1 / (1 + e), 8, 300, 0.0, 1.0)
    assert tau == pytest.approx(0.5125, rel=1e-9)


def test_threshold_requires_separation():
    with pytest.raises(SeparabilityViolated):
        lrt_threshold_gaussian(0.4, 0.6, 0.5, 0.5, 8, 100, 0.0, 1.0)


def test_composite_lrt_equals_threshold_rule():
    r = rng(123)
    for _ in range(1000):
        mu_l = r.uniform(-1, 1)
        mu_h = mu_l + r.uniform(0.05, 2.0)
        pi0 = r.uniform(0.05, 0.95)
        pi1 = 1 - pi0
        K = int(2 ** r.integers(1, 8))
        T = int(r.integers(50, 5000))
        s2 = r.uniform(0.05, 4.0)
        m = math.log2(K)
        tau = lrt_threshold_gaussian(mu_h, mu_l, pi0, pi1, K, T, 0.0, s2)
        r_bar = tau + r.normal(0, 0.5)
        if abs(r_bar - tau) < 1e-9 * max(1.0, abs(tau)):
            continue
        decided = composite_lrt_decision(
            r_bar, mu_l, mu_h, pi0, pi1, s2 / (K / 2), T / m
        )
        assert decided == (r_bar > tau)


# --------------------------------------------------------------------- RE


def test_re_noiseless_oracle_correct():
    for K in (4, 8, 16):
        env = single_gap_env(K, 0.5, 0.0)
        run = run_re(env, 10 * K, rng())
        assert run.correct
        assert run.algorithm == "RE"


def test_re_low_noise_spot_run():
    env = single_gap_env(8, 0.5, 0.1)
    trials = 500
    runs = [run_re(env, 300, rng(s)) for s in range(trials)]
    errors = sum(not r.correct for r in runs)
    hp = hardness(env.true_gap_profile())
    cap = bound_re("gaussian", 8, 300, hp.H4, hp.eta, 0.1)
    assert cap < 2e-4
    lo, hi = wilson_interval(errors, trials)
    half = 0.5 * (hi - lo)
    assert errors / trials <= cap + 3 * half
    # single-gap endpoints and the equal-prior midpoint threshold
    diag = runs[0].diagnostics
    assert diag["mu_H_star"] == pytest.approx(0.625)
    assert diag["mu_L_star"] == pytest.approx(0.5)
    for k in range(3):
        assert diag["tau"][:, k] == pytest.approx(0.5625, abs=1e-12)
        assert diag["pi0"][:, k] == 0.5


def test_re_decodes_true_arm_most_of_the_time():
    env = single_gap_env(8, 0.5, 0.1)
    hits = sum(run_re(env, 300, rng(s)).correct for s in range(200))
    assert hits / 200 >= 0.95


def test_re_flags_non_separable_instances():
    # runner-up hugs the best arm while the rest sit far below
    env = gaussian_env((1.0, 0.95) + (0.2,) * 6, 0.05)
    run = run_re(env, 240, rng())
    diag = run.diagnostics
    assert diag["separability_flag"].all()
    mid = 0.5 * (diag["mu_H_star"] + diag["mu_L_star"])
    for k in range(3):
        assert diag["tau"][:, k] == pytest.approx(mid, abs=1e-12)


@pytest.mark.parametrize("K", [8, 12, 1024])
def test_re_oracle_threshold_is_the_exact_midpoint(K, monkeypatch):
    # equal priors make the LRT shift zero: tau is the endpoint midpoint,
    # bit for bit, and the shift is never evaluated
    def no_shift(*args):
        raise AssertionError("LRT evaluated at equal priors")

    monkeypatch.setattr(policies, "lrt_threshold_gaussian", no_shift)
    env = gaussian_env((1.0,) + tuple(np.linspace(0.5, 0.4995, K - 1)), 0.1)
    run = run_re(env, 16 * K, rng(), trials=5)
    assert not run.diagnostics["separability_flag"].any()
    prof = env.true_gap_profile()
    mu1, d2, d_max = prof.sorted_means[0], prof.delta_min, prof.delta_max
    mu_L = mu1 - d2
    for k, g in enumerate(construct_groups(K).sizes):
        mu_H = mu1 - (1.0 - 1.0 / g) * d_max
        assert (run.diagnostics["tau"][:, k] == 0.5 * (mu_H + mu_L)).all()


def all_separable_lrt_tau(env, T, seed, opts, trials):
    """RE's thresholds by the rule that evaluates the LRT in every separable
    group, equal priors included: phase 1 replayed from the run's stream,
    the priors read from the run's diagnostics."""
    K = env.K
    code = construct_groups(K)
    g = code.sizes
    r = rng(seed)
    n1 = int(opts.alpha * T) // K
    arm_hat = env.pull_arms_sum(np.tile(np.arange(1, K + 1), (trials, 1)), n1, r) / n1
    if opts.prior_mode == "oracle":
        prof = env.true_gap_profile()
        ends = (prof.sorted_means[0], prof.delta_min, prof.delta_max)
        mu1, d2, d_max = (np.full((trials, 1), v) for v in ends)
    else:
        top = np.sort(arm_hat, axis=1)
        mu1 = top[:, -1:]
        d2 = np.maximum(mu1 - top[:, -2:-1], 1e-6)
        d_max = np.maximum(mu1 - top[:, :1], 1e-6)
    mu_H = mu1 - (1.0 - 1.0 / g) * d_max
    mu_L = (mu1 - d2).repeat(code.m, axis=1)
    run = run_re(env, T, rng(seed), opts, trials)
    pi0, pi1 = run.diagnostics["pi0"], run.diagnostics["pi1"]
    sep = mu_H > mu_L
    tau = 0.5 * (mu_H + mu_L)
    sigma2_k = env.sigma2 * (code.K_padded / 2) / g
    tau[sep] = lrt_threshold_gaussian(
        *(a[sep] for a in (mu_H, mu_L, pi0, pi1)),
        code.K_padded, T, opts.alpha, sigma2_k[sep.nonzero()[1]],
    )
    return run.diagnostics, tau, sep


PLUGIN = ReOptions(alpha=0.2, prior_mode="plugin")


# each case, with which of shifted (separable, pi0 != pi1), equal-prior and
# inseparable groups its block holds
LRT_CASES = [
    ((1.0, 0.6, 0.5, 0.45, 0.4), 0.1, 400, PLUGIN, (True, True, True)),  # padded
    ((1.0, 0.95) + (0.2,) * 6, 0.05, 240, PLUGIN, (False, False, True)),
    ((1.0,) + tuple(np.linspace(0.5, 0.45, 11)), 0.1, 480,
     ReOptions(alpha=0.2, prior_mode="oracle"), (True, False, False)),  # padded
]


@pytest.mark.parametrize("means,sigma2,T,opts,kinds", LRT_CASES)
def test_re_unequal_priors_keep_their_lrt_thresholds(means, sigma2, T, opts, kinds):
    diag, want, sep = all_separable_lrt_tau(gaussian_env(means, sigma2), T, 3, opts, 64)
    assert diag["tau"].tobytes() == want.tobytes()
    unequal = diag["pi0"] != diag["pi1"]
    assert ((sep & unequal).any(), (sep & ~unequal).any(), (~sep).any()) == kinds


def test_re_bounded_family_uses_midpoint():
    inst = BanditInstance(means=(0.9,) + (0.1,) * 7, family=Bernoulli())
    run = run_re(BanditEnv(inst), 120, rng())
    diag = run.diagnostics
    mid = 0.5 * (diag["mu_H_star"] + diag["mu_L_star"])
    for k in range(3):
        assert diag["tau"][:, k] == pytest.approx(mid, abs=1e-12)


def test_re_padded_instance_noiseless_boundary():
    # K = 6 pads to 8 arms; each group test reads only its real members, so
    # a noiseless single-gap instance is decoded right at every position
    for pos in range(1, 7):
        means = [0.5] * 6
        means[pos - 1] = 1.0
        run = run_re(gaussian_env(means, 0.0), 60, rng())
        assert run.recommended_arm == pos
        assert not run.diagnostics["decoded_dummy"].any()


def test_re_padded_instance_noiseless_with_spread_gaps():
    # distinct gaps move the groups off the threshold knife edge
    run = run_re(gaussian_env((0.4, 1.0, 0.55, 0.5, 0.45, 0.6), 0.0), 60, rng())
    assert run.correct and run.recommended_arm == 2
    assert [run.diagnostics["delta"][:, k] for k in range(3)] == [1, 0, 0]


def test_re_one_member_group_keeps_indifferent_priors():
    # K = 5 pads to 8 arms: the third group holds arm 5 alone, whose in-group
    # mean is mu_1 itself, so its prior has no interval to ramp over
    env = gaussian_env((1.0, 0.6, 0.5, 0.45, 0.4), 0.1)
    run = run_re(env, 400, rng(), ReOptions(alpha=0.2, prior_mode="plugin"))
    diag = run.diagnostics
    assert diag["pi0"][:, 2] == diag["pi1"][:, 2] == 0.5
    assert (diag["pi0"][:, 0] != 0.5).all()


def test_re_plugin_mode():
    env = single_gap_env(8, 0.5, 0.01)
    run = run_re(env, 400, rng(), ReOptions(alpha=0.2, prior_mode="plugin"))
    assert run.correct
    assert run.diagnostics["prior_mode"] == "plugin"
    assert run.diagnostics["alpha"] == 0.2
    # phase 1 spent floor(0.2*400/8)=10 pulls per arm, phase 2 floor(320/3) per group
    assert run.pulls_used == 8 * 10 + 3 * (320 // 3)


@pytest.mark.parametrize("K", [16, 12])
@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_re_block_plays_each_group_once_and_counts_its_pulls(K, alpha):
    env = CountingEnv(single_gap_env(K, 0.5, 0.1))
    T, trials = 20 * K, 4
    run = run_re(env, T, rng(), ReOptions(alpha=alpha), trials)
    code = construct_groups(K)
    n_group = int((1.0 - alpha) * T) // code.m
    n1 = int(alpha * T) // K
    assert env.group_pulls == [(tuple(g), n_group) for g in code.groups]
    # arm pulls are counted over the block's rows, n1 per arm in each trial
    assert env.arm_pulls == {a: trials * n1 for a in range(1, K + 1) if n1}
    assert run.pulls_used == n_group * code.m + n1 * K


def test_re_options_validated():
    with pytest.raises(ValueError):
        ReOptions(alpha=1.0)
    with pytest.raises(ValueError):
        ReOptions(alpha=-0.1)
    with pytest.raises(ValueError):
        ReOptions(prior_mode="psychic")
    with pytest.raises(ValueError):
        ReOptions(alpha=0.0, prior_mode="plugin")


def test_re_budget_too_small():
    env = single_gap_env(8, 0.5, 0.1)
    with pytest.raises(BudgetTooSmall):
        run_re(env, 2, rng())
    with pytest.raises(BudgetTooSmall):
        run_re(env, 30, rng(), ReOptions(alpha=0.1, prior_mode="plugin"))


class ScriptedEnv:
    """Hand-scripted six-arm environment that decodes to a padding arm."""

    K = 6
    best_arm = 3
    sigma2 = 1.0

    def __init__(self, arm_means):
        self.arm_means = arm_means

    @property
    def _group_var(self):
        """One group play's variance, sigma2 / g_k, as BanditEnv's table."""
        return self.sigma2 / construct_groups(self.K).sizes

    def true_gap_profile(self):
        inst = BanditInstance(
            means=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5), family=Gaussian(1.0)
        )
        return gap_profile(inst)

    def pull_arms_sum(self, arms, n, r):
        return n * np.asarray(self.arm_means, dtype=float)[np.asarray(arms) - 1]

    def pull_groups_sum(self, n, r, trials=1):
        # groups {3,4} and {5,6} read high, group {2,4,6} reads low
        high = [
            set(members) in ({3, 4}, {5, 6})
            for members in construct_groups(self.K).groups
        ]
        return np.tile(np.where(high, n * 7.0, n * -5.0), (trials, 1))


def test_re_dummy_decode_falls_back_to_wrapped_index():
    run = run_re(ScriptedEnv([0.0] * 6), 60, rng())
    assert run.diagnostics["decoded_dummy"].all()
    # detections (0,1,1) point at padding arm 7; the fallback is 7 - 6 = arm 1
    assert run.recommended_arm == 1


class PatternEnv(ScriptedEnv):
    """Scripted K-armed environment whose group tests spell one pattern."""

    best_arm = 1

    def __init__(self, K, pattern):
        self.K, self.pattern = K, pattern

    def true_gap_profile(self):
        means = tuple(1.0 - 0.5 * np.arange(self.K) / (self.K - 1))
        return gap_profile(BanditInstance(means=means, family=Gaussian(1.0)))

    def pull_groups_sum(self, n, r, trials=1):
        bits = [(self.pattern - 1) >> k & 1 for k in range(construct_groups(self.K).m)]
        return np.tile(np.where(bits, n * 7.0, n * -5.0), (trials, 1))


@pytest.mark.parametrize("K", [3, 5, 6, 12, 100])
def test_re_oracle_fallback_past_K_is_arm_minus_K(K):
    for pattern in construct_groups(K).dummy_arms:
        run = run_re(PatternEnv(K, pattern), 40 * K, rng())
        assert run.diagnostics["decoded_dummy"].all()
        assert run.recommended_arm == pattern - K


def test_re_dummy_decode_falls_back_to_exploration_argmax():
    env = ScriptedEnv([1.0, 2.0, 3.0, 9.0, 2.0, 1.0])
    run = run_re(env, 60, rng(), ReOptions(alpha=0.3, prior_mode="plugin"))
    assert run.diagnostics["decoded_dummy"].all()
    assert run.recommended_arm == 4


# ------------------------------------------------------------- common shape


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["UE", "SR", "SH", "RE"]),
    st.integers(min_value=8, max_value=200),
    st.integers(min_value=0, max_value=1000),
)
def test_budget_accounting_and_range(name, T, seed):
    env = single_gap_env(8, 0.5, 0.3)
    run = run_policy(name, env, T, rng(seed))
    assert run.pulls_used <= T
    assert 1 <= run.recommended_arm <= 8
    assert run.budget_T == T
    assert run.correct == (run.recommended_arm == env.best_arm)


def test_run_policy_rejects_unknown_name():
    env = single_gap_env(8, 0.5, 0.3)
    with pytest.raises(ValueError):
        run_policy("EXP3", env, 100, rng())


def test_bandit_env_views():
    g = gaussian_env((0.2, 0.9), 0.7)
    assert g.sigma2 == 0.7
    assert g.best_arm == 2
    b = BanditEnv(BanditInstance(means=(0.2, 0.9), family=Bernoulli()))
    assert b.sigma2 is None
    assert b.true_gap_profile().delta_min == pytest.approx(0.7)
