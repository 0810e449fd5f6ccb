"""Policy runs: uniform, successive rejects, halving, grouped exploration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gap_profile,
    hardness,
    run_policy,
)
from bestarm.experiments import wilson_interval
from bestarm.hardness import q_function
from bestarm.policies import (
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
    """Forwarding wrapper that logs per-arm pull counts."""

    def __init__(self, env):
        self._env = env
        self.arm_pulls = {}
        self.group_pulls = []

    K = property(lambda self: self._env.K)
    best_arm = property(lambda self: self._env.best_arm)
    sigma2 = property(lambda self: self._env.sigma2)

    def true_gap_profile(self):
        return self._env.true_gap_profile()

    def dummy_mean(self):
        return self._env.dummy_mean()

    def pull_arms_sum(self, arms, n, r):
        for arm in np.ravel(arms):
            self.arm_pulls[int(arm)] = self.arm_pulls.get(int(arm), 0) + n
        return self._env.pull_arms_sum(arms, n, r)

    def pull_group_sum(self, members, n, r, trials=1):
        self.group_pulls.append((tuple(members), n))
        return self._env.pull_group_sum(members, n, r, trials)


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
    for g in diag["groups"]:
        assert g["tau"] == pytest.approx(0.5625, abs=1e-12)
        assert g["pi0"] == 0.5


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
    for g in diag["groups"]:
        assert g["tau"] == pytest.approx(mid, abs=1e-12)


def test_re_bounded_family_uses_midpoint():
    inst = BanditInstance(means=(0.9,) + (0.1,) * 7, family=Bernoulli())
    run = run_re(BanditEnv(inst), 120, rng())
    diag = run.diagnostics
    mid = 0.5 * (diag["mu_H_star"] + diag["mu_L_star"])
    for g in diag["groups"]:
        assert g["tau"] == pytest.approx(mid, abs=1e-12)


def test_re_padded_instance_noiseless_boundary():
    # padding pulls the dummy mean to mu_[K] - delta_max, which on a
    # single-gap instance parks best-arm groups exactly on the midpoint
    # threshold; the strict > rule then only detects positions whose
    # groups hold few dummies. Characterize that boundary.
    recs = []
    for pos in range(1, 7):
        means = [0.5] * 6
        means[pos - 1] = 1.0
        run = run_re(gaussian_env(means, 0.0), 60, rng())
        assert 1 <= run.recommended_arm <= 6
        recs.append((pos, run.correct))
    assert recs[0] == (1, True)
    assert recs[1] == (2, True)
    assert recs[2] == (3, False)


def test_re_padded_instance_noiseless_with_spread_gaps():
    # distinct gaps move the groups off the threshold knife edge
    run = run_re(gaussian_env((0.4, 1.0, 0.55, 0.5, 0.45, 0.6), 0.0), 60, rng())
    assert run.correct and run.recommended_arm == 2
    assert [g["delta"] for g in run.diagnostics["groups"]] == [1, 0, 0]


def test_re_plugin_mode():
    env = single_gap_env(8, 0.5, 0.01)
    run = run_re(env, 400, rng(), ReOptions(alpha=0.2, prior_mode="plugin"))
    assert run.correct
    assert run.diagnostics["prior_mode"] == "plugin"
    assert run.diagnostics["alpha"] == 0.2
    # phase 1 spent floor(0.2*400/8)=10 pulls per arm, phase 2 floor(320/3) per group
    assert run.pulls_used == 8 * 10 + 3 * (320 // 3)


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

    def true_gap_profile(self):
        inst = BanditInstance(
            means=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5), family=Gaussian(1.0)
        )
        return gap_profile(inst)

    def dummy_mean(self):
        return -1.0

    def pull_arms_sum(self, arms, n, r):
        return n * np.asarray(self.arm_means, dtype=float)[np.asarray(arms) - 1]

    def pull_group_sum(self, members, n, r, trials=1):
        members = set(members)
        # groups {3,4} and {5,6} read high, group {2,4,6} reads low
        if members in ({3, 4}, {5, 6}):
            return n * 7.0
        return n * -5.0


def test_re_dummy_decode_falls_back_to_wrapped_index():
    run = run_re(ScriptedEnv([0.0] * 6), 60, rng())
    assert run.diagnostics["decoded_dummy"].all()
    # detections (0,1,1) point at padding arm 7; 7 mod 6 wraps to arm 1
    assert run.recommended_arm == 1


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
