"""Vectorised paths against the per-arm loops they replaced.

The loops below are the earlier successive-rejects phase loop, the
per-member group sampler, the per-slot radar pulse counter and the per-play
radar pull, kept as oracles: the vectorised code must make the same draws in
the same order and reach the same result, bit for bit, with the generator
left in the same state.
"""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from bestarm import (
    BanditEnv,
    BanditInstance,
    Bernoulli,
    EmptyGroup,
    Gaussian,
    IndexOutOfRange,
    RadarScenario,
    construct_groups,
    run_policy,
)
from bestarm.casestudies import (
    RadarEnv,
    _COUNT_BLOCK,
    _EDGE_EPS,
    _slots_that_can_start,
    signal_sample_counts,
)
from bestarm.core import sample_arms_sum, sample_group_sum
from bestarm.policies import _expit, _real_members, _sr_logbar, run_sr
from oracles import sample_group


def reference_run_sr(env, T, rng):
    """Successive rejects as one min() over the alive arms per phase."""
    K = env.K
    logbar = _sr_logbar(K)
    sums = np.zeros(K)
    counts = np.zeros(K, dtype=int)
    alive = list(range(1, K + 1))
    pulls_used = 0
    n_prev = 0
    for k in range(1, K):
        n_k = math.ceil((T - K) / (logbar * (K + 1 - k)))
        inc = n_k - n_prev
        n_prev = n_k
        if inc > 0:
            fresh = env.pull_arms_sum(alive, inc, rng)
            for arm, s in zip(alive, fresh):
                sums[arm - 1] += s
                counts[arm - 1] += inc
            pulls_used += inc * len(alive)
        means = np.full(K, -np.inf)
        seen = counts > 0
        means[seen] = sums[seen] / counts[seen]
        worst = min(alive, key=lambda a: (means[a - 1], a))
        alive.remove(worst)
    return alive[0], pulls_used


def reference_sample_group_sum(instance, members, n, rng):
    """Group sampler that checks and converts each member on its own."""
    members = sorted(set(int(a) for a in members))
    if not members:
        raise EmptyGroup("group pull needs at least one member")
    for a in members:
        if not 1 <= a <= instance.K:
            raise IndexOutOfRange(f"arm {a} outside [1, {instance.K}]")
    if n <= 0:
        return 0.0
    mu = np.asarray(instance.means)[np.array(members) - 1]
    if isinstance(instance.family, Gaussian):
        var = instance.family.sigma2 / len(members)
        return float(rng.normal(n * float(mu.mean()), np.sqrt(n * var)))
    return float(rng.binomial(n, mu).sum()) / len(members)


def random_instance(meta, K, bernoulli, tied):
    if tied:  # sub-optimal arms share a few values
        means = meta.choice([0.2, 0.5, 0.7], size=K)
        means[meta.integers(K)] = 0.9
    else:
        means = meta.uniform(0.05, 0.95, size=K)
    family = Bernoulli() if bernoulli else Gaussian(float(meta.choice([0.0, 0.1, 1.0])))
    return BanditInstance(means=tuple(float(m) for m in means), family=family)


CASES = [
    (K, bernoulli, tied, T_of_K)
    for K in (2, 3, 7, 16, 33, 100)
    for bernoulli in (False, True)
    for tied in (False, True)
    for T_of_K in ("K", "K+1", "3K", "10K")
]


@pytest.mark.parametrize("K,bernoulli,tied,T_of_K", CASES)
def test_run_sr_matches_reference(K, bernoulli, tied, T_of_K):
    T = {"K": K, "K+1": K + 1, "3K": 3 * K, "10K": 10 * K}[T_of_K]
    meta = np.random.default_rng([K, bernoulli, tied, T])
    env = BanditEnv(random_instance(meta, K, bernoulli, tied))
    for seed in range(5):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        run = run_sr(env, T, rng_new)
        assert (run.recommended_arm, run.pulls_used) == reference_run_sr(env, T, rng_ref)
        # same draws in the same order: both generators end in the same state
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("family", [Gaussian(0.3), Bernoulli()])
def test_sample_group_sum_matches_reference(family):
    meta = np.random.default_rng(1)
    instance = BanditInstance(means=tuple(meta.uniform(0, 1, size=21)), family=family)
    for trial in range(40):
        members = meta.choice(np.arange(1, 22), size=int(meta.integers(1, 21)))
        for n in (0, 1, 17):
            got = sample_group_sum(instance, members, n, np.random.default_rng(trial))
            want = reference_sample_group_sum(
                instance, members, n, np.random.default_rng(trial)
            )
            assert got == want


@pytest.mark.parametrize("family", [Gaussian(0.3), Bernoulli()])
def test_group_members_order_and_duplicates_do_not_change_the_draw(family):
    instance = BanditInstance(means=(0.1, 0.4, 0.6, 0.8, 0.3), family=family)
    canonical = [1, 3, 4]
    variants = [
        [4, 1, 3],
        [3, 3, 1, 4, 4],
        {4, 3, 1},
        (1.0, 3.0, 4.0),
        np.array([4, 4, 1, 3]),
        np.array([1, 3, 4], dtype=np.int32),
    ]
    for sampler in (
        lambda members, r: sample_group_sum(instance, members, 9, r),
        lambda members, r: sample_group(instance, members, r),
    ):
        want = sampler(canonical, np.random.default_rng(7))
        for members in variants:
            assert sampler(members, np.random.default_rng(7)) == want


def test_group_samplers_still_validate_members():
    instance = BanditInstance(means=(0.5, 0.6, 0.7), family=Gaussian(0.1))
    rng = np.random.default_rng(0)
    for sampler in (
        lambda members: sample_group_sum(instance, members, 5, rng),
        lambda members: sample_group_sum(instance, members, 0, rng),
        lambda members: sample_group(instance, members, rng),
    ):
        with pytest.raises(EmptyGroup):
            sampler([])
        with pytest.raises(EmptyGroup):
            sampler(np.array([], dtype=np.int64))
        for bad in ([1, 4], [0, 2], np.array([2, 9]), [2**70]):
            with pytest.raises(IndexOutOfRange):
                sampler(bad)
    for bad in ([1, 4], [0], np.array([3, -1])):
        with pytest.raises(IndexOutOfRange):
            sample_arms_sum(instance, bad, 5, rng)


def test_memoised_group_data_is_immutable():
    code = construct_groups(12)
    assert construct_groups(12) is code
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.m = 3
    assert all(isinstance(g, frozenset) for g in code.groups)
    real = _real_members(12)
    assert _real_members(12) is real
    with pytest.raises(ValueError):
        real[0][0] = 99
    for members, arr in zip(code.groups, real):
        assert arr.tolist() == sorted(a for a in members if a <= 12)


def test_bandit_env_gap_profile_computed_once():
    env = BanditEnv(BanditInstance(means=(1.0, 0.5, 0.2), family=Gaussian(0.1)))
    assert env.true_gap_profile() is env.true_gap_profile()


def test_expit_matches_scipy_bit_for_bit():
    from scipy.special import expit

    xs = np.concatenate([
        np.linspace(-800.0, 800.0, 20_001),
        np.linspace(-40.0, 40.0, 20_001),
        [-np.inf, np.inf, -745.2, -709.8, 709.8, 0.0, -0.0],
    ])
    got = np.array([_expit(float(x)) for x in xs])
    assert np.array_equal(got, expit(xs))


def test_cli_import_loads_no_scipy(cli_env):
    # after the import check, a None entry makes any scipy import fail
    code = (
        "import sys, bestarm.cli\n"
        "print(any(m.startswith('scipy') for m in sys.modules))\n"
        "sys.modules['scipy'] = None\n"
        "from bestarm.hardness import bound_exploration_failure, q_function\n"
        "print(q_function(2.0))\n"
        "print(bound_exploration_failure(8, 400, 0.1, 1.0))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env, capture_output=True, text=True,
        check=True,
    )
    loaded, q, bound = out.stdout.split()
    assert loaded == "False"
    assert float(q) == pytest.approx(0.5 * math.erfc(2.0 / math.sqrt(2.0)), rel=1e-12)
    assert float(bound) == pytest.approx(16 * float(q), rel=1e-12)


class SequenceEnv:
    """A custom environment that implements the pull protocol itself.

    It reads `members` as a plain sequence and records what it was given.
    """

    def __init__(self, instance):
        self.inner = BanditEnv(instance)
        self.K = self.inner.K
        self.best_arm = self.inner.best_arm
        self.sigma2 = self.inner.sigma2
        self.seen = []

    def true_gap_profile(self):
        return self.inner.true_gap_profile()

    def dummy_mean(self):
        return self.inner.dummy_mean()

    def pull_arms_sum(self, arms, n, rng):
        return self.inner.pull_arms_sum(arms, n, rng)

    def pull_group_sum(self, members, n, rng, trials=1):
        self.seen.append(members)
        arms = [int(members[i]) for i in range(len(members))]
        assert arms == sorted(set(arms)) == list(members)
        return sample_group_sum(self.inner.instance, arms, n, rng, trials)


@pytest.mark.parametrize("K", [5, 8])
def test_custom_environment_reads_members_as_a_sequence(K):
    instance = BanditInstance(
        means=tuple(1.0 if a == 2 else 0.4 for a in range(1, K + 1)),
        family=Gaussian(0.2),
    )
    custom, builtin = SequenceEnv(instance), BanditEnv(instance)
    for algorithm in ("UE", "SR", "SH", "RE"):
        for seed in range(3):
            got = run_policy(algorithm, custom, 6 * K, np.random.default_rng(seed))
            want = run_policy(algorithm, builtin, 6 * K, np.random.default_rng(seed))
            assert (got.recommended_arm, got.pulls_used) == (
                want.recommended_arm, want.pulls_used
            )
    assert custom.seen
    for members in custom.seen:  # shared between trials, so not writable
        with pytest.raises(ValueError):
            members[0] = 1


# ---------------------------------------------------------------------- radar


def loop_signal_sample_counts(scenario, n, rng):
    """On-pulse sample counts, one pass over all n plays per pulse slot."""
    lo_p, hi_p = scenario.n_pulses_range
    pulses = rng.integers(lo_p, hi_p + 1, size=n)
    width = rng.uniform(*scenario.width_range, size=n)
    pri = rng.uniform(*scenario.pri_range, size=n)
    delay = rng.uniform(*scenario.delay_range, size=n)
    N, fs = scenario.N, scenario.fs
    counts = np.zeros(n, dtype=np.int64)
    for p in range(int(hi_p)):
        start = delay + p * pri
        lo = np.ceil(start * fs - _EDGE_EPS).astype(np.int64)
        hi = np.ceil((start + width) * fs - _EDGE_EPS).astype(np.int64)
        np.clip(lo, 0, N, out=lo)
        np.clip(hi, 0, N, out=hi)
        counts += np.where(pulses > p, np.maximum(hi - lo, 0), 0)
    return counts


def per_play_pull_arm_sum(env, arm, n, rng):
    """A synthetic pull of n plays as n single-play energies, summed."""
    sc = env.scenario
    N, nv = sc.N, sc.noise_var
    if arm == sc.active_channel:
        counts = loop_signal_sample_counts(sc, n, rng)
        if nv == 0.0:
            return float(counts.sum())
        chi = rng.noncentral_chisquare(2 * N, 2.0 * counts / nv, size=n)
    else:
        if nv == 0.0:
            return 0.0
        chi = rng.chisquare(2 * N, size=n)
    return float((nv / 2.0) * chi.sum())


def assert_counts_match(sc, n, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = signal_sample_counts(sc, n, fast)
    want = loop_signal_sample_counts(sc, n, slow)
    assert got.dtype == want.dtype and got.shape == (n,)
    np.testing.assert_array_equal(got, want)
    assert fast.bit_generator.state == slow.bit_generator.state


def random_scenario(r):
    """Ranges that put later pulse slots inside or past the window; pri
    minima at or below zero leave no slot provably outside it."""
    width_lo = float(r.uniform(0.2e-6, 20e-6))
    pri_lo = float(r.uniform(-5e-6, 25e-6))
    delay_lo = float(r.uniform(-10e-6, 15e-6))
    lo_p = int(r.integers(0, 4))
    return RadarScenario(
        fs=float(r.choice([1e6, 2.5e6, 3.2e6, 4e6])),
        dwell_T=float(r.uniform(5e-6, 120e-6)),
        n_pulses_range=(lo_p, lo_p + int(r.integers(0, 9))),
        width_range=(width_lo, width_lo + float(r.uniform(0.0, 10e-6))),
        pri_range=(pri_lo, pri_lo + float(r.uniform(0.0, 10e-6))),
        delay_range=(delay_lo, delay_lo + float(r.uniform(0.0, 20e-6))),
    )


def test_counts_match_loop_on_random_scenarios():
    r = np.random.default_rng(2718)
    live = []
    for k in range(300):
        sc = random_scenario(r)
        live.append(_slots_that_can_start(sc) < sc.n_pulses_range[1])
        for n in (0, 1, 5, 300):
            assert_counts_match(sc, n, [k, n])
    # both kinds of scenario occur: some slots skipped, and none
    assert any(live) and not all(live)


@pytest.mark.parametrize(
    "n", [_COUNT_BLOCK - 1, _COUNT_BLOCK, _COUNT_BLOCK + 1, 2 * _COUNT_BLOCK + 3]
)
def test_counts_match_loop_across_block_boundaries(n):
    assert_counts_match(RadarScenario(), n, 7)
    assert_counts_match(random_scenario(np.random.default_rng(n)), n, 8)


def test_default_scenario_counts_two_of_six_slots():
    sc = RadarScenario()
    assert _slots_that_can_start(sc) == 2
    assert_counts_match(sc, 20_000, 9)


@pytest.mark.parametrize(
    "pri_range, slots",
    [
        ((2e-6, 3e-6), 6),  # every slot can start inside the window
        ((0.0, 3e-6), 6),  # pri may be zero: nothing provable
        ((-2e-6, 3e-6), 6),
        ((40e-6, 50e-6), 1),  # only the first slot fits
    ],
)
def test_slot_bound_against_loop(pri_range, slots):
    sc = RadarScenario(pri_range=pri_range)
    assert _slots_that_can_start(sc) == slots
    for n in (1, 999):
        assert_counts_match(sc, n, 10)


def test_pulse_edges_on_sample_instants():
    # fs = 1 MHz puts every range endpoint on a sample instant; slot 2's
    # earliest start, 0 + 2 * 15 us, is exactly the window's end (N = 30)
    sc = RadarScenario(
        fs=1e6,
        dwell_T=30e-6,
        n_pulses_range=(3, 3),
        width_range=(4e-6, 4e-6),
        pri_range=(15e-6, 15e-6),
        delay_range=(0.0, 0.0),
    )
    assert _slots_that_can_start(sc) == 2
    assert_counts_match(sc, 50, 11)
    assert list(signal_sample_counts(sc, 3, np.random.default_rng(0))) == [8] * 3
    edges = RadarScenario(
        fs=1e6,
        dwell_T=30e-6,
        width_range=(4e-6, 4e-6),
        pri_range=(15e-6, 20e-6),
        delay_range=(0.0, 3e-6),
    )
    assert _slots_that_can_start(edges) == 2
    assert_counts_match(edges, 5000, 12)


@pytest.mark.parametrize("noise_var", [21.0, 0.0])
def test_single_play_pulls_match_per_play_draws(noise_var):
    sc = RadarScenario(active_channel=3, noise_var=noise_var)
    env = RadarEnv(sc)
    for arm in (3, 5):
        fast, slow = np.random.default_rng(arm), np.random.default_rng(arm)
        got = [env.pull_arm_sum(arm, 1, fast) for _ in range(3000)]
        want = [per_play_pull_arm_sum(env, arm, 1, slow) for _ in range(3000)]
        assert got == want
        assert fast.bit_generator.state == slow.bit_generator.state
