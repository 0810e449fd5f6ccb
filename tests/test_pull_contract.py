"""One pull contract for every environment: BanditEnv checks arms the same
way at every n, and the case studies supply only their draw law.

The Gaussian and Bernoulli BanditEnv cases of the out-of-range check live
in test_reference_oracles.py; here it runs on the case studies, and the
integer-dtype and zero-play checks run on all four environments. The block
pull of every binary group is checked against one-group pulls through the
law hook on every reward law, a custom group law hook is run by RE, and a
custom arm law hook alone gives the group plays."""

import numpy as np
import pytest

from bestarm import (
    BanditEnv,
    BanditInstance,
    Bernoulli,
    Gaussian,
    IndexOutOfRange,
    RadarScenario,
    construct_groups,
    run_policy,
)
from bestarm.casestudies import JammerEnv, JammerScenario, RadarEnv
from oracles import pull_group_sum

MEANS = (0.1, 0.4, 0.6, 0.8, 0.3)
ENVS = {
    "gaussian": lambda: BanditEnv(BanditInstance(means=MEANS, family=Gaussian(0.3))),
    "bernoulli": lambda: BanditEnv(BanditInstance(means=MEANS, family=Bernoulli())),
    "jammer": lambda: JammerEnv(JammerScenario(K=5, j_star=3, noise_var=0.3)),
    "radar": lambda: RadarEnv(RadarScenario(K=5, active_channel=3, noise_var=1.0)),
}
OUT_OF_RANGE = [[0, 2], [2, 6], [-1], [2**70]]
# fractions, and whole numbers of a dtype that is not an integer one
NON_INTEGRAL = [
    [1.5], (2, 2.5), np.array([2.5]), [np.nan], (2.0, 3.0), np.array([2.0, 3.0]),
    [True], np.array([True, False]), np.array([2, 3], dtype=object),
]


@pytest.fixture(params=sorted(ENVS))
def env(request):
    return ENVS[request.param]()


@pytest.fixture(params=["jammer", "radar"])
def case_env(request):
    return ENVS[request.param]()


def assert_refused(env, bad_values, error, n):
    rng = np.random.default_rng(0)
    for bad in bad_values:
        with pytest.raises(error):
            env.pull_arms_sum(bad, n, rng)


@pytest.mark.parametrize("n", [0, 3])
def test_case_study_out_of_range_arms_and_members_raise(case_env, n):
    assert_refused(case_env, OUT_OF_RANGE, IndexOutOfRange, n)


@pytest.mark.parametrize("n", [-1, 0, 3])
def test_non_integral_arms_and_members_raise(env, n):
    assert_refused(env, NON_INTEGRAL, IndexOutOfRange, n)


def test_zero_plays_draw_nothing(env):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    arms = np.array([[1, 3], [2, 5]])
    assert np.array_equal(env.pull_arms_sum(arms, 0, rng), np.zeros((2, 2)))
    assert rng.bit_generator.state == state


def test_integral_arms_of_any_type_give_the_same_draw(env):
    want = env.pull_arms_sum(np.array([2, 3]), 4, np.random.default_rng(5))
    integer_arrays = (
        [2, 3], (2, 3), range(2, 4), [np.int64(2), np.int32(3)],
        np.array([2, 3], dtype=np.int32), np.array([2, 3], dtype=np.uint8),
    )
    for arms in integer_arrays:
        got = env.pull_arms_sum(arms, 4, np.random.default_rng(5))
        assert np.array_equal(got, want)


# every law, the noiseless Gaussian too, on a row that holds the radar's
# active channel 3
SHARED_ROW_ENVS = {
    **ENVS,
    "gaussian-0": lambda: BanditEnv(BanditInstance(means=MEANS, family=Gaussian(0.0))),
}


@pytest.mark.parametrize("name", sorted(SHARED_ROW_ENVS))
def test_shared_row_pull_draws_what_a_contiguous_pull_draws(name):
    # a policy's (trials, K) rows are one row broadcast with stride 0; the
    # pull reads that row once and must draw the same bytes in the same order
    env = SHARED_ROW_ENVS[name]()
    shared = np.broadcast_to(np.arange(1, 6), (7, 5))
    assert shared.strides[0] == 0
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    got = env.pull_arms_sum(shared, 4, a)
    want = env.pull_arms_sum(np.ascontiguousarray(shared), 4, b)
    assert got.shape == want.shape == (7, 5)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros too
    assert a.bit_generator.state == b.bit_generator.state
    assert got.flags.writeable  # a policy may add to it in place


@pytest.mark.parametrize("n", [-1, 0, 3])
def test_shared_row_pull_refuses_an_out_of_range_arm(env, n):
    rng = np.random.default_rng(0)
    for bad in OUT_OF_RANGE[:3]:  # 2**70 fits no integer dtype
        shared = np.broadcast_to(np.array(bad), (4, len(bad)))
        with pytest.raises(IndexOutOfRange, match="outside"):
            env.pull_arms_sum(shared, n, rng)


def test_radar_single_channel_pull_rejects_fractional_channel():
    env = ENVS["radar"]()
    for channel in (2.5, 2.0, True):
        with pytest.raises(IndexOutOfRange):
            env.pull_arm_sum(channel, 3, np.random.default_rng(0))
    assert env.pull_arm_sum(np.int64(2), 3, np.random.default_rng(0)) == (
        env.pull_arm_sum(2, 3, np.random.default_rng(0))
    )


def bandit(family):
    return lambda K: BanditEnv(
        BanditInstance(means=tuple(np.linspace(0.1, 0.9, K)), family=family)
    )


def radar(with_iq):
    def make(K):
        scenario = RadarScenario(K=K, active_channel=min(3, K), noise_var=1.0)
        r = np.random.default_rng(3)
        iq = (r.normal(size=200), r.normal(size=200)) if with_iq else None
        return RadarEnv(scenario, iq=iq)

    return make


BLOCK_ENVS = {
    "gaussian-0": bandit(Gaussian(0.0)),
    "gaussian-0.1": bandit(Gaussian(0.1)),
    "bernoulli": bandit(Bernoulli()),
    "jammer-0": lambda K: JammerEnv(JammerScenario(K, min(3, K), noise_var=0.0)),
    "jammer-0.01": lambda K: JammerEnv(JammerScenario(K, min(3, K), noise_var=0.01)),
    "radar": radar(False),
    "radar-iq": radar(True),
}


@pytest.mark.parametrize("K", [2, 5, 8, 12, 1024])
@pytest.mark.parametrize("name", sorted(BLOCK_ENVS))
def test_block_group_pull_is_the_single_pulls_in_group_order(name, K):
    env = BLOCK_ENVS[name](K)
    groups = construct_groups(K).groups
    block, single = np.random.default_rng(11), np.random.default_rng(11)
    got = env.pull_groups_sum(3, block, 4)
    want = np.stack([pull_group_sum(env, g, 3, single, 4) for g in groups], axis=1)
    assert got.shape == (4, len(groups))
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros too
    assert block.bit_generator.state == single.bit_generator.state
    # a second block reads the cached groups and makes the same draws again
    again = env.pull_groups_sum(3, np.random.default_rng(11), 4)
    assert again.tobytes() == got.tobytes()


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("name", sorted(BLOCK_ENVS))
def test_block_group_pull_of_no_plays_draws_nothing(name, n):
    env = BLOCK_ENVS[name](12)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert np.array_equal(env.pull_groups_sum(n, rng, 5), np.zeros((5, 4)))
    assert rng.bit_generator.state == state


class GroupHookEnv(BanditEnv):
    """An environment whose only override is the group law hook: every
    group play sees its own mean exactly, and the groups it was asked for
    are recorded."""

    def __init__(self, instance):
        super().__init__(instance)
        self.seen = []

    def _group_sums(self, n, rng, trials):
        self.seen.append(self._groups)
        return np.tile(n * self._group_mean, (trials, 1))


@pytest.mark.parametrize("K", [5, 8, 12])
def test_re_runs_a_custom_group_hook_over_the_env_groups(K):
    means = tuple(1.0 if a == 3 else 0.2 for a in range(1, K + 1))
    env = GroupHookEnv(BanditInstance(means=means, family=Gaussian(0.1)))
    run = run_policy("RE", env, 8 * K, np.random.default_rng(0), trials=6)
    assert (run.recommended_arm == 3).all()
    want = [g - 1 for g in construct_groups(K).groups]
    assert env.seen
    for groups in env.seen:
        assert len(groups) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(groups, want))


class ArmHookEnv(BanditEnv):
    """A Bernoulli environment whose only override is the arm law
    hook: n plays of arm a sum to exactly n * a. The shapes it was asked
    for are recorded."""

    def __init__(self, instance):
        super().__init__(instance)
        self.shapes = []

    def _arm_sums(self, idx, n, rng):
        self.shapes.append(idx.shape)
        return n * (idx + 1.0)


@pytest.mark.parametrize("K", [2, 12, 1024])
def test_group_plays_average_a_custom_arm_hook(K):
    means = (0.2,) * (K - 1) + (0.9,)
    env = ArmHookEnv(BanditInstance(means=means, family=Bernoulli()))
    got = env.pull_groups_sum(3, np.random.default_rng(0), 300)
    groups = construct_groups(K).groups
    want = [3.0 * members.sum() / len(members) for members in groups]
    np.testing.assert_allclose(got, np.tile(want, (300, 1)), rtol=1e-15)
    # group k before group k+1, each in chunks of at most 2**16 members
    chunks = [(r, len(g)) for g in groups for r in (128, 128, 44)]
    assert env.shapes == (chunks if K == 1024 else [(300, len(g)) for g in groups])


@pytest.mark.parametrize("K", [2, 5, 16])
def test_noiseless_jammer_group_pull_is_its_mean_table(K):
    env = JammerEnv(JammerScenario(K=K, j_star=min(2, K), noise_var=0.0))
    got = env.pull_groups_sum(7, np.random.default_rng(1), 9)
    want = np.tile(7 * env._group_mean, (9, 1))
    assert got.tobytes() == want.tobytes()  # bit for bit, every row
