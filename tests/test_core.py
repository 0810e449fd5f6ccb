"""Instance construction, gap bookkeeping, and reward sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bestarm import (
    BanditEnv,
    BanditInstance,
    Bernoulli,
    ConfigParse,
    DuplicateBestArm,
    Gaussian,
    IndexOutOfRange,
    InvalidK,
    SupportViolation,
    gap_profile,
    instance_from_json,
)
from bestarm.core import RngStream
from oracles import instance_to_json, pull_group_sum, sample_arm, sample_group


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- instances


def test_instance_rejects_unit_means_outside_01():
    with pytest.raises(SupportViolation):
        BanditInstance(means=(0.5, 1.2), family=Bernoulli())
    with pytest.raises(SupportViolation):
        BanditInstance(means=(-0.1, 0.5), family=Bernoulli())
    # Gaussian means are unconstrained
    BanditInstance(means=(-3.0, 7.5), family=Gaussian(1.0))


def test_instance_rejects_negative_variance():
    with pytest.raises(SupportViolation):
        Gaussian(-1.0)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.1", None, 1j, [0.1]])
def test_variance_must_be_a_real_number(bad):
    with pytest.raises(SupportViolation, match="sigma2"):
        Gaussian(bad)


@pytest.mark.parametrize("good", [0, 2, 0.5, np.int64(3), np.float32(0.25), np.float64(0.0)])
def test_variance_accepts_ints_floats_and_numpy_reals(good):
    assert Gaussian(good).sigma2 == good


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_values(bad):
    with pytest.raises(SupportViolation):
        BanditInstance(means=(1.0, bad), family=Gaussian(0.1))
    with pytest.raises(SupportViolation):
        Gaussian(bad)


def test_best_arm_is_one_indexed():
    inst = BanditInstance(means=(0.1, 0.9, 0.5), family=Bernoulli())
    assert inst.best_arm == 2


def test_best_arm_tie_raises():
    inst = BanditInstance(means=(0.5, 0.5, 0.1), family=Bernoulli())
    for _ in range(2):  # the cache holds no exception: every read raises
        with pytest.raises(DuplicateBestArm, match=r"attained by arms \[1, 2\]$"):
            inst.best_arm


# -------------------------------------------------------------- gap profile


def test_gap_profile_single_gap_instance():
    inst = BanditInstance(means=(0.9, 0.1, 0.1, 0.1), family=Bernoulli())
    prof = gap_profile(inst)
    assert prof.gaps == (0.8, 0.8, 0.8, 0.8)
    assert prof.delta_min == 0.8
    assert prof.delta_max == 0.8
    assert prof.sorted_means == (0.9, 0.1, 0.1, 0.1)


def test_gap_profile_hand_computed():
    inst = BanditInstance(means=(0.5, 0.45, 0.4), family=Bernoulli())
    prof = gap_profile(inst)
    assert prof.gaps == pytest.approx((0.05, 0.05, 0.1))
    assert prof.delta_min == pytest.approx(0.05)
    assert prof.delta_max == pytest.approx(0.1)


def test_gap_profile_needs_two_arms():
    inst = BanditInstance(means=(0.5,), family=Bernoulli())  # legal instance
    assert inst.best_arm == 1
    with pytest.raises(InvalidK):
        gap_profile(inst)


def test_gap_profile_duplicate_best_raises():
    inst = BanditInstance(means=(0.5, 0.5, 0.1), family=Bernoulli())
    with pytest.raises(DuplicateBestArm):
        gap_profile(inst)


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=2,
        max_size=32,
    )
)
def test_gap_profile_invariants(means):
    inst = BanditInstance(means=tuple(means), family=Gaussian(1.0))
    arr = np.asarray(means)
    if (arr == arr.max()).sum() != 1:
        with pytest.raises(DuplicateBestArm):
            gap_profile(inst)
        return
    prof = gap_profile(inst)
    # the fields are Python floats, as a float() of every entry gives them
    mu = np.sort(arr)[::-1]
    want = np.sort(mu[0] - mu[1:])
    assert prof.sorted_means == tuple(float(x) for x in mu)
    assert prof.gaps == tuple(float(x) for x in np.concatenate((want[:1], want)))
    assert {type(x) for x in prof.sorted_means + prof.gaps} == {float}
    gaps = np.asarray(prof.gaps)
    assert gaps[0] == gaps[1]
    assert np.all(np.diff(gaps) >= 0)
    assert prof.delta_min == gaps[0]
    assert prof.delta_max == gaps[-1]
    assert len(prof.gaps) == inst.K


# ----------------------------------------------------------------- sampling


def test_sample_arm_zero_variance_is_exact():
    inst = BanditInstance(means=(0.3, 0.7), family=Gaussian(0.0))
    assert sample_arm(inst, 2, rng()) == 0.7


def test_sample_arm_bernoulli_mean_one():
    inst = BanditInstance(means=(1.0, 0.0), family=Bernoulli())
    r = rng(1)
    assert all(sample_arm(inst, 1, r) == 1.0 for _ in range(200))
    assert all(sample_arm(inst, 2, r) == 0.0 for _ in range(200))


def test_sample_arm_gaussian_mean_converges():
    inst = BanditInstance(means=(0.0,), family=Gaussian(1.0))
    r = rng(7)
    draws = [sample_arm(inst, 1, r) for _ in range(100_000)]
    # sd of the mean is 1/sqrt(1e5) ~ 0.00316; 0.01 is a >3 sigma window
    assert abs(np.mean(draws)) < 0.01


def test_sample_arm_index_checked():
    inst = BanditInstance(means=(0.5, 0.6), family=Bernoulli())
    with pytest.raises(IndexOutOfRange):
        sample_arm(inst, 0, rng())
    with pytest.raises(IndexOutOfRange):
        sample_arm(inst, 3, rng())


def test_sample_group_zero_variance_average():
    inst = BanditInstance(means=(0.9, 0.5), family=Gaussian(0.0))
    assert sample_group(inst, {1, 2}, rng()) == pytest.approx(0.7)


def test_sample_group_empty_raises():
    inst = BanditInstance(means=(0.5, 0.6), family=Bernoulli())
    with pytest.raises(ValueError):
        sample_group(inst, set(), rng())


def test_sample_group_variance_scales_with_size():
    K, sigma2 = 8, 0.4
    inst = BanditInstance(means=tuple([0.0] * K), family=Gaussian(sigma2))
    members = set(range(1, K // 2 + 1))
    r = rng(11)
    draws = np.array([sample_group(inst, members, r) for _ in range(100_000)])
    assert np.var(draws) == pytest.approx(sigma2 / (K // 2), rel=0.05)


def test_singleton_group_matches_single_arm_in_law():
    inst = BanditInstance(means=(0.2, 0.6), family=Gaussian(0.3))
    r1, r2 = rng(21), rng(22)
    a = np.array([sample_arm(inst, 2, r1) for _ in range(10_000)])
    g = np.array([sample_group(inst, {2}, r2) for _ in range(10_000)])
    assert stats.ks_2samp(a, g).pvalue > 0.01


# --------------------------------------------------------- batched sampling


def test_sample_arm_sum_moments_gaussian():
    inst = BanditInstance(means=(0.5,), family=Gaussian(0.2))
    n = 25
    r = rng(3)
    env = BanditEnv(inst)
    draws = np.array([env.pull_arms_sum([1], n, r)[0] for _ in range(50_000)])
    assert draws.mean() == pytest.approx(n * 0.5, abs=0.05)
    assert draws.var() == pytest.approx(n * 0.2, rel=0.05)


def test_sample_arm_sum_bernoulli_is_binomial_like():
    inst = BanditInstance(means=(0.3,), family=Bernoulli())
    n = 40
    r = rng(4)
    env = BanditEnv(inst)
    draws = np.array([env.pull_arms_sum([1], n, r)[0] for _ in range(20_000)])
    assert np.all(draws == np.round(draws))
    assert np.all((draws >= 0) & (draws <= n))
    assert draws.mean() == pytest.approx(n * 0.3, rel=0.02)
    assert draws.var() == pytest.approx(n * 0.3 * 0.7, rel=0.05)


def test_sample_arm_sum_zero_pulls():
    inst = BanditInstance(means=(0.5,), family=Gaussian(1.0))
    assert BanditEnv(inst).pull_arms_sum([1], 0, rng())[0] == 0.0


def test_sample_arms_sum_zero_variance_exact():
    inst = BanditInstance(means=(0.1, 0.2, 0.7), family=Gaussian(0.0))
    out = BanditEnv(inst).pull_arms_sum([1, 2, 3], 10, rng())
    assert np.allclose(out, [1.0, 2.0, 7.0])


def test_sample_arms_sum_matches_per_arm_law():
    inst = BanditInstance(means=(0.2, 0.8), family=Gaussian(0.5))
    n = 16
    r = rng(5)
    env = BanditEnv(inst)
    draws = np.array([env.pull_arms_sum([1, 2], n, r) for _ in range(30_000)])
    assert draws[:, 0].mean() == pytest.approx(n * 0.2, abs=0.07)
    assert draws[:, 1].mean() == pytest.approx(n * 0.8, abs=0.07)
    assert draws[:, 0].var() == pytest.approx(n * 0.5, rel=0.05)
    # entries are independent across arms
    assert abs(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]) < 0.02


def test_sample_group_sum_zero_variance_exact():
    inst = BanditInstance(means=(0.9, 0.5), family=Gaussian(0.0))
    assert pull_group_sum(BanditEnv(inst), {1, 2}, 10, rng()) == pytest.approx(7.0)


def test_sample_group_sum_matches_repeated_group_pulls():
    inst = BanditInstance(means=(0.9, 0.1, 0.4, 0.6), family=Bernoulli())
    members = {1, 3}
    n = 12
    r1, r2 = rng(31), rng(32)
    env = BanditEnv(inst)
    a = np.array([pull_group_sum(env, members, n, r1) for _ in range(8_000)])
    b = np.array(
        [sum(sample_group(inst, members, r2) for _ in range(n)) for _ in range(400)]
    )
    assert a.mean() == pytest.approx(b.mean(), rel=0.05)


# -------------------------------------------------------------- rng streams


def test_rng_stream_is_reproducible():
    a = RngStream(42, 7).generator().normal(size=10)
    b = RngStream(42, 7).generator().normal(size=10)
    assert np.array_equal(a, b)


def test_rng_stream_ids_are_independent():
    a = RngStream(42, 7).generator().normal(size=10)
    b = RngStream(42, 8).generator().normal(size=10)
    assert not np.array_equal(a, b)


# ----------------------------------------------------------------- json i/o


def test_instance_json_round_trip():
    inst = BanditInstance(means=(0.1, 0.9), family=Gaussian(0.25))
    back = instance_from_json(instance_to_json(inst))
    assert back.means == inst.means
    assert isinstance(back.family, Gaussian)
    assert back.family.sigma2 == 0.25


def test_instance_json_bernoulli_round_trip():
    inst = BanditInstance(means=(0.1, 0.9), family=Bernoulli())
    back = instance_from_json(instance_to_json(inst))
    assert isinstance(back.family, Bernoulli)


def test_instance_json_rejects_bad_payloads():
    with pytest.raises(ConfigParse):
        instance_from_json("not json")
    with pytest.raises(ConfigParse):
        instance_from_json('{"means": [0.1, 0.9]}')  # family missing
    with pytest.raises(ConfigParse):
        instance_from_json('{"K": 3, "means": [0.1, 0.9], "family": "bernoulli"}')
    with pytest.raises(ConfigParse):
        instance_from_json('{"means": [0.1, 0.9], "family": "cauchy"}')
    with pytest.raises(ConfigParse):
        instance_from_json('{"means": [0.1, 0.9], "family": {"gaussian": {}}}')
    # K must be a whole number: neither truncated nor a traceback
    for K in ('"x"', "null", "2.5", "true"):
        with pytest.raises(ConfigParse):
            instance_from_json(f'{{"K": {K}, "means": [0.1, 0.9], "family": "bernoulli"}}')
    assert instance_from_json('{"K": 2.0, "means": [0.1, 0.9], "family": "bernoulli"}').K == 2
    # an instance file is a config's instance block: every key names a field
    # and every number is a finite JSON number, never a bool or a string
    for payload in (
        '{"means": "10", "family": "bernoulli"}',
        '{"means": [true, 0.5], "family": "bernoulli"}',
        '{"means": ["0.5", 0.1], "family": "bernoulli"}',
        '{"means": [NaN, 0.9], "family": "bernoulli"}',
        '{"means": [0.1, 0.9], "family": "bernoulli", "foo": 1}',
        '{"means": [0.1, 0.9], "family": "bernoulli", "label": 7}',
        '{"means": [0.1, 0.9], "family": {"gaussian": {"sigma2": "0.1"}}}',
        '{"means": [0.1, 0.9], "family": {"gaussian": {"sigma2": true}}}',
        '{"means": [0.1, 0.9], "family": {"gaussian": {"sigma2": NaN}}}',
        '{"means": [0.1, 0.9], "family": {"gaussian": {"sigma2": 0.1, "typo": 5}}}',
        '{"means": [0.1, 0.9], "family": {"gaussian": {"sigma2": 0.1}, "extra": 1}}',
        # a value outside its family's support is a bad file, not a bad run
        '{"means": [1.5, 0.5], "family": "bernoulli"}',
        '{"means": [0.1, 0.9], "family": {"gaussian": {"sigma2": -1}}}',
    ):
        with pytest.raises(ConfigParse):
            instance_from_json(payload)
    # means is a list, never a string or an object read entry by entry
    for means in ('"10"', '{"0.1": 1, "0.9": 2}'):
        with pytest.raises(ConfigParse, match="means must be a list"):
            instance_from_json(f'{{"means": {means}, "family": "bernoulli"}}')


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10))
def test_instance_json_round_trip_random(k, seed):
    r = np.random.default_rng(seed)
    means = tuple(np.round(r.uniform(0, 1, size=k), 6))
    inst = BanditInstance(means=means, family=Bernoulli())
    back = instance_from_json(instance_to_json(inst))
    assert back.means == pytest.approx(inst.means)
    assert math.isclose(sum(back.means), sum(inst.means))
