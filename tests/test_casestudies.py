"""Case studies: jammer waveform selection and radar channel detection."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.signal import fftconvolve

from bestarm import (
    CsvFormatError,
    DuplicateBestArm,
    IndexOutOfRange,
    InvalidK,
    RadarScenario,
    SupportViolation,
    run_jammer_experiment,
    run_radar_experiment,
)
import bestarm.casestudies as casestudies
from bestarm.casestudies import (
    DEFAULT_RADAR_NOISE_VAR,
    JammerEnv,
    JammerScenario,
    RadarEnv,
    _slots_that_can_start,
    load_iq_csv,
    mean_signal_energy,
    pulse_count_pmf,
    seeded_radar_scenario,
)
from bestarm.core import MAX_K
from bestarm.grouping import construct_groups
from oracles import (
    PulseParams,
    draw_pulse_params,
    jammer_reward,
    pull_group_sum,
    pulse_sample_spans,
    radar_energy,
    radar_synthesize,
    signal_sample_counts,
    table_count_sums,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import implausible  # noqa: E402


def rng(seed=0):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------- jammer


def test_jammer_reward_noiseless_values():
    sc = JammerScenario(K=16, j_star=3, noise_var=0.0)
    assert jammer_reward(sc, set(range(1, 9)), rng()) == 0.125
    assert jammer_reward(sc, {9, 10, 11}, rng()) == 0.0
    assert jammer_reward(sc, {3}, rng()) == 1.0


def test_jammer_reward_validation():
    sc = JammerScenario(K=8, j_star=1, noise_var=0.0)
    with pytest.raises(ValueError):
        jammer_reward(sc, set(), rng())
    with pytest.raises(IndexOutOfRange):
        jammer_reward(sc, {0, 1}, rng())
    with pytest.raises(IndexOutOfRange):
        jammer_reward(sc, {8, 9}, rng())


def test_jammer_reward_noisy_mean():
    sc = JammerScenario(K=16, j_star=3, noise_var=0.01)
    r = rng(4)
    draws = np.array([jammer_reward(sc, {1, 2, 3, 4}, r) for _ in range(20_000)])
    assert draws.mean() == pytest.approx(0.25, abs=3 * math.sqrt(0.01 / 20_000))
    assert draws.var() == pytest.approx(0.01, rel=0.05)


K_ENTRY_POINTS = {
    "construct_groups": construct_groups,
    "JammerScenario": lambda K: JammerScenario(K=K, j_star=1, noise_var=0.1),
    "run_jammer_experiment": lambda K: run_jammer_experiment(
        K=K, noise_grid=(0.1,), algorithms=("UE",), trials=2
    ),
    "RadarScenario": lambda K: RadarScenario(K=K),
}


@pytest.mark.parametrize("K", [8.5, 8.0, "8", True, 1, MAX_K + 1])
@pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
def test_every_k_entry_point_takes_only_an_int_k_in_range(entry, K):
    with pytest.raises(InvalidK):
        K_ENTRY_POINTS[entry](K)


def test_numpy_integer_k_builds_groups_and_runs():
    construct_groups(8)  # a cached int K lets no equal float through
    with pytest.raises(InvalidK):
        construct_groups(8.0)
    code = construct_groups(np.int64(8))
    assert (code.K_orig, code.K_padded, code.m) == (8, 8, 3)
    assert type(code.K_orig) is int
    for entry in ("JammerScenario", "run_jammer_experiment", "RadarScenario"):
        K_ENTRY_POINTS[entry](np.int64(8))


def test_jammer_scenario_validation():
    with pytest.raises(InvalidK):
        JammerScenario(K=1, j_star=1, noise_var=0.0)
    with pytest.raises(InvalidK):
        JammerScenario(K=MAX_K + 1, j_star=1, noise_var=0.0)
    with pytest.raises(IndexOutOfRange):
        JammerScenario(K=8, j_star=0, noise_var=0.0)
    with pytest.raises(IndexOutOfRange):
        JammerScenario(K=8, j_star=9, noise_var=0.0)
    for noise_var in (-0.1, "0.1", True, None):
        with pytest.raises(SupportViolation, match="noise_var"):
            JammerScenario(K=8, j_star=1, noise_var=noise_var)
    for j_star in (2.0, 2.5, True):
        with pytest.raises(IndexOutOfRange, match="j_star"):
            JammerScenario(K=8, j_star=j_star, noise_var=0.1)
    with pytest.raises(IndexOutOfRange, match="j_star"):
        run_jammer_experiment(K=8, j_star=2.5, trials=2)
    assert JammerEnv(JammerScenario(K=8, j_star=np.int64(3), noise_var=0.1)).best_arm == 3


def test_jammer_env_means_and_gap():
    env = JammerEnv(JammerScenario(K=8, j_star=5, noise_var=0.0))
    assert env.best_arm == 5
    prof = env.true_gap_profile()
    assert prof.gaps == pytest.approx((1.0,) * 8)
    assert env.pull_arms_sum([5], 4, rng())[0] == pytest.approx(4.0)
    assert env.pull_arms_sum([2], 4, rng())[0] == 0.0
    assert pull_group_sum(env, {4, 5, 6, 7}, 2, rng()) == pytest.approx(0.5)
    assert pull_group_sum(env, {1, 2}, 3, rng()) == 0.0


def test_jammer_group_probe_keeps_receiver_noise_floor():
    # the subset mean shrinks to 1/|S| but the noise floor stays put
    env = JammerEnv(JammerScenario(K=8, j_star=5, noise_var=0.5))
    r = rng(9)
    arm = np.array([env.pull_arms_sum([5], 1, r)[0] for _ in range(20_000)])
    grp = np.array([pull_group_sum(env, {4, 5, 6, 7}, 1, r) for _ in range(20_000)])
    assert arm.mean() == pytest.approx(1.0, abs=0.02)
    assert grp.mean() == pytest.approx(0.25, abs=0.02)
    assert arm.var() == pytest.approx(0.5, rel=0.05)
    assert grp.var() == pytest.approx(0.5, rel=0.05)


def test_run_jammer_experiment_smoke():
    results = run_jammer_experiment(
        K=8, noise_grid=(0.002, 0.02), algorithms=("UE", "RE"), T=32,
        trials=40, j_star=3,
    )
    assert len(results) == 4
    assert results[0].instance_id == "jammer-K8-nv0.002"
    low = {c.algorithm: c for c in results if c.instance_id.endswith("0.002")}
    assert low["UE"].errors == 0 and low["RE"].errors == 0


def test_re_finds_every_jammer_target_on_padded_k():
    # K = 12 pads to 16 arms. A group of g real waveforms has mean 1/g with
    # the target and 0 without, under receiver noise nv per play, so a bit
    # errs with Q((1/(2g)) / sqrt(nv / floor(T/m))), below 1e-12 here.
    K, T, nv = 12, 64, 0.002
    code = construct_groups(K)
    for members in code.groups:
        g = len(members)
        assert stats.norm.sf(1 / (2 * g) / math.sqrt(nv / (T // code.m))) < 1e-12
    for j_star in range(1, K + 1):
        (cell,) = run_jammer_experiment(
            K=K, noise_grid=(nv,), algorithms=("RE",), T=T, trials=50,
            master_seed=1, j_star=j_star,
        )
        assert cell.errors == 0, j_star


# ---------------------------------------------------------------------- radar


def test_radar_scenario_defaults_and_validation():
    sc = RadarScenario()
    assert sc.N == 96
    assert sc.K == 8 and sc.active_channel == 1
    for K in (1, 10**9, 8.5):
        with pytest.raises(InvalidK):
            RadarScenario(K=K)
    with pytest.raises(SupportViolation):
        RadarScenario(fs=0.0)
    with pytest.raises(SupportViolation):
        RadarScenario(dwell_T=-1.0)
    # dwell_T * fs overflows, or is not a number, before N rounds it
    for fs, dwell_T in ((1e300, 1e300), (math.inf, 30e-6), (3.2e6, math.nan)):
        with pytest.raises(SupportViolation, match="fs, dwell_T"):
            RadarScenario(fs=fs, dwell_T=dwell_T)
    for noise_var in (-2.0, "21", False):
        with pytest.raises(SupportViolation, match="noise_var"):
            RadarScenario(noise_var=noise_var)
    with pytest.raises(IndexOutOfRange):
        RadarScenario(active_channel=9)
    for channel in (2.0, 2.5, True):
        with pytest.raises(IndexOutOfRange, match="active_channel"):
            RadarScenario(active_channel=channel)
    assert RadarEnv(RadarScenario(active_channel=np.int64(3))).best_arm == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("width_range", (10e-6, math.inf)),
        ("pri_range", (math.nan, 23e-6)),
        ("delay_range", (-math.inf, 10e-6)),
        ("delay_range", (-1e308, 1e308)),  # finite ends, infinite span
    ],
)
def test_radar_scenario_refuses_non_finite_ranges(field, value):
    with pytest.raises(SupportViolation, match=field):
        RadarScenario(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_pulses_range", (6, 2)),
        ("width_range", (16e-6, 10e-6)),
        ("pri_range", (23e-6, 17e-6)),
        ("delay_range", (10e-6, 1e-6)),
    ],
)
def test_radar_scenario_refuses_reversed_ranges(field, value):
    with pytest.raises(SupportViolation, match=field):
        RadarScenario(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("width_range", (10e-6, 12e-6, 16e-6)),
        ("pri_range", (17e-6,)),
        ("delay_range", 1e-6),
        ("delay_range", None),
        ("width_range", ("a", "b")),
        ("pri_range", (True, 23e-6)),
        ("n_pulses_range", [2, 4, 6]),
    ],
)
def test_radar_scenario_refuses_ranges_that_are_not_number_pairs(field, value):
    with pytest.raises(SupportViolation, match=field):
        RadarScenario(**{field: value})


def test_radar_scenario_stores_list_ranges_as_tuples():
    lists = RadarScenario(
        noise_var=3.0,
        n_pulses_range=[2, 6],
        width_range=[10e-6, 16e-6],
        pri_range=np.array([17e-6, 23e-6]),
        delay_range=[1e-6, 10e-6],
    )
    tuples = RadarScenario(noise_var=3.0)
    assert lists == tuples and hash(lists) == hash(tuples)
    assert type(lists.width_range) is tuple
    assert RadarEnv(lists).instance.means == RadarEnv(tuples).instance.means


@pytest.mark.parametrize("value", [(2.5, 6), (2, math.nan), ("2", 6), (None, 6)])
def test_radar_scenario_refuses_fractional_pulse_counts(value):
    with pytest.raises(SupportViolation, match="n_pulses_range"):
        RadarScenario(n_pulses_range=value)


def test_radar_scenario_accepts_whole_pulse_counts_of_any_type():
    want = signal_sample_counts(RadarScenario(), 500, rng(3))
    for value in [(2.0, 6.0), (np.int64(2), np.int32(6))]:
        got = signal_sample_counts(RadarScenario(n_pulses_range=value), 500, rng(3))
        np.testing.assert_array_equal(got, want)


def test_draw_pulse_params_ranges():
    sc = RadarScenario()
    r = rng(2)
    seen = set()
    for _ in range(10_000):
        p = draw_pulse_params(sc, r)
        assert 2 <= p.n_pulses <= 6
        assert 10e-6 <= p.width <= 16e-6
        assert 17e-6 <= p.pri <= 23e-6
        assert 1e-6 <= p.delay <= 10e-6
        seen.add(p.n_pulses)
    assert seen == {2, 3, 4, 5, 6}


def test_pulse_spans_and_exact_energy():
    sc = RadarScenario(dwell_T=50e-6, noise_var=0.0)
    assert sc.N == 160
    params = PulseParams(n_pulses=3, width=10e-6, pri=20e-6, delay=0.0)
    spans = pulse_sample_spans(params, sc.N, sc.fs)
    assert spans == [(0, 32), (64, 96), (128, 160)]
    block = radar_synthesize(sc, sc.active_channel, rng(), params=params)
    assert radar_energy(block) == pytest.approx(96.0)


def test_pulse_spans_truncate_to_window():
    sc = RadarScenario(dwell_T=50e-6)
    clipped = pulse_sample_spans(PulseParams(1, 10e-6, 20e-6, 45e-6), sc.N, sc.fs)
    assert clipped == [(144, 160)]
    gone = pulse_sample_spans(PulseParams(1, 10e-6, 20e-6, 55e-6), sc.N, sc.fs)
    assert gone == []


def test_radar_energy_values():
    assert radar_energy(np.zeros(5, dtype=complex)) == 0.0
    assert radar_energy([3.0 + 4.0j]) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        radar_energy(np.array([]))


def test_signal_sample_counts_match_span_oracle():
    sc = RadarScenario()
    n = 200
    got = signal_sample_counts(sc, n, rng(5))
    # replay the same stream draws and rasterize each pulse train literally
    r = rng(5)
    pulses = r.integers(2, 7, size=n)
    width = r.uniform(*sc.width_range, size=n)
    pri = r.uniform(*sc.pri_range, size=n)
    delay = r.uniform(*sc.delay_range, size=n)
    for i in range(n):
        params = PulseParams(int(pulses[i]), float(width[i]), float(pri[i]),
                             float(delay[i]))
        want = sum(hi - lo for lo, hi in pulse_sample_spans(params, sc.N, sc.fs))
        assert got[i] == want


def test_radar_pure_noise_energy_mean():
    sc = RadarScenario(dwell_T=1e-5, noise_var=2.0)  # N = 32
    env = RadarEnv(sc)
    n = 30_000
    mean = env.pull_arm_sum(3, n, rng(1)) / n
    assert mean == pytest.approx(sc.N * 2.0, rel=0.02)


def test_radar_shortcut_matches_literal_synthesis():
    sc = RadarScenario(active_channel=2, noise_var=2.0)
    env = RadarEnv(sc)
    r1, r2 = rng(11), rng(12)
    fast = np.array([env.pull_arm_sum(2, 1, r1) for _ in range(2000)])
    slow = np.array(
        [radar_energy(radar_synthesize(sc, 2, r2)) for _ in range(2000)]
    )
    assert stats.ks_2samp(fast, slow).pvalue > 0.01


def test_radar_inactive_channels_share_one_law():
    sc = RadarScenario(noise_var=2.0)
    env = RadarEnv(sc)
    r1, r2 = rng(13), rng(14)
    fast = np.array([env.pull_arm_sum(4, 1, r1) for _ in range(2000)])
    slow = np.array(
        [radar_energy(radar_synthesize(sc, 4, r2)) for _ in range(2000)]
    )
    assert stats.ks_2samp(fast, slow).pvalue > 0.01


def single_play_sums(env, arm, n, reps, r):
    """reps independent sums of n single-play energies of one channel,
    drawn by the per-play law of pull_arm_sum(arm, 1)."""
    sc = env.scenario
    N, nv = sc.N, sc.noise_var
    if arm == sc.active_channel:
        counts = signal_sample_counts(sc, reps * n, r)
        chi = r.noncentral_chisquare(2 * N, 2.0 * counts / nv)
    else:
        chi = r.chisquare(2 * N, size=reps * n)
    return (nv / 2.0) * chi.reshape(reps, n).sum(axis=1)


@pytest.fixture(scope="module")
def pulse_count_moments():
    counts = signal_sample_counts(RadarScenario(), 200_000, rng(99))
    return counts.mean(), counts.var()


def assert_same_law(got, want, mean, var):
    """KS against a reference sample, plus the exact mean and variance.

    The 12 KS tests that use this share a false-alarm rate of about 1%.
    """
    assert stats.ks_2samp(got, want).pvalue > 1e-3
    assert abs(got.mean() - mean) <= 4 * math.sqrt(var / len(got))
    assert got.var() == pytest.approx(var, rel=0.1)


@pytest.mark.parametrize("n", [2, 7, 64])
@pytest.mark.parametrize("arm", [3, 6])
def test_radar_pull_of_n_plays_sums_single_plays(n, arm, pulse_count_moments):
    sc = RadarScenario(active_channel=3, noise_var=1.0)
    env = RadarEnv(sc)
    N, nv = sc.N, sc.noise_var
    reps = 3000
    r = rng([1, n, arm])
    got = np.array([env.pull_arm_sum(arm, n, r) for _ in range(reps)])
    want = single_play_sums(env, arm, n, reps, rng([2, n, arm]))
    m_s, v_s = pulse_count_moments if arm == 3 else (0.0, 0.0)
    mean = n * (N * nv + m_s)
    var = n * (N * nv**2 + 2 * nv * m_s + v_s)
    assert_same_law(got, want, mean, var)


@pytest.mark.parametrize(
    "members",
    [{5}, {4, 5, 6}, set(range(1, 9)), {9}, {1, 2, 3}, {1, 2, 3, 4, 6, 7, 8, 9}],
)
def test_radar_group_pull_matches_member_sums(members, pulse_count_moments):
    sc = RadarScenario(K=12, active_channel=5, noise_var=1.0)
    env = RadarEnv(sc)
    N, nv = sc.N, sc.noise_var
    n, reps, g = 3, 3000, len(members)
    r = rng([3, *sorted(members)])
    got = np.array([pull_group_sum(env, members, n, r)[0] for _ in range(reps)])
    r_ref = rng([4, *sorted(members)])
    want = sum(single_play_sums(env, a, n, reps, r_ref) for a in sorted(members)) / g
    m_s, v_s = pulse_count_moments if 5 in members else (0.0, 0.0)
    mean = n * (g * N * nv + m_s) / g
    var = n * (g * N * nv**2 + 2 * nv * m_s + v_s) / g**2
    assert_same_law(got, want, mean, var)


def rebuild_radar_arm_sums(env, arms, n, r):
    """A radar arm pull's draws written out: one chi2(2Nn) per idle entry
    in row-major order, then for the active entries their summed pulse
    counts drawn through the count tables (table_count_sums) and their
    noncentral chi-squares. A set with no entries draws nothing."""
    sc = env.scenario
    N, nv = sc.N, sc.noise_var
    active = arms == sc.active_channel
    out = np.zeros(arms.shape)
    if (~active).any():
        out[~active] = (nv / 2.0) * r.chisquare(2 * N * n, size=(~active).sum())
    if active.any():
        counts = table_count_sums(env, active.sum(), n, r)
        out[active] = (nv / 2.0) * r.noncentral_chisquare(2 * N * n, 2.0 * counts / nv)
    return out


@pytest.mark.parametrize(
    "arms",
    [
        [[1, 3, 5], [2, 3, 8], [3, 6, 7]],  # idle and active entries mixed
        np.broadcast_to(np.arange(1, 9), (4, 8)),  # one row shared by a block
        [[3], [3], [3]],  # active entries only
        [[1, 2], [4, 8]],  # idle entries only
    ],
)
def test_radar_arm_pull_draws_idle_entries_then_active_ones(arms):
    sc = RadarScenario(active_channel=3, noise_var=1.5)
    env = RadarEnv(sc)
    arms = np.asarray(arms)
    got_rng, want_rng = rng(21), rng(21)
    got = env.pull_arms_sum(arms, 5, got_rng)
    want = rebuild_radar_arm_sums(env, arms, 5, want_rng)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_radar_env_analytic_means():
    sc = RadarScenario(noise_var=3.0)
    env = RadarEnv(sc)
    sig = mean_signal_energy(sc)
    assert sig > 0
    prof = env.true_gap_profile()
    assert prof.sorted_means[0] - prof.sorted_means[1] == pytest.approx(sig)
    assert prof.delta_min == pytest.approx(sig)
    assert env.sigma2 == pytest.approx(sc.N * 9.0)
    assert env.best_arm == sc.active_channel


def test_mean_signal_energy_default_scenario():
    # the exact mean count of the default 30us window at 3.2 MHz; 10^6
    # sampled plays (perfbench/reference.json) read 55.812
    exact = pytest.approx(55.80784977183, abs=1e-9)
    assert mean_signal_energy(RadarScenario()) == exact


def test_mean_signal_energy_runs_once_per_pulse_law():
    casestudies._pulse_count_law.cache_clear()
    for scenario in (
        RadarScenario(),
        RadarScenario(K=4),
        RadarScenario(noise_var=3.0),
        RadarScenario(active_channel=5),
    ):
        RadarEnv(scenario)
    assert casestudies._pulse_count_law.cache_info().misses == 1
    RadarEnv(RadarScenario(dwell_T=20e-6))  # another pulse law is computed again
    assert casestudies._pulse_count_law.cache_info().misses == 2


def law_scenario(r):
    """Pulse laws of at most four slots that can start in a short window,
    in the style of test_reference_oracles.random_scenario: some widths,
    delays and pris are point masses, pulses may outnumber the slots or
    overlap, and delays and pris may be negative."""
    fs = float(r.choice([1e6, 2e6, 3.2e6]))
    width_lo = float(r.uniform(0.5e-6, 15e-6))
    pri_lo = float(r.uniform(-4e-6, 20e-6))
    delay_lo = float(r.uniform(-8e-6, 10e-6))
    lo_p = int(r.integers(0, 4))

    def span(scale):  # a point mass one time in four
        return 0.0 if r.random() < 0.25 else float(r.uniform(0.0, scale))

    return RadarScenario(
        fs=fs,
        dwell_T=float(r.uniform(3e-6, 40e-6)),
        n_pulses_range=(lo_p, lo_p + int(r.integers(0, 5))),
        width_range=(width_lo, width_lo + span(8e-6)),
        pri_range=(pri_lo, pri_lo + span(4e-6)),
        delay_range=(delay_lo, delay_lo + span(12e-6)),
    )


LAW_SCENARIOS = [RadarScenario()] + [
    law_scenario(np.random.default_rng([31, k])) for k in range(24)
] + [
    # a point width with a point delay, which the drawn laws never pair
    RadarScenario(width_range=(12.3e-6, 12.3e-6), delay_range=(3.17e-6, 3.17e-6)),
    # every range a point, as in test_pulse_edges_on_sample_instants: all
    # the mass sits at 8 on-pulse samples
    RadarScenario(
        fs=1e6,
        dwell_T=30e-6,
        n_pulses_range=(3, 3),
        width_range=(4e-6, 4e-6),
        pri_range=(15e-6, 15e-6),
        delay_range=(0.0, 0.0),
    ),
]


def full_pmf(scenario):
    support, pmf = pulse_count_pmf(scenario)
    out = np.zeros(support[-1] + 1)
    out[support] = pmf
    return out


def test_pulse_law_grid_covers_its_cases():
    def point(lo_hi):
        return lo_hi[0] == lo_hi[1]

    laws = LAW_SCENARIOS
    cases = {
        "point width": any(point(sc.width_range) for sc in laws),
        "point delay": any(point(sc.delay_range) for sc in laws),
        "point width and point delay": any(
            point(sc.width_range) and point(sc.delay_range) for sc in laws
        ),
        "point pri": any(point(sc.pri_range) for sc in laws),
        "fewer pulses than slots": any(
            sc.n_pulses_range[0] < _slots_that_can_start(sc) for sc in laws
        ),
        "overlapping pulses": any(
            sc.width_range[1] > sc.pri_range[0] and sc.n_pulses_range[1] > 1
            for sc in laws
        ),
        "negative delay": any(sc.delay_range[0] < 0 for sc in laws),
        "negative pri": any(sc.pri_range[0] < 0 for sc in laws),
        "three or more slots": any(_slots_that_can_start(sc) >= 3 for sc in laws),
    }
    assert all(cases.values()), cases


@pytest.mark.parametrize("k", range(len(LAW_SCENARIOS)))
def test_pulse_count_pmf_is_a_law(k):
    support, pmf = pulse_count_pmf(LAW_SCENARIOS[k])
    assert (pmf >= 0).all() and pmf[0] > 0 and pmf[-1] > 0
    np.testing.assert_array_equal(support, np.arange(support[0], support[-1] + 1))
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert not (support.flags.writeable or pmf.flags.writeable)


@pytest.mark.parametrize("k", range(len(LAW_SCENARIOS)))
def test_pulse_count_pmf_is_exact_between_breakpoints(k, monkeypatch):
    """The law is quadratic in pri between breakpoints, so splitting every
    interval in three moves no probability beyond rounding."""
    sc = LAW_SCENARIOS[k]
    want = full_pmf(sc)
    real = casestudies._pri_breakpoints

    def thirds(*args):
        x = real(*args)
        step = np.diff(x)
        return np.sort(np.concatenate([x, x[:-1] + step / 3, x[:-1] + 2 * step / 3]))

    monkeypatch.setattr(casestudies, "_pri_breakpoints", thirds)
    casestudies._pulse_count_law.cache_clear()
    try:
        got = full_pmf(sc)
    finally:
        casestudies._pulse_count_law.cache_clear()
    assert len(got) == len(want)
    assert abs(got - want).max() <= 1e-13


def assert_counts_fit(counts, pmf):
    """Pearson's chi-square of sampled counts against pmf, cells with an
    expected count below 5 pooled, refused at tail probability 1e-6."""
    obs = np.bincount(counts, minlength=len(pmf))
    assert len(obs) == len(pmf), "a count outside the law's support"
    exp = pmf * len(counts)
    big = exp >= 5
    obs = np.append(obs[big], obs[~big].sum())
    exp = np.append(exp[big], exp[~big].sum())
    if exp[-1] < 1e-9:  # nothing to pool
        assert obs[-1] == 0
        obs, exp = obs[:-1], exp[:-1]
    if len(exp) == 1:  # one count carries all the mass
        assert obs[0] == len(counts)
        return
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert stats.chi2.sf(chi2, len(exp) - 1) > 1e-6, (chi2, len(exp) - 1)


def test_pulse_count_pmf_fits_per_play_counts_default_law():
    sc = RadarScenario()
    assert_counts_fit(signal_sample_counts(sc, 1_000_000, rng(26)), full_pmf(sc))


@pytest.mark.parametrize("k", range(1, len(LAW_SCENARIOS)))
def test_pulse_count_pmf_fits_per_play_counts(k):
    sc = LAW_SCENARIOS[k]
    assert_counts_fit(signal_sample_counts(sc, 100_000, rng([26, k])), full_pmf(sc))


def direct_count_law(pmf, n):
    """The law of the sum of n independent draws of pmf, by binary powering
    with scipy's fftconvolve, negative rounding clipped."""
    law, power = np.ones(1), np.asarray(pmf, dtype=float)
    while n:
        if n & 1:
            law = np.maximum(fftconvolve(law, power), 0.0)
        n >>= 1
        if n:
            power = np.maximum(fftconvolve(power, power), 0.0)
    return law / law.sum()


def test_count_tables_match_direct_convolution():
    """Table i is the law of the summed count of 2**i plays: levels 0-7
    agree with np.convolve squaring to 1e-13 in cdf over the counts they
    keep, the counts they drop hold at most _TABLE_TAIL of mass at either
    end, and every cdf ends at exactly 1."""
    env = RadarEnv(RadarScenario())
    support, pmf = pulse_count_pmf(RadarScenario())
    law = np.array(pmf)
    for i in range(8):
        lo, cdf = env._tables[i]
        first = lo - support[0] * 2**i
        want = np.cumsum(law)
        assert 0 <= first and first + len(cdf) <= len(law)
        assert cdf[-1] == 1.0
        assert abs(cdf[:-1] - want[first : first + len(cdf) - 1]).max() <= 1e-13, i
        dropped = want[first - 1] if first else 0.0
        assert dropped <= casestudies._TABLE_TAIL + 1e-13, i
        assert want[-1] - want[first + len(cdf) - 1] <= casestudies._TABLE_TAIL + 1e-13
        law = np.convolve(law, law)


def test_count_tables_keep_the_moments_of_their_plays():
    """Every table the default law allows holds 2**i times the per-play
    mean and variance. The deepest is level 10, the last whose whole
    support of counts fits in _COUNT_CHUNK; it keeps fewer counts."""
    sc = RadarScenario()
    env = RadarEnv(sc)
    support, pmf = pulse_count_pmf(sc)
    mu = float(support @ pmf)
    var = float((support - mu) ** 2 @ pmf)
    top = len(env._tables) - 1
    assert top == 10
    assert (len(pmf) - 1) * 2**top + 1 == 58_369 <= casestudies._COUNT_CHUNK
    assert (len(pmf) - 1) * 2 ** (top + 1) + 1 > casestudies._COUNT_CHUNK
    for i in range(top + 1):
        lo, cdf = env._tables[i]
        assert len(cdf) <= (len(pmf) - 1) * 2**i + 1
        x, p = lo + np.arange(len(cdf)), np.diff(cdf, prepend=0.0)
        mean = float(x @ p)
        assert mean == pytest.approx(2**i * mu, rel=1e-10), i
        assert float((x - mean) ** 2 @ p) == pytest.approx(2**i * var, rel=1e-10), i


# 3 * 2**11 + 5 plays reach past the deepest table (1024 plays), so they
# add one multinomial draw of 3 * 2**11 plays
@pytest.mark.parametrize("n", [1, 7, 400, 2000, 3 * 2**11 + 5])
def test_radar_summed_counts_follow_the_convolved_law(n):
    """Drawn sums of n plays' counts against the n-fold convolved law, at
    thresholds across its range, by the binomial-tail rule."""
    sc = RadarScenario(noise_var=0.0)  # the pull returns S itself
    env = RadarEnv(sc)
    support, pmf = pulse_count_pmf(sc)
    rows = 20_000
    got = env._active_sums(rows, n, rng([28, n]))
    assert (got == np.round(got)).all()
    assert got.min() >= n * support[0] and got.max() <= n * support[-1]
    cdf = np.cumsum(direct_count_law(pmf, n))
    for q in (1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        c = int(np.searchsorted(cdf, q))
        p = min(float(cdf[c]), 1.0)
        below = int((got <= n * support[0] + c).sum())
        assert not implausible(below, rows, p, p), (q, below, rows, p)


# ------------------------------------------------------------------- iq files


def write_iq(path, rows, header=("n", "i", "q")):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_load_iq_round_trip(tmp_path):
    path = tmp_path / "iq.csv"
    rows = [(k, 0.5 * k, -0.25 * k) for k in range(5)]
    write_iq(path, rows)
    i_arr, q_arr = load_iq_csv(path)
    assert i_arr == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert q_arr == pytest.approx([0.0, -0.25, -0.5, -0.75, -1.0])


def test_load_iq_skips_blank_rows(tmp_path):
    path = tmp_path / "iq.csv"
    with open(path, "w") as fh:
        fh.write("n,i,q\n0,1.0,2.0\n\n , ,\n1,3.0,4.0\n")
    i_arr, q_arr = load_iq_csv(path)
    assert list(i_arr) == [1.0, 3.0]
    assert list(q_arr) == [2.0, 4.0]


def test_load_iq_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    write_iq(bad_header, [(0, 1, 2)], header=("time", "i", "q"))
    with pytest.raises(CsvFormatError):
        load_iq_csv(bad_header)

    short_row = tmp_path / "b.csv"
    with open(short_row, "w") as fh:
        fh.write("n,i,q\n0,1.0\n")
    with pytest.raises(CsvFormatError):
        load_iq_csv(short_row)

    non_numeric = tmp_path / "c.csv"
    with open(non_numeric, "w") as fh:
        fh.write("n,i,q\n0,x,2.0\n")
    with pytest.raises(CsvFormatError):
        load_iq_csv(non_numeric)

    empty = tmp_path / "d.csv"
    with open(empty, "w") as fh:
        fh.write("n,i,q\n")
    with pytest.raises(CsvFormatError):
        load_iq_csv(empty)

    for k, value in enumerate(("inf", "-inf", "nan")):
        non_finite = tmp_path / f"e{k}.csv"
        with open(non_finite, "w") as fh:
            fh.write(f"n,i,q\n0,1.0,2.0\n1,3.0,{value}\n")
        with pytest.raises(CsvFormatError, match="non-finite sample at row 3"):
            load_iq_csv(non_finite)


@pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
def test_radar_env_refuses_a_capture_whose_energy_overflows(value):
    sc = RadarScenario()  # N = 96
    i_arr = np.full(300, 0.5)
    i_arr[7] = value
    with pytest.raises(CsvFormatError, match="overflow"):
        RadarEnv(sc, iq=(i_arr, np.zeros(300)))


def test_radar_env_iq_needs_full_window():
    sc = RadarScenario()  # N = 96
    iq = (np.ones(40), np.zeros(40))
    with pytest.raises(CsvFormatError):
        RadarEnv(sc, iq=iq)


def test_radar_env_iq_windows_replace_synthesis():
    sc = RadarScenario(noise_var=0.5)
    iq = (np.ones(100), np.zeros(100))  # every window has energy N
    env = RadarEnv(sc, iq=iq)
    assert env.best_arm == sc.active_channel
    assert env.pull_arm_sum(sc.active_channel, 3, rng()) == pytest.approx(3 * 96.0)


# ------------------------------------------------------------ radar experiment


def test_run_radar_experiment_smoke():
    sc = RadarScenario(active_channel=4)
    results = run_radar_experiment(
        sc, plays=(1200,), algorithms=("SH", "RE-oracle"), trials=20
    )
    assert len(results) == 2
    assert all(c.instance_id == "radar-K8" for c in results)
    assert all(c.failure is None for c in results)


def test_run_radar_experiment_iq_label(tmp_path):
    # I and Q scaled by 5: window energy about 25 * 2N = 4 800, above the
    # idle channels' N * 21 = 2 016, so the capture's channel is the best arm
    path = tmp_path / "capture.csv"
    r = rng(3)
    write_iq(path, [(k, 5 * r.normal(), 5 * r.normal()) for k in range(200)])
    results = run_radar_experiment(
        RadarScenario(active_channel=2), plays=(300,), algorithms=("SH",),
        trials=5, csv_path=path,
    )
    assert results[0].instance_id == "radar-K8-iq"


def test_run_radar_experiment_weak_capture_raises(tmp_path):
    # unit-variance noise has window energy about 2N, below the idle
    # channels' N * 21, so the idle channels tie for the best arm
    path = tmp_path / "capture.csv"
    r = rng(3)
    write_iq(path, [(k, r.normal(), r.normal()) for k in range(200)])
    with pytest.raises(DuplicateBestArm):
        run_radar_experiment(
            RadarScenario(active_channel=2), plays=(300,), algorithms=("SH",),
            trials=5, csv_path=path,
        )


def test_seeded_radar_scenario_draws_channel_from_seed_only():
    drawn = seeded_radar_scenario(3)
    assert drawn.active_channel == 2
    assert drawn.noise_var == DEFAULT_RADAR_NOISE_VAR
    assert seeded_radar_scenario(3, noise_var=5.0).active_channel == 2
    assert seeded_radar_scenario(3, active_channel=7).active_channel == 7
