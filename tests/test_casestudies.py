"""Case studies: jammer waveform selection and radar channel detection."""

import math

import numpy as np
import pytest
from scipy import stats

from bestarm import (
    CsvFormatError,
    DuplicateBestArm,
    EmptySubset,
    IndexOutOfRange,
    InvalidK,
    RadarScenario,
    SupportViolation,
    run_jammer_experiment,
    run_radar_experiment,
)
from bestarm.casestudies import (
    DEFAULT_RADAR_NOISE_VAR,
    JammerEnv,
    JammerScenario,
    RadarEnv,
    load_iq_csv,
    mean_signal_energy,
    seeded_radar_scenario,
    signal_sample_counts,
)
from bestarm.core import MAX_K
from oracles import (
    PulseParams,
    draw_pulse_params,
    jammer_reward,
    pulse_sample_spans,
    radar_energy,
    radar_synthesize,
)


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
    with pytest.raises(EmptySubset):
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


def test_jammer_scenario_validation():
    with pytest.raises(InvalidK):
        JammerScenario(K=1, j_star=1, noise_var=0.0)
    with pytest.raises(InvalidK):
        JammerScenario(K=MAX_K + 1, j_star=1, noise_var=0.0)
    with pytest.raises(IndexOutOfRange):
        JammerScenario(K=8, j_star=0, noise_var=0.0)
    with pytest.raises(IndexOutOfRange):
        JammerScenario(K=8, j_star=9, noise_var=0.0)
    with pytest.raises(SupportViolation):
        JammerScenario(K=8, j_star=1, noise_var=-0.1)


def test_jammer_env_means_and_gap():
    env = JammerEnv(JammerScenario(K=8, j_star=5, noise_var=0.0))
    assert env.best_arm == 5
    prof = env.true_gap_profile()
    assert prof.gaps == pytest.approx((1.0,) * 8)
    assert env.dummy_mean() == pytest.approx(-1.0)
    assert env.pull_arms_sum([5], 4, rng())[0] == pytest.approx(4.0)
    assert env.pull_arms_sum([2], 4, rng())[0] == 0.0
    assert env.pull_group_sum({4, 5, 6, 7}, 2, rng()) == pytest.approx(0.5)
    assert env.pull_group_sum({1, 2}, 3, rng()) == 0.0
    for members in ({0, 1}, {8, 9}):
        with pytest.raises(IndexOutOfRange):
            env.pull_group_sum(members, 3, rng())
    with pytest.raises(EmptySubset):
        env.pull_group_sum(set(), 3, rng())
    assert env.pull_group_sum({0, 99}, 0, rng()) == 0.0


def test_jammer_group_probe_keeps_receiver_noise_floor():
    # the subset mean shrinks to 1/|S| but the noise floor stays put
    env = JammerEnv(JammerScenario(K=8, j_star=5, noise_var=0.5))
    r = rng(9)
    arm = np.array([env.pull_arms_sum([5], 1, r)[0] for _ in range(20_000)])
    grp = np.array([env.pull_group_sum({4, 5, 6, 7}, 1, r) for _ in range(20_000)])
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


# ---------------------------------------------------------------------- radar


def test_radar_scenario_defaults_and_validation():
    sc = RadarScenario()
    assert sc.N == 96
    assert sc.K == 8 and sc.active_channel == 1
    with pytest.raises(InvalidK):
        RadarScenario(K=1)
    with pytest.raises(SupportViolation):
        RadarScenario(fs=0.0)
    with pytest.raises(SupportViolation):
        RadarScenario(dwell_T=-1.0)
    with pytest.raises(SupportViolation):
        RadarScenario(noise_var=-2.0)
    with pytest.raises(IndexOutOfRange):
        RadarScenario(active_channel=9)


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
    with pytest.raises(EmptySubset):
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
    got = np.array([env.pull_group_sum(members, n, r)[0] for _ in range(reps)])
    r_ref = rng([4, *sorted(members)])
    want = sum(single_play_sums(env, a, n, reps, r_ref) for a in sorted(members)) / g
    m_s, v_s = pulse_count_moments if 5 in members else (0.0, 0.0)
    mean = n * (g * N * nv + m_s) / g
    var = n * (g * N * nv**2 + 2 * nv * m_s + v_s) / g**2
    assert_same_law(got, want, mean, var)


def test_radar_group_pull_validates_members():
    env = RadarEnv(RadarScenario(noise_var=1.0))
    for members in ({0, 1}, {8, 9}, np.array([2, 3, 12]), [-1]):
        with pytest.raises(IndexOutOfRange):
            env.pull_group_sum(members, 2, rng())
    with pytest.raises(EmptySubset):
        env.pull_group_sum(set(), 2, rng())
    assert env.pull_group_sum(set(), 0, rng()) == 0.0


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
    assert env.dummy_mean() == pytest.approx(sc.N * 3.0 - sig)


def test_mean_signal_energy_default_scenario():
    # fixed-seed oracle for the default 30us window at 3.2 MHz
    assert mean_signal_energy(RadarScenario()) == pytest.approx(55.8016, abs=0.25)


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
