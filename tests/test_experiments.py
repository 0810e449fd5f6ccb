"""Harness tests: instance generators, Wilson CIs, sweeps, determinism."""

import math

import numpy as np
import pytest

from bestarm import (
    BanditInstance,
    Bernoulli,
    BoundedUnit,
    ConfigParse,
    DuplicateBestArm,
    ExperimentConfig,
    Gaussian,
    InstanceSpec,
    RESULT_COLUMNS,
    SupportViolation,
    bound_re,
    experiment_config_from_json,
    gap_profile,
    group_mean_distribution,
    group_mean_distribution_rows,
    hardness,
    parse_grid,
    run_experiment,
    theoretical_bound,
)
from bestarm import BanditEnv, ReOptions, experiments
from bestarm.core import MAX_K
from bestarm.experiments import (
    generate_instance,
    result_rows,
    run_cells,
    wilson_interval,
)
from bestarm.hardness import bound_sh, bound_sr, bound_ue


# ------------------------------------------------------------ wilson interval


def test_wilson_spot_value():
    lo, hi = wilson_interval(5, 50)
    assert lo == pytest.approx(0.04347576493189042, abs=1e-12)
    assert hi == pytest.approx(0.21360231437479655, abs=1e-12)


def test_wilson_boundary_clamps():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0


def test_wilson_contains_point_estimate():
    for errors, trials in [(1, 10), (7, 30), (250, 500), (499, 500)]:
        lo, hi = wilson_interval(errors, trials)
        assert lo <= errors / trials <= hi


def test_wilson_rejects_bad_trials():
    with pytest.raises(ConfigParse):
        wilson_interval(0, 0)
    with pytest.raises(ConfigParse):
        wilson_interval(0, -5)


def test_wilson_coverage_near_nominal():
    # 95% interval should cover the true p for roughly 95% of replications
    p, n, reps = 0.3, 100, 1000
    draws = np.random.default_rng(0).binomial(n, p, size=reps)
    covered = sum(1 for k in draws if wilson_interval(int(k), n)[0] <= p <= wilson_interval(int(k), n)[1])
    assert 0.93 <= covered / reps <= 0.97


# --------------------------------------------------------- instance generation


def sorted_means(inst):
    return tuple(sorted(inst.means, reverse=True))


def test_generate_single_gap():
    spec = InstanceSpec(K=4, generator="single_gap", family=Bernoulli(),
                        mu_star=0.9, delta_min=0.8, delta_max=0.8)
    inst = generate_instance(spec)
    assert sorted_means(inst) == pytest.approx((0.9, 0.1, 0.1, 0.1))


def test_generate_arithmetic():
    spec = InstanceSpec(K=5, generator="arithmetic", family=Gaussian(1.0),
                        delta_min=0.1, delta_max=0.4)
    inst = generate_instance(spec)
    assert sorted_means(inst) == pytest.approx((1.0, 0.9, 0.8, 0.7, 0.6))


def test_generate_arithmetic_degenerate_spread():
    spec = InstanceSpec(K=4, generator="arithmetic", family=Gaussian(1.0),
                        delta_min=0.3, delta_max=0.3)
    inst = generate_instance(spec)
    assert sorted_means(inst) == pytest.approx((1.0, 0.7, 0.7, 0.7))


def test_generate_one_real_competitor():
    spec = InstanceSpec(K=8, generator="one_real_competitor", family=Gaussian(1.0),
                        delta_min=0.1, delta_max=0.5)
    inst = generate_instance(spec)
    ms = sorted_means(inst)
    assert ms[0] == 1.0 and ms[1] == pytest.approx(0.9)
    assert ms[2:] == pytest.approx((0.5,) * 6)


def test_generate_two_groups_split():
    for K, n_close in [(8, 4), (9, 4)]:
        spec = InstanceSpec(K=K, generator="two_groups", family=Gaussian(1.0),
                            delta_min=0.1, delta_max=0.5)
        ms = sorted_means(generate_instance(spec))
        assert ms.count(1.0) == 1
        assert sum(1 for m in ms if m == pytest.approx(0.9)) == n_close
        assert sum(1 for m in ms if m == pytest.approx(0.5)) == K - 1 - n_close


def test_generate_explicit_passthrough():
    spec = InstanceSpec(K=3, generator="explicit", family=Gaussian(0.5),
                        means=(0.2, 0.9, 0.4))
    inst = generate_instance(spec)
    assert inst.means == (0.2, 0.9, 0.4)
    assert inst.best_arm == 2


def test_generate_best_position_varies_with_seed():
    positions = set()
    for seed in range(30):
        spec = InstanceSpec(K=8, generator="single_gap", family=Gaussian(1.0),
                            delta_min=0.2, delta_max=0.2, seed=seed)
        inst = generate_instance(spec)
        pos = int(np.argmax(inst.means))
        assert inst.best_arm == pos + 1
        positions.add(pos)
    assert len(positions) >= 4


def test_generate_support_violation():
    spec = InstanceSpec(K=4, generator="single_gap", family=Bernoulli(),
                        mu_star=0.9, delta_min=0.95, delta_max=0.95)
    with pytest.raises(SupportViolation):
        generate_instance(spec)


def test_generate_rejects_bad_specs():
    fam = Gaussian(1.0)
    bad = [
        InstanceSpec(K=4, generator="nope", family=fam),
        InstanceSpec(K=1, generator="single_gap", family=fam),
        InstanceSpec(K=MAX_K + 1, generator="single_gap", family=fam),
        InstanceSpec(K=4, generator="arithmetic", family=fam,
                     delta_min=0.5, delta_max=0.1),
        InstanceSpec(K=4, generator="single_gap", family=fam,
                     delta_min=0.1, delta_max=0.2),
        InstanceSpec(K=4, generator="explicit", family=fam),
    ]
    for spec in bad:
        with pytest.raises(ConfigParse):
            generate_instance(spec)


# -------------------------------------------------------------- run_experiment


def test_run_experiment_noiseless_all_algorithms_exact():
    spec = InstanceSpec(K=4, generator="single_gap", family=Gaussian(0.0),
                        delta_min=0.3, delta_max=0.3)
    cfg = ExperimentConfig(instance=spec, budgets=(40,), trials=8)
    for cell in run_experiment(cfg):
        assert cell.failure is None
        assert cell.errors == 0 and cell.p_hat == 0.0
        assert cell.ci_lo == 0.0


def test_run_experiment_matches_exact_enumeration():
    # two Bernoulli arms, one pull each: the only error event is (0, 1)
    spec = InstanceSpec(K=2, generator="explicit", family=Bernoulli(),
                        means=(0.9, 0.1))
    cfg = ExperimentConfig(instance=spec, budgets=(2,), algorithms=("UE",),
                           trials=40_000, master_seed=7)
    cell = run_experiment(cfg)[0]
    exact = 0.1 * 0.1
    assert cell.p_hat == pytest.approx(exact, abs=0.0015)
    assert cell.ci_lo < exact < cell.ci_hi


def test_run_experiment_grouped_beats_single_pull_at_tight_budget():
    # At T = K = 64, SH's first three rounds allocate no pulls and keep the
    # best arm with probability 1/8, so its error is at least 7/8; SR pulls
    # nothing and recommends arm K. RE's law, 1 - (1 - Q(z))^6 with
    # z = 0.5 * sqrt(10 / (2 * 64 * sigma2)), is 0.398 at sigma2 = 0.01.
    # (At sigma2 = 0.1 it is 0.909, above SH's measured 0.888.)
    spec = InstanceSpec(K=64, generator="single_gap", family=Gaussian(0.01),
                        delta_min=0.5, delta_max=0.5)
    cfg = ExperimentConfig(instance=spec, budgets=(64,),
                           algorithms=("SR", "SH", "RE"), trials=300)
    by_alg = {c.algorithm: c for c in run_experiment(cfg)}
    assert by_alg["RE"].p_hat < by_alg["SR"].p_hat
    assert by_alg["RE"].p_hat < by_alg["SH"].p_hat


def test_run_experiment_marks_absent_cells():
    spec = InstanceSpec(K=4, generator="single_gap", family=Gaussian(0.1),
                        delta_min=0.3, delta_max=0.3)
    cfg = ExperimentConfig(instance=spec, budgets=(2,), algorithms=("UE",),
                           trials=5)
    cell = run_experiment(cfg)[0]
    assert cell.failure == "BudgetTooSmall"
    assert cell.errors is None and cell.p_hat is None
    row = result_rows([cell])[0]
    assert row[: len(RESULT_COLUMNS)][4:8] == ["", "", "", ""]


def test_run_experiment_deterministic_across_threads():
    spec = InstanceSpec(K=8, generator="single_gap", family=Gaussian(0.1),
                        delta_min=0.5, delta_max=0.5)
    cfg = ExperimentConfig(instance=spec, budgets=(40, 80), trials=30,
                           master_seed=3)
    a = [(c.algorithm, c.T, c.errors) for c in run_experiment(cfg)]
    b = [(c.algorithm, c.T, c.errors) for c in run_experiment(cfg)]
    c = [(c.algorithm, c.T, c.errors) for c in run_experiment(cfg)]
    assert a == b == c


# ---------------------------------------------------------- theoretical bounds


def test_theoretical_bound_matches_evaluators():
    inst = generate_instance(
        InstanceSpec(K=4, generator="single_gap", family=Gaussian(0.1),
                     delta_min=0.5, delta_max=0.5)
    )
    hp = hardness(gap_profile(inst))
    T = 200
    assert theoretical_bound("UE", inst, T) == bound_ue("gaussian", 4, T, hp.H3, 0.1)
    assert theoretical_bound("SR", inst, T) == bound_sr("gaussian", 4, T, hp.H2, 0.1)
    assert theoretical_bound("SH", inst, T) == bound_sh("gaussian", 4, T, hp.H2, 0.1)
    assert theoretical_bound("RE", inst, T) == bound_re(
        "gaussian", 4, T, hp.H4, hp.eta, 0.1
    )
    # algorithm labels with a configuration suffix share the base bound
    assert theoretical_bound("RE-oracle", inst, T) == theoretical_bound("RE", inst, T)


def test_theoretical_bound_none_cases():
    gauss6 = generate_instance(
        InstanceSpec(K=6, generator="single_gap", family=Gaussian(0.1),
                     delta_min=0.5, delta_max=0.5)
    )
    assert theoretical_bound("RE", gauss6, 100) is None  # K not a power of two

    non_sep = BanditInstance(means=(1.0, 0.95, 0.0, 0.0), family=Bernoulli())
    assert hardness(gap_profile(non_sep)).eta is None
    assert theoretical_bound("RE", non_sep, 100) is None

    gauss4 = generate_instance(
        InstanceSpec(K=4, generator="single_gap", family=Gaussian(0.1),
                     delta_min=0.5, delta_max=0.5)
    )
    assert theoretical_bound("SR", gauss4, 4) is None  # needs T > K
    assert theoretical_bound("XX", gauss4, 100) is None

    noiseless = generate_instance(
        InstanceSpec(K=4, generator="single_gap", family=Gaussian(0.0),
                     delta_min=0.5, delta_max=0.5)
    )
    for alg in ("UE", "SR", "SH", "RE"):
        assert theoretical_bound(alg, noiseless, 100) is None


# ------------------------------------------------------------------ grid parse


def test_parse_grid_forms():
    assert parse_grid("2:10:2") == (2, 4, 6, 8, 10)
    assert parse_grid("1:16:x2") == (1, 2, 4, 8, 16)
    assert parse_grid("64:4096:x2") == (64, 128, 256, 512, 1024, 2048, 4096)
    assert parse_grid("0.002,0.02") == (0.002, 0.02)
    assert parse_grid(" 5 ") == (5.0,)


def test_parse_grid_rejections():
    bad = ["", "1:2", "a:10:1", "1:b:1", "1:10:c", "1:10:x0.5",
           "-1:10:x2", "1:10:-2", "1:10:0", "abc,def", "5:1:1", ","]
    for text in bad:
        with pytest.raises(ConfigParse):
            parse_grid(text)


def test_parse_grid_caps_its_length():
    cap = experiments.MAX_GRID_POINTS
    assert len(parse_grid(f"1:{cap}:1")) == cap
    assert len(parse_grid(",".join(["1"] * cap))) == cap
    # too many points: refused from the count, before any point is built
    for text in (f"1:{cap + 1}:1", "1:1e12:1", "1:1e300:x1.0000001",
                 ",".join(["1"] * (cap + 1))):
        with pytest.raises(ConfigParse, match="more than"):
            parse_grid(text)
    # steps that cannot move the value, and endpoints no step can reach
    for text in ("1:1:1e-300", "1:10:inf", "1:inf:1", "-inf:1:1", "nan:1:1",
                 "1:10:nan", "1:10:xnan"):
        with pytest.raises(ConfigParse):
            parse_grid(text)


# ---------------------------------------------------------------- config JSON


VALID_CONFIG = """
{
  "instance": {"K": 8, "generator": "Single_Gap", "family": {"gaussian": {"sigma2": 0.1}},
               "delta_min": 0.5, "delta_max": 0.5},
  "budgets": "16:64:x2",
  "algorithms": "SR,RE",
  "trials": 50,
  "master_seed": 11,
  "re_options": {"alpha": 0.2, "prior_mode": "plugin"}
}
"""


def test_config_from_json_round_trip():
    cfg = experiment_config_from_json(VALID_CONFIG)
    assert cfg.instance.K == 8
    assert cfg.instance.generator == "single_gap"
    assert isinstance(cfg.instance.family, Gaussian)
    assert cfg.budgets == (16, 32, 64)
    assert cfg.algorithms == ("SR", "RE")
    assert cfg.trials == 50
    assert cfg.master_seed == 11
    assert cfg.re_options.alpha == 0.2
    assert cfg.re_options.prior_mode == "plugin"


def test_config_infers_k_from_explicit_means():
    cfg = experiment_config_from_json(
        '{"instance": {"generator": "explicit", "family": "bernoulli",'
        ' "means": [0.9, 0.1, 0.5]}, "budgets": [30]}'
    )
    assert cfg.instance.K == 3
    assert cfg.instance.means == (0.9, 0.1, 0.5)


def test_config_rejections():
    bad = [
        "not json",
        "[1, 2]",
        '{"budgets": [10]}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}}',
        '{"instance": 5, "budgets": [10]}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [10], "oops": 1}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli", "oops": 1}, "budgets": [10]}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [10],'
        ' "re_options": {"oops": 1}}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [10],'
        ' "algorithms": ["FOO"]}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [10],'
        ' "re_options": {"alpha": 0, "prior_mode": "plugin"}}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [10], "trials": 0}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [0]}',
        '{"instance": {"K": 4, "generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": 7}',
        '{"instance": {"K": 4, "generator": "wat",'
        ' "family": "bernoulli"}, "budgets": [10]}',
        '{"instance": {"generator": "single_gap",'
        ' "family": "bernoulli"}, "budgets": [10]}',
    ]
    for text in bad:
        with pytest.raises(ConfigParse):
            experiment_config_from_json(text)


def test_run_experiment_tied_best_arm_runs_no_trial(monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_policy", no_trial)
    cfg = ExperimentConfig(
        instance=InstanceSpec(
            K=4, generator="explicit", family=Gaussian(0.1),
            means=(1.0, 1.0, 0.5, 0.5),
        ),
        budgets=(64,),
        trials=5,
    )
    with pytest.raises(DuplicateBestArm):
        run_experiment(cfg)


def test_run_cells_tied_best_arm_runs_no_trial(monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_policy", no_trial)
    env = BanditEnv(BanditInstance(means=(0.5, 1.0, 1.0), family=Gaussian(0.1)))
    with pytest.raises(DuplicateBestArm):
        run_cells(env, ("SH", "RE"), (64,), 5, 0, "tied")


def test_run_cells_options_by_label(monkeypatch):
    seen = []
    real = experiments.run_policy

    def record(name, env, T, rng, re_options, trials):
        seen.append((name, re_options))
        return real(name, env, T, rng, re_options, trials)

    plugin = ReOptions(alpha=0.2, prior_mode="plugin")
    monkeypatch.setattr(experiments, "run_policy", record)
    env = BanditEnv(BanditInstance(means=(1.0, 0.5, 0.5, 0.5), family=Gaussian(0.1)))
    cells = run_cells(
        env, ("RE-plugin", "RE", "SH"), (64,), 1, 0, "opts", {"RE-plugin": plugin}
    )
    assert [c.algorithm for c in cells] == ["RE-plugin", "RE", "SH"]
    assert seen == [("RE", plugin), ("RE", ReOptions()), ("SH", ReOptions())]


# ------------------------------------------------------- group mean histogram


def test_group_means_degenerate_gaps_are_point_masses():
    d = 0.25
    dist = group_mean_distribution(8, d, d, samples=200)
    assert dist.emp_mean_H == pytest.approx(1.0 - (1 - 2 / 8) * d, abs=1e-12)
    assert dist.emp_mean_L == pytest.approx(1.0 - d, abs=1e-12)
    assert dist.emp_var_H == pytest.approx(0.0, abs=1e-24)
    assert dist.th_var_H == 0.0 and dist.th_var_L == 0.0


def test_group_means_match_closed_form_moments():
    K, lo, hi, n = 16, 0.1, 0.4, 100_000
    dist = group_mean_distribution(K, lo, hi, samples=n)
    mid = (lo + hi) / 2
    assert dist.th_mean_H == pytest.approx(1.0 - (1 - 2 / K) * mid)
    assert dist.th_mean_L == pytest.approx(1.0 - mid)
    assert dist.th_var_L == pytest.approx((hi - lo) ** 2 / (6 * K))
    assert dist.th_var_H == pytest.approx(dist.th_var_L * (1 - 2 / K))
    for emp, th, var in [
        (dist.emp_mean_H, dist.th_mean_H, dist.th_var_H),
        (dist.emp_mean_L, dist.th_mean_L, dist.th_var_L),
    ]:
        assert abs(emp - th) <= 3 * math.sqrt(var / n)
    assert dist.emp_var_H == pytest.approx(dist.th_var_H, rel=0.10)
    assert dist.emp_var_L == pytest.approx(dist.th_var_L, rel=0.10)
    # the extra (1 - 2/K) factor is visible in the sampled variance
    assert abs(dist.emp_var_H - dist.th_var_H) < abs(dist.emp_var_H - dist.th_var_L)


def test_group_means_validation():
    with pytest.raises(ConfigParse):
        group_mean_distribution(7, 0.1, 0.4, samples=10)
    with pytest.raises(ConfigParse):
        group_mean_distribution(8, 0.1, 0.4, samples=0)
    with pytest.raises(ConfigParse):
        group_mean_distribution(8, 0.4, 0.1, samples=10)


def test_group_means_deterministic():
    a = group_mean_distribution(8, 0.1, 0.3, samples=500)
    b = group_mean_distribution(8, 0.1, 0.3, samples=500)
    assert np.array_equal(a.counts_H, b.counts_H)
    assert np.array_equal(a.edges_L, b.edges_L)


def test_group_mean_rows_integrate_to_one():
    dist = group_mean_distribution(16, 0.1, 0.4, samples=20_000, bins=40)
    rows = group_mean_distribution_rows(dist)
    assert len(rows) == 80
    for name in ("mu_H", "mu_L"):
        sub = [r for r in rows if r[0] == name]
        assert len(sub) == 40
        assert sum(r[3] for r in sub) == dist.samples
        total = sum(r[4] * (r[2] - r[1]) for r in sub)
        assert total == pytest.approx(1.0, rel=1e-9)
