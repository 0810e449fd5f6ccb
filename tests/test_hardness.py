"""Hardness parameters and closed-form error-bound evaluators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestarm import (
    BanditInstance,
    BudgetTooSmall,
    Gaussian,
    InvalidK,
    SeparabilityViolated,
    SupportViolation,
    bound_re,
    gap_profile,
    hardness,
)
from bestarm.hardness import (
    bound_exploration_failure,
    bound_sh,
    bound_sr,
    bound_ue,
    log_bound_re,
    log_bound_sh,
    log_bound_sr,
    log_bound_ue,
    q_function,
)
from oracles import q_lower, q_upper


def profile_from_gaps(sub_gaps, mu_star=1.0):
    """Instance whose sub-optimal arms sit mu_star - gap, one per gap."""
    means = (mu_star,) + tuple(mu_star - g for g in sub_gaps)
    return gap_profile(BanditInstance(means=means, family=Gaussian(1.0)))


def single_gap_profile(K, delta):
    return profile_from_gaps([delta] * (K - 1))


# ----------------------------------------------------------------- hardness


def test_hardness_k2_equal_gaps():
    hp = hardness(profile_from_gaps([0.5]))
    assert hp.H1 == pytest.approx(8.0, rel=1e-12)
    assert hp.H2 == pytest.approx(8.0, rel=1e-12)
    assert hp.H3 == pytest.approx(8.0, rel=1e-12)
    assert hp.H4 == pytest.approx(1.0, rel=1e-12)
    assert hp.H4_tilde == pytest.approx(2.0, rel=1e-12)
    # for K = 2 the margin keeps the full runner-up gap
    assert hp.separability_margin == pytest.approx(0.5, rel=1e-12)
    assert hp.eta == pytest.approx(1.0, rel=1e-12)


def test_hardness_single_gap_equalities_k1024():
    hp = hardness(single_gap_profile(1024, 0.5))
    assert hp.H3 == pytest.approx(4096.0, rel=1e-12)
    assert hp.H2 == pytest.approx(4096.0, rel=1e-12)
    assert hp.H1 == pytest.approx(4096.0, rel=1e-12)
    assert 4 * 1024 * hp.H4 == pytest.approx(4096.0, rel=1e-12)
    assert hp.eta == pytest.approx(1.0, rel=1e-12)


def test_eta_absent_when_margin_negative():
    # runner-up close to the top, the rest far below: margin < 0
    hp = hardness(profile_from_gaps([0.05] + [1.0] * 6))
    assert hp.separability_margin < 0
    assert hp.eta is None


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)
def test_hardness_inequalities_that_always_hold(k, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.05, 2.0, size=k - 1)
    hp = hardness(profile_from_gaps(gaps))
    tol = 1 + 1e-12
    assert hp.H2 <= hp.H1 * tol
    assert hp.H1 <= math.log(2 * k) * hp.H2 * tol
    assert hp.H1 <= hp.H3 * tol
    assert 4 * hp.H4 <= hp.H1 * tol


def test_single_gap_ties_h1_to_4k_h4():
    for k in (2, 8, 64, 512):
        hp = hardness(single_gap_profile(k, 0.3))
        assert hp.H1 == pytest.approx(4 * k * hp.H4, rel=1e-12)
        assert hp.H1 == pytest.approx(hp.H2, rel=1e-12)
        assert hp.H1 == pytest.approx(hp.H3, rel=1e-12)


def test_full_sum_h1_can_exceed_4k_h4():
    # the all-K sum convention breaks the 4K*H4 cap once gaps spread out
    hp = hardness(profile_from_gaps([0.1, 0.15, 0.2]))
    assert hp.H1 > 4 * 4 * hp.H4


def test_as_row_serializes_eta_absence():
    row = hardness(profile_from_gaps([0.05] + [1.0] * 6)).as_row(8)
    assert row["eta"] == ""
    assert row["K"] == 8
    assert set(row) == {"K", "H1", "H2", "H3", "H4", "KH4", "margin", "eta"}


def test_hardness_refuses_gaps_that_overflow():
    """Gaps below about 1e-154 square to zero or overflow 1/gap^2: such a
    profile is refused, not reported with H = inf and eta = 1.0."""
    with pytest.raises(SupportViolation):
        hardness(profile_from_gaps([1e-200], mu_star=0.0))
    with pytest.raises(SupportViolation):
        hardness(profile_from_gaps([1e-160] * 3, mu_star=0.0))
    # H1-H3 and K*H4 are finite, but K^2*H4 is not: with a zero margin,
    # eta would read min(1, inf * 0) = 1.0 in place of 0
    K, gap = 1024, 1e-152
    gaps = [gap * (1.0 - 2.0 / K)] + [gap] * (K - 2)
    with pytest.raises(SupportViolation):
        hardness(profile_from_gaps(gaps, mu_star=0.0))


# --------------------------------------------------------------- q function


def test_q_function_at_zero():
    assert q_function(0.0) == pytest.approx(0.5, rel=1e-12)


def test_q_function_matches_erfc_oracle():
    assert q_function(2.0) == pytest.approx(0.5 * math.erfc(2.0 / math.sqrt(2)), rel=1e-12)
    assert q_function(2.0) == pytest.approx(0.02275, abs=1e-6)


def test_q_sandwich_bounds():
    rng = np.random.default_rng(0)
    x = rng.uniform(1e-6, 10.0, size=10_000)
    q = q_function(x)
    assert np.all(q_lower(x) < q)
    assert np.all(q < q_upper(x))


# ------------------------------------------------------------- spot values


def test_bound_ue_bounded_spot():
    assert bound_ue("bounded", 2, 16, 8.0) == pytest.approx(math.exp(-1), rel=1e-9)


def test_bound_ue_gaussian_cross_check():
    K, s2 = 8, 0.5
    hp = hardness(single_gap_profile(K, 0.5))
    T = 2 * hp.H1
    got = bound_ue("gaussian", K, T, hp.H3, s2)
    want = (K - 1) * math.sqrt(hp.H3 * s2 / (math.pi * T)) * math.exp(
        -T / (4 * hp.H3 * s2)
    )
    assert got == pytest.approx(want, rel=1e-9)


def test_bound_sh_bounded_spot_clips_to_one():
    # raw value 3/e > 1, reported value saturates
    assert bound_sh("bounded", 2, 64, 8.0) == 1.0
    assert math.exp(log_bound_sh("bounded", 2, 64, 8.0)) == pytest.approx(
        3 / math.e, rel=1e-9
    )


def test_bound_sr_equals_one_at_solved_budget():
    K, H2 = 4, 16.0
    T = K + H2 * math.log(K * (K - 1) / 2) * math.log(K)
    assert bound_sr("bounded", K, T, H2) == pytest.approx(1.0, rel=1e-9)
    assert log_bound_sr("bounded", K, T, H2) == pytest.approx(0.0, abs=1e-9)


def test_bound_sr_needs_t_above_k():
    with pytest.raises(BudgetTooSmall):
        bound_sr("bounded", 8, 8, 10.0)
    with pytest.raises(BudgetTooSmall):
        bound_sr("gaussian", 8, 5, 10.0, 1.0)


def test_bound_sr_gaussian_cross_check():
    K, H2, s2, T = 8, 32.0, 0.5, 400
    lnK = math.log(K)
    want = (
        K * (K - 1) / 2
        * math.sqrt(H2 * s2 * lnK / (2 * math.pi * (T - K)))
        * math.exp(-(T - K) / (2 * H2 * s2 * lnK))
    )
    assert bound_sr("gaussian", K, T, H2, s2) == pytest.approx(want, rel=1e-9)


def test_bound_sh_gaussian_cross_check():
    K, H2, s2, T = 16, 64.0, 0.1, 2000
    m = math.log2(K)
    want = (
        3 * m
        * math.sqrt(2 * H2 * s2 * m / (math.pi * T))
        * math.exp(-T / (8 * H2 * s2 * m))
    )
    assert bound_sh("gaussian", K, T, H2, s2) == pytest.approx(want, rel=1e-9)


def test_bound_re_gaussian_cross_check():
    K, delta, s2, eta = 1024, 0.5, 0.1, 1.0
    hp = hardness(single_gap_profile(K, delta))
    m = math.log2(K)
    T = 40_000
    want = math.sqrt(4 * hp.H4 * s2 * K * m**3 / (math.pi * eta * T)) * math.exp(
        -eta * T / (16 * hp.H4 * s2 * K * m)
    )
    assert bound_re("gaussian", K, T, hp.H4, eta, s2) == pytest.approx(want, rel=1e-9)


def test_bound_re_crosses_one_and_decreases():
    K, s2, eta, H4 = 1024, 0.1, 1.0, 1.0
    grid = np.geomspace(10, 1e6, 60)
    vals = np.array([bound_re("gaussian", K, t, H4, eta, s2) for t in grid])
    assert vals[0] == 1.0
    assert vals[-1] < 1e-6
    assert np.all(np.diff(vals) <= 1e-15)


def test_bound_re_bounded_cross_check():
    K, H4, eta, T = 64, 2.0, 0.5, 20_000
    m = math.log2(K)
    scale = 8 * H4 * K * m * (0.5 + 1 / (6 * math.sqrt(H4)))
    want = m * math.exp(-eta * T / scale)
    assert want < 1
    assert bound_re("bounded", K, T, H4, eta) == pytest.approx(want, rel=1e-9)


@settings(max_examples=100)
@given(
    st.sampled_from([2, 4, 8, 16, 64, 256, 1024]),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_re_bounded_exponent_scale_identity(K, H4):
    # the decay scale rewrites in terms of H4_tilde = K*H4:
    # 8 H4 K m (1/2 + 1/(6 sqrt(H4))) = 4 (K H4) m (1 + sqrt(K)/(3 sqrt(K H4)))
    m = math.log2(K)
    lhs = 8 * H4 * K * m * (0.5 + 1 / (6 * math.sqrt(H4)))
    h4t = K * H4
    rhs = 4 * h4t * m * (1 + math.sqrt(K) / (3 * math.sqrt(h4t)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bound_re_validates_inputs():
    with pytest.raises(InvalidK):
        bound_re("gaussian", 6, 100, 1.0, 1.0, 0.1)
    with pytest.raises(SeparabilityViolated):
        bound_re("gaussian", 8, 100, 1.0, None, 0.1)
    with pytest.raises(SeparabilityViolated):
        bound_re("gaussian", 8, 100, 1.0, 0.0, 0.1)
    with pytest.raises(SeparabilityViolated):
        bound_re("gaussian", 8, 100, 1.0, 1.5, 0.1)


def test_bounds_clip_to_one_at_zero_budget():
    assert bound_ue("bounded", 4, 0, 10.0) == 1.0
    assert bound_sh("gaussian", 4, 0, 10.0, 1.0) == 1.0
    assert bound_re("bounded", 4, 0, 1.0, 1.0) == 1.0


@pytest.mark.parametrize("family, sigma2", [("bounded", None), ("gaussian", 0.5)])
@pytest.mark.parametrize(
    "fn",
    [log_bound_ue, bound_ue, log_bound_sr, bound_sr,
     log_bound_sh, bound_sh, log_bound_re, bound_re],
    ids=lambda fn: fn.__name__,
)
def test_bounds_take_an_array_of_budgets(fn, family, sigma2):
    """An array of T gives the scalar calls elementwise, without a numpy
    warning; T = 0 gives a bound of 1 (SR, which needs T > K, is not asked)."""
    args = (2.0, 0.5) if fn in (log_bound_re, bound_re) else (32.0,)  # H (, eta)
    T = np.array([0.0, 9.0, 40.0, 1e3, 1e6, 1e9])
    if fn in (log_bound_sr, bound_sr):
        T = T[1:]  # SR's bound needs T > K
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = fn(family, 8, T, *args, sigma2)
        want = [fn(family, 8, t, *args, sigma2) for t in T]
    assert isinstance(got, np.ndarray) and got.shape == T.shape
    assert got.tolist() == want
    if T[0] == 0.0:  # the bound is 1, its log at least 0
        assert got[0] == 1.0 if fn.__name__.startswith("bound") else got[0] >= 0.0


@pytest.mark.parametrize(
    "log_fn, fn, H",
    [(log_bound_ue, bound_ue, (1e-10,)), (log_bound_sr, bound_sr, (1e-10,)),
     (log_bound_sh, bound_sh, (1e-10,)), (log_bound_re, bound_re, (1e-10, 0.5))],
    ids=["ue", "sr", "sh", "re"],
)
def test_gaussian_bounds_take_the_limit_of_an_underflowing_scale(log_fn, fn, H):
    """With H * sigma2 below the smallest float, s = c * sigma2 is 0: the tail
    is 1 at t = 0 and 0 past it, for scalars and arrays, without a NaN or a
    numpy warning."""
    T = np.array([0.0, 9.0, 1e6])
    if log_fn is log_bound_sr:
        T = T[1:]  # SR's bound needs T > K, so its t = T - K is positive
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        logs = log_fn("gaussian", 8, T, *H, 1e-320)
        scalars = [log_fn("gaussian", 8, t, *H, 1e-320) for t in T]
        bounds = fn("gaussian", 8, T, *H, 1e-320)
    assert logs.tolist() == scalars == np.where(T > 0, -math.inf, math.inf).tolist()
    assert bounds.tolist() == np.where(T > 0, 0.0, 1.0).tolist()


def test_bounds_vanish_at_huge_budget():
    assert bound_ue("bounded", 4, 1e7, 10.0) < 1e-12
    assert bound_sr("gaussian", 4, 1e7, 10.0, 1.0) < 1e-12
    assert bound_sh("bounded", 4, 1e7, 10.0) < 1e-12
    assert bound_re("gaussian", 4, 1e7, 1.0, 1.0, 1.0) < 1e-12


def test_bound_exploration_failure_spot():
    got = bound_exploration_failure(8, 400, 0.1, 1.0)
    want = 16 * 0.5 * math.erfc(2.0 / math.sqrt(2))
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(0.364, abs=5e-4)


def test_bound_exploration_failure_limits():
    # vanishing signal-to-noise saturates at 1, long exploration kills it
    assert bound_exploration_failure(8, 1, 1e-9, 1.0) == 1.0
    assert bound_exploration_failure(8, 10**8, 0.1, 1.0) < 1e-12


def test_bound_exploration_failure_validates():
    with pytest.raises(BudgetTooSmall):
        bound_exploration_failure(8, 0, 0.1, 1.0)
    with pytest.raises(InvalidK):
        bound_exploration_failure(8, 10, 0.0, 1.0)


@pytest.mark.parametrize("eps, sigma2", [
    (0.1, 0.0), (0.1, -1.0), (0.1, math.nan), (0.1, math.inf),
    (math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
])
def test_bound_exploration_failure_refuses_bad_eps_and_variance(eps, sigma2):
    """A variance or an eps that is not finite and > 0 is refused, not
    divided by, rooted or carried into a bound of 1."""
    with pytest.raises(InvalidK):
        bound_exploration_failure(8, 10, eps, sigma2)


# ------------------------------------------------------- decay-rate checks


def log_slope(fn, t1=1e7, t2=1.1e7):
    return (fn(t2) - fn(t1)) / (t2 - t1)


@pytest.mark.parametrize(
    "fn,scale",
    [
        (lambda t: log_bound_ue("bounded", 8, t, 32.0), 2 * 32.0),
        (lambda t: log_bound_ue("gaussian", 8, t, 32.0, 0.5), 4 * 32.0 * 0.5),
        (lambda t: log_bound_sr("bounded", 8, t, 32.0), math.log(8) * 32.0),
        (
            lambda t: log_bound_sr("gaussian", 8, t, 32.0, 0.5),
            2 * 32.0 * 0.5 * math.log(8),
        ),
        (lambda t: log_bound_sh("bounded", 8, t, 32.0), 8 * 32.0 * 3),
        (lambda t: log_bound_sh("gaussian", 8, t, 32.0, 0.5), 8 * 32.0 * 0.5 * 3),
        (
            lambda t: log_bound_re("bounded", 8, t, 2.0, 0.5),
            8 * 2.0 * 8 * 3 * (0.5 + 1 / (6 * math.sqrt(2.0))) / 0.5,
        ),
        (
            lambda t: log_bound_re("gaussian", 8, t, 2.0, 0.5, 0.5),
            16 * 2.0 * 0.5 * 8 * 3 / 0.5,
        ),
    ],
    ids=[
        "ue-bounded",
        "ue-gaussian",
        "sr-bounded",
        "sr-gaussian",
        "sh-bounded",
        "sh-gaussian",
        "re-bounded",
        "re-gaussian",
    ],
)
def test_log_slope_matches_stated_exponent(fn, scale):
    assert log_slope(fn) == pytest.approx(-1.0 / scale, rel=0.01)


def test_bounds_monotone_past_prefactor_peak():
    grid = np.geomspace(50, 1e6, 40)
    for fn in (
        lambda t: bound_ue("gaussian", 8, t, 32.0, 0.5),
        lambda t: bound_sr("gaussian", 8, t, 32.0, 0.5),
        lambda t: bound_sh("bounded", 8, t, 32.0),
        lambda t: bound_re("gaussian", 8, t, 2.0, 1.0, 0.5),
    ):
        vals = np.array([fn(t) for t in grid])
        assert np.all(np.diff(vals) <= 1e-15)
