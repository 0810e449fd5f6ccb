"""Reference oracles the tests check the package against.

Single draws and per-sample simulations that the package replaced with
sufficient-statistic draws, the explicit density-ratio form of RE's group
test, and the per-trial policies that the batched ones replaced: each is
the plain definition of a law or an algorithm, kept here so the tests can
compare the fast paths with it. The Gaussian tail bounds and the instance
writer serve the same tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from bestarm.casestudies import _EDGE_EPS, JammerScenario, RadarScenario
from bestarm.core import BanditInstance, Bernoulli, Gaussian, _member_indices
from bestarm.errors import (
    BudgetTooSmall,
    DecodedDummyArm,
    EmptySubset,
    IndexOutOfRange,
)
from bestarm.grouping import construct_groups, decode_best_arm
from bestarm.policies import (
    _EPS_GAP,
    Environment,
    PolicyRun,
    ReOptions,
    _padded_endpoints,
    _real_members,
    _sr_logbar,
    compute_priors,
    lrt_threshold_gaussian,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def instance_to_json(instance: BanditInstance) -> str:
    if isinstance(instance.family, Gaussian):
        family = {"gaussian": {"sigma2": instance.family.sigma2}}
    elif isinstance(instance.family, Bernoulli):
        family = "bernoulli"
    else:
        family = "bounded"
    payload = {"K": instance.K, "means": list(instance.means), "family": family}
    return json.dumps(payload)


def q_lower(x):
    """Lower bound x/((1+x^2) sqrt(2 pi)) exp(-x^2/2), valid for x > 0."""
    x = np.asarray(x, dtype=float)
    out = x / ((1.0 + x**2) * _SQRT_2PI) * np.exp(-(x**2) / 2.0)
    return float(out) if out.ndim == 0 else out


def q_upper(x):
    """Upper bound exp(-x^2/2)/(x sqrt(2 pi)), valid for x > 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(-(x**2) / 2.0) / (x * _SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def sample_arm(instance: BanditInstance, arm: int, rng: np.random.Generator) -> float:
    """One reward draw from a single arm."""
    if not 1 <= arm <= instance.K:
        raise IndexOutOfRange(f"arm {arm} outside [1, {instance.K}]")
    mu = instance.means[arm - 1]
    if isinstance(instance.family, Gaussian):
        return float(rng.normal(mu, np.sqrt(instance.family.sigma2)))
    return float(rng.random() < mu)


def sample_group(
    instance: BanditInstance, members, rng: np.random.Generator
) -> float:
    """Average of one fresh draw from each member arm.

    For the Gaussian family the result is N(mean of member means,
    sigma2/|members|).
    """
    idx = _member_indices(instance, members)
    mu = instance._mean_array[idx]
    if isinstance(instance.family, Gaussian):
        draws = rng.normal(mu, np.sqrt(instance.family.sigma2))
    else:
        draws = (rng.random(len(idx)) < mu).astype(float)
    return float(draws.mean())


def composite_lrt_decision(
    r_bar: float,
    mu_L_star: float,
    mu_H_star: float,
    pi0: float,
    pi1: float,
    var_per_pull: float,
    n_pulls: float,
) -> bool:
    """Direct worst-case-endpoint LRT: pi1 f(r|mu_H*) >= pi0 f(r|mu_L*).

    Kept as an explicit density-ratio computation so tests can confirm it
    coincides with the threshold rule r_bar > tau_G.
    """
    var = var_per_pull / n_pulls
    log_num = math.log(pi1) - (r_bar - mu_H_star) ** 2 / (2.0 * var)
    log_den = math.log(pi0) - (r_bar - mu_L_star) ** 2 / (2.0 * var)
    return log_num > log_den


def jammer_reward(scenario: JammerScenario, subset: set, rng) -> float:
    """One probe of a waveform subset: (1/m) 1{j* in subset} + noise."""
    m = len(subset)
    if m == 0:
        raise EmptySubset("cannot probe an empty waveform subset")
    for j in subset:
        if not 1 <= j <= scenario.K:
            raise IndexOutOfRange(f"waveform {j} not in 1..{scenario.K}")
    base = (1.0 / m) if scenario.j_star in subset else 0.0
    if scenario.noise_var == 0.0:
        return base
    return base + rng.normal(0.0, math.sqrt(scenario.noise_var))


@dataclass(frozen=True)
class PulseParams:
    n_pulses: int
    width: float
    pri: float
    delay: float


def draw_pulse_params(scenario: RadarScenario, rng) -> PulseParams:
    lo, hi = scenario.n_pulses_range
    return PulseParams(
        n_pulses=int(rng.integers(lo, hi + 1)),
        width=float(rng.uniform(*scenario.width_range)),
        pri=float(rng.uniform(*scenario.pri_range)),
        delay=float(rng.uniform(*scenario.delay_range)),
    )


def pulse_sample_spans(params: PulseParams, N: int, fs: float):
    """Half-open sample-index spans covered by each pulse, clipped to [0, N)."""
    spans = []
    for p in range(params.n_pulses):
        start = params.delay + p * params.pri
        lo = max(0, math.ceil(start * fs - _EDGE_EPS))
        hi = min(N, math.ceil((start + params.width) * fs - _EDGE_EPS))
        if hi > lo:
            spans.append((lo, hi))
    return spans


def radar_synthesize(
    scenario: RadarScenario, channel: int, rng, params: PulseParams | None = None
) -> np.ndarray:
    """One play's complex baseband block for the given channel."""
    if not 1 <= channel <= scenario.K:
        raise IndexOutOfRange(f"channel {channel} not in 1..{scenario.K}")
    N = scenario.N
    nv = scenario.noise_var
    if nv > 0.0:
        comp_sd = math.sqrt(nv / 2.0)
        block = rng.normal(0.0, comp_sd, N) + 1j * rng.normal(0.0, comp_sd, N)
    else:
        block = np.zeros(N, dtype=complex)
    if channel == scenario.active_channel:
        if params is None:
            params = draw_pulse_params(scenario, rng)
        for lo, hi in pulse_sample_spans(params, N, scenario.fs):
            block[lo:hi] += 1.0
    return block


def radar_energy(block) -> float:
    """Sum of squared I/Q magnitudes."""
    arr = np.asarray(block)
    if arr.size == 0:
        raise EmptySubset("energy of an empty block is undefined")
    return float(np.sum(arr.real**2 + arr.imag**2))


# --- per-trial policies -----------------------------------------------------
#
# One trial at a time, with scalar recommendations. Each draws what the
# batched policy of the same name draws in a block of one trial; run_sh's
# zero-allocation rounds use rng.choice instead. A group pull returns one
# sum per trial, so these read entry 0.


def run_ue(env: Environment, T: int, rng: np.random.Generator) -> PolicyRun:
    """Uniform exploration: floor(T/K) pulls per arm, recommend best mean."""
    K = env.K
    if T < K:
        raise BudgetTooSmall(f"UE needs T >= K, got T={T}, K={K}")
    n = T // K
    means = env.pull_arms_sum(range(1, K + 1), n, rng) / n
    rec = int(np.argmax(means)) + 1  # argmax takes the lowest index on ties
    return PolicyRun(
        algorithm="UE",
        budget_T=T,
        recommended_arm=rec,
        correct=rec == env.best_arm,
        pulls_used=n * K,
    )


def run_sr(env: Environment, T: int, rng: np.random.Generator) -> PolicyRun:
    """Successive rejects: K-1 phases, reject the worst cumulative mean.

    Means change only in phases that pull, so each such phase sorts the arms
    once and the following rejections take them in that order. Never-pulled
    arms rank worst; ties go to the lowest index (the sort is stable).
    """
    K = env.K
    if T < K:
        raise BudgetTooSmall(f"SR needs T >= K, got T={T}, K={K}")
    logbar = _sr_logbar(K)
    sums = np.zeros(K)
    counts = np.zeros(K, dtype=int)
    alive = np.ones(K, dtype=bool)
    pulls_used = 0
    n_prev = 0
    order = None  # alive arms' 0-based indices, worst first
    for k in range(1, K):
        n_k = math.ceil((T - K) / (logbar * (K + 1 - k)))
        inc = n_k - n_prev
        n_prev = n_k
        if inc > 0:
            arms = np.flatnonzero(alive) + 1  # ascending, as the draws expect
            sums[alive] += env.pull_arms_sum(arms, inc, rng)
            counts[alive] += inc
            pulls_used += inc * len(arms)
            order = None
        if order is None:
            means = np.full(K, -np.inf)
            seen = counts > 0
            means[seen] = sums[seen] / counts[seen]
            means[~alive] = np.inf
            order = iter(np.argsort(means, kind="stable"))
        alive[next(order)] = False
    rec = int(np.flatnonzero(alive)[0]) + 1
    return PolicyRun(
        algorithm="SR",
        budget_T=T,
        recommended_arm=rec,
        correct=rec == env.best_arm,
        pulls_used=pulls_used,
    )


def run_sh(env: Environment, T: int, rng: np.random.Generator) -> PolicyRun:
    """Sequential halving with fresh per-round pulls.

    Rounds with a zero per-arm allocation keep a uniformly random half,
    making the small-budget degradation explicit rather than an error.
    """
    K = env.K
    rounds = max(1, math.ceil(math.log2(K)))
    alive = list(range(1, K + 1))
    pulls_used = 0
    for _ in range(rounds):
        if len(alive) == 1:
            break
        keep = math.ceil(len(alive) / 2)
        n_r = T // (len(alive) * rounds)
        if n_r == 0:
            picked = rng.choice(len(alive), size=keep, replace=False)
            alive = sorted(alive[i] for i in picked)
            continue
        means = env.pull_arms_sum(alive, n_r, rng) / n_r
        pulls_used += n_r * len(alive)
        order = np.lexsort((np.arange(len(alive)), -means))
        alive = sorted(alive[i] for i in order[:keep])
    rec = alive[0]
    return PolicyRun(
        algorithm="SH",
        budget_T=T,
        recommended_arm=rec,
        correct=rec == env.best_arm,
        pulls_used=pulls_used,
    )


def run_re(
    env: Environment,
    T: int,
    rng: np.random.Generator,
    options: ReOptions | None = None,
) -> PolicyRun:
    """Grouped exploration: per-group likelihood-ratio tests plus decoding.

    Optional phase 1 (alpha > 0) pulls every arm floor(alpha*T/K) times to
    form mean estimates. Phase 2 plays each of the m binary groups
    floor((1-alpha)*T/m) times and compares the group mean against the LRT
    threshold (Gaussian) or the endpoint midpoint (bounded families). The
    detection bits are decoded into an arm index.
    """
    opts = options or ReOptions()
    K = env.K
    code = construct_groups(K)
    Kp, m = code.K_padded, code.m
    n_group = int((1.0 - opts.alpha) * T) // m
    if n_group < 1:
        raise BudgetTooSmall(
            f"RE needs (1-alpha)*T >= {m} group pulls, got T={T}"
        )
    pulls_used = 0
    diag: dict = {
        "prior_mode": opts.prior_mode,
        "alpha": opts.alpha,
        "separability_flag": False,
    }

    mu_dummy = env.dummy_mean() if code.dummy_arms else 0.0

    # Phase 1: per-arm estimates (also feeds the fallback recommendation).
    arm_hat = None
    if opts.alpha > 0.0:
        n1 = int(opts.alpha * T) // K
        if n1 < 1:
            raise BudgetTooSmall(
                f"alpha={opts.alpha} gives no exploration pulls at T={T}"
            )
        arm_hat = env.pull_arms_sum(range(1, K + 1), n1, rng) / n1
        pulls_used += n1 * K

    # Hypothesis endpoints from oracle gaps or plug-in estimates.
    if opts.prior_mode == "oracle":
        prof = env.true_gap_profile()
        mu1 = prof.sorted_means[0]
        d2 = prof.delta_min
        d_max = prof.delta_max
    else:
        top = np.sort(arm_hat)[::-1]
        mu1 = float(top[0])
        d2 = max(float(top[0] - top[1]), _EPS_GAP)
        d_max = max(float(top[0] - top[-1]), _EPS_GAP)
    if code.dummy_arms:
        d_max = max(d_max, mu1 - mu_dummy)
    mu_H_star, mu_L_star = _padded_endpoints(mu1, d2, d_max, Kp)

    separable = mu_H_star > mu_L_star
    if not separable:
        diag["separability_flag"] = True
    degenerate = (d_max - d2) <= 0.0
    sigma2 = env.sigma2
    midpoint = 0.5 * (mu_H_star + mu_L_star)

    # Group-mean estimates for the priors (padded membership).
    group_hat = [None] * m
    if arm_hat is not None:
        for k, members in enumerate(code.groups):
            real = [a for a in members if a <= K]
            total = sum(arm_hat[a - 1] for a in real)
            total += (len(members) - len(real)) * mu_dummy
            group_hat[k] = total / len(members)

    E_muH = mu1 - (1.0 - 2.0 / Kp) * (d2 + d_max) / 2.0
    E_muL = mu1 - (d2 + d_max) / 2.0
    len_L1 = (1.0 - 2.0 / Kp) * (d_max - d2)
    len_L0 = d_max - d2

    groups = []  # priors, threshold and outcome of each group test
    for k in range(m):
        if degenerate or group_hat[k] is None:
            pi0, pi1 = 0.5, 0.5
        else:
            pi0, pi1 = compute_priors(group_hat[k], E_muH, E_muL, len_L1, len_L0)
        if separable and sigma2 is not None:
            tau = lrt_threshold_gaussian(
                mu_H_star, mu_L_star, pi0, pi1, Kp, T, opts.alpha, sigma2
            )
        else:
            # bounded families and flagged runs use the prior-free midpoint
            tau = midpoint
        groups.append({"mu_hat_G": group_hat[k], "pi0": pi0, "pi1": pi1, "tau": tau})

    # Phase 2: one scalar observation per group play.
    detections = []
    for group, members, real in zip(groups, code.groups, _real_members(K)):
        s = env.pull_group_sum(real, n_group, rng)[0]
        mean_real = s / n_group
        n_dummy = len(members) - len(real)
        r_bar = (len(real) * mean_real + n_dummy * mu_dummy) / len(members)
        pulls_used += n_group
        group["delta"] = 1 if r_bar > group["tau"] else 0
        group["phase2_mean"] = r_bar
        detections.append(group["delta"])

    try:
        rec = decode_best_arm(code, detections)
        decoded_dummy = False
    except DecodedDummyArm as exc:
        decoded_dummy = True
        if arm_hat is not None:
            rec = int(np.argmax(arm_hat)) + 1
        else:
            rec = max(1, min(K, exc.arm % K))

    diag["groups"] = groups
    diag["mu_H_star"] = mu_H_star
    diag["mu_L_star"] = mu_L_star
    diag["decoded_dummy"] = decoded_dummy

    return PolicyRun(
        algorithm="RE",
        budget_T=T,
        recommended_arm=rec,
        correct=rec == env.best_arm,
        pulls_used=pulls_used,
        diagnostics=diag,
    )
