"""Fixed-budget best-arm algorithms: UE, SR, SH, and grouped exploration RE.

Algorithms sample an environment in one unit, n plays of a set of arms:

* ``pull_arms_sum(arms, n, rng)`` -- one sum of n i.i.d. rewards per arm;
* ``pull_group_sum(members, n, rng)`` -- sum of n i.i.d. group-play rewards.

One group play costs one unit of budget (the agent probes a subset and sees
one scalar), matching the combinatorial-pull model. ``BanditEnv`` adapts a
``BanditInstance``; the case-study environments subclass it and replace only
the pull laws that differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Protocol

import numpy as np

from . import core
from .core import BanditInstance, Gaussian, GapProfile
from .errors import (
    BudgetTooSmall,
    DecodedDummyArm,
    DegenerateInterval,
    SeparabilityViolated,
)
from .grouping import construct_groups, decode_best_arm

_EPS_GAP = 1e-6  # floor for plug-in gap estimates


class Environment(Protocol):
    """What a policy needs from the world it samples.

    Arms are 1-based ints. The `arms` of `pull_arms_sum` are an ascending
    range, list or int64 array. The `members` of a group pull arrive as a
    sorted read-only int64 array that is shared between trials. Read both
    with len(), iteration or indexing, and never mutate them.
    """

    @property
    def K(self) -> int: ...

    @property
    def best_arm(self) -> int: ...

    @property
    def sigma2(self) -> float | None:
        """Per-pull reward variance for the Gaussian LRT threshold; None for
        the bounded families, which use the endpoint midpoint."""
        ...

    def true_gap_profile(self) -> GapProfile: ...

    def dummy_mean(self) -> float: ...

    def pull_arms_sum(self, arms, n: int, rng: np.random.Generator) -> np.ndarray: ...

    def pull_group_sum(self, members, n: int, rng: np.random.Generator) -> float: ...


class BanditEnv:
    """Environment view of a BanditInstance.

    The instance fixes the arms, the best arm, the gaps and the variance
    the RE threshold reads; the pull methods draw from the instance's law.
    A subclass with another observation law overrides the pulls it changes.
    """

    def __init__(self, instance: BanditInstance):
        self.instance = instance

    @property
    def K(self) -> int:
        return self.instance.K

    @property
    def best_arm(self) -> int:
        return self.instance.best_arm

    @property
    def sigma2(self) -> float | None:
        if isinstance(self.instance.family, Gaussian):
            return self.instance.family.sigma2
        return None

    @cached_property
    def _gap_profile(self) -> GapProfile:
        return core.gap_profile(self.instance)

    def true_gap_profile(self) -> GapProfile:
        return self._gap_profile

    def dummy_mean(self) -> float:
        return core.dummy_mean(self.instance)

    def pull_arms_sum(self, arms, n: int, rng: np.random.Generator) -> np.ndarray:
        return core.sample_arms_sum(self.instance, arms, n, rng)

    def pull_group_sum(self, members, n: int, rng: np.random.Generator) -> float:
        return core.sample_group_sum(self.instance, members, n, rng)


@dataclass(frozen=True)
class PolicyRun:
    algorithm: str
    budget_T: int
    recommended_arm: int
    correct: bool
    pulls_used: int
    diagnostics: dict | None = None


@dataclass(frozen=True)
class ReOptions:
    """Knobs for the grouped-exploration algorithm.

    alpha is the initial-exploration budget fraction. "oracle" priors use the
    true mean/gap structure; "plugin" estimates it from the exploration phase
    (which therefore requires alpha > 0; oracle mode defaults to alpha = 0).
    """

    alpha: float = 0.0
    prior_mode: str = "oracle"  # "oracle" | "plugin"

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0,1), got {self.alpha}")
        if self.prior_mode not in ("oracle", "plugin"):
            raise ValueError(f"unknown prior_mode {self.prior_mode!r}")
        if self.prior_mode == "plugin" and self.alpha <= 0.0:
            raise ValueError("plugin priors need alpha > 0")


def _expit(x: float) -> float:
    """Logistic sigmoid 1/(1+exp(-x)); bit for bit scipy.special.expit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) overflows only for x below about -709
        return 0.0


def compute_priors(
    mu_hat_G: float, E_muH: float, E_muL: float, len_L1: float, len_L0: float
) -> tuple[float, float]:
    """Sigmoid-engineered priors (pi0, pi1) from a group-mean estimate.

    sigma_in ramps up once the estimate passes the typical in-group mean,
    sigma_out ramps up below the typical out-group mean; normalizing the two
    gives complementary priors. Raises DegenerateInterval when either
    hypothesis interval has zero length.
    """
    if len_L1 <= 0.0 or len_L0 <= 0.0:
        raise DegenerateInterval(
            f"interval lengths must be positive, got {len_L1}, {len_L0}"
        )
    sig_in = _expit((mu_hat_G - E_muH) / len_L1)
    sig_out = _expit(-(mu_hat_G - E_muL) / len_L0)
    total = sig_in + sig_out
    if total == 0.0:  # both sigmoids underflowed; fall back to indifference
        return 0.5, 0.5
    return sig_out / total, sig_in / total


def lrt_threshold_gaussian(
    mu_H_star: float,
    mu_L_star: float,
    pi0: float,
    pi1: float,
    K: int,
    T: float,
    alpha: float,
    sigma2: float,
) -> float:
    """Gaussian LRT threshold tau_G for one group test.

    K is the (padded) arm count. With pi0 == pi1 the threshold is exactly the
    midpoint of the endpoint means.
    """
    if mu_H_star <= mu_L_star:
        raise SeparabilityViolated(
            f"need mu_H* > mu_L*, got {mu_H_star} <= {mu_L_star}"
        )
    mid = 0.5 * (mu_H_star + mu_L_star)
    shift = (
        2.0
        * sigma2
        * math.log2(K)
        * math.log(pi0 / pi1)
        / ((1.0 - alpha) * K * T * (mu_H_star - mu_L_star))
    )
    return mid + shift


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


def _sr_logbar(K: int) -> float:
    return 0.5 + sum(1.0 / i for i in range(2, K + 1))


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


def _padded_endpoints(
    mu1: float, d2: float, dK: float, K_padded: int
) -> tuple[float, float]:
    """Worst-case group means: inf over groups with the best arm and sup
    over groups without it."""
    mu_H_star = mu1 - (1.0 - 2.0 / K_padded) * dK
    mu_L_star = mu1 - d2
    return mu_H_star, mu_L_star


@lru_cache(maxsize=64)
def _real_members(K: int) -> tuple[np.ndarray, ...]:
    """Each group's real (non-padding) members as a sorted read-only array."""
    out = []
    for members in construct_groups(K).groups:
        arr = np.array(sorted(a for a in members if a <= K), dtype=np.int64)
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


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
        s = env.pull_group_sum(real, n_group, rng)
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


_RUNNERS = {
    "UE": lambda env, T, rng, opts: run_ue(env, T, rng),
    "SR": lambda env, T, rng, opts: run_sr(env, T, rng),
    "SH": lambda env, T, rng, opts: run_sh(env, T, rng),
    "RE": lambda env, T, rng, opts: run_re(env, T, rng, opts),
}


def run_policy(
    name: str,
    env: Environment,
    T: int,
    rng: np.random.Generator,
    re_options: ReOptions | None = None,
) -> PolicyRun:
    """Dispatch a policy by name ("UE", "SR", "SH", "RE")."""
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None
    return runner(env, T, rng, re_options)
