"""Fixed-budget best-arm algorithms: UE, SR, SH, and grouped exploration RE.

Every policy runs a block of `trials` independent trials at once, one row
per trial, and returns one PolicyRun whose recommendations are arrays of
shape (trials,). Algorithms sample an environment in one unit, n plays of
a set of arms:

* ``pull_arms_sum(arms, n, rng)`` -- one sum of n i.i.d. rewards per entry
  of an int array of arms, of any shape;
* ``pull_group_sum(members, n, rng, trials)`` -- one sum of n i.i.d.
  group-play rewards per trial.

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
from .grouping import construct_groups
# RE decodes a block with array arithmetic; decode_best_arm stays bound here
# for tools that wrap this module's names (perfbench's tracer).
from .grouping import decode_best_arm  # noqa: F401

_EPS_GAP = 1e-6  # floor for plug-in gap estimates


class Environment(Protocol):
    """What a policy needs from the world it samples.

    Arms are 1-based ints. A policy running a block of trials passes
    `pull_arms_sum` an int64 array of shape (trials, arms), one row per
    trial with its arms ascending, and gets one sum per entry back; a
    1-D array, range or list of arms is read the same way. The `members`
    of a group pull arrive as a sorted read-only int64 array that is shared
    between trials, and the pull returns one sum per trial, shape
    (trials,). Read arms and members with len(), iteration or indexing,
    and never mutate them. The draws for a block come from the one
    generator `rng` of that block.
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

    def pull_group_sum(
        self, members, n: int, rng: np.random.Generator, trials: int = 1
    ) -> np.ndarray: ...


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

    def pull_group_sum(
        self, members, n: int, rng: np.random.Generator, trials: int = 1
    ) -> np.ndarray:
        return core.sample_group_sum(self.instance, members, n, rng, trials)


@dataclass(frozen=True)
class PolicyRun:
    """A block of trials of one policy at one budget.

    recommended_arm and correct hold one entry per trial, and so does every
    array in diagnostics; every trial uses the same pulls_used.
    """

    algorithm: str
    budget_T: int
    recommended_arm: np.ndarray
    correct: np.ndarray
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


# _expit elementwise; a numpy exp would differ from scipy in the last bit
_expit_array = np.vectorize(_expit, otypes=[float])


def compute_priors(mu_hat_G, E_muH, E_muL, len_L1, len_L0):
    """Sigmoid-engineered priors (pi0, pi1) from group-mean estimates.

    sigma_in ramps up once the estimate passes the typical in-group mean,
    sigma_out ramps up below the typical out-group mean; normalizing the two
    gives complementary priors. Arguments broadcast against each other, so
    one call serves a (trials, groups) block. Raises DegenerateInterval
    when a hypothesis interval has zero length.
    """
    len_L1 = np.asarray(len_L1, dtype=float)
    len_L0 = np.asarray(len_L0, dtype=float)
    if (len_L1 <= 0.0).any() or (len_L0 <= 0.0).any():
        raise DegenerateInterval(
            f"interval lengths must be positive, got {len_L1}, {len_L0}"
        )
    with np.errstate(over="ignore"):  # _expit handles exp's overflow itself
        sig_in = _expit_array((mu_hat_G - E_muH) / len_L1)
        sig_out = _expit_array(-(mu_hat_G - E_muL) / len_L0)
    under = sig_in + sig_out == 0.0  # both underflowed: fall back to indifference
    sig_in = np.where(under, 1.0, sig_in)
    sig_out = np.where(under, 1.0, sig_out)
    total = sig_in + sig_out
    return sig_out / total, sig_in / total


def lrt_threshold_gaussian(
    mu_H_star, mu_L_star, pi0, pi1, K: int, T: float, alpha: float, sigma2: float
):
    """Gaussian LRT threshold tau_G for group tests.

    K is the (padded) arm count. The endpoints and priors broadcast against
    each other. With pi0 == pi1 the threshold is exactly the midpoint of the
    endpoint means.
    """
    mu_H_star = np.asarray(mu_H_star, dtype=float)
    mu_L_star = np.asarray(mu_L_star, dtype=float)
    if (mu_H_star <= mu_L_star).any():
        raise SeparabilityViolated(
            f"need mu_H* > mu_L*, got {mu_H_star} <= {mu_L_star}"
        )
    mid = 0.5 * (mu_H_star + mu_L_star)
    shift = (
        2.0
        * sigma2
        * math.log2(K)
        * np.log(pi0 / pi1)
        / ((1.0 - alpha) * K * T * (mu_H_star - mu_L_star))
    )
    return mid + shift


def _arm_rows(K: int, trials: int) -> np.ndarray:
    """Arms 1..K for each of `trials` rows, as a read-only (trials, K) view."""
    return np.broadcast_to(np.arange(1, K + 1), (trials, K))


def _run(algorithm, env, T, rec, pulls_used, diagnostics=None) -> PolicyRun:
    return PolicyRun(
        algorithm=algorithm,
        budget_T=T,
        recommended_arm=rec,
        correct=rec == env.best_arm,
        pulls_used=pulls_used,
        diagnostics=diagnostics,
    )


def run_ue(
    env: Environment, T: int, rng: np.random.Generator, trials: int = 1
) -> PolicyRun:
    """Uniform exploration: floor(T/K) pulls per arm, recommend best mean."""
    K = env.K
    if T < K:
        raise BudgetTooSmall(f"UE needs T >= K, got T={T}, K={K}")
    n = T // K
    means = env.pull_arms_sum(_arm_rows(K, trials), n, rng) / n
    rec = np.argmax(means, axis=1) + 1  # argmax takes the lowest index on ties
    return _run("UE", env, T, rec, n * K)


@lru_cache(maxsize=64)
def _sr_logbar(K: int) -> float:
    return 0.5 + sum(1.0 / i for i in range(2, K + 1))


def run_sr(
    env: Environment, T: int, rng: np.random.Generator, trials: int = 1
) -> PolicyRun:
    """Successive rejects: K-1 phases, reject the worst cumulative mean.

    Phase k brings every alive arm to n_k pulls (Audibert, Bubeck & Munos,
    2010). Each row keeps its alive arms ascending, so all rows pull the
    same number of arms. Means change only in phases that pull, so after
    each such phase the rows are sorted once and every rejection up to the
    next pulling phase is one slice of that order. Alive arms share their
    pull count, so sums rank like means. Never-pulled arms tie at zero, and
    ties go to the lowest index (the sort is stable).
    """
    K = env.K
    if T < K:
        raise BudgetTooSmall(f"SR needs T >= K, got T={T}, K={K}")
    phases = np.arange(1, K)
    n_k = np.ceil((T - K) / (_sr_logbar(K) * (K + 1 - phases))).astype(np.int64)
    inc = np.diff(n_k, prepend=0)
    # phases that start a run of rejections: the first, and each that pulls
    starts = np.flatnonzero((inc > 0) | (phases == 1))
    alive = np.broadcast_to(np.arange(K), (trials, K))  # 0-based, ascending
    sums = np.zeros((trials, K))
    pulls_used = 0
    for start, stop in zip(starts, [*starts[1:], K - 1]):
        if inc[start] > 0:
            sums += env.pull_arms_sum(alive + 1, int(inc[start]), rng)
            pulls_used += int(inc[start]) * alive.shape[1]
        worst_first = np.argsort(sums, axis=1, kind="stable")
        keep = np.sort(worst_first[:, stop - start :], axis=1)
        alive = np.take_along_axis(alive, keep, axis=1)
        sums = np.take_along_axis(sums, keep, axis=1)
    return _run("SR", env, T, alive[:, 0] + 1, pulls_used)


def run_sh(
    env: Environment, T: int, rng: np.random.Generator, trials: int = 1
) -> PolicyRun:
    """Sequential halving with fresh per-round pulls (Karnin, Koren &
    Somekh, 2013).

    Rounds with a zero per-arm allocation keep a uniformly random half of
    each row, making the small-budget degradation explicit rather than an
    error. Otherwise a row keeps its better half, the lower index first on
    ties.
    """
    K = env.K
    rounds = max(1, math.ceil(math.log2(K)))
    alive = _arm_rows(K, trials)
    pulls_used = 0
    for _ in range(rounds):
        n_alive = alive.shape[1]
        if n_alive == 1:
            break
        keep = math.ceil(n_alive / 2)
        n_r = T // (n_alive * rounds)
        if n_r == 0:
            order = np.argsort(rng.random((trials, n_alive)), axis=1)
        else:
            means = env.pull_arms_sum(alive, n_r, rng) / n_r
            pulls_used += n_r * n_alive
            order = np.argsort(-means, axis=1, kind="stable")
        alive = np.take_along_axis(alive, np.sort(order[:, :keep], axis=1), axis=1)
    return _run("SH", env, T, alive[:, 0], pulls_used)


def _padded_endpoints(mu1, d2, dK, K_padded: int):
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
    trials: int = 1,
) -> PolicyRun:
    """Grouped exploration: per-group likelihood-ratio tests plus decoding.

    Optional phase 1 (alpha > 0) pulls every arm floor(alpha*T/K) times to
    form mean estimates. Phase 2 plays each of the m binary groups
    floor((1-alpha)*T/m) times and compares the group mean against the LRT
    threshold (Gaussian) or the endpoint midpoint (bounded families). The
    detection bits spell the recommended arm, 1 + sum_k bit_k 2^k. Endpoints,
    priors and thresholds are (trials,) and (trials, m) arrays built once
    per block; with oracle priors every row gets the same ones.
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
    mu_dummy = env.dummy_mean() if code.dummy_arms else 0.0

    # Phase 1: per-arm estimates (also feeds the fallback recommendation).
    arm_hat = None
    if opts.alpha > 0.0:
        n1 = int(opts.alpha * T) // K
        if n1 < 1:
            raise BudgetTooSmall(
                f"alpha={opts.alpha} gives no exploration pulls at T={T}"
            )
        arm_hat = env.pull_arms_sum(_arm_rows(K, trials), n1, rng) / n1
        pulls_used += n1 * K

    # Hypothesis endpoints from oracle gaps or plug-in estimates, per row.
    if opts.prior_mode == "oracle":
        prof = env.true_gap_profile()
        mu1, d2, d_max = (
            np.full(trials, v)
            for v in (prof.sorted_means[0], prof.delta_min, prof.delta_max)
        )
    else:
        top = np.sort(arm_hat, axis=1)  # ascending
        mu1 = top[:, -1]
        d2 = np.maximum(top[:, -1] - top[:, -2], _EPS_GAP)
        d_max = np.maximum(top[:, -1] - top[:, 0], _EPS_GAP)
    if code.dummy_arms:
        d_max = np.maximum(d_max, mu1 - mu_dummy)
    mu_H_star, mu_L_star = _padded_endpoints(mu1, d2, d_max, Kp)
    separable = mu_H_star > mu_L_star
    degenerate = (d_max - d2) <= 0.0

    # Group-mean estimates for the priors (padded membership).
    group_hat = None
    if arm_hat is not None:
        group_hat = np.empty((trials, m))
        for k, (members, real) in enumerate(zip(code.groups, _real_members(K))):
            total = arm_hat[:, real - 1].sum(axis=1)
            total += (len(members) - len(real)) * mu_dummy
            group_hat[:, k] = total / len(members)

    pi0 = np.full((trials, m), 0.5)
    pi1 = np.full((trials, m), 0.5)
    fit = ~degenerate  # rows whose priors follow their group-mean estimates
    if group_hat is not None and fit.any():
        top1, lo, hi = mu1[fit, None], d2[fit, None], d_max[fit, None]
        pi0[fit], pi1[fit] = compute_priors(
            group_hat[fit],
            top1 - (1.0 - 2.0 / Kp) * (lo + hi) / 2.0,  # typical in-group mean
            top1 - (lo + hi) / 2.0,  # typical out-group mean
            (1.0 - 2.0 / Kp) * (hi - lo),
            hi - lo,
        )
    # bounded families and flagged rows use the prior-free midpoint
    tau = np.repeat(0.5 * (mu_H_star + mu_L_star)[:, None], m, axis=1)
    sigma2 = env.sigma2
    if sigma2 is not None and separable.any():
        tau[separable] = lrt_threshold_gaussian(
            mu_H_star[separable, None],
            mu_L_star[separable, None],
            pi0[separable],
            pi1[separable],
            Kp,
            T,
            opts.alpha,
            sigma2,
        )

    # Phase 2: one scalar observation per group play; one draw per group
    # serves every row of the block.
    r_bar = np.empty((trials, m))
    for k, (members, real) in enumerate(zip(code.groups, _real_members(K))):
        mean_real = env.pull_group_sum(real, n_group, rng, trials) / n_group
        n_dummy = len(members) - len(real)
        r_bar[:, k] = (len(real) * mean_real + n_dummy * mu_dummy) / len(members)
        pulls_used += n_group
    bits = (r_bar > tau).astype(np.int64)

    arm = 1 + (bits << np.arange(m)).sum(axis=1)
    decoded_dummy = arm > K  # padding arms are K+1..K_padded
    if arm_hat is not None:
        fallback = np.argmax(arm_hat, axis=1) + 1
    else:
        fallback = np.clip(arm % K, 1, K)
    rec = np.where(decoded_dummy, fallback, arm)

    groups = [
        {
            "mu_hat_G": None if group_hat is None else group_hat[:, k],
            "pi0": pi0[:, k],
            "pi1": pi1[:, k],
            "tau": tau[:, k],
            "delta": bits[:, k],
            "phase2_mean": r_bar[:, k],
        }
        for k in range(m)
    ]
    diag = {
        "prior_mode": opts.prior_mode,
        "alpha": opts.alpha,
        "separability_flag": ~separable,
        "groups": groups,
        "mu_H_star": mu_H_star,
        "mu_L_star": mu_L_star,
        "decoded_dummy": decoded_dummy,
    }
    return _run("RE", env, T, rec, pulls_used, diag)


_RUNNERS = {
    "UE": lambda env, T, rng, opts, trials: run_ue(env, T, rng, trials),
    "SR": lambda env, T, rng, opts, trials: run_sr(env, T, rng, trials),
    "SH": lambda env, T, rng, opts, trials: run_sh(env, T, rng, trials),
    "RE": lambda env, T, rng, opts, trials: run_re(env, T, rng, opts, trials),
}


def run_policy(
    name: str,
    env: Environment,
    T: int,
    rng: np.random.Generator,
    re_options: ReOptions | None = None,
    trials: int = 1,
) -> PolicyRun:
    """Run `trials` trials of a policy by name ("UE", "SR", "SH", "RE")."""
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None
    return runner(env, T, rng, re_options, trials)
