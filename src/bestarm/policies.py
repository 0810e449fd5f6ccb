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
``BanditInstance`` and owns the pull contract (input checks, n <= 0); the
case-study environments subclass it and override only the observation law,
its ``_arm_sums`` and ``_group_sums`` hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import core
from .core import BanditInstance, Gaussian, GapProfile
from .errors import BudgetTooSmall, DegenerateInterval, SeparabilityViolated
from .grouping import construct_groups
# RE decodes a block with array arithmetic; decode_best_arm stays bound here
# for tools that wrap this module's names (perfbench's tracer).
from .grouping import decode_best_arm  # noqa: F401

_EPS_GAP = 1e-6  # floor for plug-in gap estimates


class BanditEnv:
    """Environment view of a BanditInstance, and the one pull contract.

    The instance fixes the arms, the best arm, the gaps and the variance
    the RE threshold reads. Arms are 1-based. A policy running a block of
    trials passes `pull_arms_sum` an int64 array of shape (trials, arms),
    one row per trial with its arms ascending, and gets one sum per entry
    back; a 1-D array, range or list of arms is read the same way. The
    `members` of a group pull arrive as a sorted read-only int64 array
    shared between trials, and the pull returns one sum per trial, shape
    (trials,). The draws for a block come from the one generator `rng` of
    that block.

    Both pulls check their input first, at every n: arms are whole numbers
    in [1, K] (else IndexOutOfRange), and a group's members are nonempty
    (else EmptyGroup). Members of any shape are read as the set of arms
    they hold. With n <= 0 a pull returns zeros; otherwise the law hook
    `_arm_sums` or `_group_sums` draws from 0-based int64 indices, which it
    reads and never mutates. A custom environment subclasses BanditEnv and
    overrides only these hooks.
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
        """Per-pull reward variance for the Gaussian LRT threshold; None for
        the bounded families, which use the endpoint midpoint."""
        if isinstance(self.instance.family, Gaussian):
            return self.instance.family.sigma2
        return None

    @cached_property
    def _gap_profile(self) -> GapProfile:
        return core.gap_profile(self.instance)

    def true_gap_profile(self) -> GapProfile:
        return self._gap_profile

    def pull_arms_sum(self, arms, n: int, rng: np.random.Generator) -> np.ndarray:
        """n-pull reward sums, one independent entry per entry of `arms`,
        in the same shape."""
        idx = core._check_arms(self.instance, core._arm_array(arms))
        if n <= 0:
            return np.zeros(idx.shape)
        return self._arm_sums(idx, n, rng)

    def pull_group_sum(
        self, members, n: int, rng: np.random.Generator, trials: int = 1
    ) -> np.ndarray:
        """Sums over n group plays, one per trial, shape (trials,)."""
        idx = core._member_indices(self.instance, members)
        if n <= 0:
            return np.zeros(trials)
        return self._group_sums(idx, n, rng, trials)

    def _arm_sums(self, idx: np.ndarray, n: int, rng) -> np.ndarray:
        """Sufficient statistics, one numpy call filled in row-major order:
        N(n*mu, n*sigma2) for Gaussian sums, Binomial(n, mu) otherwise."""
        mu = self.instance._mean_array[idx]
        family = self.instance.family
        if isinstance(family, Gaussian):
            sums = n * mu
            if family.sigma2 > 0.0:
                sums = sums + rng.normal(
                    0.0, np.sqrt(n * family.sigma2), size=idx.shape
                )
            return np.asarray(sums, dtype=float)
        return rng.binomial(n, mu).astype(float)

    def _group_sums(self, idx: np.ndarray, n: int, rng, trials: int) -> np.ndarray:
        """A group play averages one draw per member: N(mean mu, sigma2/g)
        for Gaussian rewards, per-member Binomial counts otherwise."""
        mu = self.instance._mean_array[idx]
        g = len(idx)
        family = self.instance.family
        if isinstance(family, Gaussian):
            var = family.sigma2 / g
            return rng.normal(n * (float(mu.sum()) / g), np.sqrt(n * var), size=trials)
        # per-member success counts over the n pulls, one row per trial
        counts = rng.binomial(n, mu, size=(trials, g))
        return counts.sum(axis=1) / g


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

    K is the padded arm count: the shift takes a group mean of K/2 members,
    each of per-pull variance sigma2. The endpoints, priors and sigma2
    broadcast against each other. With pi0 == pi1 the threshold is exactly
    the midpoint of the endpoint means.
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
    env: BanditEnv, T: int, rng: np.random.Generator, trials: int = 1
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


def _lowest(values: np.ndarray, r: int) -> np.ndarray:
    """Mask of the r lowest entries of each row, the lower index first on
    ties: the first r entries of a stable argsort, found without a sort."""
    kth = np.partition(values, r - 1, axis=1)[:, r - 1 : r]
    mask = values <= kth
    if np.count_nonzero(mask) > r * len(values):  # a row ties across kth
        below = values < kth
        room = r - np.count_nonzero(below, axis=1, keepdims=True)
        mask = below | (mask & (np.cumsum(mask & ~below, axis=1) <= room))
    return mask


def run_sr(
    env: BanditEnv, T: int, rng: np.random.Generator, trials: int = 1
) -> PolicyRun:
    """Successive rejects: K-1 phases, reject the worst cumulative mean.

    Phase k brings every alive arm to n_k pulls (Audibert, Bubeck & Munos,
    2010). Each row keeps its alive arms ascending, so all rows pull the
    same number of arms. Means change only in phases that pull, so the
    rejections from one pulling phase up to the next are made together.
    Alive arms share their pull count, so sums rank like means. Tie rule:
    among equal sums the lower arm is rejected first, so never-pulled arms,
    tied at zero, go in index order.
    """
    K = env.K
    if T < K:
        raise BudgetTooSmall(f"SR needs T >= K, got T={T}, K={K}")
    phases = np.arange(1, K)
    n_k = np.ceil((T - K) / (_sr_logbar(K) * (K + 1 - phases))).astype(np.int64)
    inc = np.diff(n_k, prepend=0)
    # phases that start a run of rejections: the first, and each that pulls
    starts = np.flatnonzero((inc > 0) | (phases == 1))
    alive = _arm_rows(K, trials)
    sums = np.zeros((trials, K))
    pulls_used = 0
    for start, stop in zip(starts, [*starts[1:], K - 1]):
        if inc[start] > 0:
            sums += env.pull_arms_sum(alive, int(inc[start]), rng)
            pulls_used += int(inc[start]) * alive.shape[1]
        # a boolean mask keeps each row's survivors in ascending order
        keep = ~_lowest(sums, stop - start)
        width = alive.shape[1] - (stop - start)
        alive = alive[keep].reshape(trials, width)
        sums = sums[keep].reshape(trials, width)
    return _run("SR", env, T, alive[:, 0], pulls_used)


def run_sh(
    env: BanditEnv, T: int, rng: np.random.Generator, trials: int = 1
) -> PolicyRun:
    """Sequential halving with fresh per-round pulls (Karnin, Koren &
    Somekh, 2013).

    Rounds with a zero per-arm allocation keep, in each row, the arms with
    the lowest values of one uniform draw per arm: a uniformly random half,
    making the small-budget degradation explicit rather than an error.
    Otherwise a row keeps its better half; tie rule: among equal means the
    lower index is kept first.
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
            score = rng.random((trials, n_alive))
        else:
            score = -env.pull_arms_sum(alive, n_r, rng) / n_r
            pulls_used += n_r * n_alive
        alive = alive[_lowest(score, keep)].reshape(trials, keep)
    return _run("SH", env, T, alive[:, 0], pulls_used)


def run_re(
    env: BanditEnv,
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
    detection bits spell the recommended arm, 1 + sum_k bit_k 2^k.

    Group k is tested on its g_k real members alone. Its mean lies at or
    above mu_H*_k = mu_1 - (1 - 1/g_k) Delta_max when it holds the best
    arm, and at or below mu_L* = mu_1 - Delta_2 otherwise; for K a power
    of two every g_k is K/2. Endpoints, priors and thresholds are
    (trials, m) arrays built once per block; with oracle priors every row
    gets the same ones.
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
    g = np.array([len(members) for members in code.groups], dtype=float)
    in_frac = 1.0 - 1.0 / g  # (m,): the in-group share of Delta_max

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
    mu1, d2, d_max = mu1[:, None], d2[:, None], d_max[:, None]
    shape = (trials, m)
    mu_H_star = mu1 - in_frac * d_max
    mu_L_star = np.broadcast_to(mu1 - d2, shape)
    separable = mu_H_star > mu_L_star

    pi0 = np.full(shape, 0.5)
    pi1 = np.full(shape, 0.5)
    group_hat = None
    if arm_hat is not None:
        group_hat = np.stack(
            [arm_hat[:, members - 1].sum(axis=1) for members in code.groups], axis=1
        ) / g
        # Priors follow the group-mean estimates except in rows whose gaps
        # leave no interval, and in groups of one real member, whose
        # in-group mean is mu_1 itself.
        fit = ((d_max - d2) > 0.0) & (g > 1)
        if fit.any():
            args = np.broadcast_arrays(
                mu1 - in_frac * (d2 + d_max) / 2.0,  # typical in-group mean
                mu1 - (d2 + d_max) / 2.0,  # typical out-group mean
                in_frac * (d_max - d2),
                d_max - d2,
            )
            pi0[fit], pi1[fit] = compute_priors(
                group_hat[fit], *(a[fit] for a in args)
            )
    # bounded families and inseparable groups use the prior-free midpoint
    tau = 0.5 * (mu_H_star + mu_L_star)
    sigma2 = env.sigma2
    if sigma2 is not None and separable.any():
        # A group mean over n plays has variance sigma2 / (g_k n); the
        # threshold reads K_padded/2 members, so sigma2 is rescaled to match.
        sigma2_k = np.broadcast_to(sigma2 * (Kp / 2) / g, shape)
        tau[separable] = lrt_threshold_gaussian(
            mu_H_star[separable],
            mu_L_star[separable],
            pi0[separable],
            pi1[separable],
            Kp,
            T,
            opts.alpha,
            sigma2_k[separable],
        )

    # Phase 2: one scalar observation per group play; one draw per group
    # serves every row of the block.
    r_bar = np.empty(shape)
    for k, members in enumerate(code.groups):
        r_bar[:, k] = env.pull_group_sum(members, n_group, rng, trials) / n_group
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
        "separability_flag": ~separable.all(axis=1),
        "groups": groups,
        "mu_H_star": mu_H_star.min(axis=1),
        "mu_L_star": mu_L_star[:, 0],
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
    env: BanditEnv,
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
