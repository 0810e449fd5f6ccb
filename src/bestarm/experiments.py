"""Monte-Carlo experiment harness.

Instance generators for the four gap families, error-probability estimation
with Wilson confidence intervals, budget sweeps, theoretical bounds per
cell, and the group-mean distribution study. A cell runs its trials in
blocks on the calling thread; each block draws from its own stream, fixed
by (master_seed, stream_id).
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_K,
    BanditInstance,
    Bernoulli,
    BoundedUnit,
    Family,
    Gaussian,
    RngStream,
    family_from_json,
    gap_profile,
)
from .errors import BestArmError, ConfigParse
from .hardness import (
    HardnessProfile,
    bound_re,
    bound_sh,
    bound_sr,
    bound_ue,
    hardness,
)
from .policies import BanditEnv, Environment, ReOptions, run_policy

# Most points parse_grid returns, and most histogram bins of
# group_mean_distribution: far more than a sweep can run or a plot can
# show, and few enough to hold in memory.
MAX_GRID_POINTS = 100_000
# Largest budget a sweep accepts. Binomial pull counts must fit in a C
# long, and no sweep runs anywhere near 2**32 plays per trial.
MAX_BUDGET = 2**32
# Most draws group_mean_distribution takes; its group means are two arrays
# of this many floats.
MAX_SAMPLES = 10**7
# Gap draws per block of group_mean_distribution: (rows, K/2) arrays of at
# most this many floats keep its memory O(samples + block).
_GAP_BLOCK = 2**20

GENERATORS = (
    "arithmetic",
    "one_real_competitor",
    "two_groups",
    "single_gap",
    "explicit",
)


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigParse(f"need trials >= 1, got {trials}")
    z = 1.959963984540054  # standard normal 97.5% quantile
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a generated instance; the best-arm slot is seed-randomized."""

    K: int
    generator: str
    family: Family
    mu_star: float = 1.0
    delta_min: float = 0.1
    delta_max: float = 0.1
    means: tuple[float, ...] | None = None  # explicit generator only
    seed: int = 0
    label: str | None = None

    @property
    def instance_id(self) -> str:
        if self.label:
            return self.label
        fam = {Gaussian: "gaussian", Bernoulli: "bernoulli", BoundedUnit: "bounded"}[
            type(self.family)
        ]
        return f"{self.generator}-K{self.K}-{fam}"


def generate_instance(spec: InstanceSpec) -> BanditInstance:
    """Materialize an InstanceSpec into a BanditInstance."""
    if spec.generator not in GENERATORS:
        raise ConfigParse(f"unknown generator {spec.generator!r}")
    if spec.generator == "explicit":
        if spec.means is None:
            raise ConfigParse("explicit generator needs means")
        return BanditInstance(means=tuple(spec.means), family=spec.family)
    K = spec.K
    if not 2 <= K <= MAX_K:
        raise ConfigParse(f"need 2 <= K <= {MAX_K}, got {K}")
    lo, hi = spec.delta_min, spec.delta_max
    if lo > hi:
        raise ConfigParse(f"delta_min {lo} > delta_max {hi}")
    if spec.generator == "single_gap" and lo != hi:
        raise ConfigParse("single_gap needs delta_min == delta_max")
    mu = spec.mu_star
    if spec.generator == "arithmetic":
        others = np.linspace(mu - hi, mu - lo, K - 1)
    elif spec.generator == "one_real_competitor":
        others = np.full(K - 1, mu - hi)
        others[0] = mu - lo
    elif spec.generator == "two_groups":
        n_close = math.ceil((K - 1) / 2)
        others = np.concatenate([np.full(n_close, mu - lo), np.full(K - 1 - n_close, mu - hi)])
    else:  # single_gap
        others = np.full(K - 1, mu - lo)
    rng = np.random.default_rng(spec.seed)
    pos = int(rng.integers(0, K))
    means = np.empty(K)
    means[pos] = mu
    means[np.arange(K) != pos] = others
    return BanditInstance(means=tuple(means), family=spec.family)


@dataclass(frozen=True)
class ExperimentConfig:
    instance: InstanceSpec
    budgets: tuple[int, ...]
    algorithms: tuple[str, ...] = ("UE", "SR", "SH", "RE")
    trials: int = 500
    master_seed: int = 0
    re_options: ReOptions = field(default_factory=ReOptions)


@dataclass
class CellResult:
    """One (instance, algorithm, T) cell of an experiment table."""

    instance_id: str
    algorithm: str
    T: int
    trials: int
    errors: int | None
    p_hat: float | None
    ci_lo: float | None
    ci_hi: float | None
    wall_time: float = 0.0
    failure: str | None = None  # error code when the cell is absent


def check_budgets(budgets) -> None:
    """Refuse a budget that buys no pull or exceeds MAX_BUDGET."""
    if any(not 1 <= int(T) <= MAX_BUDGET for T in budgets):
        raise ConfigParse(
            f"budgets must lie in [1, {MAX_BUDGET}], got {list(budgets)}"
        )


def block_trials(K: int) -> int:
    """Trials per block on K arms: at most 64, and B * K <= 2**16."""
    return min(64, max(1, 2**16 // K))


def run_cells(
    env: Environment,
    algorithms,
    budgets,
    trials: int,
    master_seed: int,
    instance_id: str,
    options: dict | None = None,
) -> list[CellResult]:
    """Every (algorithm, T) cell of a sweep over a fixed environment.

    Before the first trial it refuses fewer than one trial or a budget
    outside [1, MAX_BUDGET] (ConfigParse), and an environment whose best
    arm is tied (DuplicateBestArm). `options` maps an algorithm label to its
    ReOptions, ReOptions() by default; the label's base name before the
    dash picks the policy, so "RE-oracle" and "RE-plugin" run RE under two
    configurations.

    A cell runs its trials in blocks of B = block_trials(K) trials, the
    last block holding the remainder, with one run_policy call per block.
    The block whose first trial is j0 draws from
    RngStream(master_seed, c * trials + j0) for the c-th cell. Output thus
    depends on the seed, the trial count and K, not on how the sweep is
    scheduled. A policy error, such as BudgetTooSmall, leaves its cell
    absent with the error code as `failure`.
    """
    if trials < 1:
        raise ConfigParse(f"need trials >= 1, got {trials}")
    check_budgets(budgets)
    env.best_arm  # raises DuplicateBestArm on ties
    options = options or {}
    block = block_trials(env.K)
    results: list[CellResult] = []
    cells = itertools.product(algorithms, map(int, budgets))
    for cell_index, (algorithm, T) in enumerate(cells):
        policy = algorithm.split("-")[0]
        opts = options.get(algorithm, ReOptions())
        start = time.perf_counter()
        errors, failure = 0, None
        try:
            for j0 in range(0, trials, block):
                rows = min(block, trials - j0)
                rng = RngStream(master_seed, cell_index * trials + j0).generator()
                run = run_policy(policy, env, T, rng, opts, rows)
                errors += rows - int(np.count_nonzero(run.correct))
        except BestArmError as exc:
            errors, failure = None, exc.code
        elapsed = time.perf_counter() - start
        p_hat = lo = hi = None
        if failure is None:
            lo, hi = wilson_interval(errors, trials)
            p_hat = errors / trials
        results.append(
            CellResult(
                instance_id=instance_id,
                algorithm=algorithm,
                T=T,
                trials=trials,
                errors=errors,
                p_hat=p_hat,
                ci_lo=lo,
                ci_hi=hi,
                wall_time=elapsed,
                failure=failure,
            )
        )
    return results


def run_experiment(config: ExperimentConfig) -> list[CellResult]:
    """Monte-Carlo error table for one generated instance."""
    return run_cells(
        BanditEnv(generate_instance(config.instance)),
        config.algorithms,
        config.budgets,
        config.trials,
        config.master_seed,
        config.instance.instance_id,
        {"RE": config.re_options},
    )


RESULT_COLUMNS = (
    "instance_id",
    "algorithm",
    "T",
    "trials",
    "errors",
    "p_hat",
    "ci_lo",
    "ci_hi",
)


def result_rows(results) -> list[list]:
    """CellResults as CSV value rows; absent cells keep empty value fields."""
    rows: list[list] = []
    for r in results:
        rows.append(
            [
                r.instance_id,
                r.algorithm,
                r.T,
                r.trials,
                "" if r.errors is None else r.errors,
                "" if r.p_hat is None else float(r.p_hat),
                "" if r.ci_lo is None else float(r.ci_lo),
                "" if r.ci_hi is None else float(r.ci_hi),
            ]
        )
    return rows


def theoretical_bound(
    algorithm: str,
    instance: BanditInstance,
    T: int,
    hp: HardnessProfile | None = None,
) -> float | None:
    """Clipped bound for one algorithm at one budget; None when inapplicable."""
    if hp is None:
        hp = hardness(gap_profile(instance))
    K, family = instance.K, instance.family
    try:
        if algorithm == "UE":
            return bound_ue(family, K, T, hp.H3)
        if algorithm == "SR":
            return bound_sr(family, K, T, hp.H2)
        if algorithm == "SH":
            return bound_sh(family, K, T, hp.H2)
        if algorithm.startswith("RE"):
            return bound_re(family, K, T, hp.H4, hp.eta)
    except BestArmError:
        return None
    return None


def _check_grid_size(points: float, text) -> None:
    if points > MAX_GRID_POINTS:
        raise ConfigParse(f"grid {text!r} has more than {MAX_GRID_POINTS} points")


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a sweep grid: "a:b:step", "a:b:xfactor" (geometric), or "v1,v2,...".

    The a:b forms are inclusive of b up to float tolerance. A grid holds at
    most MAX_GRID_POINTS points; the a:b forms are counted before any point
    is built.
    """
    s = str(text).strip()
    if not s:
        raise ConfigParse("empty grid")
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigParse(f"grid must be a:b:step, got {text!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigParse(f"bad grid endpoint in {text!r}") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigParse(f"grid endpoints must be finite, got {text!r}")
        step = parts[2].strip()
        vals: list[float] = []
        if step.lower().startswith("x"):
            try:
                q = float(step[1:])
            except ValueError as exc:
                raise ConfigParse(f"bad grid factor in {text!r}") from exc
            if not q > 1.0 or a <= 0:
                raise ConfigParse("geometric grid needs a > 0 and factor > 1")
            if b >= a:
                _check_grid_size(math.log(b / a) / math.log(q), text)
            v = a
            while v <= b * (1.0 + 1e-12) and len(vals) <= MAX_GRID_POINTS:
                vals.append(v)
                v *= q
        else:
            try:
                d = float(step)
            except ValueError as exc:
                raise ConfigParse(f"bad grid step in {text!r}") from exc
            if not 0 < d < math.inf:
                raise ConfigParse("grid step must be positive and finite")
            _check_grid_size((b - a) / d, text)
            v = a
            # the length test also ends a step too small to move v
            while v <= b + d * 1e-9 and len(vals) <= MAX_GRID_POINTS:
                vals.append(v)
                v += d
    else:
        try:
            vals = [float(p) for p in s.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigParse(f"bad grid value in {text!r}") from exc
    if not vals:
        raise ConfigParse(f"grid {text!r} is empty")
    _check_grid_size(len(vals), text)
    return tuple(vals)


def parse_budgets(text: str) -> tuple[int, ...]:
    """A budget grid (see parse_grid), each point rounded to the nearest
    integer and checked by check_budgets."""
    points = parse_grid(text)
    if not all(map(math.isfinite, points)):
        raise ConfigParse(f"budgets must be finite, got {text!r}")
    budgets = tuple(int(round(v)) for v in points)
    check_budgets(budgets)
    return budgets


_CONFIG_KEYS = {"instance", "budgets", "algorithms", "trials", "master_seed", "re_options"}
_INSTANCE_KEYS = {
    "K",
    "generator",
    "family",
    "mu_star",
    "delta_min",
    "delta_max",
    "means",
    "seed",
    "label",
}
_RE_OPTION_KEYS = {"alpha", "prior_mode"}
_ALGORITHMS = {"UE", "SR", "SH", "RE"}


def _canonical_generator(name) -> str:
    squashed = re.sub(r"[-_ ]", "", str(name).lower())
    for gen in GENERATORS:
        if squashed == gen.replace("_", ""):
            return gen
    raise ConfigParse(f"unknown generator {name!r}")


def _reject_unknown(payload: dict, allowed: set, what: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigParse(f"unknown {what} keys: {sorted(unknown)}")


def experiment_config_from_json(text: str) -> ExperimentConfig:
    """Parse a simulate config; mirrors ExperimentConfig, unknown keys rejected."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"invalid config JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigParse("config must be a JSON object")
    _reject_unknown(payload, _CONFIG_KEYS, "config")
    for required in ("instance", "budgets"):
        if required not in payload:
            raise ConfigParse(f"config missing {required!r}")
    inst = payload["instance"]
    if not isinstance(inst, dict):
        raise ConfigParse("instance must be a JSON object")
    _reject_unknown(inst, _INSTANCE_KEYS, "instance")
    if "family" not in inst or "generator" not in inst:
        raise ConfigParse("instance needs family and generator")
    family = family_from_json(inst["family"])
    generator = _canonical_generator(inst["generator"])
    means = inst.get("means")
    if means is not None:
        try:
            means = tuple(float(x) for x in means)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigParse(f"bad means list: {exc}") from exc
    if "K" not in inst and means is None:
        raise ConfigParse("instance needs K (or explicit means)")
    try:
        spec = InstanceSpec(
            K=int(inst["K"]) if "K" in inst else len(means),
            generator=generator,
            family=family,
            mu_star=float(inst.get("mu_star", 1.0)),
            delta_min=float(inst.get("delta_min", 0.1)),
            delta_max=float(inst.get("delta_max", 0.1)),
            means=means,
            seed=int(inst.get("seed", 0)),
            label=inst.get("label"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParse(f"bad instance field: {exc}") from exc
    budgets_raw = payload["budgets"]
    if isinstance(budgets_raw, str):
        budgets = parse_budgets(budgets_raw)
    elif isinstance(budgets_raw, list) and budgets_raw:
        try:
            budgets = tuple(int(v) for v in budgets_raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigParse(f"bad budget value: {exc}") from exc
    else:
        raise ConfigParse("budgets must be a nonempty list or a grid string")
    check_budgets(budgets)
    algorithms_raw = payload.get("algorithms", list(("UE", "SR", "SH", "RE")))
    if isinstance(algorithms_raw, str):
        algorithms_raw = [p.strip() for p in algorithms_raw.split(",") if p.strip()]
    algorithms = tuple(str(a) for a in algorithms_raw)
    if not algorithms:
        raise ConfigParse("algorithms must be nonempty")
    for a in algorithms:
        if a not in _ALGORITHMS:
            raise ConfigParse(f"unknown algorithm {a!r} (choose from {sorted(_ALGORITHMS)})")
    re_raw = payload.get("re_options", {})
    if not isinstance(re_raw, dict):
        raise ConfigParse("re_options must be a JSON object")
    _reject_unknown(re_raw, _RE_OPTION_KEYS, "re_options")
    try:
        re_options = ReOptions(
            alpha=float(re_raw.get("alpha", 0.0)),
            prior_mode=str(re_raw.get("prior_mode", "oracle")),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParse(f"bad re_options: {exc}") from exc
    try:
        trials = int(payload.get("trials", 500))
        master_seed = int(payload.get("master_seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigParse(f"bad trials or master_seed: {exc}") from exc
    if trials < 1:
        raise ConfigParse(f"need trials >= 1, got {trials}")
    if master_seed < 0 or spec.seed < 0:
        raise ConfigParse(
            f"seeds must be >= 0, got master_seed={master_seed}, seed={spec.seed}"
        )
    return ExperimentConfig(
        instance=spec,
        budgets=budgets,
        algorithms=algorithms,
        trials=trials,
        master_seed=master_seed,
        re_options=re_options,
    )


@dataclass(frozen=True)
class GroupMeanDistribution:
    """Sampled laws of the group means with and without the best arm."""

    K: int
    delta_min: float
    delta_max: float
    mu_star: float
    samples: int
    edges_H: np.ndarray
    counts_H: np.ndarray
    edges_L: np.ndarray
    counts_L: np.ndarray
    emp_mean_H: float
    emp_var_H: float
    emp_mean_L: float
    emp_var_L: float
    th_mean_H: float
    th_var_H: float
    th_mean_L: float
    th_var_L: float


def group_mean_distribution(
    K: int,
    delta_min: float,
    delta_max: float,
    samples: int,
    mu_star: float = 1.0,
    bins: int = 60,
    master_seed: int = 0,
) -> GroupMeanDistribution:
    """Group means under i.i.d. Uniform[delta_min, delta_max] gap draws.

    mu_H averages the best arm with K/2 - 1 random sub-optimal means; mu_L
    averages K/2 of them. The centered sums follow Irwin-Hall laws, so the
    moments below admit closed forms; the mu_H variance carries an extra
    (1 - 2/K) factor relative to mu_L since one summand is deterministic.
    """
    if not 2 <= K <= MAX_K or K % 2:
        raise ConfigParse(f"need even K in [2, {MAX_K}], got {K}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ConfigParse(f"need samples in [1, {MAX_SAMPLES}], got {samples}")
    if not 1 <= bins <= MAX_GRID_POINTS:
        raise ConfigParse(f"need bins in [1, {MAX_GRID_POINTS}], got {bins}")
    if not all(map(math.isfinite, (delta_min, delta_max, mu_star))):
        raise ConfigParse("delta_min, delta_max and mu_star must be finite")
    if delta_min > delta_max:
        raise ConfigParse(f"delta_min {delta_min} > delta_max {delta_max}")
    rng = np.random.default_rng([master_seed, K, samples])
    half = K // 2
    rows = max(1, _GAP_BLOCK // half)
    # A uniform draw fills its array in order, so drawing all gaps_h rows
    # and then all gaps_l rows block by block makes the same values as two
    # (samples, ...) draws, without holding them.
    gap_sums = []
    for width in (half - 1, half):
        total = np.empty(samples)
        for a in range(0, samples, rows):
            gaps = rng.uniform(delta_min, delta_max, size=(min(rows, samples - a), width))
            total[a : a + rows] = gaps.sum(axis=1)
        gap_sums.append(total)
    mu_h = mu_star - gap_sums[0] / half
    mu_l = mu_star - gap_sums[1] / half
    try:
        counts_h, edges_h = np.histogram(mu_h, bins=bins)
        counts_l, edges_l = np.histogram(mu_l, bins=bins)
    except ValueError as exc:  # a huge mu_star leaves no room between bin edges
        raise ConfigParse(f"cannot bin the group means: {exc}") from exc
    spread = delta_max - delta_min
    mid = (delta_min + delta_max) / 2.0
    th_var_l = spread**2 / (6.0 * K)
    return GroupMeanDistribution(
        K=K,
        delta_min=delta_min,
        delta_max=delta_max,
        mu_star=mu_star,
        samples=samples,
        edges_H=edges_h,
        counts_H=counts_h,
        edges_L=edges_l,
        counts_L=counts_l,
        emp_mean_H=float(mu_h.mean()),
        emp_var_H=float(mu_h.var(ddof=1)) if samples > 1 else 0.0,
        emp_mean_L=float(mu_l.mean()),
        emp_var_L=float(mu_l.var(ddof=1)) if samples > 1 else 0.0,
        th_mean_H=mu_star - (1.0 - 2.0 / K) * mid,
        th_var_H=th_var_l * (1.0 - 2.0 / K),
        th_mean_L=mu_star - mid,
        th_var_L=th_var_l,
    )


def _clt_density(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    if var <= 0.0:
        return np.zeros_like(x)
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def group_mean_distribution_rows(dist: GroupMeanDistribution):
    """Histogram rows (variable, bin_lo, bin_hi, count, density, clt_density)."""
    rows = []
    for name, edges, counts, mean, var in (
        ("mu_H", dist.edges_H, dist.counts_H, dist.th_mean_H, dist.th_var_H),
        ("mu_L", dist.edges_L, dist.counts_L, dist.th_mean_L, dist.th_var_L),
    ):
        widths = np.diff(edges)
        total = counts.sum()
        centers = (edges[:-1] + edges[1:]) / 2.0
        clt = _clt_density(centers, mean, var)
        for i in range(len(counts)):
            density = (
                counts[i] / (total * widths[i]) if total > 0 and widths[i] > 0 else 0.0
            )
            rows.append(
                [
                    name,
                    float(edges[i]),
                    float(edges[i + 1]),
                    int(counts[i]),
                    float(density),
                    float(clt[i]),
                ]
            )
    return rows
