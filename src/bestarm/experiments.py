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
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .core import (
    MAX_K,
    BanditInstance,
    Bernoulli,
    Family,
    Gaussian,
    RngStream,
    block_trials,
    gap_profile,
    row_sums,
)
from .errors import BestArmError, ConfigParse, SupportViolation
from .hardness import (
    HardnessProfile,
    bound_re,
    bound_sh,
    bound_sr,
    bound_ue,
    hardness,
)
from .grouping import construct_groups
from .policies import BanditEnv, ReOptions, run_policy

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
        fam = "gaussian" if isinstance(self.family, Gaussian) else "bernoulli"
        return f"{self.generator}-K{self.K}-{fam}"


def generate_instance(spec: InstanceSpec) -> BanditInstance:
    """Materialize an InstanceSpec into a BanditInstance."""
    if spec.generator not in GENERATORS:
        raise ConfigParse(f"unknown generator {spec.generator!r}")
    if spec.generator == "explicit":
        if spec.means is None:
            raise ConfigParse("explicit generator needs means")
        if spec.K != len(spec.means):
            raise ConfigParse(f"K={spec.K} does not match {len(spec.means)} means")
        return BanditInstance(means=tuple(spec.means), family=spec.family)
    if spec.means is not None:
        raise ConfigParse(f"the {spec.generator} generator takes no means")
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
        n_near = math.ceil((K - 1) / 2)
        others = np.concatenate([np.full(n_near, mu - lo), np.full(K - 1 - n_near, mu - hi)])
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


def run_cells(
    env: BanditEnv,
    algorithms,
    budgets,
    trials: int,
    master_seed: int,
    instance_id: str,
    options: dict | None = None,
) -> list[CellResult]:
    """Every (algorithm, T) cell of a sweep over a fixed environment.

    Before the first trial it refuses fewer than one trial or a budget
    outside [1, MAX_BUDGET] (ConfigParse), an environment whose best
    arm is tied (DuplicateBestArm), and a Gaussian variance sigma2 so
    large that a budget's sum of T rewards, of variance T * sigma2, has no
    finite variance (SupportViolation). `options` maps an algorithm label to its
    ReOptions, ReOptions() by default; the label's base name before the
    dash picks the policy, so "RE-oracle" and "RE-plugin" run RE under two
    configurations.

    A cell runs its trials in blocks of B = block_trials(width) trials,
    the last block holding the remainder, with one run_policy call per
    block. The width is the row one trial holds: m group sums for RE with
    alpha = 0, whatever the law (a wider group draw chunks its own rows),
    and K arm sums for every other run. The block whose first trial is j0
    draws from RngStream(master_seed, c * trials + j0) for the c-th cell.
    Output thus depends on the seed, the trial count, the environment's law
    and K, not on how the sweep is scheduled. A policy error, such as
    BudgetTooSmall, leaves its cell absent with the error code as `failure`.
    """
    if trials < 1:
        raise ConfigParse(f"need trials >= 1, got {trials}")
    check_budgets(budgets)
    env.best_arm  # raises DuplicateBestArm on ties
    sigma2 = env.sigma2
    if sigma2 is not None and not all(math.isfinite(int(T) * sigma2) for T in budgets):
        raise SupportViolation(
            f"sigma2 = {sigma2!r} is too large for the budgets {list(budgets)}: "
            "T * sigma2 must be finite"
        )
    options = options or {}
    results: list[CellResult] = []
    cells = itertools.product(algorithms, map(int, budgets))
    for cell_index, (algorithm, T) in enumerate(cells):
        policy = algorithm.split("-")[0]
        opts = options.get(algorithm, ReOptions())
        start = time.perf_counter()
        errors, failure = 0, None
        try:
            grouped = policy == "RE" and opts.alpha == 0.0
            block = block_trials(construct_groups(env.K).m if grouped else env.K)
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
    """CellResults as CSV value rows, one field per RESULT_COLUMNS name;
    absent cells keep empty value fields."""
    rows: list[list] = []
    for r in results:
        values = (getattr(r, name) for name in RESULT_COLUMNS)
        rows.append(["" if v is None else v for v in values])
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
    K, family, sigma2 = instance.K, "bounded", None
    if isinstance(instance.family, Gaussian):
        family, sigma2 = "gaussian", instance.family.sigma2
    try:
        if algorithm == "UE":
            return bound_ue(family, K, T, hp.H3, sigma2)
        if algorithm == "SR":
            return bound_sr(family, K, T, hp.H2, sigma2)
        if algorithm == "SH":
            return bound_sh(family, K, T, hp.H2, sigma2)
        if algorithm.startswith("RE"):
            return bound_re(family, K, T, hp.H4, hp.eta, sigma2)
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
        if step.lower().startswith("x"):
            try:
                q = float(step[1:])
            except ValueError as exc:
                raise ConfigParse(f"bad grid factor in {text!r}") from exc
            if not q > 1.0 or a <= 0:
                raise ConfigParse("geometric grid needs a > 0 and factor > 1")
            if b >= a:
                _check_grid_size(math.log(b / a) / math.log(q), text)
            advance, stop = (lambda v: v * q), b * (1.0 + 1e-12)
        else:
            try:
                d = float(step)
            except ValueError as exc:
                raise ConfigParse(f"bad grid step in {text!r}") from exc
            if not 0 < d < math.inf:
                raise ConfigParse("grid step must be positive and finite")
            _check_grid_size((b - a) / d, text)
            advance, stop = (lambda v: v + d), b + d * 1e-9
        vals: list[float] = []
        v = a
        # the length test also ends a step too small to move v
        while v <= stop and len(vals) <= MAX_GRID_POINTS:
            vals.append(v)
            v = advance(v)
    else:
        try:
            vals = [float(p) for p in s.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigParse(f"bad grid value in {text!r}") from exc
    if not vals:
        raise ConfigParse(f"grid {text!r} is empty")
    _check_grid_size(len(vals), text)
    return tuple(vals)


def parse_budgets(value) -> tuple[int, ...]:
    """Budgets from a grid string (see parse_grid) or a nonempty list, each
    a finite number of plays rounded to the nearest integer and checked by
    check_budgets."""
    if isinstance(value, str):
        points = parse_grid(value)
    elif isinstance(value, list) and value:
        points = tuple(real_number(v, "budgets entry") for v in value)
    else:
        raise ConfigParse("budgets must be a nonempty list or a grid string")
    if not all(map(math.isfinite, points)):
        raise ConfigParse(f"budgets must be finite, got {value!r}")
    budgets = tuple(int(round(v)) for v in points)
    check_budgets(budgets)
    return budgets


_ALGORITHMS = {"UE", "SR", "SH", "RE"}


def parse_algorithms(names) -> tuple[str, ...]:
    """Algorithm names from a comma list or a JSON list. Raises ConfigParse
    for no name, a name outside UE, SR, SH and RE, or a name given twice."""
    if isinstance(names, str):
        names = [p.strip() for p in names.split(",") if p.strip()]
    if not isinstance(names, list) or not names:
        raise ConfigParse(f"algorithms must name an algorithm, got {names!r}")
    algorithms = tuple(str(a) for a in names)
    for i, a in enumerate(algorithms):
        if a not in _ALGORITHMS:
            raise ConfigParse(
                f"unknown algorithm {a!r} (choose from {sorted(_ALGORITHMS)})"
            )
        if a in algorithms[:i]:
            raise ConfigParse(f"algorithm {a!r} is named twice")
    return algorithms


def _canonical_generator(name) -> str:
    squashed = re.sub(r"[-_ ]", "", str(name).lower())
    for gen in GENERATORS:
        if squashed == gen.replace("_", ""):
            return gen
    raise ConfigParse(f"unknown generator {name!r}")


def whole_number(value, name: str, low: int | None = None) -> int:
    """A JSON whole number, an int or an integral float such as 64.0.

    Raises ConfigParse, naming the field `name`, for a bool, a non-integral
    or non-finite float, a string, null or any other value, and for a
    number below `low`.
    """
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigParse(f"{name} must be a whole number, got {value!r}")
    if low is not None and value < low:
        raise ConfigParse(f"need {name} >= {low}, got {value}")
    return value


def real_number(value, name: str) -> float:
    """A finite JSON number, an int or a float, as a float. Raises ConfigParse
    for a bool, a non-finite value, a string, null or any other value."""
    # the comparison is exact for any int, and false for NaN
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigParse(f"{name} must be a finite number, got {value!r}")


def _label(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigParse(f"label must be a string or null, got {value!r}")
    return value


def _means(value) -> tuple[float, ...] | None:
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigParse(f"means must be a list, got {value!r}")
    return tuple(real_number(m, "means entry") for m in value)


def _family(spec) -> Family:
    """A family: "bernoulli" or {"gaussian": {"sigma2": ...}}."""
    if isinstance(spec, dict) and set(spec) == {"gaussian"}:
        return Gaussian(**_fields_from_json(Gaussian, spec["gaussian"], "gaussian"))
    if spec == "bernoulli":
        return Bernoulli()
    raise ConfigParse(f'unknown family {spec!r}; for rewards in [0,1] use "bernoulli"')


def _fields_from_json(cls, payload, what: str) -> dict:
    """Keyword arguments for the dataclass `cls` from a JSON object.

    Each key must name a field of `cls` and is read by that field's
    converter; an absent key leaves the field's default to `cls`.
    """
    if not isinstance(payload, dict):
        raise ConfigParse(f"{what} must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigParse(f"unknown {what} keys: {sorted(unknown)}")
    return {name: _CONVERTERS[name](value) for name, value in payload.items()}


def _instance(payload) -> InstanceSpec:
    spec = _fields_from_json(InstanceSpec, payload, "instance")
    if spec.get("means") is not None:
        spec.setdefault("K", len(spec["means"]))
    return InstanceSpec(**spec)


# One converter per field name of ExperimentConfig, InstanceSpec, ReOptions
# and Gaussian; the four share no field name.
_CONVERTERS = {
    "instance": _instance,
    "budgets": parse_budgets,
    "algorithms": parse_algorithms,
    "trials": partial(whole_number, name="trials", low=1),
    "master_seed": partial(whole_number, name="master_seed", low=0),
    "re_options": lambda v: ReOptions(**_fields_from_json(ReOptions, v, "re_options")),
    "K": partial(whole_number, name="K"),
    "generator": _canonical_generator,
    "family": _family,
    "mu_star": partial(real_number, name="mu_star"),
    "delta_min": partial(real_number, name="delta_min"),
    "delta_max": partial(real_number, name="delta_max"),
    "means": _means,
    "seed": partial(whole_number, name="seed", low=0),
    "label": _label,
    "alpha": partial(real_number, name="alpha"),
    "prior_mode": str,
    "sigma2": partial(real_number, name="sigma2"),
}


def _from_json(text: str, what: str, read):
    """read(payload) of the JSON text, with a TypeError or ValueError on the
    way, such as a missing field, or a value outside its family's support
    (SupportViolation) raised as ConfigParse."""
    try:
        return read(json.loads(text))
    except (TypeError, ValueError, OverflowError, SupportViolation) as exc:
        raise ConfigParse(f"bad {what}: {exc}") from exc


def experiment_config_from_json(text: str) -> ExperimentConfig:
    """Parse a simulate config. Its keys and defaults are the fields of
    ExperimentConfig, InstanceSpec, ReOptions and Gaussian; an unknown key,
    a missing field without a default or a value its converter refuses
    raises ConfigParse, and so does an instance whose means leave its
    family's support. K defaults to the number of explicit means."""

    def read(p) -> ExperimentConfig:
        config = ExperimentConfig(**_fields_from_json(ExperimentConfig, p, "config"))
        generate_instance(config.instance)  # refuses means outside the support
        return config

    return _from_json(text, "config", read)


def instance_from_json(text: str) -> BanditInstance:
    """Parse an instance file: a config's instance block, explicit by default."""
    return _from_json(
        text,
        "instance",
        lambda p: generate_instance(_instance({"generator": "explicit", **p})),
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
    # Gaps whose span, sums, group means or moments overflow are refused:
    # numpy's uniform refuses the span, Python's ** the squared span, and
    # numpy's arithmetic raises under this errstate.
    try:
        with np.errstate(over="raise", invalid="raise"):
            # A uniform draw fills its array in order, so summing all gaps_h
            # rows and then all gaps_l rows through row_sums makes the same
            # values as two (samples, ...) draws, without holding them.
            def gaps(r, c):
                return rng.uniform(delta_min, delta_max, (r, c))

            gap_sums = [row_sums(samples, w, gaps) for w in (half - 1, half)]
            mu_h = mu_star - gap_sums[0] / half
            mu_l = mu_star - gap_sums[1] / half
            emp_mean_h, emp_mean_l = float(mu_h.mean()), float(mu_l.mean())
            emp_var_h = float(mu_h.var(ddof=1)) if samples > 1 else 0.0
            emp_var_l = float(mu_l.var(ddof=1)) if samples > 1 else 0.0
            th_var_l = (delta_max - delta_min) ** 2 / (6.0 * K)
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigParse(f"the group means overflow: {exc}") from exc
    try:
        counts_h, edges_h = np.histogram(mu_h, bins=bins)
        counts_l, edges_l = np.histogram(mu_l, bins=bins)
    except ValueError as exc:  # a huge mu_star leaves no room between bin edges
        raise ConfigParse(f"cannot bin the group means: {exc}") from exc
    mid = (delta_min + delta_max) / 2.0
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
        emp_mean_H=emp_mean_h,
        emp_var_H=emp_var_h,
        emp_mean_L=emp_mean_l,
        emp_var_L=emp_var_l,
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
