"""Bandit instances, gap bookkeeping, and reward sampling.

Arms are 1-indexed throughout the public API. Reward families:

* ``Gaussian(sigma2)`` -- N(mu_a, sigma2) rewards, sigma2 >= 0 (zero gives a
  point mass, handy for noiseless checks).
* ``Bernoulli()`` -- {0,1} rewards with mean mu_a in [0,1].
* ``BoundedUnit()`` -- rewards in [0,1]; sampled as Bernoulli(mu_a), which is
  the tested default for the bounded family.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigParse,
    DuplicateBestArm,
    EmptyGroup,
    IndexOutOfRange,
    InvalidK,
    SupportViolation,
)

# Most arms a user's K may ask for. Groups, codebooks and generated
# instances hold per-arm data, so a larger K would exhaust memory.
MAX_K = 2**16


@dataclass(frozen=True)
class Gaussian:
    sigma2: float

    def __post_init__(self):
        if not 0 <= self.sigma2 < math.inf:
            raise SupportViolation(
                f"sigma2 must be finite and >= 0, got {self.sigma2}"
            )


@dataclass(frozen=True)
class Bernoulli:
    pass


@dataclass(frozen=True)
class BoundedUnit:
    pass


Family = Gaussian | Bernoulli | BoundedUnit


def _is_unit_family(family: Family) -> bool:
    return isinstance(family, (Bernoulli, BoundedUnit))


@dataclass(frozen=True)
class BanditInstance:
    """A K-armed instance: mean vector plus reward family."""

    means: tuple[float, ...]
    family: Family

    def __post_init__(self):
        means = tuple(float(m) for m in self.means)
        object.__setattr__(self, "means", means)
        if len(means) < 1:
            raise SupportViolation("instance needs at least one arm")
        if not all(map(math.isfinite, means)):
            raise SupportViolation("means must be finite")
        if _is_unit_family(self.family):
            if min(means) < 0.0 or max(means) > 1.0:
                raise SupportViolation(
                    "Bernoulli/BoundedUnit means must lie in [0,1]"
                )

    @property
    def K(self) -> int:
        return len(self.means)

    @cached_property
    def _mean_array(self) -> np.ndarray:
        """The means as a read-only array, built once per instance."""
        arr = np.array(self.means)
        arr.flags.writeable = False
        return arr

    @property
    def best_arm(self) -> int:
        """1-indexed position of the unique maximal mean."""
        arr = self._mean_array
        top = arr.max()
        winners = np.flatnonzero(arr == top)
        if winners.size != 1:
            raise DuplicateBestArm(
                f"max mean {top} attained by arms {list(winners + 1)}"
            )
        return int(winners[0]) + 1


@dataclass(frozen=True)
class GapProfile:
    """Sorted means and the nondecreasing gap vector of an instance.

    gaps[i] follows the convention Delta_[1] = Delta_[2]: the best arm's own
    gap is defined as its distance to the runner-up, so the two smallest
    entries coincide by construction.
    """

    sorted_means: tuple[float, ...]  # descending
    gaps: tuple[float, ...]  # ascending, gaps[0] == gaps[1]
    delta_min: float
    delta_max: float

    @property
    def K(self) -> int:
        return len(self.gaps)


def gap_profile(instance: BanditInstance) -> GapProfile:
    """Sub-optimality gaps of an instance with a unique best arm.

    Raises InvalidK for fewer than two arms, which have no gap, and
    DuplicateBestArm when the maximal mean is attained twice.
    """
    if instance.K < 2:
        raise InvalidK(f"gaps need K >= 2 arms, got {instance.K}")
    instance.best_arm  # raises DuplicateBestArm on ties
    mu = np.sort(instance._mean_array)[::-1]
    sub_gaps = mu[0] - mu[1:]  # Delta_a for a != a*, ascending after sort
    sub_gaps = np.sort(sub_gaps)
    gaps = np.concatenate(([sub_gaps[0]], sub_gaps))  # best arm duplicates the min
    return GapProfile(
        sorted_means=tuple(float(x) for x in mu),
        gaps=tuple(float(x) for x in gaps),
        delta_min=float(gaps[0]),
        delta_max=float(gaps[-1]),
    )


@dataclass(frozen=True)
class RngStream:
    """Counter-style RNG handle: (master_seed, stream_id) fixes the stream.

    Streams with equal fields produce bit-identical draws, so a trial's
    draws depend only on its seed and stream id, not on the trials run
    before it.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, self.stream_id])


def _arm_array(arms) -> np.ndarray:
    """Arms as an int64 array; an int64 array passes through uncopied."""
    if isinstance(arms, np.ndarray):
        return arms.astype(np.int64, copy=False)
    try:
        return np.fromiter(arms, dtype=np.int64)
    except OverflowError as exc:
        raise IndexOutOfRange(f"arm index does not fit in int64: {exc}") from exc


def _check_arms(instance: BanditInstance, arms: np.ndarray) -> np.ndarray:
    """0-based indices of an int64 array of arms, range-checked at once."""
    bad = (arms < 1) | (arms > instance.K)
    if bad.any():
        arm = int(arms[np.argmax(bad)])
        raise IndexOutOfRange(f"arm {arm} outside [1, {instance.K}]")
    return arms - 1


def _member_indices(instance: BanditInstance, members) -> np.ndarray:
    """0-based indices of the distinct members of a group, ascending.

    Raises EmptyGroup for no members and IndexOutOfRange for an arm outside
    [1, K]. Sorted distinct members, as run_re passes them, skip np.unique.
    """
    arms = np.sort(_arm_array(members))
    if arms.size == 0:
        raise EmptyGroup("group pull needs at least one member")
    if (arms[1:] == arms[:-1]).any():
        arms = np.unique(arms)
    return _check_arms(instance, arms)


def sample_arms_sum(
    instance: BanditInstance, arms, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vector of n-pull reward sums, one independent entry per arm in `arms`.

    Each entry is drawn from its sufficient statistic, with the law of n
    summed single draws: the Gaussian sum is N(n*mu, n*sigma2) and the
    Bernoulli sum is Binomial(n, mu). All arms share one numpy call.
    """
    idx = _check_arms(instance, _arm_array(arms))
    if n <= 0:
        return np.zeros(len(idx))
    mu = instance._mean_array[idx]
    if isinstance(instance.family, Gaussian):
        sums = n * mu
        if instance.family.sigma2 > 0.0:
            sums = sums + rng.normal(
                0.0, np.sqrt(n * instance.family.sigma2), size=len(idx)
            )
        return np.asarray(sums, dtype=float)
    return rng.binomial(n, mu).astype(float)


def sample_group_sum(
    instance: BanditInstance, members, n: int, rng: np.random.Generator
) -> float:
    """Sum over n pulls of the group-average reward, via sufficient stats."""
    idx = _member_indices(instance, members)
    if n <= 0:
        return 0.0
    mu = instance._mean_array[idx]
    g = len(idx)
    if isinstance(instance.family, Gaussian):
        group_mu = float(mu.mean())
        var = instance.family.sigma2 / g
        return float(rng.normal(n * group_mu, np.sqrt(n * var)))
    counts = rng.binomial(n, mu)  # per-member success counts over the n pulls
    return float(counts.sum()) / g


def dummy_mean(instance: BanditInstance) -> float:
    """Point-mass mean for padding arms: well below the worst real arm.

    mu_dummy = mu_[K] - Delta_max, floored at 0 for the [0,1] families (the
    floor is the support clip; Gaussian means are unconstrained).
    """
    prof = gap_profile(instance)
    raw = prof.sorted_means[-1] - prof.delta_max
    if _is_unit_family(instance.family):
        return max(0.0, raw)
    return raw


def family_from_json(family_spec) -> Family:
    """Parse the family part of an instance/config JSON payload."""
    if family_spec == "bernoulli":
        return Bernoulli()
    if family_spec == "bounded":
        return BoundedUnit()
    if isinstance(family_spec, dict) and "gaussian" in family_spec:
        try:
            return Gaussian(float(family_spec["gaussian"]["sigma2"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigParse(f"bad gaussian family spec: {exc}") from exc
    raise ConfigParse(f"unknown family spec: {family_spec!r}")


def instance_from_json(text: str) -> BanditInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"invalid instance JSON: {exc}") from exc
    try:
        means = [float(x) for x in payload["means"]]
        family_spec = payload["family"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"instance JSON missing/invalid fields: {exc}") from exc
    if "K" in payload and int(payload["K"]) != len(means):
        raise ConfigParse(
            f"K={payload['K']} does not match {len(means)} means"
        )
    return BanditInstance(means=tuple(means), family=family_from_json(family_spec))
