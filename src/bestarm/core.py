"""Bandit instances, gap bookkeeping, rng streams and arm-index checks.

Arms are 1-indexed throughout the public API. Reward families:

* ``Gaussian(sigma2)`` -- N(mu_a, sigma2) rewards, sigma2 >= 0 (zero gives a
  point mass, handy for noiseless checks).
* ``Bernoulli()`` -- {0,1} rewards with mean mu_a in [0,1]; the bounds read
  it as the bounded family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DuplicateBestArm, IndexOutOfRange, InvalidK, SupportViolation

# Most arms a user's K may ask for. Groups, codebooks and generated
# instances hold per-arm data, so a larger K would exhaust memory.
MAX_K = 2**16


def check_K(K) -> int:
    """K as an int: an int or numpy integer in [2, MAX_K], else InvalidK."""
    if not (isinstance(K, (int, np.integer)) and 2 <= K <= MAX_K):
        raise InvalidK(f"need an int K with 2 <= K <= {MAX_K}, got {K!r}")
    return int(K)


def check_arm(arm, K: int, name: str) -> int:
    """arm as an int: an int or numpy integer in [1, K], not a bool, else
    IndexOutOfRange naming the field."""
    if isinstance(arm, bool) or not (isinstance(arm, (int, np.integer)) and 1 <= arm <= K):
        raise IndexOutOfRange(f"{name} must be an int in [1, {K}], got {arm!r}")
    return int(arm)


def is_real(value) -> bool:
    """True for an int, float or numpy real number; False for a bool."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)
    )


def check_variance(value, name: str) -> None:
    """Raise SupportViolation unless value is a real number (see is_real)
    that is finite and >= 0."""
    if not (is_real(value) and 0 <= value < math.inf):
        raise SupportViolation(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class Gaussian:
    sigma2: float

    def __post_init__(self):
        check_variance(self.sigma2, "sigma2")


@dataclass(frozen=True)
class Bernoulli:
    pass


Family = Gaussian | Bernoulli


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
        if isinstance(self.family, Bernoulli):
            if min(means) < 0.0 or max(means) > 1.0:
                raise SupportViolation("Bernoulli means must lie in [0,1]")

    @property
    def K(self) -> int:
        return len(self.means)

    @cached_property
    def _mean_array(self) -> np.ndarray:
        """The means as a read-only array, built once per instance."""
        arr = np.array(self.means)
        arr.flags.writeable = False
        return arr

    @cached_property
    def best_arm(self) -> int:
        """1-indexed position of the unique maximal mean, found once per
        instance; a tie raises DuplicateBestArm on every read."""
        arr = self._mean_array
        top = arr.max()
        winners = np.flatnonzero(arr == top)
        if winners.size != 1:
            raise DuplicateBestArm(
                f"max mean {top} attained by arms {(winners + 1).tolist()}"
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


def gap_profile(instance: BanditInstance) -> GapProfile:
    """Sub-optimality gaps of an instance with a unique best arm.

    Raises InvalidK for fewer than two arms, which have no gap,
    DuplicateBestArm when the maximal mean is attained twice, and
    SupportViolation for a gap whose square overflows.
    """
    if instance.K < 2:
        raise InvalidK(f"gaps need K >= 2 arms, got {instance.K}")
    instance.best_arm  # raises DuplicateBestArm on ties
    mu = np.sort(instance._mean_array)[::-1]
    with np.errstate(over="ignore"):
        sub_gaps = mu[0] - mu[1:]  # Delta_a for a != a*, ascending
        if not np.isfinite(sub_gaps[-1] ** 2):  # the hardness terms square it
            raise SupportViolation("gaps between the means must be below 1e154")
    gaps = np.concatenate(([sub_gaps[0]], sub_gaps))  # best arm duplicates the min
    return GapProfile(
        sorted_means=tuple(mu.tolist()),
        gaps=tuple(gaps.tolist()),
        delta_min=float(gaps[0]),
        delta_max=float(gaps[-1]),
    )


@dataclass(frozen=True)
class RngStream:
    """Counter-style RNG handle: (master_seed, stream_id) fixes the stream.

    Streams with equal fields produce bit-identical draws. A sweep gives
    each block of trials its own stream, keyed by the block's first trial
    (see experiments.run_cells, which sizes blocks by block_trials), so a
    block's draws depend only on its seed, its stream id and its size, not
    on the blocks run before it.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, self.stream_id])


def block_trials(width: int) -> int:
    """Rows per working array when one row holds `width` floats: the most
    with B * width <= 2**16, and at least one. It sizes the trial blocks of
    experiments.run_cells, the draws of row_sums and radar's multinomial
    chunks."""
    return max(1, 2**16 // width)


def row_sums(rows: int, width: int, draw) -> np.ndarray:
    """Row sums of a (rows, width) array that draw(r, c) yields in
    row-major order, r rows of c entries a call: block_trials(width) whole
    rows, or a wider row's next 2**16 entries. Width 0 draws nothing."""
    out = np.zeros(rows)
    step, cols = block_trials(max(width, 1)), min(width, 2**16)
    for a in range(0, rows if width else 0, step):
        r = min(step, rows - a)
        for c in range(0, width, cols):
            out[a : a + r] += draw(r, min(cols, width - c)).sum(1)
    return out


def _one_row(a: np.ndarray) -> np.ndarray:
    """a[:1] when a is a 2-D view whose rows all alias its first (stride 0,
    as np.broadcast_to makes), else a itself: the rows to read once."""
    return a[:1] if a.ndim == 2 and a.strides[0] == 0 else a


def _check_arms(instance: BanditInstance, arms) -> np.ndarray:
    """0-based int64 indices of an integer array, list or range of arms,
    range-checked at once. Any other dtype, float and bool included, raises
    IndexOutOfRange. A stride-0 (trials, K) view is checked and converted on
    its first row alone and comes back as that row, broadcast read-only."""
    arms = np.asarray(arms)
    if arms.dtype.kind not in "iu":
        raise IndexOutOfRange(f"arms must be integers, got dtype {arms.dtype}")
    row = _one_row(arms)
    bad = (row < 1) | (row > instance.K)
    if bad.any():
        arm = int(row.flat[np.argmax(bad)])
        raise IndexOutOfRange(f"arm {arm} outside [1, {instance.K}]")
    idx = row.astype(np.int64, copy=False) - 1
    return idx if row is arms else np.broadcast_to(idx, arms.shape)
