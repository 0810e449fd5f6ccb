"""Binary arm groups: log2(K) groups of arms with Hamming-style decoding.

Arm a belongs to group k exactly when bit k of (a-1) is set, counting bit 1
as the least significant place. The m-bit membership pattern of an arm is
therefore the binary expansion of (a-1), which makes decoding a detection
vector a base-2 read-off. A K that is not a power of two is counted up to
K_padded, the next one, so that m = log2(K_padded) bits spell every arm.
A group holds only the arms in [1, K] whose bit is set; the indices past
K (`dummy_arms`) are arms of no instance and belong to no group, and a
decode that lands on one signals a failed group test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import check_arm, check_K
from .errors import IndexOutOfRange


@dataclass(frozen=True)
class GroupCode:
    """The m groups for K arms, each a sorted read-only int64 array of its
    members in [1, K], and the padding indices K+1..K_padded."""

    K_orig: int
    K_padded: int
    m: int
    groups: tuple[np.ndarray, ...]
    dummy_arms: range

    @cached_property
    def sizes(self) -> np.ndarray:
        """Real members of each group as floats, shape (m,), read-only."""
        sizes = np.array([len(members) for members in self.groups], dtype=float)
        sizes.flags.writeable = False
        return sizes


@lru_cache(maxsize=64, typed=True)
def construct_groups(K: int) -> GroupCode:
    """Build the log2(K_padded) groups over arms 1..K.

    Memoised per K and its type, so a float equal to a cached int K is
    still refused. A GroupCode and its arrays are read-only, so every
    caller can share one. Raises InvalidK unless K is an int in [2, MAX_K].
    """
    K = check_K(K)
    K_padded = 2 ** (K - 1).bit_length()
    m = K_padded.bit_length() - 1
    arms = np.arange(1, K + 1, dtype=np.int64)
    member = (arms - 1) >> np.arange(m)[:, None] & 1 == 1  # (m, K): bit k of a-1
    groups = tuple(arms[row] for row in member)
    for members in groups:
        members.flags.writeable = False
    dummy_arms = range(K + 1, K_padded + 1)
    return GroupCode(
        K_orig=K, K_padded=K_padded, m=m, groups=groups, dummy_arms=dummy_arms
    )


def detection_pattern(code: GroupCode, arm: int) -> tuple[int, ...]:
    """Membership bits of an arm across the m groups (binary digits of arm-1)."""
    arm = check_arm(arm, code.K_padded, "arm")
    return tuple((arm - 1) >> k & 1 for k in range(code.m))


def decode_best_arm(code: GroupCode, bits) -> np.ndarray | np.integer:
    """Invert detection_pattern along the last axis: 1 + sum_k bit_k 2^k.

    A (rows, m) block gives one arm per row and one m-tuple gives a numpy
    integer. Raises IndexOutOfRange unless the bits are integers or bools,
    each 0 or 1, with m on the last axis; floats are refused, as for arms.
    A pattern past K decodes to its padding index, which marks a failed
    group test; the caller chooses the fallback.
    """
    bits = np.asarray(bits)
    if bits.shape[-1:] != (code.m,) or bits.dtype.kind not in "biu":
        raise IndexOutOfRange(f"need int bits of shape (..., {code.m}), got {bits!r}")
    ints = bits.astype(np.int64, copy=False)
    if (ints >> 1).any():  # an entry other than 0 or 1
        raise IndexOutOfRange(f"detection bits must be 0/1, got {bits!r}")
    return 1 + ints @ (1 << np.arange(code.m))
