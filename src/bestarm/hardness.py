"""Hardness parameters H1-H4, separability margin, and error-bound evaluators.

Each of the UE, SR, SH and RE bounds is lead * tail(t), and only (lead, t,
b, c) differ between them: the tail is Hoeffding's exp(-t/b) for bounded
rewards, and for Gaussian ones the Mills-ratio bound sqrt(s/(4 pi t))
exp(-t/s) on Q(sqrt(2t/s)), with s = c * sigma2. ``bound_*`` returns a
bound clipped to [0,1] for reporting, ``log_bound_*`` the natural log of
the raw value, so decay rates can be checked where the bound underflows.
Budgets T may be scalars or numpy arrays. Gaps so small that a hardness
term overflows are refused with SupportViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GapProfile
from .errors import BudgetTooSmall, InvalidK, SeparabilityViolated, SupportViolation

@dataclass(frozen=True)
class HardnessProfile:
    H1: float
    H2: float
    H3: float
    H4: float
    H4_tilde: float  # K * H4
    separability_margin: float  # Delta_[2] - (1 - 2/K) * Delta_[K]
    eta: float | None  # None when the margin is negative

    def as_row(self, K: int) -> dict:
        return {
            "K": K,
            "H1": self.H1,
            "H2": self.H2,
            "H3": self.H3,
            "H4": self.H4,
            "KH4": self.H4_tilde,
            "margin": self.separability_margin,
            "eta": self.eta if self.eta is not None else "",
        }


def hardness(profile: GapProfile) -> HardnessProfile:
    """Hardness terms of a gap profile.

    H1 sums 1/Delta_i^2 over all K arms with the best arm contributing its
    runner-up gap; H2 = max_{i>=2} i/(mu_[1]-mu_[i])^2; H3 = K/Delta_[1]^2;
    H4 = 1/(Delta_[1]+Delta_[K])^2. eta is the largest feasible separability
    constant min(1, K^2 H4 margin^2), absent when the margin is negative.
    """
    g = np.asarray(profile.gaps)
    K = len(g)
    with np.errstate(divide="ignore", over="ignore"):
        H1 = float(np.sum(1.0 / g**2))
        H2 = float(np.max(np.arange(2, K + 1) / g[1:] ** 2))
        H3 = float(K / g[0] ** 2)
        H4 = float(1.0 / (g[0] + g[-1]) ** 2)
    if not all(map(math.isfinite, (H1, H2, H3, K * K * H4))):
        raise SupportViolation(f"gaps down to {g[0]:.3g} overflow the hardness terms")
    margin = float(g[1] - (1.0 - 2.0 / K) * g[-1])
    eta = min(1.0, K**2 * H4 * margin**2) if margin >= 0 else None
    return HardnessProfile(
        H1=H1,
        H2=H2,
        H3=H3,
        H4=H4,
        H4_tilde=float(K * H4),
        separability_margin=margin,
        eta=eta,
    )


def q_function(x):
    """Standard Gaussian upper-tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.vectorize(math.erfc, otypes=[float])(x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def _check_family(family: str, sigma2: float | None) -> None:
    """Refuse a family other than "gaussian" and "bounded", and a gaussian
    one without a variance sigma2 > 0."""
    if family not in ("gaussian", "bounded"):
        raise InvalidK(f"unknown reward family {family!r}")
    if family == "gaussian" and (sigma2 is None or sigma2 <= 0):
        raise InvalidK("gaussian bounds need sigma2 > 0")


def _log_tail(family: str, sigma2: float | None, lead: float, t, b: float, c: float):
    """Natural log of lead * tail(t), the family's tail of the module
    docstring: exp(-t/b), or the Gaussian one with s = c * sigma2."""
    _check_family(family, sigma2)
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        if family == "bounded":
            out = lead - t / b
        elif c * sigma2 == 0.0:  # s underflowed: the tail steps from 1 to 0 past t = 0
            out = np.where(t > 0.0, -math.inf, math.inf)
        else:
            s = c * sigma2
            out = lead + 0.5 * np.log(s / (4.0 * math.pi * t)) - t / s
    return float(out) if np.ndim(out) == 0 else out


def _finish(logv):
    """A log bound as its value clipped to [0, 1]."""
    arr = np.asarray(logv, dtype=float)
    with np.errstate(over="ignore"):
        arr = np.minimum(np.exp(arr), 1.0)
    return float(arr) if arr.ndim == 0 else arr


def log_bound_ue(family: str, K: int, T, H3: float, sigma2: float | None = None):
    """Natural log of the uniform-exploration error bound."""
    return _log_tail(family, sigma2, math.log(K - 1), T, 2.0 * H3, 4.0 * H3)


def bound_ue(family, K, T, H3, sigma2=None):
    return _finish(log_bound_ue(family, K, T, H3, sigma2))


def log_bound_sr(family: str, K: int, T, H2: float, sigma2: float | None = None):
    """Natural log of the successive-rejects bound; needs T > K."""
    _check_family(family, sigma2)  # a bad family is reported before a bad T
    T = np.asarray(T, dtype=float)
    if np.any(T <= K):
        raise BudgetTooSmall(f"SR bound needs T > K={K}")
    b = H2 * math.log(K)
    return _log_tail(family, sigma2, math.log(K * (K - 1) / 2.0), T - K, b, 2.0 * b)


def bound_sr(family, K, T, H2, sigma2=None):
    return _finish(log_bound_sr(family, K, T, H2, sigma2))


def log_bound_sh(family: str, K: int, T, H2: float, sigma2: float | None = None):
    """Natural log of the sequential-halving bound."""
    m = math.log2(K)
    return _log_tail(family, sigma2, math.log(3.0 * m), T, 8.0 * H2 * m, 8.0 * H2 * m)


def bound_sh(family, K, T, H2, sigma2=None):
    return _finish(log_bound_sh(family, K, T, H2, sigma2))


def log_bound_re(
    family: str,
    K: int,
    T,
    H4: float,
    eta: float | None,
    sigma2: float | None = None,
):
    """Natural log of the combinatorial (grouped) exploration bound, which
    is derived for a power-of-two K only."""
    if K < 2 or K & (K - 1):
        raise InvalidK(f"RE bound needs a power-of-two K, got {K}")
    if eta is None or not 0.0 < eta <= 1.0:
        raise SeparabilityViolated(f"RE bound needs eta in (0,1], got {eta}")
    m = math.log2(K)
    b = 8.0 * H4 * K * m * (0.5 + 1.0 / (6.0 * math.sqrt(H4)))
    t = eta * np.asarray(T, dtype=float)
    return _log_tail(family, sigma2, math.log(m), t, b, 16.0 * H4 * K * m)


def bound_re(family, K, T, H4, eta, sigma2=None):
    return _finish(log_bound_re(family, K, T, H4, eta, sigma2))


def bound_exploration_failure(K: int, m: int, eps: float, sigma2: float):
    """Initial-exploration failure probability 2K Q(eps sqrt(m)/sigma)."""
    if m < 1:
        raise BudgetTooSmall(f"need m >= 1 exploration pulls, got {m}")
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidK(f"need a finite eps > 0, got {eps}")
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise InvalidK(f"need a finite sigma2 > 0, got {sigma2}")
    val = 2.0 * K * q_function(eps * math.sqrt(m) / math.sqrt(sigma2))
    return min(1.0, float(val))
