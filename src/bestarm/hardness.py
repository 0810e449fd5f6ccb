"""Hardness parameters H1-H4, separability margin, and error-bound evaluators.

Every bound comes in two forms: ``bound_*`` returns the value clipped to
[0,1] for reporting, and ``log_bound_*`` returns the natural log of the raw
value so decay rates can be checked at budgets where the bound underflows.
Budgets T may be scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GapProfile
from .errors import BudgetTooSmall, InvalidK, SeparabilityViolated

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
    H1 = float(np.sum(1.0 / g**2))
    idx = np.arange(2, K + 1)
    H2 = float(np.max(idx / g[1:] ** 2))
    H3 = float(K / g[0] ** 2)
    H4 = float(1.0 / (g[0] + g[-1]) ** 2)
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


def _finish(logv):
    """A log bound as its value clipped to [0, 1]."""
    arr = np.asarray(logv, dtype=float)
    with np.errstate(over="ignore"):
        arr = np.minimum(np.exp(arr), 1.0)
    return float(arr) if arr.ndim == 0 else arr


def log_bound_ue(family: str, K: int, T, H3: float, sigma2: float | None = None):
    """Natural log of the uniform-exploration error bound."""
    _check_family(family, sigma2)
    T = np.asarray(T, dtype=float)
    if family == "bounded":
        out = math.log(K - 1) - T / (2.0 * H3)
    else:
        with np.errstate(divide="ignore"):
            out = (
                math.log(K - 1)
                + 0.5 * (np.log(H3 * sigma2) - np.log(math.pi * T))
                - T / (4.0 * H3 * sigma2)
            )
    return float(out) if np.ndim(out) == 0 else out


def bound_ue(family, K, T, H3, sigma2=None):
    return _finish(log_bound_ue(family, K, T, H3, sigma2))


def log_bound_sr(family: str, K: int, T, H2: float, sigma2: float | None = None):
    """Natural log of the successive-rejects bound; needs T > K."""
    _check_family(family, sigma2)
    T = np.asarray(T, dtype=float)
    if np.any(T <= K):
        raise BudgetTooSmall(f"SR bound needs T > K={K}")
    lead = math.log(K * (K - 1) / 2.0)
    lnK = math.log(K)
    if family == "bounded":
        out = lead - (T - K) / (lnK * H2)
    else:
        out = (
            lead
            + 0.5 * (np.log(H2 * sigma2 * lnK) - np.log(2.0 * math.pi * (T - K)))
            - (T - K) / (2.0 * H2 * sigma2 * lnK)
        )
    return float(out) if np.ndim(out) == 0 else out


def bound_sr(family, K, T, H2, sigma2=None):
    return _finish(log_bound_sr(family, K, T, H2, sigma2))


def log_bound_sh(family: str, K: int, T, H2: float, sigma2: float | None = None):
    """Natural log of the sequential-halving bound."""
    _check_family(family, sigma2)
    T = np.asarray(T, dtype=float)
    m = math.log2(K)
    lead = math.log(3.0 * m)
    if family == "bounded":
        out = lead - T / (8.0 * H2 * m)
    else:
        with np.errstate(divide="ignore"):
            out = (
                lead
                + 0.5 * (np.log(2.0 * H2 * sigma2 * m) - np.log(math.pi * T))
                - T / (8.0 * H2 * sigma2 * m)
            )
    return float(out) if np.ndim(out) == 0 else out


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
    _check_family(family, sigma2)
    T = np.asarray(T, dtype=float)
    m = math.log2(K)
    if family == "bounded":
        scale = 8.0 * H4 * K * m * (0.5 + 1.0 / (6.0 * math.sqrt(H4)))
        out = math.log(m) - eta * T / scale
    else:
        with np.errstate(divide="ignore"):
            out = (
                0.5 * (np.log(4.0 * H4 * sigma2 * K * m**3) - np.log(math.pi * eta * T))
                - eta * T / (16.0 * H4 * sigma2 * K * m)
            )
    return float(out) if np.ndim(out) == 0 else out


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
