"""Reference oracles the tests check the package against.

Single draws and per-sample simulations that the package replaced with
sufficient-statistic draws, and the explicit density-ratio form of RE's
group test: each is the plain definition of a law, kept here so the tests
can compare the fast paths with it. The Gaussian tail bounds and the
instance writer serve the same tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from bestarm.casestudies import _EDGE_EPS, JammerScenario, RadarScenario
from bestarm.core import BanditInstance, Bernoulli, Gaussian, _member_indices
from bestarm.errors import EmptySubset, IndexOutOfRange

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def instance_to_json(instance: BanditInstance) -> str:
    if isinstance(instance.family, Gaussian):
        family = {"gaussian": {"sigma2": instance.family.sigma2}}
    elif isinstance(instance.family, Bernoulli):
        family = "bernoulli"
    else:
        family = "bounded"
    payload = {"K": instance.K, "means": list(instance.means), "family": family}
    return json.dumps(payload)


def q_lower(x):
    """Lower bound x/((1+x^2) sqrt(2 pi)) exp(-x^2/2), valid for x > 0."""
    x = np.asarray(x, dtype=float)
    out = x / ((1.0 + x**2) * _SQRT_2PI) * np.exp(-(x**2) / 2.0)
    return float(out) if out.ndim == 0 else out


def q_upper(x):
    """Upper bound exp(-x^2/2)/(x sqrt(2 pi)), valid for x > 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(-(x**2) / 2.0) / (x * _SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def sample_arm(instance: BanditInstance, arm: int, rng: np.random.Generator) -> float:
    """One reward draw from a single arm."""
    if not 1 <= arm <= instance.K:
        raise IndexOutOfRange(f"arm {arm} outside [1, {instance.K}]")
    mu = instance.means[arm - 1]
    if isinstance(instance.family, Gaussian):
        return float(rng.normal(mu, np.sqrt(instance.family.sigma2)))
    return float(rng.random() < mu)


def sample_group(
    instance: BanditInstance, members, rng: np.random.Generator
) -> float:
    """Average of one fresh draw from each member arm.

    For the Gaussian family the result is N(mean of member means,
    sigma2/|members|).
    """
    idx = _member_indices(instance, members)
    mu = instance._mean_array[idx]
    if isinstance(instance.family, Gaussian):
        draws = rng.normal(mu, np.sqrt(instance.family.sigma2))
    else:
        draws = (rng.random(len(idx)) < mu).astype(float)
    return float(draws.mean())


def composite_lrt_decision(
    r_bar: float,
    mu_L_star: float,
    mu_H_star: float,
    pi0: float,
    pi1: float,
    var_per_pull: float,
    n_pulls: float,
) -> bool:
    """Direct worst-case-endpoint LRT: pi1 f(r|mu_H*) >= pi0 f(r|mu_L*).

    Kept as an explicit density-ratio computation so tests can confirm it
    coincides with the threshold rule r_bar > tau_G.
    """
    var = var_per_pull / n_pulls
    log_num = math.log(pi1) - (r_bar - mu_H_star) ** 2 / (2.0 * var)
    log_den = math.log(pi0) - (r_bar - mu_L_star) ** 2 / (2.0 * var)
    return log_num > log_den


def jammer_reward(scenario: JammerScenario, subset: set, rng) -> float:
    """One probe of a waveform subset: (1/m) 1{j* in subset} + noise."""
    m = len(subset)
    if m == 0:
        raise EmptySubset("cannot probe an empty waveform subset")
    for j in subset:
        if not 1 <= j <= scenario.K:
            raise IndexOutOfRange(f"waveform {j} not in 1..{scenario.K}")
    base = (1.0 / m) if scenario.j_star in subset else 0.0
    if scenario.noise_var == 0.0:
        return base
    return base + rng.normal(0.0, math.sqrt(scenario.noise_var))


@dataclass(frozen=True)
class PulseParams:
    n_pulses: int
    width: float
    pri: float
    delay: float


def draw_pulse_params(scenario: RadarScenario, rng) -> PulseParams:
    lo, hi = scenario.n_pulses_range
    return PulseParams(
        n_pulses=int(rng.integers(lo, hi + 1)),
        width=float(rng.uniform(*scenario.width_range)),
        pri=float(rng.uniform(*scenario.pri_range)),
        delay=float(rng.uniform(*scenario.delay_range)),
    )


def pulse_sample_spans(params: PulseParams, N: int, fs: float):
    """Half-open sample-index spans covered by each pulse, clipped to [0, N)."""
    spans = []
    for p in range(params.n_pulses):
        start = params.delay + p * params.pri
        lo = max(0, math.ceil(start * fs - _EDGE_EPS))
        hi = min(N, math.ceil((start + params.width) * fs - _EDGE_EPS))
        if hi > lo:
            spans.append((lo, hi))
    return spans


def radar_synthesize(
    scenario: RadarScenario, channel: int, rng, params: PulseParams | None = None
) -> np.ndarray:
    """One play's complex baseband block for the given channel."""
    if not 1 <= channel <= scenario.K:
        raise IndexOutOfRange(f"channel {channel} not in 1..{scenario.K}")
    N = scenario.N
    nv = scenario.noise_var
    if nv > 0.0:
        comp_sd = math.sqrt(nv / 2.0)
        block = rng.normal(0.0, comp_sd, N) + 1j * rng.normal(0.0, comp_sd, N)
    else:
        block = np.zeros(N, dtype=complex)
    if channel == scenario.active_channel:
        if params is None:
            params = draw_pulse_params(scenario, rng)
        for lo, hi in pulse_sample_spans(params, N, scenario.fs):
            block[lo:hi] += 1.0
    return block


def radar_energy(block) -> float:
    """Sum of squared I/Q magnitudes."""
    arr = np.asarray(block)
    if arr.size == 0:
        raise EmptySubset("energy of an empty block is undefined")
    return float(np.sum(arr.real**2 + arr.imag**2))
