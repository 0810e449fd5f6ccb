"""Checks of the CSV a workload writes, against laws computed here.

Every cell must be present once with the configured trial count,
p_hat = errors/trials and a Wilson 95% interval recomputed here. Its error
count must also be plausible under the cell's law:

* UE on single-gap Gaussian arms: 1 - int phi(z) Phi(z + Delta sqrt(n)/sigma)^(K-1) dz,
  n = floor(T/K).
* RE with oracle priors and alpha = 0 on power-of-two K: each of the m bits
  errs independently, so P(error) = 1 - (1 - q)^m, with q from the normal
  law of the group sums (jammer, Gaussian instances and the radar's energy
  moments).
* SR and SH: the stored reference simulation (reference.py).

A 95% interval fails on chance alone once per 20 cells, and a run checks up
to 24 cells. The law checks therefore reject a cell only when its error
count lies in a tail of probability below ALPHA = 1e-6 (two-sided), which
keeps the chance of a false rejection below 1 in 10 000 runs even when every
cell of the largest workload is checked.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

import numpy as np
from scipy.special import bdtr, bdtrc, log_ndtr, ndtr

import workloads as w

ALPHA = 1e-6
REFERENCE_Z = 5.0  # Wilson z for the interval around a reference error rate
_Z95 = NormalDist().inv_cdf(0.975)
COLUMNS = ["instance_id", "algorithm", "T", "trials", "errors", "p_hat", "ci_lo", "ci_hi"]


def wilson(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    p = errors / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    scale = 1 + z * z / trials
    lo = 0.0 if errors == 0 else max(0.0, (centre - half) / scale)
    hi = 1.0 if errors == trials else min(1.0, (centre + half) / scale)
    return lo, hi


# --- laws -----------------------------------------------------------------


def ue_error(K: int, delta: float, sigma2: float, n: int) -> float:
    """Uniform exploration with n pulls per arm, one arm Delta above K-1."""
    c = delta * math.sqrt(n / sigma2)
    z = np.linspace(-40.0, 40.0, 160_001)
    # 1 - Phi^(K-1), kept accurate when it is tiny
    miss = -np.expm1((K - 1) * log_ndtr(z + c))
    density = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return float(np.clip(np.trapezoid(density * miss, z), 0.0, 1.0))


def bits_error(bit_errors) -> float:
    """P(some bit errs) for independent bits."""
    return float(-np.expm1(np.sum(np.log1p(-np.asarray(bit_errors, dtype=float)))))


def re_gaussian_error(K: int, delta: float, sigma2: float, T: int) -> float:
    """RE on a single-gap Gaussian instance, K = 2^m, oracle priors, alpha 0:
    q = Q(Delta sqrt(floor(T/m) / (2 K sigma2)))."""
    m = K.bit_length() - 1
    z = delta * math.sqrt((T // m) / (2 * K * sigma2))
    return bits_error([ndtr(-z)] * m)


def re_jammer_error(nv: float) -> float:
    """RE on the jammer: a group of |G| = K/2 waveforms has mean 1/|G| with
    the target and 0 without, under receiver noise nv per play, so each bit
    errs with probability Q((1/(2|G|)) / sqrt(nv / floor(T/m)))."""
    m = w.JAMMER_K.bit_length() - 1
    g = w.JAMMER_K // 2
    q = ndtr(-(1.0 / (2 * g)) / math.sqrt(nv / (w.JAMMER_T // m)))
    return bits_error([q] * m)


def radar_moments(es_mean: float, es_var: float) -> dict:
    """Mean and variance of one play's energy on an idle and the active channel.

    Idle: N samples of complex noise of variance nv, so mean N nv and
    variance N nv^2. Active: given the on-pulse count S the energy is
    (nv/2) chi2'(2N, 2S/nv), with mean N nv + S and variance N nv^2 + 2 nv S;
    over the count's law, var = N nv^2 + 2 nv E[S] + Var(S).
    """
    N, nv = w.RADAR_N, w.RADAR_NOISE_VAR
    return {
        "idle_mean": N * nv,
        "idle_var": N * nv * nv,
        "active_mean": N * nv + es_mean,
        "active_var": N * nv * nv + 2 * nv * es_mean + es_var,
    }


def re_radar_error(T: int, active: int, es_mean: float, es_var: float) -> float:
    """RE-oracle on the radar (K = 8, m = 3, alpha 0). All gaps equal E[S],
    so the priors are even and the threshold is the midpoint of the
    worst-case group means. A group averages |G| = 4 channels over
    floor(T/m) plays; its mean is normal by the central limit theorem."""
    K = w.RADAR_K
    m = K.bit_length() - 1
    g = K // 2
    n = T // m
    mom = radar_moments(es_mean, es_var)
    mu1, gap = mom["active_mean"], es_mean
    tau = 0.5 * ((mu1 - (1 - 2 / K) * gap) + (mu1 - gap))
    bits = []
    for k in range(m):
        if (active - 1) >> k & 1:
            mean = ((g - 1) * mom["idle_mean"] + mom["active_mean"]) / g
            var = ((g - 1) * mom["idle_var"] + mom["active_var"]) / (g * g * n)
            bits.append(ndtr((tau - mean) / math.sqrt(var)))
        else:
            mean = mom["idle_mean"]
            var = g * mom["idle_var"] / (g * g * n)
            bits.append(ndtr(-(tau - mean) / math.sqrt(var)))
    return bits_error(bits)


def cell_laws(inputs: w.Inputs, reference: dict) -> dict:
    """(instance_id, algorithm, T) -> (p_lo, p_hi, source) for checked cells."""
    laws = {}

    def exact(key, p, source):
        laws[key] = (p, p, source)

    for ref in reference["cells"]:
        lo, hi = wilson(ref["errors"], ref["trials"], REFERENCE_Z)
        laws[(ref["instance_id"], ref["algorithm"], ref["T"])] = (lo, hi, "reference")
    if inputs.workload == "grid-k512":
        for T in w.GRID_BUDGETS:
            exact(("grid-k512", "UE", T), ue_error(w.GRID_K, w.DELTA, w.SIGMA2, T // w.GRID_K), "UE law")
            exact(("grid-k512", "RE", T), re_gaussian_error(w.GRID_K, w.DELTA, w.SIGMA2, T), "RE law")
    elif inputs.workload == "re-exact":
        for T in w.RE_BUDGETS:
            exact(("re-exact", "RE", T), re_gaussian_error(w.RE_K, w.DELTA, w.SIGMA2, T), "RE law")
    elif inputs.workload == "jammer":
        n = w.JAMMER_T // w.JAMMER_K
        for nv in w.JAMMER_NOISE:
            label = w.jammer_label(nv)
            exact((label, "UE", w.JAMMER_T), ue_error(w.JAMMER_K, 1.0, nv, n), "UE law")
            exact((label, "RE", w.JAMMER_T), re_jammer_error(nv), "RE law")
    elif inputs.workload == "radar":
        es_mean, es_var = reference["pulse_count_mean"], reference["pulse_count_var"]
        for T in w.RADAR_PLAYS:
            p = re_radar_error(T, w.RADAR_ACTIVE, es_mean, es_var)
            exact((f"radar-K{w.RADAR_K}", "RE-oracle", T), p, "RE-oracle law")
    wanted = {(c.instance_id, c.algorithm, c.T) for c in inputs.cells}
    return {k: v for k, v in laws.items() if k in wanted}


def implausible(errors: int, trials: int, p_lo: float, p_hi: float) -> bool:
    """True when `errors` lies in a tail of probability < ALPHA/2 under every
    error rate in [p_lo, p_hi]."""
    above = bdtrc(errors - 1, trials, p_hi) if errors > 0 else 1.0
    below = bdtr(errors, trials, p_lo)
    return above < ALPHA / 2 or below < ALPHA / 2


# --- the CSV --------------------------------------------------------------


def check_csv(text: str, inputs: w.Inputs, reference: dict) -> list[str]:
    """Problems found in one workload CSV; empty when it passes."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != COLUMNS:
        return [f"header {header} != {COLUMNS}"]
    problems = []
    seen = {}
    for row in reader:
        if len(row) != len(COLUMNS):
            problems.append(f"row {row} has {len(row)} fields")
            continue
        try:
            key = (row[0], row[1], int(row[2]))
        except ValueError:
            problems.append(f"row {row} has a non-integer T")
            continue
        if key in seen:
            problems.append(f"cell {key} appears twice")
        seen[key] = row
    expected = {(c.instance_id, c.algorithm, c.T) for c in inputs.cells}
    for key in sorted(expected - set(seen)):
        problems.append(f"cell {key} missing")
    for key in sorted(set(seen) - expected):
        problems.append(f"unexpected cell {key}")
    laws = cell_laws(inputs, reference)
    for key in sorted(expected & set(seen)):
        problems += _check_row(key, seen[key], inputs.trials, laws.get(key))
    return problems


def _check_row(key, row, trials_expected, law) -> list[str]:
    try:
        trials, errors = int(row[3]), int(row[4])
        p_hat, ci_lo, ci_hi = float(row[5]), float(row[6]), float(row[7])
    except ValueError:
        return [f"cell {key} has empty or non-numeric values {row[3:]}"]
    problems = []
    if trials != trials_expected:
        problems.append(f"cell {key}: trials {trials} != {trials_expected}")
    if not 0 <= errors <= trials:
        return problems + [f"cell {key}: errors {errors} outside [0, {trials}]"]
    if abs(p_hat - errors / trials) > 1e-12:
        problems.append(f"cell {key}: p_hat {p_hat} != {errors}/{trials}")
    lo, hi = wilson(errors, trials)
    if abs(ci_lo - lo) > 1e-9 or abs(ci_hi - hi) > 1e-9:
        problems.append(f"cell {key}: interval [{ci_lo}, {ci_hi}] != Wilson [{lo}, {hi}]")
    if law is not None:
        p_lo, p_hi, source = law
        if implausible(errors, trials, p_lo, p_hi):
            problems.append(
                f"cell {key}: {errors}/{trials} errors implausible under the "
                f"{source}, p in [{p_lo:.4g}, {p_hi:.4g}] (alpha {ALPHA})"
            )
    return problems


def check_energies(sample: dict, es_mean: float, es_var: float) -> list[str]:
    """Per-play energies drawn from the program's radar environment must
    match the moments of radar_moments. `sample` holds, per channel kind,
    n and the sample mean, variance and fourth central moment."""
    mom = radar_moments(es_mean, es_var)
    z_max = NormalDist().inv_cdf(1 - ALPHA / 2)
    problems = []
    for kind in ("idle", "active"):
        s = sample[kind]
        n, mean, var, m4 = s["n"], s["mean"], s["var"], s["m4"]
        z_mean = (mean - mom[f"{kind}_mean"]) / math.sqrt(mom[f"{kind}_var"] / n)
        z_var = (var - mom[f"{kind}_var"]) / math.sqrt(max(m4 - var * var, 1e-300) / n)
        for what, z in (("mean", z_mean), ("variance", z_var)):
            if abs(z) > z_max:
                problems.append(
                    f"{kind} channel energy {what} is {z:+.2f} standard errors "
                    f"from its law"
                )
    return problems
