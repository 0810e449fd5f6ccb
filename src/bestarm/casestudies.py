"""Application case studies.

Two simulators cast as best-arm problems:

* Jammer waveform selection: probing a subset S of an orthogonal codebook
  returns (1/|S|) 1{target in S} plus receiver noise, so arm means are 1 for
  the hidden target and 0 elsewhere (gap exactly 1).
* Active radar channel detection: arms are channels, a play collects N
  complex I/Q samples and scores their energy. One channel carries a pulsed
  radar signal; the rest are noise. Group plays observe the average energy
  of the probed channels. Real captures can replace synthesis for the
  active channel through a plain n,i,q CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    BanditInstance, Gaussian, block_trials, check_arm, check_K, check_variance, is_real,
    row_sums,
)
from .errors import CsvFormatError, SupportViolation
from .experiments import run_cells
from .policies import BanditEnv, ReOptions

DEFAULT_JAMMER_NOISE_GRID = tuple(np.geomspace(0.002, 0.02, 6))
# Calibrated so that at 6000 plays sequential halving sits inside the
# 1e-4..1e-2 error band while grouped exploration with oracle gaps stays
# below 1e-2 (measured at 20k/5k trials: SH 2.5e-4, RE-oracle 3.2e-3).
DEFAULT_RADAR_NOISE_VAR = 21.0
DEFAULT_RADAR_PLAYS = (1200, 3000, 6000)

# Fraction of a microsecond used to absorb float error when a pulse edge
# lands exactly on a sample instant.
_EDGE_EPS = 1e-6
# Elements per working array while the pulse-count law is computed: small
# enough that the arrays are reused from the heap instead of being mapped
# and faulted in afresh for each chunk.
_LAW_CHUNK = 1 << 13
# Counts that the support of the deepest summed pulse-count table a radar
# environment builds may span.
_COUNT_CHUNK = 1 << 16
# Mass a summed pulse-count table may drop at either end of its support:
# half the 2**-53 step between the uniforms of rng.random(), so up to
# rounding the drop moves only the draw of the uniform 0. The FFT's own
# rounding moves the cdf by more, about 1e-15.
_TABLE_TAIL = 2.0**-54
# Gauss-Legendre nodes on [-1, 1] are -+ this: two per interval integrate
# a quadratic exactly.
_GAUSS_NODE = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class JammerScenario:
    """Orthogonal-codebook jamming game with a hidden target waveform."""

    K: int
    j_star: int
    noise_var: float

    def __post_init__(self) -> None:
        check_arm(self.j_star, check_K(self.K), "j_star")
        check_variance(self.noise_var, "noise_var")


class JammerEnv(BanditEnv):
    """Arms are waveforms with mean 1 for the target and 0 elsewhere.

    Single pulls are the base class's Gaussian draws with variance
    noise_var. The noise is the receiver's, not the arms', so a subset
    probe keeps the full noise floor while its mean shrinks to 1/|S|: the
    group variance table is all this class overrides.
    """

    def __init__(self, scenario: JammerScenario):
        self.scenario = scenario
        means = tuple(
            1.0 if k == scenario.j_star else 0.0 for k in range(1, scenario.K + 1)
        )
        family = Gaussian(scenario.noise_var)
        super().__init__(BanditInstance(means=means, family=family))

    @cached_property
    def _group_var(self) -> np.ndarray:
        """noise_var for every group, whatever its size."""
        return np.full(len(self._groups), self.scenario.noise_var)


def run_jammer_experiment(
    K: int = 16,
    noise_grid=DEFAULT_JAMMER_NOISE_GRID,
    algorithms=("UE", "SR", "SH", "RE"),
    T: int = 64,
    trials: int = 500,
    master_seed: int = 0,
    j_star: int | None = None,
):
    """Error rates per (noise level, algorithm) at a fixed budget.

    The same per-trial streams are reused at every noise level (common
    random numbers), which sharpens the estimated crossing between the
    grouped policy and the baselines.
    """
    check_K(K)
    if j_star is None:
        j_star = 1 + int(np.random.default_rng([master_seed, 13]).integers(K))
    results = []
    for nv in noise_grid:
        scenario = JammerScenario(K=K, j_star=j_star, noise_var=float(nv))
        env = JammerEnv(scenario)
        label = f"jammer-K{K}-nv{float(nv):.6g}"
        results += run_cells(env, algorithms, (T,), trials, master_seed, label)
    return results


@dataclass(frozen=True)
class RadarScenario:
    """Wideband receiver watching K channels, one carrying pulsed radar.

    A play spans dwell_T seconds sampled at fs, i.e. N = dwell_T * fs
    complex samples. Pulse trains are rectangular with unit amplitude on the
    I rail; their count, width, repetition interval, and initial delay are
    drawn fresh for each play from the given ranges and truncated to the window.
    Each range is a pair of finite numbers (lo, hi) with lo <= hi, stored
    as a tuple whatever sequence gave it; pulse counts are whole.
    """

    K: int = 8
    fs: float = 3.2e6
    dwell_T: float = 30e-6
    noise_var: float = DEFAULT_RADAR_NOISE_VAR
    active_channel: int = 1
    n_pulses_range: tuple[int, int] = (2, 6)
    width_range: tuple[float, float] = (10e-6, 16e-6)
    pri_range: tuple[float, float] = (17e-6, 23e-6)
    delay_range: tuple[float, float] = (1e-6, 10e-6)

    def __post_init__(self) -> None:
        check_K(self.K)
        if not (self.fs > 0 and 0 < self.dwell_T * self.fs < math.inf):
            raise SupportViolation("need fs, dwell_T > 0 with a finite product")
        if self.N < 1:
            raise SupportViolation(
                f"a play needs N = dwell_T * fs >= 1 samples, got {self.N}"
            )
        check_variance(self.noise_var, "noise_var")
        check_arm(self.active_channel, self.K, "active_channel")
        for name in ("n_pulses_range", "width_range", "pri_range", "delay_range"):
            value = getattr(self, name)
            try:
                lo, hi = value
            except (TypeError, ValueError):
                raise SupportViolation(
                    f"{name} must be a (lo, hi) pair, got {value!r}"
                ) from None
            # false for a NaN or infinite endpoint, for lo > hi, and for a
            # span that overflows, which numpy's uniform also refuses
            if not (is_real(lo) and is_real(hi) and 0 <= hi - lo < math.inf):
                raise SupportViolation(
                    f"{name} must be finite numbers with lo <= hi, got {value!r}"
                )
            # a tuple, so that the scenario hashes for the pulse-count law memo
            object.__setattr__(self, name, (lo, hi))
        if not all(
            isinstance(x, (int, np.integer))
            or (isinstance(x, float) and x.is_integer())
            for x in self.n_pulses_range
        ):
            raise SupportViolation(
                f"n_pulses_range must hold whole numbers, got {self.n_pulses_range}"
            )

    @property
    def N(self) -> int:
        return int(round(self.dwell_T * self.fs))


def seeded_radar_scenario(
    master_seed: int,
    noise_var: float = DEFAULT_RADAR_NOISE_VAR,
    active_channel: int | None = None,
) -> RadarScenario:
    """The default 8-channel scenario of a sweep.

    Unless given, the active channel is drawn from master_seed, so a seed
    fixes the same channel whatever the noise variance.
    """
    if active_channel is None:
        active_channel = 1 + int(np.random.default_rng([master_seed, 17]).integers(8))
    return RadarScenario(noise_var=noise_var, active_channel=active_channel)


def _slots_that_can_start(scenario: RadarScenario) -> int:
    """Pulse slots p = 0, 1, ... that some draw can start inside the window.

    The scenario's ranges are finite and ordered, so with a positive pri
    no draw starts slot p earlier than delay_min + p * pri_min, and that
    bound grows with p. A slot's first sample index, ceil(start * fs -
    _EDGE_EPS), is monotone in its start, so once the bound's index reaches
    N, no draw puts a sample of that slot, or of any later one, in the
    window. Otherwise every slot counts.
    """
    hi_p = max(int(scenario.n_pulses_range[1]), 0)
    d_lo = scenario.delay_range[0]
    r_lo = scenario.pri_range[0]
    if r_lo <= 0:
        return hi_p
    N, fs = scenario.N, scenario.fs
    p = 0
    # ceil(x) < N exactly when x <= N - 1; unlike math.ceil, this cannot
    # overflow when x is inf
    while p < hi_p and (d_lo + p * r_lo) * fs - _EDGE_EPS <= N - 1:
        p += 1
    return p


def _width_integral(y, lo: float, hi: float):
    """The integral over [0, y] of P(t > x), for t uniform on [lo, hi]."""
    if hi == lo:
        return np.minimum(y, lo)
    z = np.clip(y, lo, hi) - lo
    return np.minimum(y, lo) + z - z * z / (2.0 * (hi - lo))


def _width_survival(x, lo: float, hi: float):
    """P(t > x), for t uniform on [lo, hi] with lo < hi: a point width with
    a point delay leaves _count_survival no partial terms to evaluate."""
    return np.clip((hi - x) / (hi - lo), 0.0, 1.0)


def _pri_breakpoints(N: int, s: int, pri, delay, width) -> np.ndarray:
    """The pri values, in sample units, between which the count law of
    s slots is quadratic in pri, with the ends of pri's range.

    Two points i + eps - p pri of slot offsets p swap places, or lie a
    width endpoint apart, at pri = (n - c) / d with n whole, 1 <= d < s and
    c in {0, +-t_lo, +-t_hi}; a point meets a delay endpoint, or lies a
    width endpoint beyond it, at pri = (i + eps - u - c) / p with c in
    {0, t_lo, t_hi}. Duplicates are kept: they bound empty intervals.
    """
    lo, hi = pri
    parts = [np.array(pri)]
    for d in range(1, s):
        for c in (0.0, *width, *(-w for w in width)):
            n = np.arange(math.ceil(d * lo + c), math.floor(d * hi + c) + 1)
            parts.append((n - c) / d)
        for u in delay:
            for c in (0.0, *width):
                parts.append((np.arange(N) + (_EDGE_EPS - u - c)) / d)
    x = np.sort(np.concatenate(parts))
    return x[(x >= lo) & (x <= hi)]


def _count_survival(N: int, s: int, pri, delay, width) -> np.ndarray:
    """P(count >= c) for c = 0, ..., N*s + 1, for plays that count s >= 1
    slots, with pri, delay and width ranges in sample units.

    Given pri, sort the points e of E. For a delay u in the gap
    (e_{j-1}, e_j], the count reaches c >= 1 exactly when the width exceeds
    e_{j+c-1} - u (never if there is no such point). Over a delay uniform
    on [u_lo, u_hi], the gap's share of P(count >= c) is
    (Phi(e_{j+c-1} - a) - Phi(e_{j+c-1} - b)) / (u_hi - u_lo), with [a, b]
    the gap clipped to the delay range and Phi = _width_integral; a point
    delay u_lo == u_hi gives its gap P(t > e_{j+c-1} - u_lo). Either is
    the gap's whole share while e_{j+c-1} < a + t_lo and nothing once
    e_{j+c-1} >= b + t_hi, so only the terms between are evaluated. pri
    is integrated by two Gauss-Legendre nodes between consecutive
    _pri_breakpoints.
    """
    M = N * s
    (u_lo, u_hi), (t_lo, t_hi) = delay, width
    if pri[0] == pri[1]:
        nodes, weights = np.array(pri[:1]), np.ones(1)
    else:
        x = _pri_breakpoints(N, s, pri, delay, width)
        mid, half = (x[1:] + x[:-1]) / 2.0, (x[1:] - x[:-1]) / 2.0
        mid, half = mid[half > 0], half[half > 0]
        nodes = np.concatenate([mid - _GAUSS_NODE * half, mid + _GAUSS_NODE * half])
        weights = np.concatenate([half, half]) / (pri[1] - pri[0])
    if u_hi > u_lo:

        def term(el, a, b):
            a = _width_integral(el - a, t_lo, t_hi)
            return (a - _width_integral(el - b, t_lo, t_hi)) / (u_hi - u_lo)

    else:

        def term(el, a, b):
            return _width_survival(el - a, t_lo, t_hi)

    survival = np.zeros(M + 2)
    samples, slots = np.arange(N) + _EDGE_EPS, np.arange(s)
    per = max(1, _LAW_CHUNK // (M + 1))
    for q0 in range(0, len(nodes), per):
        w = weights[q0 : q0 + per]
        Q = len(w)
        e = samples - (nodes[q0 : q0 + per, None] * slots)[:, :, None]
        e = np.sort(e.reshape(Q, M), axis=1)
        inf = np.full((Q, 1), np.inf)
        below, above = np.hstack([-inf, e]), np.hstack([e, inf])
        a, b = np.clip(below, u_lo, u_hi), np.clip(above, u_lo, u_hi)
        if u_hi > u_lo:
            q, j = np.nonzero(b > a)
            share = w[q] * (b[q, j] - a[q, j]) / (u_hi - u_lo)
        else:  # the one gap that holds the delay
            q, j = np.nonzero((below < u_lo) & (u_lo <= above))
            share = w[q]
        a, b = a[q, j], b[q, j]
        # rank inside each row by one search of the rows laid end to end
        origin = min(e[:, 0].min(), u_lo + min(t_lo, 0.0)) - 1.0
        span = max(e[:, -1].max(), u_hi + max(t_hi, 0.0)) - origin + 1.0
        e = e.ravel()
        flat = e - origin + np.repeat(span * np.arange(Q), M)
        shift, first = span * q - origin, q * M
        full = np.maximum(np.searchsorted(flat, a + t_lo + shift) - first, j)
        stop = np.maximum(np.searchsorted(flat, b + t_hi + shift) - first, full)
        # a gap's share reaches every c <= full - j whole
        head = np.bincount(full - j + 1, weights=-share, minlength=M + 2)
        head[0] += share.sum()
        survival += np.cumsum(head[: M + 2])
        W = int((stop - full).max())  # the most partial terms of a gap
        if W == 0:
            continue
        step = max(1, _LAW_CHUNK // W)
        for g in range(0, len(j), step):
            g = slice(g, g + step)
            ls = full[g, None] + np.arange(W)
            ok = ls < stop[g, None]
            # masked entries may point past their row; keep them in the array
            el = e[np.minimum(ls + first[g, None], Q * M - 1)]
            v = term(el, a[g, None], b[g, None]) * w[q[g], None]
            survival += np.bincount(
                (ls - j[g, None] + 1)[ok], weights=v[ok], minlength=M + 2
            )
    return survival


def pulse_count_pmf(scenario: RadarScenario) -> tuple[np.ndarray, np.ndarray]:
    """The exact law of one play's on-pulse sample count, as (support, pmf).

    support runs from the least to the greatest count of positive
    probability, and pmf[i] is the probability of count support[i]; both
    are read-only. In sample units (u = delay * fs, pri * fs, t = width * fs),
    a play whose k pulses meet s = min(k, slots) slots that can start in
    the window (_slots_that_can_start) counts the points of
    E = {i + _EDGE_EPS - p pri : 0 <= i < N, 0 <= p < s} in [u, u + t):
    each slot's ceil-and-clip sample span, with overlapping pulses counted
    once per slot. _count_survival integrates this over the delay, width
    and pri laws exactly, and the uniform pulse count k mixes the laws of
    each s. Only the pulse law enters, so scenarios that differ in K,
    noise_var or the active channel share one memoised value.

    The first call for a law costs about the fourth power of its slot
    count, since both the pri breakpoints and each node's terms grow with
    its square. On a 2-core Xeon host the default law (2 slots) takes
    8 ms, and 6-slot laws take 3-6 s: RadarScenario(dwell_T=120e-6) 2.9 s,
    and RadarScenario(pri_range=(-3e-6, 8e-6), delay_range=(-5e-6, 10e-6))
    5.7 s.
    """
    return _pulse_count_law(replace(scenario, K=2, noise_var=0.0, active_channel=1))


@lru_cache(maxsize=64)
def _pulse_count_law(scenario: RadarScenario) -> tuple[np.ndarray, np.ndarray]:
    N, fs = scenario.N, scenario.fs
    pri, delay, width = (
        (lo * fs, hi * fs)
        for lo, hi in (scenario.pri_range, scenario.delay_range, scenario.width_range)
    )
    slots = _slots_that_can_start(scenario)
    lo_p, hi_p = (int(k) for k in scenario.n_pulses_range)
    pmf = np.zeros(N * slots + 1)
    for s in range(slots + 1):
        # the pulse counts k in [lo_p, hi_p] with min(max(k, 0), slots) == s
        first = lo_p if s == 0 else max(lo_p, s)
        last = hi_p if s == slots else min(hi_p, s)
        share = max(0, last - first + 1) / (hi_p - lo_p + 1)
        if s == 0:
            pmf[0] += share
        elif share:
            survival = _count_survival(N, s, pri, delay, width)
            pmf[: N * s + 1] += share * (survival[:-1] - survival[1:])
    np.maximum(pmf, 0.0, out=pmf)
    lo, hi = np.flatnonzero(pmf)[[0, -1]]
    support, pmf = np.arange(lo, hi + 1), pmf[lo : hi + 1]
    support.flags.writeable = pmf.flags.writeable = False
    return support, pmf


def mean_signal_energy(scenario: RadarScenario) -> float:
    """Expected per-play signal energy: with unit amplitude, the mean
    on-pulse sample count of pulse_count_pmf, exact up to rounding."""
    support, pmf = pulse_count_pmf(scenario)
    return float((support * pmf).sum())


def load_iq_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read I/Q samples from a CSV with header n,i,q (one sample per row)."""
    i_vals: list[float] = []
    q_vals: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["n", "i", "q"]:
            raise CsvFormatError(f"expected header n,i,q in {path}")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 3:
                raise CsvFormatError(f"row {reader.line_num} has {len(row)} columns")
            try:
                i, q = float(row[1]), float(row[2])
            except ValueError as exc:
                raise CsvFormatError(
                    f"non-numeric sample at row {reader.line_num}"
                ) from exc
            if not (math.isfinite(i) and math.isfinite(q)):
                raise CsvFormatError(f"non-finite sample at row {reader.line_num}")
            i_vals.append(i)
            q_vals.append(q)
    if not i_vals:
        raise CsvFormatError(f"no samples in {path}")
    return np.asarray(i_vals), np.asarray(q_vals)


def _trimmed_cdf(pmf) -> tuple[int, np.ndarray]:
    """(first count kept, cdf) of pmf, negative entries clipped and the
    law renormalised. The counts at either end whose summed mass is at
    most _TABLE_TAIL are dropped, their mass left in the nearest count
    kept, so the cdf ends at exactly 1."""
    pmf = np.maximum(pmf, 0.0)
    pmf /= pmf.sum()
    cdf, tail = np.cumsum(pmf), np.cumsum(pmf[::-1])
    first = int(np.searchsorted(cdf, _TABLE_TAIL, side="right"))
    stop = len(pmf) - int(np.searchsorted(tail, _TABLE_TAIL, side="right"))
    cdf = cdf[first:stop].copy()
    cdf[-1] = 1.0
    return first, cdf


class RadarEnv(BanditEnv):
    """Arms are channels, rewards are play energies.

    Synthetic energies are drawn through their exact law instead of per
    sample: conditioned on the play's on-pulse count E_s, the energy equals
    (noise_var/2) times a noncentral chi-square with 2N degrees of freedom
    and noncentrality 2 E_s / noise_var. A group play samples its channels
    simultaneously and averages their energies, costing a single play.

    Independent chi-squares add their degrees of freedom and noncentral ones
    also their noncentralities, so the sum of n plays is drawn once: an idle
    channel gives (noise_var/2) chi2(2Nn), and the active channel gives
    (noise_var/2) chi'2(2Nn, 2S/noise_var), where S sums the n plays'
    on-pulse counts. The idle members of a group add up to one
    chi2(2Nn * idle members) draw. S is drawn from the exact per-play count
    law of pulse_count_pmf through doubled tables: table i is the law of
    the summed count of 2**i plays, table 0 the per-play law and table
    i + 1 table i convolved with itself, each kept as (least sum, cdf),
    less the counts at either end of its support that hold at most
    _TABLE_TAIL of mass. All are built with the environment, up to the
    deepest level whose whole support spans at most _COUNT_CHUNK counts
    (level 10 for the default law). A row adds one inverse-transform draw
    per set bit i of n, in ascending order, up to that level; plays beyond
    it, n rounded down to a multiple of twice that level's plays, add one
    multinomial row of counts, drawn in chunks of block_trials(len(pmf))
    rows. An I/Q capture instead gives each play the energy of a uniformly
    drawn window, and core.row_sums adds a row's n plays, at most 2**16 at
    a time. The instance's Gaussian family carries the energy variance
    N * noise_var**2 of an idle play for the RE threshold; no pull draws
    from it.
    """

    def __init__(self, scenario: RadarScenario, iq: tuple | None = None):
        self.scenario = scenario
        N = scenario.N
        nv = scenario.noise_var
        if not math.isfinite(N * nv * nv):
            raise SupportViolation(
                f"noise_var {nv:g} overflows the idle play variance N * noise_var**2"
            )
        self._windows = None
        if iq is not None:
            i_arr, q_arr = iq
            if len(i_arr) < N:
                raise CsvFormatError(
                    f"need at least N = {N} samples, got {len(i_arr)}"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                energy = np.asarray(i_arr) ** 2 + np.asarray(q_arr) ** 2
                prefix = np.concatenate([[0.0], np.cumsum(energy)])
                # the energy of the N-sample window at each offset of the capture
                self._windows = prefix[N:] - prefix[:-N]
                active_mean = float(self._windows.mean())
            # nan or inf when a window is, or when their sum overflows
            if not math.isfinite(active_mean):
                raise CsvFormatError(
                    f"the capture's {N}-sample window energies overflow"
                )
        else:
            active_mean = N * nv + mean_signal_energy(scenario)
            self._counts = support, pmf = pulse_count_pmf(scenario)
            # the levels i whose support of (len(pmf) - 1) * 2**i + 1 counts fits
            # in _COUNT_CHUNK, none when not even the per-play law does
            levels = ((_COUNT_CHUNK - 1) // max(len(pmf) - 1, 1)).bit_length()
            self._tables, lo = [], int(support[0])
            for i in range(levels):
                if i:
                    pmf = np.diff(cdf, prepend=0.0)
                    size = 2 * len(pmf) - 1
                    nfft = 1 << (size - 1).bit_length()
                    pmf = np.fft.irfft(np.fft.rfft(pmf, nfft) ** 2, nfft)[:size]
                    lo *= 2
                first, cdf = _trimmed_cdf(pmf)
                lo += first
                self._tables.append((lo, cdf))
        means = [N * nv] * scenario.K
        means[scenario.active_channel - 1] = active_mean
        super().__init__(
            BanditInstance(means=tuple(means), family=Gaussian(N * nv * nv))
        )

    def _active_sums(self, rows: int, n: int, rng) -> np.ndarray:
        """Energy of n plays of the active channel, for each of `rows` rows."""
        N, nv = self.scenario.N, self.scenario.noise_var
        windows = self._windows
        if windows is not None:
            return row_sums(
                rows, n, lambda r, c: windows[rng.integers(0, len(windows), (r, c))]
            )
        n = int(n)
        signal = np.zeros(rows)
        for i, (lo, cdf) in enumerate(self._tables[: n.bit_length()]):
            if n >> i & 1:
                signal += np.searchsorted(cdf, rng.random(rows), side="right") + lo
        reach = len(self._tables)
        high = n >> reach << reach
        if high:
            support, pmf = self._counts
            step = block_trials(len(pmf))
            for a in range(0, rows, step):
                b = min(rows, a + step)
                signal[a:b] += rng.multinomial(high, pmf, size=b - a) @ support
        if nv == 0.0:
            return signal
        return (nv / 2.0) * rng.noncentral_chisquare(2 * N * n, 2.0 * signal / nv)

    def pull_arm_sum(self, arm: int, n: int, rng) -> float:
        """Energy of n plays of one channel."""
        return float(self.pull_arms_sum(np.array([arm]), n, rng)[0])

    def _energy_sums(
        self, rows: int, n: int, rng, active: bool = False, idle: int = 0
    ) -> np.ndarray:
        """Summed energy of n plays of a set of channels, for each of `rows`
        rows: the active channel's draw first if the set holds it, then one
        (noise_var/2) chi2(2Nn * idle) for all `idle` idle members."""
        nv = self.scenario.noise_var
        total = self._active_sums(rows, n, rng) if active else np.zeros(rows)
        if idle and nv > 0.0:
            chi = rng.chisquare(2 * self.scenario.N * n * idle, size=rows)
            total += (nv / 2.0) * chi
        return total

    def _arm_sums(self, idx, n: int, rng) -> np.ndarray:
        """Idle entries first, in row-major order, then every active entry
        at once; the inherited Gaussian draws would come from the wrong law."""
        out = np.empty(idx.shape)
        active = idx == self.scenario.active_channel - 1
        out[~active] = self._energy_sums(np.count_nonzero(~active), n, rng, idle=1)
        out[active] = self._energy_sums(np.count_nonzero(active), n, rng, active=True)
        return out

    def _group_sums(self, n: int, rng, trials: int) -> np.ndarray:
        """Per group, in order: the active channel, then all idle members at once."""
        out = np.empty((trials, len(self._groups)))
        for k, idx in enumerate(self._groups):
            active = self.scenario.active_channel - 1 in idx
            total = self._energy_sums(trials, n, rng, active, len(idx) - active)
            out[:, k] = total / len(idx)
        return out


def run_radar_experiment(
    scenario: RadarScenario | None = None,
    plays=DEFAULT_RADAR_PLAYS,
    algorithms=("SH", "SR", "RE-plugin", "RE-oracle"),
    trials: int = 500,
    csv_path=None,
    master_seed: int = 0,
):
    """Error rates per (algorithm, play budget) for the radar scenario.

    RE runs in two flavors: "RE-oracle" is handed the true gap profile,
    "RE-plugin" spends a 10% exploration phase estimating it. When csv_path
    is given, ingested I/Q windows replace synthesis for the active channel.
    """
    if scenario is None:
        scenario = seeded_radar_scenario(master_seed)
    iq = None if csv_path is None else load_iq_csv(csv_path)
    env = RadarEnv(scenario, iq=iq)
    label = f"radar-K{scenario.K}" + ("-iq" if iq is not None else "")
    opts = {
        "RE-oracle": ReOptions(alpha=0.0, prior_mode="oracle"),
        "RE-plugin": ReOptions(alpha=0.1, prior_mode="plugin"),
    }
    return run_cells(env, algorithms, plays, trials, master_seed, label, opts)
