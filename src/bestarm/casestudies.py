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
from functools import lru_cache

import numpy as np

from .core import BanditInstance, Gaussian, check_arm, check_K, check_variance, is_real
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
# Pulse-train draws behind the fixed-seed signal-energy oracle. Radar pulls
# draw their plays in chunks of at most this many, so a pull never holds
# more pulse-train data than the oracle does.
_SIGNAL_DRAWS = 200_000
# Plays per block when counting on-pulse samples: the size of the three
# float buffers that signal_sample_counts allocates once per call and reuses
# for every block. Fresh (slots x plays) temporaries per block were handed
# back to the kernel on free and faulted in again by the next block.
_COUNT_BLOCK = 8192


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
    group law is the one hook this class overrides.
    """

    def __init__(self, scenario: JammerScenario):
        self.scenario = scenario
        means = tuple(
            1.0 if k == scenario.j_star else 0.0 for k in range(1, scenario.K + 1)
        )
        family = Gaussian(scenario.noise_var)
        super().__init__(BanditInstance(means=means, family=family))

    def _group_sums(self, n: int, rng, trials: int) -> np.ndarray:
        """N(n * group mean, n * noise_var) per group, from one standard
        normal array scaled and shifted in place."""
        sums = rng.standard_normal((len(self._groups), trials))
        sums *= math.sqrt(n * self.scenario.noise_var)
        sums += (n * self._group_mean)[:, None]
        return sums.T


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
        if not (0 < self.fs < math.inf and 0 < self.dwell_T < math.inf):
            raise SupportViolation("fs and dwell_T must be finite and positive")
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
            # a tuple, so that the scenario hashes for the energy memo
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
    bound grows with p. Each float operation signal_sample_counts applies
    to a start is monotone, so once the bound's first sample index,
    ceil(bound * fs - _EDGE_EPS), reaches N, no draw puts a sample of that
    slot, or of any later one, in the window. Otherwise every slot counts.
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


def signal_sample_counts(scenario: RadarScenario, n: int, rng) -> np.ndarray:
    """On-pulse sample counts for n independent pulse-train draws.

    Width, pri and delay are the rows of one (3, n) draw, each scaled in
    place as numpy's uniform scales it, so the values and the generator's
    end state are those of three rng.uniform calls. Plays are counted in
    blocks of at most _COUNT_BLOCK, one pulse slot that can start inside
    the window at a time, in three buffers that every block reuses: the
    working memory is bounded whatever n is, and no block allocates.
    """
    lo_p, hi_p = scenario.n_pulses_range
    pulses = rng.integers(lo_p, hi_p + 1, size=n)
    params = rng.random((3, n))
    ranges = (scenario.width_range, scenario.pri_range, scenario.delay_range)
    for row, (a, b) in zip(params, ranges):
        # numpy's uniform computes a + (b - a) * u
        row *= b - a
        row += a
    width, pri, delay = params
    N, fs = scenario.N, scenario.fs
    slots = _slots_that_can_start(scenario)
    counts = np.zeros(n, dtype=np.int64)
    size = min(n, _COUNT_BLOCK)
    hi_buf, lo_buf, total_buf = np.empty(size), np.empty(size), np.empty(size)
    for a in range(0, n, _COUNT_BLOCK):
        cols = slice(a, a + _COUNT_BLOCK)
        w, r, d, k = width[cols], pri[cols], delay[cols], pulses[cols]
        hi, lo, total = hi_buf[: len(w)], lo_buf[: len(w)], total_buf[: len(w)]
        total.fill(0.0)
        for p in range(slots):
            np.multiply(r, p, out=hi)
            hi += d  # the slot's start
            np.multiply(hi, fs, out=lo)
            lo -= _EDGE_EPS
            np.ceil(lo, out=lo)
            hi += w
            hi *= fs
            hi -= _EDGE_EPS
            np.ceil(hi, out=hi)
            np.minimum(hi, N, out=hi)
            np.maximum(lo, 0, out=lo)
            hi -= lo
            np.maximum(hi, 0, out=hi)
            if p >= lo_p:  # every draw has at least lo_p pulses
                np.greater(k, p, out=lo)
                hi *= lo
            total += hi
        counts[cols] = total
    return counts


def mean_signal_energy(scenario: RadarScenario) -> float:
    """Expected per-play signal energy, by a fixed-seed Monte-Carlo oracle.

    With unit amplitude the signal energy of a play equals its on-pulse
    sample count, whose mean over the pulse-parameter law has no tidy closed
    form once window truncation enters; a large deterministic sample pins it
    to about three decimals, which is all the detection thresholds need.
    Only the pulse law enters, so scenarios that differ in K, noise_var or
    the active channel share one memoised value.
    """
    return _pulse_law_energy(replace(scenario, K=2, noise_var=0.0, active_channel=1))


@lru_cache(maxsize=64)
def _pulse_law_energy(scenario: RadarScenario) -> float:
    rng = np.random.default_rng([8_675_309, scenario.N, _SIGNAL_DRAWS])
    return float(signal_sample_counts(scenario, _SIGNAL_DRAWS, rng).mean())


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
                i_vals.append(float(row[1]))
                q_vals.append(float(row[2]))
            except ValueError as exc:
                raise CsvFormatError(
                    f"non-numeric sample at row {reader.line_num}"
                ) from exc
    if not i_vals:
        raise CsvFormatError(f"no samples in {path}")
    return np.asarray(i_vals), np.asarray(q_vals)


def _row_sums(rows: int, n: int, draw) -> np.ndarray:
    """Sums of n consecutive per-play values for each of `rows` rows.

    draw(k) returns the next k per-play values. All rows * n plays are
    drawn in order, in chunks of at most _SIGNAL_DRAWS plays, so a pull of
    any size holds a bounded number of them at once.
    """
    out = np.zeros(rows)
    total = rows * n
    for a in range(0, total, _SIGNAL_DRAWS):
        b = min(total, a + _SIGNAL_DRAWS)
        first = a // n
        # where each row that meets [a, b) starts inside the chunk
        starts = np.arange(first * n, b, n) - a
        starts[0] = 0
        out[first : first + len(starts)] += np.add.reduceat(draw(b - a), starts)
    return out


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
    chi2(2Nn * idle members) draw. A pull of the active channel for a block
    of trials counts the pulses of all its plays in one
    signal_sample_counts call (chunked beyond _SIGNAL_DRAWS plays), which
    holds its draws, its counts and three _COUNT_BLOCK buffers. The
    instance's Gaussian family carries the energy variance N * noise_var**2
    of an idle play for the RE threshold; no pull draws from it.
    """

    def __init__(self, scenario: RadarScenario, iq: tuple | None = None):
        self.scenario = scenario
        N = scenario.N
        nv = scenario.noise_var
        self._prefix = None
        if iq is not None:
            i_arr, q_arr = iq
            if len(i_arr) < N:
                raise CsvFormatError(
                    f"need at least N = {N} samples, got {len(i_arr)}"
                )
            energy = np.asarray(i_arr) ** 2 + np.asarray(q_arr) ** 2
            self._prefix = np.concatenate([[0.0], np.cumsum(energy)])
            self._n_windows = len(energy) - N + 1
            windows = self._prefix[N:] - self._prefix[:-N]
            active_mean = float(windows.mean())
        else:
            active_mean = N * nv + mean_signal_energy(scenario)
        means = [N * nv] * scenario.K
        means[scenario.active_channel - 1] = active_mean
        super().__init__(
            BanditInstance(means=tuple(means), family=Gaussian(N * nv * nv))
        )

    def _active_sums(self, rows: int, n: int, rng) -> np.ndarray:
        """Energy of n plays of the active channel, for each of `rows` rows."""
        scenario = self.scenario
        N, nv = scenario.N, scenario.noise_var
        if self._prefix is not None:
            prefix = self._prefix

            def windows(k):
                ofs = rng.integers(0, self._n_windows, size=k)
                return prefix[ofs + N] - prefix[ofs]

            return _row_sums(rows, n, windows)
        signal = _row_sums(rows, n, lambda k: signal_sample_counts(scenario, k, rng))
        if nv == 0.0:
            return signal
        return (nv / 2.0) * rng.noncentral_chisquare(2 * N * n, 2.0 * signal / nv)

    def pull_arm_sum(self, arm: int, n: int, rng) -> float:
        """Energy of n plays of one channel."""
        return float(self.pull_arms_sum(np.array([arm]), n, rng)[0])

    def _arm_sums(self, idx, n: int, rng) -> np.ndarray:
        """Idle channels first, in order, then every active entry at once;
        the inherited Gaussian draws would come from the wrong law."""
        out = np.zeros(idx.shape)
        active = idx == self.scenario.active_channel - 1
        nv = self.scenario.noise_var
        idle = idx.size - int(np.count_nonzero(active))
        if idle and nv > 0.0:
            chi = rng.chisquare(2 * self.scenario.N * n, size=idle)
            out[~active] = (nv / 2.0) * chi
        if idle < idx.size:
            out[active] = self._active_sums(idx.size - idle, n, rng)
        return out

    def _group_sums(self, n: int, rng, trials: int) -> np.ndarray:
        """Per group, in order: the active channel, then all idle members at once."""
        scenario = self.scenario
        out = np.empty((trials, len(self._groups)))
        for k, idx in enumerate(self._groups):
            has_active = scenario.active_channel - 1 in idx
            total = np.zeros(trials)
            if has_active:
                total += self._active_sums(trials, n, rng)
            idle = len(idx) - has_active
            if idle and scenario.noise_var > 0.0:
                chi = rng.chisquare(2 * scenario.N * n * idle, size=trials)
                total += (scenario.noise_var / 2.0) * chi
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
    iq = load_iq_csv(csv_path) if csv_path else None
    env = RadarEnv(scenario, iq=iq)
    label = f"radar-K{scenario.K}" + ("-iq" if iq is not None else "")
    opts = {
        "RE-oracle": ReOptions(alpha=0.0, prior_mode="oracle"),
        "RE-plugin": ReOptions(alpha=0.1, prior_mode="plugin"),
    }
    return run_cells(env, algorithms, plays, trials, master_seed, label, opts)
