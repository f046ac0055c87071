"""Hardware abstraction layer: velocity-dependent latency models, onset
pre-compensation, the uncalibrated-deployment robustness filter, power-law
calibration fitting, constraint enforcement, and mismatch simulation.

All three latency variants share the boundary conditions L(0) = L_max and
L(VELOCITY_MAX) = L_min and are monotone non-increasing in velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import KEY_RESET_WINDOW, KEYBOARD, Piece, VELOCITY_MAX, key_reset_kept, row_order
from .stochastic import config_section, config_value


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class LatencyModel:
    variant: str = "power"  # linear | power | log
    l_max: float = 30.0  # ms at velocity 0
    l_min: float = 10.0  # ms at velocity VELOCITY_MAX
    c: float = 0.5       # power-law exponent
    k: float = 9.0       # log-curve curvature

    def __post_init__(self):
        if not self.l_max > self.l_min > 0:
            raise ValueError(f"need l_max > l_min > 0, got {self.l_max}, {self.l_min}")
        if self.variant == "power" and not 0 < self.c < 1:
            raise ValueError(f"power exponent must be in (0, 1), got {self.c}")
        if self.variant == "log" and self.k <= 0:
            raise ValueError(f"log curvature must be > 0, got {self.k}")
        if self.variant not in ("linear", "power", "log"):
            raise ValueError(f"unknown latency variant {self.variant!r}")


def _power_law(u, l_max: float, l_min: float, c):
    """Power-law latency in ms at normalised velocity ``u`` in [0, 1]; ``c``
    may be one exponent or one per velocity."""
    return l_max - (l_max - l_min) * u**c


def latency(model: LatencyModel, v) -> np.ndarray | float:
    """Predicted actuation latency in ms for velocity command(s) v.

    A scalar goes through the same array arithmetic as a vector, so both
    agree bit for bit.
    """
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0) or np.any(v_arr > VELOCITY_MAX):
        raise ValueError(f"velocity outside [0, {VELOCITY_MAX}]")
    u = np.atleast_1d(v_arr) / VELOCITY_MAX
    span = model.l_max - model.l_min
    if model.variant == "linear":
        out = model.l_max - span * u
    elif model.variant == "power":
        out = _power_law(u, model.l_max, model.l_min, model.c)
    else:
        out = model.l_max - span * np.log1p(model.k * u) / np.log1p(model.k)
    return float(out[0]) if v_arr.ndim == 0 else out


def precompensate(piece: Piece, model: LatencyModel) -> Piece:
    """Shift every onset earlier by its predicted latency and re-sort.

    The result is the command stream: when each key must be struck so that
    it sounds at the piece's onset. It is not checked against the
    constraints again. Two strikes of one key that sound at least the
    per-key window apart can be commanded closer than that when the later
    one is softer, so it is struck earlier: a known defect (ROADMAP.md)."""
    return piece.with_columns(onset=piece.onsets() - latency(model, piece.velocities()) / 1000.0)


# ---------------------------------------------------------------------------
# Robustness filter (uncalibrated-deployment failsafe)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterConfig:
    window: float = KEY_RESET_WINDOW  # seconds
    gamma: float = 0.5                # compression toward the local mean
    spread_threshold: float = 200.0   # velocity spread that flags an event

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("filter window must be > 0")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


def _window_extremes(values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Exact max and min of values[lo[i]:hi[i]] for every i (each slice non-empty).

    One ``reduceat`` each over the interleaved bounds lo[0], hi[0], lo[1], ...:
    its even results are the windows. The padding value lets ``hi`` equal n.
    """
    bounds = np.column_stack((lo, hi)).ravel()
    padded = np.append(values, 0)
    return np.maximum.reduceat(padded, bounds)[::2], np.minimum.reduceat(padded, bounds)[::2]


def robustness_filter(piece: Piece, cfg: FilterConfig = FilterConfig()) -> Piece:
    """Compress latency-sensitive velocities toward their local mean.

    An event is flagged when the velocity spread (max - min) inside its
    +-window/2 neighbourhood exceeds the threshold: that is the condition
    under which differential latency scrambles local event order. Timing is
    untouched; neighbourhood statistics use the original velocities.
    """
    if not len(piece):
        return piece.with_columns()
    onsets = piece.onsets()
    velocities = piece.velocities()
    half = cfg.window / 2.0
    lo = np.searchsorted(onsets, onsets - half, side="left")
    hi = np.searchsorted(onsets, onsets + half, side="right")
    mx, mn = _window_extremes(velocities, lo, hi)
    flagged = np.flatnonzero(mx - mn > cfg.spread_threshold)
    # velocities are integers, so the prefix sums (and the means) are exact
    prefix = np.concatenate(([0.0], np.cumsum(velocities)))
    mean = (prefix[hi[flagged]] - prefix[lo[flagged]]) / (hi[flagged] - lo[flagged])
    compressed = np.clip(np.round(mean + cfg.gamma * (velocities[flagged] - mean)),
                         0, VELOCITY_MAX).astype(int)
    out = velocities.copy()
    out[flagged] = compressed
    return piece.with_columns(velocity=out)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationData:
    velocities: tuple[float, ...]
    latencies_ms: tuple[float, ...]

    def __post_init__(self):
        if len(self.velocities) != len(self.latencies_ms):
            raise ValueError("velocity/latency lengths differ")
        if any(not 0 <= v <= VELOCITY_MAX for v in self.velocities):
            raise ValueError("calibration velocities outside the 10-bit range")
        if any(l <= 0 for l in self.latencies_ms):
            raise ValueError("latencies must be positive")

    @staticmethod
    def from_csv(path) -> "CalibrationData":
        import csv

        vs, ls = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                vs.append(float(row["velocity"]))
                ls.append(float(row["latency_ms"]))
        return CalibrationData(tuple(vs), tuple(ls))

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["velocity", "latency_ms"])
            writer.writerows(zip(self.velocities, self.latencies_ms))


@dataclass(frozen=True)
class PowerLawFit:
    model: LatencyModel
    rmse_ms: float


def fit_power_law(data: CalibrationData, l_max: float = 30.0,
                  l_min: float = 10.0) -> PowerLawFit:
    """Least-squares power-law exponent for the given latency bounds.

    The fitted RMSE is reported as-is; a poor fit on non-power-law data is
    visible, not hidden.
    """
    from scipy import optimize

    v = np.asarray(data.velocities, dtype=float)
    y = np.asarray(data.latencies_ms, dtype=float)
    if np.unique(v).size < 3:
        raise FitError("calibration needs >= 3 distinct velocities")
    u = v / VELOCITY_MAX

    def sse(c):
        return float(np.sum((_power_law(u, l_max, l_min, c) - y) ** 2))
    res = optimize.minimize_scalar(sse, bounds=(0.01, 0.99), method="bounded",
                                   options={"xatol": 1e-8})
    c_hat = float(res.x)
    pred = _power_law(u, l_max, l_min, c_hat)
    rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
    model = LatencyModel(variant="power", l_max=l_max, l_min=l_min, c=c_hat)
    return PowerLawFit(model, rmse)


# ---------------------------------------------------------------------------
# Constraint enforcement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    min_key_ioi: float = KEY_RESET_WINDOW
    max_polyphony: int = len(KEYBOARD)
    scan_resolution: float = 0.001

    def __post_init__(self):
        if self.min_key_ioi <= 0 or self.scan_resolution <= 0 or self.max_polyphony <= 0:
            raise ValueError("constraint fields must be positive")


class Violation(NamedTuple):
    reason: str  # "per-key rate" | "polyphony"
    row: int     # the dropped note's row in the input piece


def enforce_constraints(piece: Piece, cs: ConstraintSet = ConstraintSet()):
    """Repair a piece against the hardware inequalities; report every change.

    Repair order matters and is fixed: the per-key collision mask, then the
    simultaneity cap (lowest velocities dropped beyond the key count). The
    report holds one ``Violation`` per dropped note, whose ``row`` indexes
    ``piece``: the per-key repairs in row order, then the polyphony repairs
    cluster by cluster, each cluster's in the order the cap drops them.

    The constraints hold on the onsets of ``piece``, which are sounding
    onsets in ``polycanon generate``: it enforces them before
    ``precompensate``, and the command stream it writes is not checked
    again (see ``precompensate``).
    """
    onsets, pitches, velocities = piece.onsets(), piece.pitches(), piece.velocities()
    masked = key_reset_kept(onsets, pitches, cs.min_key_ioi)
    kept = np.zeros(len(piece), dtype=bool)
    kept[masked] = True
    report = [Violation("per-key rate", row) for row in np.flatnonzero(~kept).tolist()]

    # simultaneity clusters: runs of masked notes less than scan_resolution apart
    starts = np.flatnonzero(np.diff(onsets[masked]) >= cs.scan_resolution) + 1
    bounds = np.concatenate(([0], starts, [len(masked)]))
    keep = np.ones(len(masked), dtype=bool)
    for c in np.flatnonzero(np.diff(bounds) > cs.max_polyphony).tolist():
        a, b = bounds[c].item(), bounds[c + 1].item()
        rows = masked[a:b]
        # keep the loudest: order by (-velocity, pitch), ties in scan order
        losers = row_order(-velocities[rows], pitches[rows])[cs.max_polyphony:]
        keep[a + losers] = False
        report.extend(Violation("polyphony", row) for row in rows[losers].tolist())

    return piece.with_columns(rows=masked[keep]), report


# ---------------------------------------------------------------------------
# Mismatch simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    multiplicative: float = 0.0   # +-fraction, uniform per note
    additive_ms: float = 0.0      # +-ms, uniform per note
    exponent_drift: float = 0.0   # random-walk step of a power-law true model's exponent c


@dataclass(frozen=True)
class MismatchResult:
    uncorrected_ms: np.ndarray    # per-trial jitter SD without compensation
    corrected_ms: np.ndarray      # per-trial jitter SD with the assumed model
    p_value: float                # paired t test, corrected vs uncorrected

    @property
    def uncorrected_mean(self) -> float:
        return float(self.uncorrected_ms.mean())

    @property
    def corrected_mean(self) -> float:
        return float(self.corrected_ms.mean())


# the drifting exponent stays within these multiples of the true model's c
DRIFT_BAND = (0.7, 1.3)


def _true_latencies(velocities, true_model: LatencyModel, noise: NoiseSpec, rng):
    v = np.asarray(velocities, dtype=float)
    if noise.exponent_drift > 0:
        steps = rng.uniform(-noise.exponent_drift, noise.exponent_drift, v.size)
        c_path = np.clip(true_model.c + np.cumsum(steps), *np.multiply(DRIFT_BAND, true_model.c))
        base = _power_law(v / VELOCITY_MAX, true_model.l_max, true_model.l_min, c_path)
    else:
        base = latency(true_model, v)
    if noise.multiplicative > 0:
        base = base * (1.0 + rng.uniform(-noise.multiplicative, noise.multiplicative, v.size))
    if noise.additive_ms > 0:
        base = base + rng.uniform(-noise.additive_ms, noise.additive_ms, v.size)
    return base


def simulate_mismatch(velocities, assumed: LatencyModel, true_model: LatencyModel,
                      noise: NoiseSpec = NoiseSpec(), *, trials: int,
                      rng: np.random.Generator) -> MismatchResult:
    """Onset-jitter SD with and without compensation when the true latency law
    deviates from the assumed one, over seeded trials.

    Jitter is the standard deviation of (actual - intended) onset error in ms;
    uncompensated error is the true latency itself, compensated error is the
    residual after subtracting the assumed model's prediction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if noise.exponent_drift > 0 and true_model.variant != "power":
        raise ValueError(f"exponent drift needs a power-law true model, got {true_model.variant!r}")
    v = np.asarray(velocities, dtype=float)
    assumed_ms = latency(assumed, v)
    raw = np.empty(trials)
    hal = np.empty(trials)
    for t in range(trials):
        actual = _true_latencies(v, true_model, noise, rng)
        raw[t] = actual.std()
        hal[t] = (actual - assumed_ms).std()
    if trials >= 2 and not np.allclose(raw, hal):
        from .stats import paired_t_test

        p = paired_t_test(hal, raw).p_value
    else:
        p = float("nan")
    return MismatchResult(raw, hal, p)


# the parameters a variant does not read, and so rejects as unknown keys
_UNREAD = {"linear": ("c", "k"), "power": ("k",), "log": ("c",)}


def model_from_config(cfg: dict) -> LatencyModel:
    """The ``hal`` section's latency model; errors name their path, e.g. ``hal.lmax``.

    The ``variant`` is read first, since it decides the keys: ``c`` only
    with the power law and ``k`` only with the log law."""
    cfg = config_value(cfg, dict, "hal")
    variant = config_value(cfg.get("variant", LatencyModel.variant), str, "hal.variant")
    return config_section(LatencyModel, cfg, "hal", exclude=_UNREAD.get(variant, ()))
