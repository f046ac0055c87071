"""Hardware-layer experiments: exponent sensitivity of the residual jitter,
latency-model mismatch, the virtual-piano robustness simulation, and the
uncalibrated/calibrated behaviour of the velocity robustness filter."""

from __future__ import annotations

import numpy as np

from ..events import Piece
from ..hal import (
    FilterConfig,
    LatencyModel,
    NoiseSpec,
    latency,
    robustness_filter,
    simulate_mismatch,
)
from ..stats import paired_t_test
from ..stochastic import derive_rng

# The calibration excerpt: 526 velocity commands drawn uniformly over the
# textural regime's velocity band.
EXCERPT_N = 526
EXCERPT_VELOCITY_RANGE = (100, 1000)
SENSITIVITY_EXPONENTS = (0.3, 0.4, 0.5, 0.6, 0.7)
MISMATCH_TRIALS = (50, 200)  # noisy trials per mismatch condition, at (desk, full) scale
FILTER_TRIALS = 200  # excerpts of the robustness-filter study
FILTER_RATE = 40.0  # notes/s of each filter excerpt


def _excerpt_velocities(seed: int) -> np.ndarray:
    rng = derive_rng(seed, "hal-calibration-excerpt")
    return rng.integers(EXCERPT_VELOCITY_RANGE[0], EXCERPT_VELOCITY_RANGE[1] + 1,
                        EXCERPT_N).astype(float)


def hal_sensitivity(report, seed: int, full_scale: bool) -> None:
    """Residual jitter versus compensation exponent, plus the closed-form
    inter-model disagreement maximum."""
    v = _excerpt_velocities(seed)
    true_model = LatencyModel(variant="power", c=0.5)
    residual_sd = {}
    for c in SENSITIVITY_EXPONENTS:
        assumed = LatencyModel(variant="power", c=c)
        residual = latency(true_model, v) - latency(assumed, v)
        residual_sd[c] = float(np.std(residual))
        report.add(f"residual_sd_c{c:.1f}", residual_sd[c], f"hal.residual.c{10 * c:02.0f}")
    report.add("minimal_at_calibrated",
               bool(min(residual_sd, key=residual_sd.get) == 0.5),
               "hal.residual.minimal_at_calibrated")
    below = [residual_sd[c] for c in (0.3, 0.4, 0.5)]
    above = [residual_sd[c] for c in (0.5, 0.6, 0.7)]
    monotone = bool(np.all(np.diff(below) < 0) and np.all(np.diff(above) > 0))
    report.add("monotone_in_deviation", monotone, "hal.residual.monotone")

    grid = np.arange(0, 1024)
    linear = latency(LatencyModel(variant="linear"), grid)
    power = latency(LatencyModel(variant="power", c=0.5), grid)
    gap = linear - power
    report.add("boundary_l0", float(linear[0]), "hal.boundary.l0")
    report.add("boundary_lvmax", float(linear[-1]), "hal.boundary.lmax_velocity")
    report.add("max_linear_power_gap", float(gap.max()), "hal.max_linear_power_gap")
    report.add("max_gap_velocity", int(gap.argmax()), "hal.max_linear_power_gap.velocity")


def latency_mismatch(report, seed: int, full_scale: bool) -> None:
    """Compensation stays preferable when the true law deviates from the model."""
    v = _excerpt_velocities(seed)
    assumed = LatencyModel(variant="power", c=0.5)
    rng = derive_rng(seed, "latency-mismatch")
    table = {}
    hal_beats_raw = True

    for c_true in (0.3, 0.5, 0.7):
        true_model = LatencyModel(variant="power", c=c_true)
        res = simulate_mismatch(v, assumed, true_model, trials=1, rng=rng)
        table[f"exponent_{c_true}"] = (round(res.uncorrected_mean, 2),
                                       round(res.corrected_mean, 2))
        if c_true != 0.5 and res.corrected_mean >= res.uncorrected_mean:
            hal_beats_raw = False

    for w in (1.0, 2.0):
        true_model = LatencyModel(variant="power", c=0.5)
        res = simulate_mismatch(v, assumed, true_model, NoiseSpec(additive_ms=w),
                                trials=MISMATCH_TRIALS[full_scale], rng=rng)
        table[f"additive_{w}ms"] = (round(res.uncorrected_mean, 2),
                                    round(res.corrected_mean, 2))
        hal_beats_raw &= res.corrected_mean < res.uncorrected_mean

    suppression_at_20 = None
    for delta in (-0.20, -0.10, 0.10, 0.20):
        scaled = latency(assumed, v) * (1.0 + delta)
        raw_sd = float(scaled.std())
        hal_sd = float((scaled - latency(assumed, v)).std())
        table[f"scale_{delta:+.0%}"] = (round(raw_sd, 2), round(hal_sd, 2))
        hal_beats_raw &= hal_sd < raw_sd
        if abs(delta) == 0.20:
            suppression_at_20 = 100.0 * (1.0 - hal_sd / raw_sd)

    report.add("jitter_table_raw_vs_hal", table, "mismatch.table")
    report.add("hal_beats_raw_everywhere", bool(hal_beats_raw), "mismatch.hal_beats_raw")
    report.add("suppression_at_20pct", suppression_at_20, "mismatch.suppression_at_20pct")


def virtual_piano(report, seed: int, full_scale: bool) -> None:
    """Noisy, drifting instrument: the nominal power-law correction still wins."""
    v = _excerpt_velocities(seed)
    assumed = LatencyModel(variant="power", c=0.5)
    true_model = LatencyModel(variant="power", c=0.5)
    noise = NoiseSpec(multiplicative=0.10, exponent_drift=0.004)
    res = simulate_mismatch(v, assumed, true_model, noise, trials=MISMATCH_TRIALS[full_scale],
                            rng=derive_rng(seed, "virtual-piano"))
    report.add("jitter_raw_vs_hal",
               ((round(res.uncorrected_mean, 3), round(float(res.uncorrected_ms.std()), 3)),
                (round(res.corrected_mean, 3), round(float(res.corrected_ms.std()), 3))),
               "virtual_piano.jitter")
    report.add("hal_fraction", res.corrected_mean / res.uncorrected_mean,
               "virtual_piano.hal_fraction")
    report.add("paired_p", res.p_value, "virtual_piano.paired_p")


def _filter_piece(velocities: np.ndarray) -> Piece:
    index = np.arange(len(velocities))
    return Piece.from_columns(index / FILTER_RATE, 60 + index % 24, velocities.astype(int), 0.05)


def robustness(report, seed: int, full_scale: bool) -> None:
    """The velocity filter helps uncalibrated deployment and hurts calibrated
    timing, as the compensation order implies."""
    rng = derive_rng(seed, "robustness-filter")
    true_model = LatencyModel(variant="power", c=0.5)
    fallback = LatencyModel(variant="linear")
    fcfg = FilterConfig(gamma=0.5)

    sd_unfiltered, sd_filtered = [], []
    for _ in range(FILTER_TRIALS):
        v = rng.integers(100, 1001, EXCERPT_N).astype(float)
        piece = _filter_piece(v)
        filtered = robustness_filter(piece, fcfg)
        vf = filtered.velocities().astype(float)
        err_plain = latency(true_model, v) - latency(fallback, v)
        err_filt = latency(true_model, vf) - latency(fallback, vf)
        sd_unfiltered.append(err_plain.std())
        sd_filtered.append(err_filt.std())
    sd_unfiltered = np.array(sd_unfiltered)
    sd_filtered = np.array(sd_filtered)
    p = paired_t_test(sd_filtered, sd_unfiltered).p_value
    p_one_sided = p / 2 if sd_filtered.mean() < sd_unfiltered.mean() else 1 - p / 2
    report.add("uncalibrated_sd", (round(float(sd_unfiltered.mean()), 3),
                                   round(float(sd_filtered.mean()), 3)),
               "filter.values")
    report.add("uncalibrated_sd_reduced_p", p_one_sided,
               "filter.uncalibrated_sd_reduced_p")

    # calibrated case: corrections are velocity-matched before the filter
    # edits velocities, so editing reintroduces onset error
    v = rng.integers(100, 1001, EXCERPT_N).astype(float)
    piece = _filter_piece(v)
    filtered = robustness_filter(piece, fcfg)
    vf = filtered.velocities().astype(float)
    err_after = np.abs(latency(true_model, vf) - latency(true_model, v))
    report.add("calibrated_error_ms", (0.0, round(float(err_after.mean()), 3)),
               "filter.values")
    report.add("calibrated_error_increases", bool(err_after.mean() > 0.0),
               "filter.calibrated_error_increases")
