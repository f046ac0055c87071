"""Density experiments: the saturation breakpoint regression, the generated
sweep with its concentration contrast, the structureless null baseline, and
IOI-distribution independence of the coherence drop."""

from __future__ import annotations

import numpy as np

from ..metrics import melodic_coherence, pitch_class_concentration
from ..stats import correlation, piecewise_fit, piecewise_breakpoint_ci, t_test_with_d
from ..stochastic import derive_rng
from ._common import (
    SWEEP_LEVELS,
    null_stream,
    sweep_concentration,
    sweep_condition,
    sweep_contour_coherence,
)

# Reference single-voice coherence curve over the density sweep (normalised to
# the 10 notes/s condition); the saturation-regression targets are pinned to
# this dataset.
SATURATION_REFERENCE_CURVE = (
    (10, 1.00), (15, 0.92), (20, 0.78), (25, 0.55), (28, 0.38), (30, 0.25),
    (40, 0.22), (50, 0.20), (60, 0.18), (80, 0.16), (100, 0.15), (120, 0.14),
    (150, 0.13), (200, 0.12),
)

BOOTSTRAP_DRAWS = (2_000, 10_000)  # of the reference breakpoint CI, at (desk, full) scale
SWEEP_COHERENCE_TRIALS = 5  # sweep streams per level, for interval-entropy coherence
SWEEP_CONCENTRATION_TRIALS = 10  # ... and for pitch-class concentration
NULL_TRIALS = 5  # null and structured streams per level of the null baseline
INDEPENDENCE_TRIALS = 8  # streams per IOI law and density of the independence check


def _interval_entropy_coherence(pitches: np.ndarray) -> float:
    """1 - H(pitch interval)/log2(25), intervals clipped to +-12 semitones."""
    if len(pitches) < 2:
        return 0.0
    intervals = np.clip(np.diff(pitches), -12, 12).astype(int) + 12
    counts = np.bincount(intervals, minlength=25).astype(float)
    probs = counts[counts > 0] / counts.sum()
    h = -np.sum(probs * np.log2(probs))
    return float(1.0 - h / np.log2(25))


def density_sweep(report, seed: int, full_scale: bool) -> None:
    """Breakpoint regression on the reference curve plus the generated sweep."""
    x = np.array([p[0] for p in SATURATION_REFERENCE_CURVE], dtype=float)
    y = np.array([p[1] for p in SATURATION_REFERENCE_CURVE], dtype=float)
    fit = piecewise_fit(x, y)
    report.add("reference_breakpoint", fit.breakpoint, "saturation.reference.breakpoint")
    report.add("reference_r2_piecewise", fit.r2_piecewise, "saturation.reference.r2_piecewise")
    report.add("reference_r2_gap", fit.r2_piecewise - fit.r2_linear,
               "saturation.reference.r2_gap")
    report.add("reference_slope_ratio", abs(fit.slope_ratio),
               "saturation.reference.slope_ratio")
    ci = piecewise_breakpoint_ci(x, y, n_boot=BOOTSTRAP_DRAWS[full_scale],
                                 rng=derive_rng(seed, "saturation-ci"))
    report.add("reference_breakpoint_ci", (round(ci[0], 2), round(ci[1], 2)),
               "saturation.reference.ci_bounds")
    report.add("reference_ci_within", bool(23.0 <= ci[0] and ci[1] <= 50.0),
               "saturation.reference.ci")

    # generated sweep: interval-entropy coherence and concentration
    rng = derive_rng(seed, "density-sweep")
    coherence = []
    ts_means = []
    for rho in SWEEP_LEVELS:
        vals = []
        for _ in range(SWEEP_COHERENCE_TRIALS):
            voices, piece = sweep_condition(rho, "exponential", rng)
            vals.append(np.mean([
                _interval_entropy_coherence(piece.pitches()[piece.column("voice") == v])
                for v in (0, 1)]))
        coherence.append(float(np.mean(vals)))
        ts_means.append(float(np.mean(sweep_concentration(rho, rng, SWEEP_CONCENTRATION_TRIALS))))
    normalised = [c / coherence[0] for c in coherence]
    report.add("sweep_coherence", [round(c, 3) for c in normalised],
               "saturation.sweep.coherence")
    sweep_fit = piecewise_fit(np.array(SWEEP_LEVELS, float), np.array(normalised))
    report.add("sweep_breakpoint", sweep_fit.breakpoint, "saturation.sweep.breakpoint")

    in_band = all(0.05 <= t <= 0.2 for t in ts_means)
    report.add("sweep_ts_band", bool(in_band), "saturation.sweep.ts_band")
    rho_ts = correlation(np.array(SWEEP_LEVELS, float), np.array(ts_means), "spearman")
    report.add("sweep_ts_spearman", rho_ts.statistic, "saturation.sweep.ts_spearman")


def null_baseline(report, seed: int, full_scale: bool) -> None:
    """Structureless random streams versus the generated sweep condition."""
    rng = derive_rng(seed, "null-baseline")
    null_ts_all, structured_band, null_band = [], [], []
    null_mc = []
    for rho in SWEEP_LEVELS:
        for _ in range(NULL_TRIALS):
            piece = null_stream(rho, rng)
            pitches = piece.pitches()
            ts = pitch_class_concentration(pitches)
            null_ts_all.append(ts)
            if rho <= 20:
                null_band.append(ts)
            if len(pitches) >= 4:
                half = len(pitches) // 2
                null_mc.append(melodic_coherence(pitches[:half], pitches[half:2 * half]))
        if rho <= 20:
            structured_band.extend(sweep_concentration(rho, rng, NULL_TRIALS))
    report.add("null_ts_max", float(np.max(null_ts_all)), "null.ts_max")
    test = t_test_with_d(np.array(structured_band), np.array(null_band))
    # one-sided: the structured condition concentrates more than the null
    p_one_sided = test.p_value / 2 if test.statistic > 0 else 1 - test.p_value / 2
    report.add("band_test_p", float(p_one_sided), "null.band_test_p")
    report.add("null_mc_mean", float(np.mean(null_mc)), "null.mc_profile")


def distribution_independence(report, seed: int, full_scale: bool) -> None:
    """The coherence drop holds for exponential, uniform, Gaussian and constant
    IOI laws with matched means."""
    rng = derive_rng(seed, "distribution-independence")
    for law in ("exponential", "uniform", "gaussian", "constant"):
        mc10 = sweep_contour_coherence(10, law, rng, INDEPENDENCE_TRIALS)
        mc30 = sweep_contour_coherence(30, law, rng, INDEPENDENCE_TRIALS)
        report.add(f"mc_at_10_{law}", mc10, "independence.mc_at_10")
        report.add(f"mc_at_30_{law}", mc30, "independence.mc_at_30")
        report.add(f"drop_{law}", mc10 - mc30, "independence.drop")
