"""Cross-domain constraint engineering and weighted voice-separation analysis.

Four-voice conditions over a fixed duration: an unconstrained baseline, a
pitch-band condition, and a fully stratified condition with distinct pitch
offsets, velocity bands and a geometric ladder of event rates. The weighted
score analysis extracts per-domain weights from the range-normalised
Wasserstein components, validates them split-half, and checks the
density-driven transfer of temporal weight.
"""

from __future__ import annotations

import numpy as np

from ..events import Piece
from ..metrics import (
    estimate_weights,
    pcs_distance,
    pitch_class_concentration,
    voice_separation,
)
from ..pipeline import apply_collision_mask
from ..stats import correlation, kruskal_wallis
from ..stochastic import derive_rng

RATE_LADDER = (1.0, 1.4, 1.96, 2.744)
CONSTRAINT_TRIALS = 10  # streams per condition of the constraint study
CONSTRAINT_DURATION = 25.0  # seconds of each


def _four_voice_piece(condition: str, aggregate_rate: float, duration: float, rng,
                      mask: bool = False) -> Piece:
    """One 4-voice stream under a named constraint condition."""
    columns = []
    if condition == "stratified":
        rates = np.array(RATE_LADDER) * aggregate_rate / sum(RATE_LADDER)
    else:
        rates = np.full(4, aggregate_rate / 4.0)
    for v in range(4):
        onsets = np.cumsum(rng.exponential(1.0 / rates[v],
                                           int(rates[v] * duration * 2) + 20))
        onsets = onsets[onsets < duration]
        n = len(onsets)
        if condition == "baseline":
            pitches = rng.integers(30, 99, n)
            velocities = rng.integers(400, 601, n)
        elif condition == "pitch":
            lo = (24, 48, 72, 96)[v]
            pitches = rng.integers(lo, lo + 13, n)
            velocities = rng.integers(400, 601, n)
        elif condition == "stratified":
            lo = 42 + 2 * v
            pitches = rng.integers(lo, lo + 29, n)
            v_lo = (0, 270, 540, 810)[v]
            velocities = rng.integers(v_lo, v_lo + 201, n)
        else:
            raise ValueError(f"unknown condition {condition!r}")
        columns.append((onsets, pitches, velocities, np.full(n, v)))
    onset, pitch, velocity, voice = (np.concatenate(c) for c in zip(*columns))
    piece = Piece.from_columns(onset, pitch, velocity, 0.05, voice)
    return apply_collision_mask(piece) if mask else piece


def _pairwise_vss(piece: Piece) -> list[float]:
    voices = [piece.voice_events(v) for v in piece.voices()]
    values = []
    for i in range(len(voices)):
        for j in range(i + 1, len(voices)):
            vss, _, _ = voice_separation(voices[i], voices[j])
            values.append(vss)
    return values


def constraints(report, seed: int, full_scale: bool) -> None:
    rng = derive_rng(seed, "constraints")
    samples = {}
    ts_by_condition = {}
    for condition in ("baseline", "pitch", "stratified"):
        vss_vals, ts_vals = [], []
        for _ in range(CONSTRAINT_TRIALS):
            piece = _four_voice_piece(condition, 20.0, CONSTRAINT_DURATION, rng)
            vss_vals.extend(_pairwise_vss(piece))
            ts_vals.append(pitch_class_concentration(piece.pitches()))
        samples[condition] = np.array(vss_vals)
        ts_by_condition[condition] = float(np.mean(ts_vals))

    base = samples["baseline"].mean()
    strat = samples["stratified"].mean()
    report.add("vss_baseline", float(base), "constraints.vss_baseline")
    report.add("vss_stratified", float(strat), "constraints.vss_stratified")
    report.add("vss_ratio", float(strat / base), "constraints.vss_ratio")
    kw = kruskal_wallis([samples["baseline"], samples["pitch"], samples["stratified"]])
    report.add("kruskal_p", kw.p_value, "constraints.kruskal_p")
    report.add("ts_change_pitch_only_pct",
               100.0 * (ts_by_condition["pitch"] / ts_by_condition["baseline"] - 1.0),
               "constraints.ts_change_pitch_only")

    # harmonic-territory check independent of dynamics
    piece = _four_voice_piece("pitch", 20.0, CONSTRAINT_DURATION, rng)
    outer = [piece.voice_events(v) for v in (0, 3)]
    report.add("pcs_distance_outer_pair", pcs_distance(*outer),
               "constraints.pcs_distance")

    # explicit pitch-velocity coupling
    rng2 = derive_rng(seed, "coupling")
    pitches = rng2.integers(40, 106, 500)
    velocities = np.round(200 + 12.5 * (pitches - 40)).astype(int)
    r = correlation(pitches.astype(float), velocities.astype(float), "pearson")
    report.add("coupling_r", abs(r.statistic), "constraints.coupling_r")


def _stratified_voices(aggregate_rate: float, duration: float, rng):
    piece = _four_voice_piece("stratified", aggregate_rate, duration, rng, mask=True)
    return [piece.with_columns(rows=piece.column("voice") == v) for v in piece.voices()]


def wvss_weights(report, seed: int, full_scale: bool) -> None:
    """Weight extraction on the stratified high-density condition, split-half
    validation, and the low/high-density weight transfer."""
    rng = derive_rng(seed, "wvss")
    high = _stratified_voices(120.0, 17.0, rng)
    w_high = estimate_weights(high)
    report.add("weights_high_density",
               tuple(round(w, 4) for w in w_high.as_tuple()), "wvss.weights")
    report.add("velocity_weight", w_high.w_velocity, "wvss.velocity_weight")

    halves = []
    for parity in (0, 1):
        halves.append([voice.with_columns(rows=slice(parity, None, 2)) for voice in high])
    w_even = estimate_weights(halves[0])
    w_odd = estimate_weights(halves[1])
    deviation_pp = 100.0 * max(abs(a - b) for a, b in
                               zip(w_even.as_tuple(), w_odd.as_tuple()))
    r = float(np.corrcoef(w_even.as_tuple(), w_odd.as_tuple())[0, 1])
    report.add("split_half_deviation_pp", deviation_pp, "wvss.split_half.deviation_pp")
    report.add("split_half_correlation", r, "wvss.split_half.correlation")

    low = _stratified_voices(20.0, 50.0, rng)
    w_low = estimate_weights(low)
    report.add("temporal_weight_low_high",
               (round(w_low.w_temporal, 4), round(w_high.w_temporal, 4)),
               "wvss.weights")
    report.add("temporal_transfer", bool(w_low.w_temporal > w_high.w_temporal),
               "wvss.transfer.temporal_low_gt_high")
