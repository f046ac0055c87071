"""Shared condition generators and helpers for the experiment harness."""

from __future__ import annotations

import numpy as np

from ..events import PITCH_MAX, Piece
from ..grammar import expand
from ..metrics import melodic_coherence, pitch_class_concentration
from ..pipeline import apply_collision_mask, generate
from ..presets import canonical_table, fibonacci_grammar
from ..stochastic import Constant, Exponential, Gaussian, Uniform, derive_rng


def canonical_piece(seed: int) -> Piece:
    """The standard two-symbol render at depth 4 used by several experiments."""
    symbols = expand(fibonacci_grammar(), 4)
    return generate(symbols, canonical_table(), derive_rng(seed, "canonical-render"), seed=seed)


def section_streams(piece: Piece):
    """Per-section (symbol, pitches, iois, velocities, length) over the merged
    voices, where length is the section's ``hi - lo``."""
    out = []
    for index, (symbol, lo, hi) in enumerate(piece.sections):
        rows = piece.column("section") == index
        iois = np.diff(piece.onsets()[rows])
        out.append((symbol, piece.pitches()[rows], iois, piece.velocities()[rows], hi - lo))
    return out


def discrete_cdf(values: np.ndarray, probs: np.ndarray):
    """Right-continuous CDF callable for a discrete law."""
    cum = np.cumsum(probs)

    def cdf(x):
        idx = np.searchsorted(values, np.asarray(x, dtype=float), side="right")
        return np.where(idx == 0, 0.0, cum[np.clip(idx - 1, 0, len(cum) - 1)])

    return cdf


# ---------------------------------------------------------------------------
# Density-sweep condition family
# ---------------------------------------------------------------------------
#
# Two interleaved voices track a slowly drifting register guide (triangle wave)
# while a density-dependent random walk perturbs each event's pitch; pitches
# snap to a fixed nine-class scale and the per-key reset mask is applied.
# The walk amplitude grows quadratically with aggregate density, so individual
# events carry less of the guide's melodic information as density rises.

SWEEP_SCALE = (0, 2, 3, 4, 5, 7, 9, 10, 11)
_ALLOWED = np.array([p for p in range(128) if p % 12 in SWEEP_SCALE])
SWEEP_LEVELS = (10, 15, 20, 25, 28, 30, 40, 50, 60, 80, 100, 120, 150, 200)
SWEEP_REGISTER = (40, 88)  # the pitches the guide drifts between
SWEEP_EVENTS = 100  # events per voice of a contour stream
STREAM_DURATION = 10.0  # seconds of a register-sweep or null stream
WALK_REF_DENSITY = 23.0
WALK_SIGMA_MAX = 5.0

# guide drift (semitones/s): slow for the contour-fidelity probe, faster for
# the register-coverage (concentration) probe
DRIFT_CONTOUR = 1.0
DRIFT_REGISTER = 1.6


def _snap(ps: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(_ALLOWED, ps)
    idx = np.clip(idx, 1, len(_ALLOWED) - 1)
    lo, hi = _ALLOWED[idx - 1], _ALLOWED[idx]
    return np.where(np.abs(ps - lo) <= np.abs(ps - hi), lo, hi).astype(int)


def _reflect(x: np.ndarray, bound: float) -> np.ndarray:
    period = 4.0 * bound
    x = np.mod(x + bound, period)
    return np.where(x < 2 * bound, x, period - x) - bound


def walk_sigma(density: float) -> float:
    return min(3.0 * (density / WALK_REF_DENSITY) ** 2, WALK_SIGMA_MAX)


# A Gaussian IOI law's tail crosses zero, so the sweep floors its draws at
# 1 ms: the sweep's own floor (coarser than stochastic.MIN_IOI), with which
# its reference bands were measured. The other laws never draw a negative IOI
# and get a floor of 0.
GAUSSIAN_IOI_FLOOR = 1e-3


def _sweep_law(law: str, rate_v: float):
    """The IOI law named ``law`` at mean 1/rate_v, and the floor its draws get."""
    mean = 1.0 / rate_v
    laws = {"constant": (Constant(mean), 0.0),
            "exponential": (Exponential(rate_v), 0.0),
            "uniform": (Uniform(0.1 * mean, 1.9 * mean), 0.0),
            "gaussian": (Gaussian(mean, 0.25 * mean), GAUSSIAN_IOI_FLOOR)}
    if law not in laws:
        raise ValueError(f"unknown IOI law {law!r}")
    return laws[law]


def sweep_condition(density: float, law: str, rng, duration: float | None = None,
                    drift: float = DRIFT_CONTOUR):
    """One two-voice stream of the density-sweep family: SWEEP_EVENTS notes
    per voice, or as many as fall within ``duration`` seconds when it is given.

    Returns (per-voice list of (onsets, intended, realized), masked Piece).
    """
    rate_v = density / 2.0
    mean = 1.0 / rate_v
    ioi_law, floor = _sweep_law(law, rate_v)
    lo, hi = SWEEP_REGISTER
    span = hi - lo
    period = 2.0 * span / drift
    phase = rng.uniform(0, period)
    sigma = walk_sigma(density)
    bound = min(10.0 + density / 12.0, 26.0)
    voices, columns = [], []
    for v in (0, 1):
        count = int(rate_v * duration * 2) + 20 if duration else SWEEP_EVENTS
        iois = np.maximum(ioi_law.sample(rng, count), floor)
        onsets = np.concatenate([[0.0], np.cumsum(iois[:-1])])
        if v == 1:
            onsets = onsets + 0.5 * mean
        if duration:
            onsets = onsets[onsets < duration]
        x = (onsets + phase) % period
        guide = lo + span * np.where(x < period / 2, 2 * x / period, 2 - 2 * x / period)
        walk = _reflect(np.cumsum(rng.normal(0, sigma, len(onsets))), bound)
        intended = _snap(np.round(guide))
        realized = _snap(np.round(np.clip(guide + walk, 0, PITCH_MAX)))
        voices.append((onsets, intended, realized))
        velocities = rng.integers(300, 701, len(onsets))
        columns.append((onsets, realized, velocities, np.full(len(onsets), v)))
    onset, pitch, velocity, voice = (np.concatenate(c) for c in zip(*columns))
    piece = apply_collision_mask(Piece.from_columns(onset, pitch, velocity, 0.05, voice))
    return voices, piece


def sweep_contour_coherence(density: float, law: str, rng, trials: int) -> float:
    """Mean contour fidelity of the surviving stream against the intended line."""
    values = []
    for _ in range(trials):
        voices, piece = sweep_condition(density, law, rng)
        for v, (onsets, intended, realized) in enumerate(voices):
            survivors = piece.pitches()[piece.column("voice") == v]
            if len(survivors) >= 2:
                values.append(melodic_coherence(survivors, intended))
            else:
                values.append(0.0)
    return float(np.mean(values))


def sweep_concentration(density: float, rng, trials: int) -> list[float]:
    """Per-trial pitch-class concentration of register-sweep streams."""
    values = []
    for _ in range(trials):
        _, piece = sweep_condition(density, "exponential", rng, duration=STREAM_DURATION,
                                   drift=DRIFT_REGISTER)
        values.append(pitch_class_concentration(piece.pitches()))
    return values


def null_stream(density: float, rng) -> Piece:
    """Structureless baseline: uniform pitch and velocity, exponential IOIs."""
    onsets = np.cumsum(rng.exponential(1.0 / density, int(density * STREAM_DURATION * 2) + 20))
    onsets = onsets[onsets < STREAM_DURATION]
    # pitch then velocity per note, each the top 7 or 10 bits of one 32-bit
    # output: that is what rng.integers(0, 2**k) returns, since Lemire's
    # method never rejects for a power-of-two range, so the values and the
    # generator's final state are those of per-value scalar draws
    bits = rng.integers(0, 2**32, size=(len(onsets), 2), dtype=np.uint32)
    return Piece.from_columns(onsets, bits[:, 0] >> 25, bits[:, 1] >> 22, 0.05)


def window_counts(piece: Piece, horizon: float) -> np.ndarray:
    """Onsets in each half-open 1 s window [k, k + 1) up to ``horizon``."""
    edges = np.arange(int(round(horizon)) + 1)
    return np.diff(np.searchsorted(piece.onsets(), edges)).astype(float)
