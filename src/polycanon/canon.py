"""Tempo-canon voice timelines and tolerance-based convergence detection.

A voice with ratio r, base interval tau_base and acceleration alpha places its
k-th event at  T(k) = start + sum_{j<k} (tau_base / r) * alpha**j ;  alpha = 1
is the constant-tempo case T(k) = start + k * tau_base / r. Two voices converge
wherever some event pair lands within a tolerance window epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VoiceSpec:
    ratio: float
    tau_base: float
    alpha: float = 1.0
    start: float = 0.0

    def __post_init__(self):
        if self.ratio <= 0:
            raise ValueError(f"ratio must be > 0, got {self.ratio}")
        if self.tau_base <= 0:
            raise ValueError(f"tau_base must be > 0, got {self.tau_base}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    @property
    def base_ioi(self) -> float:
        return self.tau_base / self.ratio


@dataclass(frozen=True)
class ConvergenceEvent:
    time: float
    index_i: int
    index_j: int
    residual: float


@dataclass(frozen=True)
class ConvergenceQuery:
    epsilon: float
    horizon: float
    voice_i: VoiceSpec
    voice_j: VoiceSpec

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")


def voice_time(v: VoiceSpec, k):
    """Onset of event k (k >= 0), or of each index in an integer array ``k``."""
    ks = np.atleast_1d(k)
    if np.any(ks < 0):
        raise ValueError(f"event index must be >= 0, got {k}")
    if v.alpha == 1.0:
        times = v.start + ks * v.base_ioi
    else:
        # geometric partial sum of the accelerating IOIs
        times = v.start + v.base_ioi * (1.0 - v.alpha**ks) / (1.0 - v.alpha)
    return times if np.ndim(k) else float(times[0])


def voice_times_until(v: VoiceSpec, horizon: float) -> np.ndarray:
    """All event onsets <= horizon, each equal to :func:`voice_time`.

    The event count comes from inverting the closed form. An accelerating
    voice (alpha < 1) whose onsets converge to ``start + base_ioi / (1 -
    alpha)`` at or before the horizon has infinitely many and raises
    ValueError.
    """
    span = (horizon - v.start) / v.base_ioi  # the horizon in first IOIs
    last = span  # the index of an onset at the horizon
    if v.alpha != 1.0 and span > 0:
        reach = 1.0 + span * (v.alpha - 1.0)  # alpha**k of an onset at the horizon
        if reach <= 0.0:
            raise ValueError(f"voice onsets converge at {v.start + v.base_ioi / (1 - v.alpha)}, "
                             f"before the horizon {horizon}")
        last = math.log(reach) / math.log(v.alpha)
    n = int(math.floor(last + 1e-9)) + 1
    if n > 10_000_000:
        raise ValueError("voice produces too many events before the horizon")
    return voice_time(v, np.arange(n))


def _candidate_pairs(q: ConvergenceQuery) -> list[ConvergenceEvent]:
    """All (n_i, n_j) with |T_i - T_j| < epsilon and min(T) <= horizon, time-sorted."""
    eps = q.epsilon
    ti = voice_times_until(q.voice_i, q.horizon + eps)
    tj = voice_times_until(q.voice_j, q.horizon + eps)
    # the voice-j onsets in [t - eps, t + eps) of each voice-i onset t
    lo = np.searchsorted(tj, ti - eps)
    counts = np.searchsorted(tj, ti + eps) - lo
    n = np.repeat(np.arange(len(ti)), counts)
    first = np.cumsum(counts) - counts  # the first pair of each voice-i onset
    m = lo[n] + np.arange(len(n)) - first[n]
    time = np.minimum(ti[n], tj[m])
    residual = np.abs(ti[n] - tj[m])
    keep = (residual < eps) & (time <= q.horizon)
    n, m, time, residual = n[keep], m[keep], time[keep], residual[keep]
    order = np.argsort(time, kind="stable")  # the pairs come in (n, m) order
    return [ConvergenceEvent(*row) for row in zip(time[order].tolist(), n[order].tolist(),
                                                  m[order].tolist(), residual[order].tolist())]


def find_convergences(q: ConvergenceQuery) -> list[ConvergenceEvent]:
    """Convergence events within the horizon, one per physical crossing.

    Runs of coincident pairs whose times chain within one epsilon window are
    collapsed to the pair with the smallest residual, so a single crossing is
    never multiply counted under a generous tolerance.
    """
    merged: list[ConvergenceEvent] = []
    run_best: ConvergenceEvent | None = None
    run_last_time = None
    for ev in _candidate_pairs(q):
        if run_best is None or ev.time - run_last_time >= q.epsilon:
            if run_best is not None:
                merged.append(run_best)
            run_best = ev
        elif ev.residual < run_best.residual:
            run_best = ev
        run_last_time = ev.time
    if run_best is not None:
        merged.append(run_best)
    return merged


def next_convergence_after(q: ConvergenceQuery, t: float) -> ConvergenceEvent | None:
    """Earliest convergence strictly after t, or None inside the horizon."""
    for ev in find_convergences(q):
        if ev.time > t:
            return ev
    return None
