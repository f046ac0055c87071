"""Event generation: grammar-driven sections, tempo-scaled stochastic voices,
per-key collision masking, convergence-triggered regime switches, and the
beyond-human demonstration textures.
"""

from __future__ import annotations

import numpy as np

from .canon import ConvergenceQuery, VoiceSpec, find_convergences, voice_times_until
from .events import KEY_RESET_WINDOW, NoteEvent, Piece, PITCH_MAX, VELOCITY_MAX, key_reset_kept
from .grammar import SymbolString
from .mapping import MappingTable, ParameterConfig, resolve
from .stochastic import (
    ConfigError,
    Constant,
    Distribution,
    InhomogeneousPoisson,
    MIN_IOI,
    WrongVariantError,
    sample_ioi_stream,
)

MAX_EVENTS_PER_SECTION = 1_000_000


class InfeasibleError(ValueError):
    """A requested texture violates a hardware constraint; names the constraint."""


def _clamp_round(value: float, hi: int) -> int:
    return int(min(max(round(value), 0), hi))


def _clamp_round_many(values: np.ndarray, hi: int) -> np.ndarray:
    """Vector form of :func:`_clamp_round`; both round half to even."""
    return np.rint(values).clip(0, hi).astype(int)


def _voice_onsets(ioi: Distribution, ratio: float, t_start: float, t_end: float,
                  rng, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Onsets and durations of one voice in one section.

    Each event lasts ``tau = max(draw / ratio, MIN_IOI)`` and the next one
    starts when it ends; events start only before ``t_end - 1e-12``, and the
    interval that would start past it is discarded. IOIs are drawn in blocks
    sized from the law's mean and the time left, at most
    ``MAX_EVENTS_PER_SECTION`` in all. A constant law draws nothing.
    """
    if isinstance(ioi, InhomogeneousPoisson):
        raise WrongVariantError(
            "inhomogeneous Poisson samples event times; use sample_ioi_stream")
    if isinstance(ioi, Constant) and ioi.value <= 0:
        raise ConfigError(f"{where}: constant IOI {ioi.value} would never advance the section")
    mean_tau = max(ioi.mean() / ratio, MIN_IOI)
    t, drawn = t_start, 0
    onsets, taus = [np.empty(0)], [np.empty(0)]
    while t < t_end - 1e-12:
        if drawn == MAX_EVENTS_PER_SECTION:
            raise ConfigError(
                f"{where} exceeded {MAX_EVENTS_PER_SECTION} events; "
                "IOI distribution too dense or degenerate")
        # the mean count left plus about four exponential-count standard
        # deviations, so one block usually reaches the end
        expected = (t_end - t) / mean_tau
        block = min(int(expected + 4.0 * np.sqrt(expected)) + 8,
                    MAX_EVENTS_PER_SECTION - drawn)
        tau = np.maximum(ioi.sample(rng, block) / ratio, MIN_IOI)
        # a sequential cumsum from the current onset: the same float additions
        # as advancing one event at a time
        ends = np.cumsum(np.concatenate(([t], tau)))
        onsets.append(ends[:-1])
        taus.append(tau)
        t = ends[-1]
        drawn += block
    onsets, taus = np.concatenate(onsets), np.concatenate(taus)
    n = int(np.searchsorted(onsets, t_end - 1e-12))
    return onsets[:n], taus[:n]


def generate(symbols: SymbolString, table: MappingTable, rng,
             seed: int | None = None) -> Piece:
    """Render a symbol string into an onset-sorted event list.

    For every symbol, each voice advances from the section start by
    tempo-scaled IOI draws until the section duration elapses (see
    :func:`_voice_onsets`); velocity is clamped to the 10-bit range. A
    voice's in-flight interval that would cross the section boundary is
    discarded, keeping sections statistically independent. Latency
    pre-adjustment is deliberately left to the hardware layer.

    Draw order, per section and then per voice: the IOIs in blocks, then
    every pitch of the voice in one call, then every velocity in one call.
    """
    blocks: list[tuple[np.ndarray, ...]] = []  # one per (section, voice), in NoteEvent field order
    sections: list[tuple[str, float, float]] = []
    t_cur = 0.0
    for index, (symbol, generation) in enumerate(symbols.symbols):
        cfg = resolve(table, symbol, generation)
        t_end = t_cur + cfg.duration
        for voice, ratio in enumerate(cfg.ratios):
            onsets, taus = _voice_onsets(cfg.ioi, ratio, t_cur, t_end, rng,
                                         f"section {index} ({symbol!r})")
            n = len(onsets)
            pitches = _clamp_round_many(cfg.pitch_for_voice(voice).sample(rng, n), PITCH_MAX)
            velocities = _clamp_round_many(cfg.velocity.sample(rng, n), VELOCITY_MAX)
            blocks.append((onsets, pitches, velocities, taus, np.full(n, voice),
                           np.full(n, symbol, dtype=object), np.full(n, generation),
                           np.full(n, index)))
        sections.append((symbol, t_cur, t_end))
        t_cur = t_end
    metadata = {"total_duration": t_cur}
    if seed is not None:
        metadata["seed"] = seed
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [()] * 8
    return Piece.from_columns(*columns, sections=sections, metadata=metadata)


def apply_collision_mask(piece: Piece, window: float = KEY_RESET_WINDOW) -> Piece:
    """Drop any event landing within the reset window of the previous surviving
    event on the same key (see :func:`events.key_reset_kept`)."""
    return piece.with_columns(rows=key_reset_kept(piece.onsets(), piece.pitches(), window))


# ---------------------------------------------------------------------------
# Convergence-triggered generation
# ---------------------------------------------------------------------------


def _render_fixed_onsets(onsets, voice: int, cfg_for, rng, section_of) -> list[NoteEvent]:
    """Events at predetermined onsets, with pitch/velocity from the active config."""
    out = []
    for t in onsets:
        cfg = cfg_for(t)
        pitch = _clamp_round(cfg.pitch_for_voice(0).sample(rng), PITCH_MAX)
        velocity = _clamp_round(cfg.velocity.sample(rng), VELOCITY_MAX)
        ioi = cfg.ioi.mean() if hasattr(cfg.ioi, "mean") else 0.1
        out.append(NoteEvent(float(t), pitch, velocity, max(ioi, MIN_IOI), voice,
                             section_of(t)[0], 0, section_of(t)[1]))
    return out


def generate_cp_discrete(canon_voices: tuple[VoiceSpec, VoiceSpec],
                         pre: ParameterConfig, post: ParameterConfig,
                         query: ConvergenceQuery, rng, switch_at: float | None = None) -> Piece:
    """Two canon voices plus one stochastic voice; the stochastic regime and the
    pitch/velocity laws switch at a convergence point.

    ``switch_at`` selects the convergence nearest that time (default: the one
    closest to mid-horizon). If the query finds no convergence the piece is
    generated without a switch and metadata records ``cp_time = None``.
    """
    horizon = query.horizon
    conv = find_convergences(query)
    cp_time = None
    if conv:
        target = switch_at if switch_at is not None else horizon / 2.0
        interior = [c for c in conv if 0.0 < c.time < horizon] or conv
        cp_time = min(interior, key=lambda c: abs(c.time - target)).time

    def active(t):
        return pre if (cp_time is None or t < cp_time) else post

    def section_of(t):
        if cp_time is None or t < cp_time:
            return ("pre", 0)
        return ("post", 1)

    events: list[NoteEvent] = []
    for vid, vs in enumerate(canon_voices):
        onsets = voice_times_until(vs, horizon - 1e-9)
        events.extend(_render_fixed_onsets(onsets, vid, active, rng, section_of))

    # stochastic voice: homogeneous segments on either side of the switch
    segments = [(0.0, horizon, pre)] if cp_time is None else [
        (0.0, cp_time, pre), (cp_time, horizon, post)]
    for seg_start, seg_end, cfg in segments:
        onsets = sample_ioi_stream(cfg.ioi, seg_end - seg_start, rng) + seg_start
        events.extend(
            _render_fixed_onsets(onsets, len(canon_voices), active, rng, section_of))

    sections = ((("pre", 0.0, horizon),) if cp_time is None
                else (("pre", 0.0, cp_time), ("post", cp_time, horizon)))
    return Piece.from_events(events, sections, {"cp_time": cp_time})


def generate_cp_continuous(canon_voices: tuple[VoiceSpec, VoiceSpec],
                           rate_fn, rate_max: float, horizon: float,
                           cfg: ParameterConfig, rng) -> Piece:
    """Canon voices plus an inhomogeneous Poisson voice thinned against rate_max."""
    events: list[NoteEvent] = []

    def active(t):
        return cfg

    def section_of(t):
        return ("modulated", 0)

    for vid, vs in enumerate(canon_voices):
        onsets = voice_times_until(vs, horizon - 1e-9)
        events.extend(_render_fixed_onsets(onsets, vid, active, rng, section_of))
    poisson = InhomogeneousPoisson(rate_fn, rate_max)
    onsets = sample_ioi_stream(poisson, horizon, rng)
    events.extend(_render_fixed_onsets(onsets, len(canon_voices), active, rng, section_of))
    return Piece.from_events(events, (("modulated", 0.0, horizon),), {})


# ---------------------------------------------------------------------------
# Beyond-human textures (exact, deterministic event grids)
# ---------------------------------------------------------------------------

MAX_SINGLE_KEY_RATE = 1.0 / KEY_RESET_WINDOW  # 20 Hz


def generate_beyond_human(kind: str, **cfg) -> Piece:
    """Deterministic showcase textures, exact at the event level.

    kinds:
      polyphony -- chords of `chord_size` distinct pitches every `period` s
      trill     -- `rate_hz` alternation across `keys`; per-key rate must stay
                   within the key reset limit
      arpeggio  -- `span` consecutive semitones upward at `ioi` s
    """
    if kind == "polyphony":
        chord_size = int(cfg.get("chord_size", 40))
        period = float(cfg.get("period", 0.5))
        n_chords = int(cfg.get("n_chords", 8))
        velocity = int(cfg.get("velocity", 800))
        if chord_size > 88:
            raise InfeasibleError("polyphony: chord size exceeds the 88-key limit")
        if period < KEY_RESET_WINDOW:
            raise InfeasibleError("polyphony: chord period violates the per-key reset time")
        pitches = np.linspace(21, 108, chord_size).round().astype(int)
        if len(set(pitches.tolist())) < chord_size:
            raise InfeasibleError("polyphony: cannot place that many distinct pitches")
        events = [NoteEvent(k * period, int(p), velocity, period * 0.9, 0, "P", 0, 0)
                  for k in range(n_chords) for p in pitches]
        total = n_chords * period
    elif kind == "trill":
        rate_hz = float(cfg.get("rate_hz", 30.0))
        keys = tuple(cfg.get("keys", (60, 62)))
        duration = float(cfg.get("duration", 4.0))
        velocity = int(cfg.get("velocity", 800))
        per_key = rate_hz / len(keys)
        if per_key > MAX_SINGLE_KEY_RATE + 1e-9:
            raise InfeasibleError(
                f"trill: per-key rate {per_key:.1f} Hz exceeds the "
                f"{MAX_SINGLE_KEY_RATE:.0f} Hz key reset limit; add alternating keys")
        step = 1.0 / rate_hz
        n = int(round(duration * rate_hz))
        events = [NoteEvent(k * step, keys[k % len(keys)], velocity, step * 0.9, 0, "T", 0, 0)
                  for k in range(n)]
        total = duration
    elif kind == "arpeggio":
        span = int(cfg.get("span", 72))
        ioi = float(cfg.get("ioi", 0.025))
        start = int(cfg.get("start", 24))
        velocity = int(cfg.get("velocity", 800))
        if start + span - 1 > PITCH_MAX:
            raise InfeasibleError("arpeggio: span leaves the 88-key range")
        events = [NoteEvent(k * ioi, start + k, velocity, ioi, 0, "R", 0, 0)
                  for k in range(span)]
        total = span * ioi
    else:
        raise ValueError(f"unknown beyond-human kind {kind!r}")
    return Piece.from_events(events, ((kind, 0.0, total),), {"kind": kind})
