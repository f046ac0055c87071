"""Event generation: grammar-driven sections, tempo-scaled stochastic voices,
per-key collision masking, convergence-triggered regime switches, and the
beyond-human demonstration textures.
"""

from __future__ import annotations

import numpy as np

from .canon import ConvergenceQuery, VoiceSpec, find_convergences, voice_times_until
from .events import KEY_RESET_WINDOW, KEYBOARD, Piece, PITCH_MAX, VELOCITY_MAX, key_reset_kept
from .grammar import SymbolString
from .mapping import MappingTable, ParameterConfig, resolve
from .stochastic import MIN_IOI, config_keys, renewal_onsets, thinned_onsets


class InfeasibleError(ValueError):
    """A requested texture violates a hardware constraint; names the constraint."""


def _clamp_round_many(values: np.ndarray, hi: int) -> np.ndarray:
    """Round half to even, then clamp to [0, hi]."""
    return np.rint(values).clip(0, hi).astype(int)


def _note_block(cfg: ParameterConfig, pitch_voice: int, rng, onsets, durations, voice: int,
                symbol: str, generation: int, section: int) -> tuple[np.ndarray, ...]:
    """The notes at ``onsets`` as 8 columns in :data:`events.COLUMNS` order.

    Every pitch is drawn from ``cfg.pitch[pitch_voice]`` in one call, then
    every velocity in one call, each rounded and clamped.
    """
    n = len(onsets)
    pitches = _clamp_round_many(cfg.pitch[pitch_voice].sample(rng, n), PITCH_MAX)
    velocities = _clamp_round_many(cfg.velocity.sample(rng, n), VELOCITY_MAX)
    return (onsets, pitches, velocities, np.broadcast_to(durations, (n,)),
            np.full(n, voice), np.full(n, symbol, dtype=object), np.full(n, generation),
            np.full(n, section))


def _piece(blocks, sections, metadata: dict) -> Piece:
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [()] * 8
    return Piece.from_columns(*columns, sections=sections, metadata=metadata)


def generate(symbols: SymbolString, table: MappingTable, rng,
             seed: int | None = None) -> Piece:
    """Render a symbol string into an onset-sorted event list.

    For every symbol, each voice advances from the section start by
    tempo-scaled IOI draws until the section duration elapses (see
    :func:`stochastic.renewal_onsets`); velocity is clamped to the 10-bit
    range. A voice's in-flight interval that would cross the section boundary
    is discarded, keeping sections statistically independent. Latency
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
            onsets, taus = renewal_onsets(cfg.ioi, ratio, t_cur, t_end, rng,
                                          f"section {index} ({symbol!r})")
            blocks.append(_note_block(cfg, voice, rng, onsets, taus, voice, symbol, generation,
                                      index))
        sections.append((symbol, t_cur, t_end))
        t_cur = t_end
    metadata = {"total_duration": t_cur}
    if seed is not None:
        metadata["seed"] = seed
    return _piece(blocks, sections, metadata)


def apply_collision_mask(piece: Piece) -> Piece:
    """Drop any event landing within the reset window of the previous surviving
    event on the same key (see :func:`events.key_reset_kept`)."""
    return piece.with_columns(rows=key_reset_kept(piece.onsets(), piece.pitches()))


# ---------------------------------------------------------------------------
# Convergence-triggered generation
# ---------------------------------------------------------------------------


def _cp_piece(canon_voices, sections, configs, stochastic_onsets, rng, metadata: dict) -> Piece:
    """The canon voices at their own onsets, then one stochastic voice whose
    onsets in section k, from its start ``lo``, are
    ``stochastic_onsets(k, hi - lo) + lo``.

    Section k's config draws the pitches (as voice 0) and velocities of the
    notes in it; a note lasts the mean of that config's IOI law. Draw order:
    per canon voice, per section, its notes as one block; then per section
    the stochastic voice's onsets, then its notes.
    """
    ends = [hi for _, _, hi in sections]

    def notes(onsets, voice, k):
        cfg = configs[k]
        return _note_block(cfg, 0, rng, onsets, max(cfg.ioi.mean(), MIN_IOI), voice,
                           sections[k][0], 0, k)

    blocks = []
    for voice, vs in enumerate(canon_voices):
        onsets = voice_times_until(vs, ends[-1])
        # the part after the last section's end holds an onset at the horizon, if any
        for k, part in enumerate(np.split(onsets, np.searchsorted(onsets, ends))[:-1]):
            blocks.append(notes(part, voice, k))
    for k, (_, lo, hi) in enumerate(sections):
        blocks.append(notes(stochastic_onsets(k, hi - lo) + lo, len(canon_voices), k))
    return _piece(blocks, sections, metadata)


def generate_cp_discrete(canon_voices: tuple[VoiceSpec, VoiceSpec],
                         pre: ParameterConfig, post: ParameterConfig,
                         query: ConvergenceQuery, rng, switch_at: float | None = None) -> Piece:
    """Two canon voices plus one stochastic voice; the stochastic regime and the
    pitch/velocity laws switch at a convergence point.

    ``switch_at`` selects the convergence strictly inside (0, horizon) nearest
    that time (default: the one closest to mid-horizon). If the query finds
    none there the piece is generated without a switch and metadata records
    ``cp_time = None``.

    Draw order: per canon voice, the notes before the switch, then those
    after it, each as one block of pitches then velocities; then per segment
    of the stochastic voice its onsets (a renewal stream of the segment's IOI
    law from its start, :func:`stochastic.renewal_onsets`), then its notes.
    """
    horizon = query.horizon
    interior = [c for c in find_convergences(query) if 0.0 < c.time < horizon]
    cp_time = None
    if interior:
        target = switch_at if switch_at is not None else horizon / 2.0
        cp_time = min(interior, key=lambda c: abs(c.time - target)).time

    sections = ((("pre", 0.0, horizon),) if cp_time is None
                else (("pre", 0.0, cp_time), ("post", cp_time, horizon)))

    def stochastic_onsets(k, duration):
        return renewal_onsets((pre, post)[k].ioi, 1.0, 0.0, duration, rng,
                              f"{sections[k][0]} section")[0]

    return _cp_piece(canon_voices, sections, (pre, post), stochastic_onsets, rng,
                     {"cp_time": cp_time})


def generate_cp_continuous(canon_voices: tuple[VoiceSpec, VoiceSpec],
                           rate_fn, rate_max: float, horizon: float,
                           cfg: ParameterConfig, rng) -> Piece:
    """Canon voices plus an inhomogeneous Poisson voice of rate ``rate_fn``,
    thinned against ``rate_max`` (:func:`stochastic.thinned_onsets`).

    Draw order: per canon voice its notes as one block of pitches then
    velocities; then the thinned onsets, then their notes.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    return _cp_piece(canon_voices, (("modulated", 0.0, horizon),), (cfg,),
                     lambda k, duration: thinned_onsets(rate_fn, rate_max, duration, rng),
                     rng, {})


# ---------------------------------------------------------------------------
# Beyond-human textures (exact, deterministic event grids)
# ---------------------------------------------------------------------------

MAX_SINGLE_KEY_RATE = 1.0 / KEY_RESET_WINDOW  # 20 Hz

TEXTURE_DEFAULTS = {
    "polyphony": {"chord_size": 40, "period": 0.5, "n_chords": 8, "velocity": 800},
    "trill": {"rate_hz": 30.0, "keys": (60, 62), "duration": 4.0, "velocity": 800},
    "arpeggio": {"span": 72, "ioi": 0.025, "start": 24, "velocity": 800},
}


def generate_beyond_human(kind: str, **cfg) -> Piece:
    """Deterministic showcase textures, exact at the event level.

    kinds:
      polyphony -- chords of `chord_size` distinct pitches every `period` s
      trill     -- `rate_hz` alternation across `keys`; per-key rate must stay
                   within the key reset limit
      arpeggio  -- `span` consecutive semitones upward at `ioi` s, all on the
                   88 keys (`events.KEYBOARD`)

    An option the kind does not read raises ConfigError naming it.
    """
    if kind not in TEXTURE_DEFAULTS:
        raise ValueError(f"unknown beyond-human kind {kind!r}")
    config_keys(cfg, kind, optional=TEXTURE_DEFAULTS[kind])
    cfg = {**TEXTURE_DEFAULTS[kind], **cfg}
    if kind == "polyphony":
        chord_size, n_chords = int(cfg["chord_size"]), int(cfg["n_chords"])
        period = float(cfg["period"])
        if chord_size > len(KEYBOARD):
            raise InfeasibleError("polyphony: chord size exceeds the 88-key limit")
        if period < KEY_RESET_WINDOW:
            raise InfeasibleError("polyphony: chord period violates the per-key reset time")
        # the grid's step is at least one key, so the pitches are distinct
        pitches = np.linspace(KEYBOARD[0], KEYBOARD[-1], chord_size).round().astype(int)
        onset = np.repeat(np.arange(n_chords) * period, chord_size)
        pitch = np.tile(pitches, n_chords)
        hold, symbol, total = period * 0.9, "P", n_chords * period
    elif kind == "trill":
        rate_hz, keys, duration = float(cfg["rate_hz"]), tuple(cfg["keys"]), float(cfg["duration"])
        per_key = rate_hz / len(keys)
        if per_key > MAX_SINGLE_KEY_RATE + 1e-9:
            raise InfeasibleError(
                f"trill: per-key rate {per_key:.1f} Hz exceeds the "
                f"{MAX_SINGLE_KEY_RATE:.0f} Hz key reset limit; add alternating keys")
        step = 1.0 / rate_hz
        n = int(round(duration * rate_hz))
        onset, pitch = np.arange(n) * step, np.resize(keys, n)
        hold, symbol, total = step * 0.9, "T", duration
    else:
        span, ioi, start = int(cfg["span"]), float(cfg["ioi"]), int(cfg["start"])
        if start < KEYBOARD[0] or start + span - 1 > KEYBOARD[-1]:
            raise InfeasibleError("arpeggio: span leaves the 88-key range")
        onset, pitch = np.arange(span) * ioi, start + np.arange(span)
        hold, symbol, total = ioi, "R", span * ioi
    return Piece.from_columns(onset, pitch, int(cfg["velocity"]), hold, 0, symbol, 0, 0,
                              sections=((kind, 0.0, total),), metadata={"kind": kind})
