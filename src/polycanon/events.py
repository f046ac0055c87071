"""Core event datatypes shared by the generation, hardware, metric and I/O layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

# Earliest legal onset: pre-compensation can pull an event at t=0 up to 30 ms early.
MIN_ONSET = -0.030
PITCH_MAX = 127
VELOCITY_MAX = 1023
KEY_RESET_WINDOW = 0.050  # seconds; electromechanical per-key reset time


def key_reset_kept(onsets, pitches, window: float = KEY_RESET_WINDOW) -> np.ndarray:
    """Indices of the notes that survive the per-key reset mask.

    Notes are scanned in the given (onset-sorted) order, and one is dropped
    when it lands within ``window`` of the previous surviving note on the
    same key, so the per-key IOI floor holds on the output. The comparison
    carries a nanosecond tolerance: notes intended exactly at the reset
    limit are legal and must not be masked by float dust.
    """
    limit = window - 1e-9
    last_kept: dict[int, float] = {}
    kept = []
    for i, (t, p) in enumerate(zip(np.asarray(onsets).tolist(), np.asarray(pitches).tolist())):
        prev = last_kept.get(p)
        if prev is None or t - prev >= limit:
            kept.append(i)
            last_kept[p] = t
    return np.array(kept, dtype=np.intp)


@dataclass(frozen=True, slots=True)
class NoteEvent:
    """A single scheduled note.

    onset/duration are in seconds (microsecond resolution is plenty for the
    target hardware's ~1 ms scan clock), velocity uses the extended 10-bit
    range 0..1023, and the provenance fields record which grammar symbol,
    recursion generation and section produced the event.
    """

    onset: float
    pitch: int
    velocity: int
    duration: float
    voice: int = 0
    symbol: str = ""
    generation: int = 0
    section: int = 0

    def __post_init__(self):
        if isinstance(self.pitch, float) and not self.pitch.is_integer():
            raise ValueError(f"pitch {self.pitch} is not an integer")
        if not 0 <= self.pitch <= PITCH_MAX:
            raise ValueError(f"pitch {self.pitch} outside [0, {PITCH_MAX}]")
        if isinstance(self.velocity, float) and not self.velocity.is_integer():
            raise ValueError(f"velocity {self.velocity} is not an integer")
        if not 0 <= self.velocity <= VELOCITY_MAX:
            raise ValueError(f"velocity {self.velocity} outside [0, {VELOCITY_MAX}]")
        if not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not math.isfinite(self.onset):
            raise ValueError(f"onset must be finite, got {self.onset}")
        if self.onset < MIN_ONSET - 1e-9:
            raise ValueError(f"onset {self.onset} below {MIN_ONSET}")


def _sort_key(e: NoteEvent):
    return (e.onset, e.voice, e.pitch, e.velocity)


# the NoteEvent fields in constructor order, with each column's dtype
COLUMNS = {"onset": np.float64, "pitch": np.int64, "velocity": np.int64,
           "duration": np.float64, "voice": np.int64, "symbol": object,
           "generation": np.int64, "section": np.int64}
_fields = attrgetter(*COLUMNS)
_SLOT_SETTERS = tuple(getattr(NoteEvent, name).__set__ for name in COLUMNS)


class Piece:
    """An onset-sorted table of notes with section provenance and run metadata.

    The notes are stored as eight numpy columns of equal length, named as
    the :class:`NoteEvent` fields: ``onset`` and ``duration`` (float64
    seconds), ``pitch``, ``velocity``, ``voice``, ``generation`` and
    ``section`` (int64) and ``symbol`` (an object array of str). The columns
    are read-only: :meth:`column`, :meth:`onsets`, :meth:`pitches`,
    :meth:`velocities` and :meth:`durations` return them without copying,
    and writing to one raises. Rows are in (onset, voice, pitch, velocity)
    order by a stable sort, so full ties keep their input order.

    ``events`` is the iteration view: a tuple of :class:`NoteEvent` built
    from the columns on first access and cached. Build pieces with
    :meth:`from_columns` or :meth:`from_events`; two pieces are equal when
    their events, sections and metadata are.
    """

    __hash__ = None

    def __init__(self, columns: dict[str, np.ndarray], sections, metadata: dict):
        self._columns = columns
        self.sections = tuple(sections)
        self.metadata = metadata

    @staticmethod
    def from_columns(onset, pitch, velocity, duration, voice=0, symbol="", generation=0,
                     section=0, sections=(), metadata=None) -> "Piece":
        """A piece from per-note columns; a scalar stands for a constant column.

        Every row is checked against the :class:`NoteEvent` bounds, and the
        first invalid row raises the ``ValueError`` its ``NoteEvent`` would.
        """
        pitch, velocity = np.asarray(pitch), np.asarray(velocity)
        given = (onset, pitch, velocity, duration, voice, symbol, generation, section)
        # the int64 cast would truncate a fractional pitch or velocity and wrap
        # a huge or non-finite one, so float-typed ones are checked before it
        # (integer columns skip this)
        for value in (pitch, velocity):
            if (value.dtype.kind == "f"
                    and not np.all((np.trunc(value) == value) & (np.abs(value) < 2.0**63))):
                for row in zip(*(np.broadcast_to(c, np.shape(onset)).tolist() for c in given)):
                    NoteEvent(*row)  # the first invalid row raises
        cols = {name: np.asarray(value, dtype=dtype)
                for (name, dtype), value in zip(COLUMNS.items(), given)}
        n = len(cols["onset"])
        for name, col in cols.items():
            if col.ndim == 0:
                cols[name] = np.broadcast_to(col, (n,))
            elif col.shape != (n,):
                raise ValueError(f"column {name!r} has shape {col.shape}, expected ({n},)")
        t, p, v, d = cols["onset"], cols["pitch"], cols["velocity"], cols["duration"]
        bad = ((p < 0) | (p > PITCH_MAX) | (v < 0) | (v > VELOCITY_MAX)
               | ~np.isfinite(d) | (d <= 0) | ~np.isfinite(t) | (t < MIN_ONSET - 1e-9))
        if bad.any():
            i = int(np.argmax(bad))
            NoteEvent(t[i].item(), p[i].item(), v[i].item(), d[i].item())  # raises
        order = np.lexsort((v, p, cols["voice"], t))
        for name, col in cols.items():
            col = col[order]
            col.flags.writeable = False
            cols[name] = col
        return Piece(cols, sections, dict(metadata or {}))

    @staticmethod
    def from_events(events: Iterable[NoteEvent], sections=(), metadata=None) -> "Piece":
        rows = [_fields(e) for e in events]
        cols = list(zip(*rows)) if rows else [()] * len(COLUMNS)
        return Piece.from_columns(*cols, sections=sections, metadata=metadata)

    def with_events(self, events: Iterable[NoteEvent]) -> "Piece":
        """Same sections/metadata, new (re-sorted) event list."""
        return Piece.from_events(events, self.sections, dict(self.metadata))

    def with_columns(self, rows=None, **columns) -> "Piece":
        """Same sections/metadata; the named columns replaced by full-length
        arrays, then only ``rows`` (indices or a mask) kept, re-checked and
        re-sorted."""
        cols = {**self._columns, **columns}
        if rows is not None:
            cols = {name: np.asarray(col)[rows] for name, col in cols.items()}
        return Piece.from_columns(**cols, sections=self.sections, metadata=dict(self.metadata))

    @cached_property
    def events(self) -> tuple[NoteEvent, ...]:
        # the rows passed the column checks, so each NoteEvent's slots are
        # filled directly, at about half the cost of __init__ and its checks
        set_t, set_p, set_v, set_d, set_vo, set_s, set_g, set_se = _SLOT_SETTERS
        new = object.__new__
        events = []
        for t, p, v, d, vo, s, g, se in zip(*(col.tolist() for col in self._columns.values())):
            e = new(NoteEvent)
            set_t(e, t)
            set_p(e, p)
            set_v(e, v)
            set_d(e, d)
            set_vo(e, vo)
            set_s(e, s)
            set_g(e, g)
            set_se(e, se)
            events.append(e)
        return tuple(events)

    def __len__(self):
        return len(self._columns["onset"])

    def __eq__(self, other):
        if not isinstance(other, Piece):
            return NotImplemented
        return (len(self) == len(other) and self.sections == other.sections
                and self.metadata == other.metadata
                and all(np.array_equal(self._columns[name], other._columns[name])
                        for name in COLUMNS))

    def __repr__(self):
        return f"Piece({len(self)} events, sections={self.sections!r}, metadata={self.metadata!r})"

    # -- array views ---------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def onsets(self) -> np.ndarray:
        return self._columns["onset"]

    def pitches(self) -> np.ndarray:
        return self._columns["pitch"]

    def velocities(self) -> np.ndarray:
        return self._columns["velocity"]

    def durations(self) -> np.ndarray:
        return self._columns["duration"]

    # -- selections ----------------------------------------------------------

    def voices(self) -> list[int]:
        return np.unique(self._columns["voice"]).tolist()

    def _rows(self, mask: np.ndarray) -> list[NoteEvent]:
        events = self.events
        return [events[i] for i in np.flatnonzero(mask).tolist()]

    def voice_events(self, voice: int) -> list[NoteEvent]:
        return self._rows(self._columns["voice"] == voice)

    def section_events(self, index: int) -> list[NoteEvent]:
        return self._rows(self._columns["section"] == index)

    def duration_span(self) -> float:
        if self.sections:
            return self.sections[-1][2]
        if not len(self):
            return 0.0
        return float(np.max(self.onsets() + self.durations()))


def voice_iois(events: Sequence[NoteEvent]) -> np.ndarray:
    """Inter-onset intervals of one voice's (time-ordered) events."""
    onsets = np.sort(np.array([e.onset for e in events], dtype=float))
    return np.diff(onsets)
