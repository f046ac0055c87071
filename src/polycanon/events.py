"""Core event datatypes shared by the generation, hardware, metric and I/O layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Earliest legal onset: pre-compensation can pull an event at t=0 up to 30 ms early.
MIN_ONSET = -0.030
PITCH_MAX = 127
VELOCITY_MAX = 1023
KEY_RESET_WINDOW = 0.050  # seconds; electromechanical per-key reset time


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
        if not 0 <= self.pitch <= PITCH_MAX:
            raise ValueError(f"pitch {self.pitch} outside [0, {PITCH_MAX}]")
        if not 0 <= self.velocity <= VELOCITY_MAX:
            raise ValueError(f"velocity {self.velocity} outside [0, {VELOCITY_MAX}]")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.onset < MIN_ONSET - 1e-9:
            raise ValueError(f"onset {self.onset} below {MIN_ONSET}")


def _sort_key(e: NoteEvent):
    return (e.onset, e.voice, e.pitch, e.velocity)


@dataclass(frozen=True)
class Piece:
    """An onset-sorted event list with section provenance and run metadata."""

    events: tuple[NoteEvent, ...]
    sections: tuple[tuple[str, float, float], ...] = ()
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def from_events(events: Iterable[NoteEvent], sections=(), metadata=None) -> "Piece":
        ordered = tuple(sorted(events, key=_sort_key))
        return Piece(ordered, tuple(sections), dict(metadata or {}))

    def __len__(self):
        return len(self.events)

    def with_events(self, events: Iterable[NoteEvent]) -> "Piece":
        """Same sections/metadata, new (re-sorted) event list."""
        return Piece.from_events(events, self.sections, dict(self.metadata))

    # -- array views ---------------------------------------------------------

    def onsets(self) -> np.ndarray:
        return np.array([e.onset for e in self.events], dtype=float)

    def pitches(self) -> np.ndarray:
        return np.array([e.pitch for e in self.events], dtype=int)

    def velocities(self) -> np.ndarray:
        return np.array([e.velocity for e in self.events], dtype=int)

    def durations(self) -> np.ndarray:
        return np.array([e.duration for e in self.events], dtype=float)

    # -- selections ----------------------------------------------------------

    def voices(self) -> list[int]:
        return sorted({e.voice for e in self.events})

    def voice_events(self, voice: int) -> list[NoteEvent]:
        return [e for e in self.events if e.voice == voice]

    def section_events(self, index: int) -> list[NoteEvent]:
        return [e for e in self.events if e.section == index]

    def duration_span(self) -> float:
        if self.sections:
            return self.sections[-1][2]
        if not self.events:
            return 0.0
        return max(e.onset + e.duration for e in self.events)


def voice_iois(events: Sequence[NoteEvent]) -> np.ndarray:
    """Inter-onset intervals of one voice's (time-ordered) events."""
    onsets = np.sort(np.array([e.onset for e in events], dtype=float))
    return np.diff(onsets)
