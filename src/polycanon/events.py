"""Core event datatypes shared by the generation, hardware, metric and I/O layers."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

# Earliest legal onset: pre-compensation can pull an event at t=0 up to 30 ms early.
MIN_ONSET = -0.030
PITCH_MAX = 127
VELOCITY_MAX = 1023
KEY_RESET_WINDOW = 0.050  # seconds; electromechanical per-key reset time
KEYBOARD = range(21, 109)  # the 88 keys of a piano, A0..C8


def row_order(primary, *keys) -> np.ndarray:
    """The permutation that sorts rows by ``primary``, then by each of ``keys``.

    Equal to ``np.lexsort((*reversed(keys), primary))``: full ties keep their
    input order, and -0.0 sorts equal to 0.0. Notes rarely tie on the
    primary key (the onset or tick), so the rows are put in order by a
    stable sort of ``primary`` alone, and only the rows in runs of equal
    primary values are sorted again, by ``primary`` and then by ``keys``.
    """
    order = np.argsort(primary, kind="stable")
    sorted_primary = primary[order]
    tie = sorted_primary[1:] == sorted_primary[:-1]
    if not tie.any():
        return order
    tied = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
    rows = order[tied]
    # the runs' rows are contiguous and the runs keep their order, so the
    # re-sorted rows go back into the same slots
    order[tied] = rows[np.lexsort((*(k[rows] for k in reversed(keys)), sorted_primary[tied]))]
    return order


def key_reset_kept(onsets, pitches, window: float = KEY_RESET_WINDOW) -> np.ndarray:
    """Indices of the notes that survive the per-key reset mask.

    Notes are scanned in the given order, and one is dropped when it lands
    within ``window`` of the previous surviving note on the same key, so the
    per-key IOI floor holds on the output. The comparison carries a
    nanosecond tolerance: notes intended exactly at the reset limit are
    legal and must not be masked by float dust.

    Preconditions: the pitches lie in 0..``PITCH_MAX``, and the onsets do
    not decrease along each key in scan order, as in the columns of a
    :class:`Piece`; any other input raises ``ValueError``. Then a note at
    least ``window`` after the previous note on its key is also that far
    from the last kept one and is kept outright, and only the chains of
    shorter gaps are scanned note by note. The keys are sorted as ``uint8``,
    which numpy sorts stably by radix.
    """
    limit = window - 1e-9
    onsets, pitches = np.asarray(onsets), np.asarray(pitches)
    if len(pitches) and not 0 <= pitches.min() <= pitches.max() <= PITCH_MAX:
        raise ValueError(f"pitches outside [0, {PITCH_MAX}]")
    by_key = np.argsort(pitches.astype(np.uint8), kind="stable")
    key, t = pitches[by_key], onsets[by_key]
    same_key = key[1:] == key[:-1]
    gap = t[1:] - t[:-1]
    if np.any(same_key & (gap < 0)):
        raise ValueError("onsets decrease along a key in scan order")
    # positions (in key order) of the notes that follow their key's previous
    # note by less than the limit (or by NaN, which the test below drops);
    # each run of them follows a note that is kept outright
    short = np.flatnonzero(same_key & ~(gap >= limit)) + 1
    kept = np.ones(len(t), dtype=bool)
    last = previous = None
    for s, ts, before in zip(short.tolist(), t[short].tolist(), t[short - 1].tolist()):
        if s - 1 != previous:  # the first of a run: the note before it is kept
            last = before
        if ts - last >= limit:
            last = ts
        else:
            kept[s] = False
        previous = s
    mask = np.empty_like(kept)
    mask[by_key] = kept
    return np.flatnonzero(mask)


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


# the NoteEvent fields in constructor order, with each column's dtype
COLUMNS = {"onset": np.float64, "pitch": np.int64, "velocity": np.int64,
           "duration": np.float64, "voice": np.int64, "symbol": object,
           "generation": np.int64, "section": np.int64}
_fields = attrgetter(*COLUMNS)


class RowError(ValueError):
    """A row :meth:`Piece.from_columns` rejects; ``row`` is its index as given."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class Piece:
    """An onset-sorted table of notes with section provenance and run metadata.

    The notes are stored as eight numpy columns of equal length, named as
    the :class:`NoteEvent` fields: ``onset`` and ``duration`` (float64
    seconds), ``pitch``, ``velocity``, ``voice``, ``generation`` and
    ``section`` (int64) and ``symbol`` (an object array of str). The columns
    are read-only: :meth:`column`, :meth:`onsets`, :meth:`pitches`,
    :meth:`velocities` and :meth:`durations` return them without copying,
    and writing to one raises. Rows are in (onset, voice, pitch, velocity)
    order, and full ties keep their input order: :func:`row_order` sorts
    by onset and re-sorts only the rows that share an onset.

    ``events`` is the iteration view, an :class:`EventView` of every row,
    made on first access and cached; :meth:`voice_events` and
    :meth:`section_events` return views of one voice's or section's rows.
    A view is lazy: it builds its :class:`NoteEvent`s on the first index or
    iteration. It is unhashable, and equal to a tuple or list of its events.
    ``text`` is the writers' view, each column as the strings the JSON and
    CSV writers print, cached like ``events``; neither view is serialised or
    compared. Build pieces with :meth:`from_columns` or :meth:`from_events`;
    two pieces are equal when their events, sections and metadata are. The
    metrics take a ``Piece`` or one of its event views and read it through
    :meth:`column`, so they build no ``NoteEvent``; a list of ``NoteEvent``
    goes to them through :meth:`from_events`.
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

        One pass over the columns checks each row against the :class:`NoteEvent`
        bounds and its int fields against int64. The first bad row in the order
        given raises :class:`RowError` with its index and its ``NoteEvent``'s
        message, or else that of ``np.int64`` on its int fields.
        """
        given = (onset, pitch, velocity, duration, voice, symbol, generation, section)
        # int columns keep numpy's inferred dtype until the rows pass, as a cast would truncate
        # a fraction or wrap a huge or NaN value (NaN fails each test: upper bounds are ~(x <= max))
        cols = {name: np.asarray(value, dtype=None if dtype is np.int64 else dtype)
                for (name, dtype), value in zip(COLUMNS.items(), given)}
        n = len(cols["onset"])
        for name, col in cols.items():
            if col.ndim == 0:
                cols[name] = np.broadcast_to(col, (n,))
            elif col.shape != (n,):
                raise ValueError(f"column {name!r} has shape {col.shape}, expected ({n},)")
        t, p, v, d = cols["onset"], cols["pitch"], cols["velocity"], cols["duration"]
        bad = ((p < 0) | ~(p <= PITCH_MAX) | (v < 0) | ~(v <= VELOCITY_MAX)
               | ~np.isfinite(d) | (d <= 0) | ~np.isfinite(t) | (t < MIN_ONSET - 1e-9))
        for col in (p, v):
            if col.dtype.kind == "f":
                bad |= np.trunc(col) != col
        # a dtype that does not cast safely to int64 is range-checked on the values as given, a
        # list's as objects: numpy infers float64 for [0, 2**63 - 1, 2**63], rounding 2**63 - 1 up
        wide = [np.broadcast_to(x if isinstance(x, np.ndarray) else np.array(x, dtype=object), (n,))
                for (name, dtype), x in zip(COLUMNS.items(), given)
                if dtype is np.int64 and not np.can_cast(cols[name].dtype, np.int64)]
        with np.errstate(invalid="ignore"):  # a NaN among objects is out of range
            for col in wide:
                bad |= ~((col >= -2**63) & (col < 2**63))
        if bad.any():
            i = int(np.argmax(bad))
            try:
                NoteEvent(t.item(i), p.item(i), v.item(i), d.item(i))
                for col in wide:
                    np.int64(col.item(i))
            except (ValueError, OverflowError) as err:
                raise RowError(str(err), i) from err
        for name, dtype in COLUMNS.items():
            cols[name] = cols[name].astype(dtype, copy=False)
        order = row_order(t, cols["voice"], p, v)
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

    def with_columns(self, rows=None, **columns) -> "Piece":
        """Same sections/metadata; the named columns replaced by full-length
        arrays, then only ``rows`` (indices or a mask) kept, re-checked and
        re-sorted."""
        cols = {**self._columns, **columns}
        if rows is not None:
            cols = {name: np.asarray(col)[rows] for name, col in cols.items()}
        return Piece.from_columns(**cols, sections=self.sections, metadata=dict(self.metadata))

    @cached_property
    def events(self) -> EventView:
        return EventView(self._columns)

    @cached_property
    def text(self) -> dict[str, list[str]]:
        """Each column's values as the text the JSON and CSV writers print,
        keyed by column name, built on first access and cached like ``events``:
        ``float.__repr__`` for onset and duration, ``int.__repr__`` for the
        int64 columns and the symbols as they are."""
        text = {}
        for name, col in self._columns.items():
            if col.dtype.kind == "f":
                # floats never go through np.unique: it merges -0.0 with 0.0
                text[name] = list(map(float.__repr__, col.tolist()))
            elif col.dtype.kind == "i":
                # an int column has few distinct values: each is formatted once
                values, inverse = np.unique(col, return_inverse=True)
                reprs = np.array(list(map(int.__repr__, values.tolist())), dtype=object)
                text[name] = reprs[inverse].tolist()
            else:
                text[name] = col.tolist()
        return text

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

    def voice_events(self, voice: int) -> EventView:
        return EventView(self._columns, np.flatnonzero(self._columns["voice"] == voice))

    def section_events(self, index: int) -> EventView:
        return EventView(self._columns, np.flatnonzero(self._columns["section"] == index))

    def duration_span(self) -> float:
        if self.sections:
            return self.sections[-1][2]
        if not len(self):
            return 0.0
        return float(np.max(self.onsets() + self.durations()))


class EventView(Sequence):
    """A read-only sequence of :class:`NoteEvent` over a piece's columns:
    every row, or the rows an index array names, in that order. The piece
    makes every view with rising row indices, so a view keeps the piece's
    row order and its onsets never decrease; the metrics and ``analyze``
    rely on this instead of sorting the onsets again.

    The view holds the column dict, never the :class:`Piece`, so a piece
    and its cached view form no reference cycle. ``len`` and :meth:`column`
    read the columns; the ``NoteEvent``s are built only on the first index
    or iteration, and cached. The metrics read a view as they read a piece,
    through :meth:`column`. A view equals a tuple, a list or a view of the
    same events, and like a list it is unhashable.
    """

    __slots__ = ("_columns", "_rows", "_events")
    __hash__ = None

    def __init__(self, columns: dict[str, np.ndarray], rows: np.ndarray | None = None):
        self._columns = columns
        self._rows = rows
        self._events = None

    def column(self, name: str) -> np.ndarray:
        """The ``name`` column of the view's rows; all rows read the piece's
        column without copying."""
        col = self._columns[name]
        return col if self._rows is None else col[self._rows]

    def __len__(self):
        return len(self._columns["onset"] if self._rows is None else self._rows)

    def _built(self) -> tuple[NoteEvent, ...]:
        if self._events is None:
            self._events = tuple(map(NoteEvent, *(self.column(name).tolist()
                                                  for name in COLUMNS)))
        return self._events

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if isinstance(other, EventView):
            other = other._built()
        elif isinstance(other, list):
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return self._built() == other

    def __repr__(self):
        return f"EventView({list(self)!r})"
