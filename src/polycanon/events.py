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
        if problem := note_problem(*_fields(self)):
            raise ValueError(problem)


# The note columns in NoteEvent field order: each one's key in event files, its dtype, and
# the closed bounds of its values with the message for one beyond them. An int64 column
# holds integers (any int64 without bounds), a float64 one finite numbers, symbol a str.
# An onset may lie 1e-9 below the floor; 5e-324, the least positive float, bounds duration.
SCHEMA = {
    "onset": ("onset_s", np.float64, MIN_ONSET - 1e-9, math.inf, f"onset {{}} below {MIN_ONSET}"),
    "pitch": ("pitch", np.int64, 0, PITCH_MAX, f"pitch {{}} outside [0, {PITCH_MAX}]"),
    "velocity": ("velocity10", np.int64, 0, VELOCITY_MAX,
                 f"velocity {{}} outside [0, {VELOCITY_MAX}]"),
    "duration": ("duration_s", np.float64, 5e-324, math.inf, "duration must be positive, got {}"),
    "voice": ("voice", np.int64, None, None, None),
    "symbol": ("symbol", object, None, None, None),
    "generation": ("generation", np.int64, None, None, None),
    "section": ("section", np.int64, None, None, None),
}
COLUMNS = {name: rule[1] for name, rule in SCHEMA.items()}  # each column's dtype
_fields = attrgetter(*COLUMNS)
# what a symbol in a CSV event file cannot hold: the separator and str.splitlines' breaks
CSV_UNSAFE = ",\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_NUMBER = (int, float, np.number)


def csv_symbol_problem(symbols) -> str | None:
    """The message for the first of ``symbols`` that holds a character of
    :data:`CSV_UNSAFE`, or None."""
    for symbol in symbols:
        if any(char in CSV_UNSAFE for char in symbol):
            return f"symbol {symbol!r} cannot be written to a CSV event file"
    return None


def note_problem(*row) -> str | None:
    """The message for the first of ``row``'s values (the :class:`NoteEvent`
    fields in order) that breaks its rule in :data:`SCHEMA`, or None. An int
    column's bounds are checked before its fraction; a value beyond int64
    gets numpy's message."""
    for (name, (_, dtype, low, high, beyond)), x in zip(SCHEMA.items(), row):
        if dtype is object:
            if not isinstance(x, str):
                return f"{name} {x!r} is not a str"
        elif type(x) is bool or not isinstance(x, _NUMBER):
            return f"{name} {x!r} is not a number"
        elif dtype is np.float64 and not math.isfinite(x):
            return f"{name} must be finite, got {x}"
        elif low is not None and not low <= x <= high:
            return beyond.format(x)
        elif low is None and not -2**63 <= x < 2**63:  # NaN too
            try:
                np.int64(int(x))
            except (OverflowError, ValueError) as err:
                return str(err)
        elif dtype is np.int64 and x % 1:
            return f"{name} {x} is not an integer"
    return None


class RowError(ValueError):
    """A row :meth:`Piece.from_columns` rejects; ``row`` is its index as given."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class Piece:
    """An onset-sorted table of notes with section provenance and run metadata.

    The notes are stored as eight numpy columns of equal length, named,
    typed and bounded as :data:`SCHEMA` says (times in seconds). The columns
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

        The rows are judged by :data:`SCHEMA` a column at a time: an int64 array
        pays only a dtype check and its bounds, a float or object int column is
        also checked for fractions and the int64 range, and a number column of
        str or bool is rejected; the symbols' type is not checked. The first bad
        row in the order given raises :class:`RowError` with its index and the
        message :func:`note_problem` gives for its values as given.
        """
        given = (onset, pitch, velocity, duration, voice, symbol, generation, section)
        # number columns keep numpy's inferred dtype until the rows pass, as a cast would read a
        # str or bool as a number, truncate a fraction or wrap a huge or NaN value
        cols = {name: np.asarray(value, dtype=object if dtype is object else None)
                for (name, dtype), value in zip(COLUMNS.items(), given)}
        n = len(cols["onset"])
        for name, col in cols.items():
            if col.ndim == 0:
                cols[name] = np.broadcast_to(col, (n,))
            elif col.shape != (n,):
                raise ValueError(f"column {name!r} has shape {col.shape}, expected ({n},)")
        bad = np.zeros(n, dtype=bool)
        with np.errstate(invalid="ignore"):  # NaN fails each test: x % 1 != 0, ~(x >= low)
            for (name, (_, dtype, low, high, _)), value in zip(SCHEMA.items(), given):
                col = cols[name]
                if col.dtype.kind in "bUS" and dtype is not object:
                    bad[:] = True  # note_problem finds the first str or bool
                    break
                if dtype is np.float64:
                    col = cols[name] = col.astype(np.float64, copy=False)
                    bad |= ~np.isfinite(col)
                elif dtype is np.int64 and not np.can_cast(col.dtype, np.int64):
                    bad |= col % 1 != 0
                    # the int64 range on the values as given, a list's as objects: numpy
                    # infers float64 for [0, 2**63 - 1, 2**63], rounding 2**63 - 1 up
                    raw = value if isinstance(value, np.ndarray) else np.array(value, object)
                    bad |= ~((raw >= -2**63) & (raw < 2**63))
                if low is not None:
                    bad |= ~((col >= low) & (col <= high))
        if bad.any():
            raw = [np.broadcast_to(x if isinstance(x, np.ndarray) else np.array(x, object), (n,))
                   for x in given]
            for i in np.flatnonzero(bad).tolist():
                if problem := note_problem(*(col.item(i) for col in raw)):
                    raise RowError(problem, i)
        order = row_order(cols["onset"], cols["voice"], cols["pitch"], cols["velocity"])
        for name, dtype in COLUMNS.items():
            col = cols[name] = cols[name].astype(dtype, copy=False)[order]
            col.flags.writeable = False
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
