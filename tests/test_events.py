import ast
import gc
import math
import re
import weakref
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycanon
from polycanon.events import (
    COLUMNS,
    KEY_RESET_WINDOW,
    NoteEvent,
    Piece,
    RowError,
    key_reset_kept,
    row_order,
)
from polycanon.fileio import read_events, write_events_csv

# few distinct values per field, so chords, same-key strikes and full ties are common
note_rows = st.lists(st.tuples(
    st.sampled_from([-0.03, -0.0, 0.0, 0.001, 0.0015, 0.02, 0.049, 0.05, 0.1, 1.0]),
    st.integers(58, 62), st.sampled_from([0, 500, 501, 1023]),
    st.sampled_from([0.05, 0.3]), st.integers(0, 2), st.sampled_from(["A", "B", 'q"', "é"]),
    st.integers(0, 2), st.integers(0, 2)), max_size=40)


def columns_of(rows):
    return list(zip(*rows)) or [()] * len(COLUMNS)


@settings(max_examples=60, deadline=None)
@given(note_rows)
def test_from_columns_order_is_the_stable_sort_key_order(rows):
    events = [NoteEvent(*row) for row in rows]
    piece = Piece.from_columns(*columns_of(rows))
    ordered = sorted(events, key=lambda e: (e.onset, e.voice, e.pitch, e.velocity))
    assert piece.events == tuple(ordered)
    # the fields beyond the sort key tell full ties apart
    assert [(e.duration, e.symbol, e.generation, e.section) for e in piece.events] == [
        (e.duration, e.symbol, e.generation, e.section) for e in ordered]
    assert piece == Piece.from_events(events)
    assert len(piece) == len(rows)
    assert set(piece.events) == set(events)  # the view's events hash as built ones do


@settings(max_examples=60, deadline=None)
@given(note_rows)
def test_selections_match_the_event_view(rows):
    piece = Piece.from_columns(*columns_of(rows))
    events = piece.events
    assert piece.voices() == sorted({e.voice for e in events})
    for v in range(3):
        assert piece.voice_events(v) == [e for e in events if e.voice == v]
        assert piece.section_events(v) == [e for e in events if e.section == v]
    expected = max((e.onset + e.duration for e in events), default=0.0)
    assert piece.duration_span() == expected
    assert piece.onsets().tolist() == [e.onset for e in events]
    assert piece.velocities().tolist() == [e.velocity for e in events]


@settings(max_examples=60, deadline=None)
@given(note_rows)
def test_a_view_column_holds_its_events_fields(rows):
    piece = Piece.from_columns(*columns_of(rows))
    views = [piece.events, *map(piece.voice_events, range(3)),
             *map(piece.section_events, range(3))]
    for view in views:
        events = list(view)
        assert len(view) == len(events)
        for name, dtype in COLUMNS.items():
            column = view.column(name)
            assert column.dtype == dtype
            assert column.tolist() == [getattr(e, name) for e in events]
    for name in COLUMNS:
        assert piece.events.column(name) is piece.column(name)


def test_an_event_view_is_an_unhashable_sequence_equal_to_its_events():
    piece = Piece.from_columns([0.2, 0.1, 0.3], [60, 61, 62], 500, 0.05, voice=[1, 0, 1])
    view = piece.events
    events = (NoteEvent(0.1, 61, 500, 0.05, 0), NoteEvent(0.2, 60, 500, 0.05, 1),
              NoteEvent(0.3, 62, 500, 0.05, 1))
    assert view == events and events == view
    assert view == list(events) and list(events) == view
    assert view != events[:2] and view != [] and view != "abc"
    assert view == Piece.from_events(events).events
    assert piece.voice_events(1) == [events[1], events[2]] and view[1:] == events[1:]
    assert piece.voice_events(0) != piece.voice_events(1)
    assert view[-1] == events[-1] and list(reversed(view)) == list(events[::-1])
    assert events[1] in view and view.index(events[2]) == 2
    assert isinstance(view, Sequence)
    with pytest.raises(TypeError, match="unhashable"):
        hash(view)
    with pytest.raises(TypeError, match="unhashable"):
        hash(piece.voice_events(0))


def test_a_read_piece_dies_with_its_last_reference_and_no_collection(tmp_path):
    # the cached view holds the columns, not the piece, so there is no cycle
    path = write_events_csv(Piece.from_columns([0.0, 0.1], [60, 61], 500, 0.05),
                            tmp_path / "p.csv")
    piece = read_events(path)
    assert list(piece.events) and piece.voice_events(0)
    ref = weakref.ref(piece)
    gc.disable()
    try:
        del piece
        assert ref() is None
    finally:
        gc.enable()


BAD_ROWS = [
    (0.0, -1, 500, 0.1), (0.0, 128, 500, 0.1), (0.0, 60, -1, 0.1), (0.0, 60, 1024, 0.1),
    (0.0, 60, 500, 0.0), (0.0, 60, 500, -0.5), (0.0, 60, 500, math.nan),
    (0.0, 60, 500, math.inf), (math.nan, 60, 500, 0.1), (math.inf, 60, 500, 0.1),
    (-math.inf, 60, 500, 0.1), (-0.031, 60, 500, 0.1), (math.nan, 60, 500, math.nan),
    (-1.0, 200, 2000, -1.0), (0.0, 60.7, 500, 0.1), (0.0, 60, 500.9, 0.1),
    (0.0, 60.5, 500.5, 0.1), (0.0, math.inf, 500, 0.1), (0.0, 60, math.nan, 0.1),
    (0.0, 1e300, 500, 0.1), (0.0, "60", 500, 0.1), ("0.25", 60, 500, 0.1),
]


@pytest.mark.parametrize("bad", BAD_ROWS, ids=repr)
def test_from_columns_raises_the_note_event_message(bad):
    with pytest.raises(ValueError) as expected:
        NoteEvent(*bad)
    rows = [(0.5, 60, 500, 0.1), bad, (0.0, 128, 500, 0.1)]  # the first bad row is reported
    with pytest.raises(RowError) as got:
        Piece.from_columns(*zip(*rows))
    assert str(got.value) == str(expected.value)
    assert got.value.row == 1


TOO_LARGE = "Python int too large to convert to C long"


@pytest.mark.parametrize("pitch,voice,row,message", [
    ([60, 300, 60], [0, 0, 10**30], 1, "pitch 300 outside [0, 127]"),
    ([60, 60, 300], [0, 10**30, 0], 1, TOO_LARGE),
    ([60, 60, 60], [0, 1, 2**63], 2, TOO_LARGE),  # numpy infers float64 for these voices
    ([60, 60, 60], [0, 2**63 - 1, 2**63], 2, TOO_LARGE),  # which rounds 2**63 - 1 to 2**63
    ([60, 60, 60], [0, -2**63 - 1, 2**63], 1, TOO_LARGE),  # and -2**63 - 1 to -2**63
    ([60, 60, 60], np.array([0, 1, 2**63], dtype=np.uint64), 2, TOO_LARGE),
    ([60, 60, 60], np.array([0.0, 2.0**63, 1.0]), 1, TOO_LARGE),
    ([60, 60, 60], np.array([0.0, 1.0, math.nan]), 2, "cannot convert float NaN to integer"),
], ids=["pitch-first", "voice-first", "2**63", "2**63-1", "-2**63-1", "uint64", "float64", "nan"])
def test_from_columns_checks_the_int64_range_in_the_order_given(pitch, voice, row, message):
    with pytest.raises(RowError) as got:
        Piece.from_columns([0.0, 0.1, 0.2], pitch, 500, 0.1, voice)
    assert (got.value.row, str(got.value)) == (row, message)


def test_from_columns_casts_the_int_columns_it_accepts_to_int64():
    piece = Piece.from_columns([0.0, 0.1], np.array([60, 61], dtype=np.uint32), [500.0, 501.0],
                               0.1, [0, 2**63 - 1], generation=np.array([1, 2], dtype=np.uint64))
    assert all(piece.column(name).dtype == np.int64
               for name in ("pitch", "velocity", "voice", "generation", "section"))
    assert piece.column("voice").tolist() == [0, 2**63 - 1]


def test_note_event_rejects_non_finite_times():
    with pytest.raises(ValueError, match="onset must be finite"):
        NoteEvent(math.nan, 60, 500, 0.1)
    with pytest.raises(ValueError, match="duration must be finite"):
        NoteEvent(0.0, 60, 500, math.nan)
    with pytest.raises(ValueError, match="duration must be finite"):
        NoteEvent(0.0, 60, 500, math.inf)
    with pytest.raises(ValueError, match="onset must be finite"):
        NoteEvent(math.inf, 60, 500, 0.1)


def test_fractional_pitch_or_velocity_is_rejected_not_truncated():
    with pytest.raises(ValueError, match="pitch 60.7 is not an integer"):
        Piece.from_events([NoteEvent(0.0, 60.7, 500.9, 0.1)])
    with pytest.raises(ValueError, match="velocity 500.9 is not an integer"):
        Piece.from_columns([0.0, 0.1], [60, 61], np.array([500.0, 500.9]), 0.1)
    with pytest.raises(ValueError, match="velocity 1024 outside"):  # the first bad row
        Piece.from_columns([0.0, 0.1], [60.0, 60.5], [1024, 500], 0.1)
    with pytest.raises(ValueError, match="pitch 60.5 is not an integer"):
        Piece.from_columns([0.0, 0.1], 60.5, 500, 0.1)
    piece = Piece.from_columns([0.0, 0.1], np.array([60.0, 61.0]), [500.0, 700.0], 0.1)
    assert piece.pitches().dtype == np.int64 and piece.pitches().tolist() == [60, 61]
    assert piece.velocities().tolist() == [500, 700]
    assert NoteEvent(0.0, 60.0, 500.0, 0.1) == NoteEvent(0.0, 60, 500, 0.1)


@pytest.mark.parametrize("name", ["voice", "generation", "section"])
def test_a_fractional_int_field_is_rejected_not_truncated(name):
    with pytest.raises(ValueError, match=f"^{name} 1.5 is not an integer$"):
        NoteEvent(0.0, 60, 500, 0.1, **{name: 1.5})
    with pytest.raises(RowError, match=f"^{name} 1.5 is not an integer$") as got:
        Piece.from_columns([0.0, 0.1], 60, 500, 0.1, **{name: [0, 1.5]})
    assert got.value.row == 1
    with pytest.raises(RowError, match=f"^{name} -0.5 is not an integer$"):
        Piece.from_columns([0.0, 0.1], 60, 500, 0.1, **{name: np.array([-0.5, 1.0])})


@pytest.mark.parametrize("column,row,message", [
    ({"pitch": [True, False]}, 0, "pitch True is not a number"),
    ({"velocity": np.array([500, 1]).astype(bool)}, 0, "velocity True is not a number"),
    ({"duration": np.array(["0.1", "0.2"])}, 0, "duration '0.1' is not a number"),
    ({"voice": [0, "1"]}, 1, "voice '1' is not a number"),
    ({"section": np.array([b"0", b"1"])}, 0, "section b'0' is not a number"),
], ids=["bool-list", "bool-array", "str-array", "str-in-list", "bytes"])
def test_from_columns_rejects_a_number_column_of_str_or_bool(column, row, message):
    columns = {"onset": [0.0, 0.1], "pitch": 60, "velocity": 500, "duration": 0.1, **column}
    with pytest.raises(RowError) as got:
        Piece.from_columns(**columns)
    assert (got.value.row, str(got.value)) == (row, message)


@pytest.mark.parametrize("field,value,message", [
    ("symbol", 7, "symbol 7 is not a str"), ("voice", True, "voice True is not a number"),
    ("generation", None, "generation None is not a number"),
    ("section", np.uint64(2**63), "Python int too large to convert to C long"),
])
def test_note_event_checks_the_type_and_int64_range_of_every_field(field, value, message):
    with pytest.raises(ValueError) as got:
        NoteEvent(0.0, 60, 500, 0.1, **{field: value})
    assert str(got.value) == message


def test_from_columns_broadcasts_scalars_and_rejects_ragged_columns():
    piece = Piece.from_columns([0.2, 0.1], [60, 61], 500, 0.05, voice=1, symbol="S")
    assert piece.events == (NoteEvent(0.1, 61, 500, 0.05, 1, "S"),
                            NoteEvent(0.2, 60, 500, 0.05, 1, "S"))
    with pytest.raises(ValueError, match="pitch"):
        Piece.from_columns([0.1, 0.2], [60, 61, 62], 500, 0.05)


def test_columns_are_read_only_and_not_copied():
    piece = Piece.from_columns([0.0, 0.1], [60, 61], [500, 600], 0.05, symbol=["A", "B"])
    for name in COLUMNS:
        col = piece.column(name)
        with pytest.raises(ValueError, match="read-only"):
            col[0] = col[1]
    assert piece.onsets() is piece.column("onset") is piece.onsets()
    assert piece.pitches() is piece.column("pitch")
    assert piece.velocities() is piece.column("velocity")
    assert piece.durations() is piece.column("duration")
    assert piece.events is piece.events


def test_equality_covers_events_sections_and_metadata():
    events = [NoteEvent(0.0, 60, 500, 0.1, symbol="A"), NoteEvent(0.1, 62, 400, 0.1)]
    piece = Piece.from_events(events, (("A", 0.0, 1.0),), {"seed": 1})
    assert piece == Piece.from_events(events[::-1], (("A", 0.0, 1.0),), {"seed": 1})
    assert piece != Piece.from_events(events, (("A", 0.0, 1.0),), {"seed": 2})
    assert piece != Piece.from_events(events, (), {"seed": 1})
    assert piece != Piece.from_events(events[:1], (("A", 0.0, 1.0),), {"seed": 1})
    assert piece != Piece.from_events([NoteEvent(0.0, 60, 500, 0.1, symbol="B"), events[1]],
                                      piece.sections, piece.metadata)
    assert Piece.from_events([]) == Piece.from_columns([], [], [], [])


@settings(max_examples=60, deadline=None)
@given(note_rows, st.sampled_from([-1, 2**63 - 1]))
def test_text_view_is_each_value_as_the_writers_print_it(rows, extreme):
    cols = columns_of(rows)
    piece = Piece.from_columns(*cols[:6], [extreme] * len(rows), cols[7])
    # note_rows draws -0.0 and 0.0 onsets, whose reprs differ
    assert piece.text == {name: [v if name == "symbol" else repr(v)
                                 for v in piece.column(name).tolist()] for name in COLUMNS}
    assert piece.text is piece.text
    assert piece == Piece.from_columns(*cols[:6], [extreme] * len(rows), cols[7])


def key_reset_reference(events, window):
    """The per-key mask one event at a time."""
    last_kept, kept = {}, []
    for i, e in enumerate(events):
        prev = last_kept.get(e.pitch)
        if prev is not None and e.onset - prev < window - 1e-9:
            continue
        kept.append(i)
        last_kept[e.pitch] = e.onset
    return kept


@settings(max_examples=60, deadline=None)
@given(note_rows, st.sampled_from([KEY_RESET_WINDOW, 0.02, 1e-3]))
def test_key_reset_kept_matches_the_event_scan(rows, window):
    piece = Piece.from_columns(*columns_of(rows))
    kept = key_reset_kept(piece.onsets(), piece.pitches(), window)
    assert kept.tolist() == key_reset_reference(piece.events, window)


# few distinct values per key, so runs of equal onsets and full ties are common
tied_rows = st.lists(st.tuples(st.sampled_from([-0.03, -0.0, 0.0, 0.001, 0.5]),
                               st.integers(0, 1), st.integers(60, 61), st.sampled_from([0, 1023])),
                     max_size=40)


@settings(max_examples=200, deadline=None)
@given(tied_rows)
@example([])
@example([(0.0, 1, 61, 0)])
@example([(-0.0, 1, 60, 0), (0.0, 0, 61, 5), (0.0, 0, 60, 5), (-0.0, 0, 60, 5)])
def test_row_order_is_lexsort(rows):
    onset, voice, pitch, velocity = (np.array(c) for c in columns_of(rows)[:4])
    assert row_order(onset).tolist() == np.lexsort((onset,)).tolist()
    assert row_order(onset, voice).tolist() == np.lexsort((voice, onset)).tolist()
    assert (row_order(onset, voice, pitch, velocity).tolist()
            == np.lexsort((velocity, pitch, voice, onset)).tolist())
    # the polyphony cap's (-velocity, pitch) order
    assert row_order(-velocity, pitch).tolist() == np.lexsort((pitch, -velocity)).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(59, 61)), max_size=40))
@example([])
@example([(5, 1, 60)])
def test_row_order_is_the_midi_note_orders(notes):
    """(tick, track, pitch): the order write_midi lists sidecar velocities in,
    by np.lexsort before, and read_midi lists notes in, by a tuple sort before."""
    tick, track, pitch = (np.array(c, dtype=np.int64) for c in (list(zip(*notes)) or [()] * 3))
    order = row_order(tick, track, pitch).tolist()
    assert order == np.lexsort((pitch, track, tick)).tolist()
    assert order == sorted(range(len(notes)), key=lambda i: (notes[i][0], notes[i][1], notes[i][2]))


def key_reset_loop(onsets, pitches, window):
    """The per-key mask as one Python loop over the notes in scan order."""
    limit = window - 1e-9
    last_kept: dict[int, float] = {}
    kept = []
    for i, (t, p) in enumerate(zip(np.asarray(onsets).tolist(), np.asarray(pitches).tolist())):
        prev = last_kept.get(p)
        if prev is None or t - prev >= limit:
            kept.append(i)
            last_kept[p] = t
    return kept


# per note: its key and its step after the previous note on that key, with
# steps at, just under and just over the windows below; the keys interleave,
# so the scan order is sorted along each key but not overall
key_steps = st.lists(st.tuples(st.integers(60, 62),
                               st.sampled_from([0.0, 1e-9, 0.001, 0.0199, 0.02, 0.03,
                                                0.049999999, 0.05, 0.0500001, 0.3])),
                     max_size=60)


@settings(max_examples=150, deadline=None)
@given(key_steps, st.sampled_from([-0.0, 0.0, 0.7]),
       st.sampled_from([KEY_RESET_WINDOW, 0.02, 1e-3, 0.0]))
def test_key_reset_kept_matches_the_per_note_loop(steps, start, window):
    last: dict[int, float] = {}
    onsets, pitches = [], []
    for pitch, step in steps:
        last[pitch] = last[pitch] + step if pitch in last else start + step
        onsets.append(last[pitch])
        pitches.append(pitch)
    kept = key_reset_kept(np.array(onsets), np.array(pitches, dtype=np.int64), window)
    assert kept.tolist() == key_reset_loop(onsets, pitches, window)


def test_key_reset_kept_rejects_onsets_that_decrease_along_a_key():
    # onsets may fall between keys, as long as each key's own stay in order
    assert key_reset_kept([0.2, 0.0, 0.3], [60, 61, 60]).tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="onsets decrease along a key"):
        key_reset_kept([0.2, 0.0, 0.1], [60, 61, 60])


@pytest.mark.parametrize("pitches", [[60, 128], [-1, 60], [60, 256]])
def test_key_reset_kept_rejects_pitches_outside_the_keys(pitches):
    # the keys are sorted as uint8, where 256 would wrap to 0
    with pytest.raises(ValueError, match="pitches outside"):
        key_reset_kept([0.0, 0.1], pitches)


# the NoteEvent view of a piece and the calls that build or select NoteEvents;
# outside events.py the package reads notes through the Piece columns
NOTE_EVENT_CALLS = {"NoteEvent", "voice_events", "section_events", "from_events", "with_events"}
# (module, function): these pass voice views to voice_separation or
# pcs_distance, which read their columns and build no NoteEvent (test_cli
# checks that at run time for `polycanon analyze`)
NOTE_EVENT_ALLOWED = {("cli.py", "_cmd_analyze"), ("experiments/separation.py", "_pairwise_vss"),
                      ("experiments/separation.py", "constraints")}
# the modules that may name NoteEvent at all, in an import, an annotation or
# a call: its home and the package exports
NOTE_EVENT_MODULES = {"events.py", "__init__.py"}


class NoteEventUses(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [""], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self._quoted(node.returns)
        self.generic_visit(node)
        self.scope.pop()

    def _named(self, node, name):
        if name == "NoteEvent" and self.module not in NOTE_EVENT_MODULES:
            self.found.append((self.module, self.scope[-1], getattr(node, "lineno", 0), name))

    def visit_Name(self, node):
        self._named(node, node.id)

    def visit_alias(self, node):
        self._named(node, node.name.rpartition(".")[2])

    def visit_arg(self, node):
        self._quoted(node.annotation)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._quoted(node.annotation)
        self.generic_visit(node)

    def _quoted(self, annotation):
        # a quoted annotation, or a quoted part of one, names what its text does
        for sub in ast.walk(annotation) if annotation else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                self.visit(ast.parse(sub.value, mode="eval"))

    def visit_Attribute(self, node):
        if node.attr == "events":
            self.found.append((self.module, self.scope[-1], node.lineno, ".events"))
        self._named(node, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        if name in NOTE_EVENT_CALLS and (self.module, self.scope[-1]) not in NOTE_EVENT_ALLOWED:
            self.found.append((self.module, self.scope[-1], node.lineno, name))
        self.generic_visit(node)


def note_event_uses(module: str, source: str) -> list:
    visitor = NoteEventUses(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_only_events_py_reads_or_builds_note_events():
    src = Path(polycanon.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        if module != "events.py":
            found += note_event_uses(module, path.read_text())
    assert found == []
    # the NoteEvent name fails the check wherever it stands in another module
    for source in ("from .events import NoteEvent", "from . import events\nevents.NoteEvent",
                   "def f(notes: Sequence[NoteEvent]): pass",
                   "def f(notes: 'Sequence[NoteEvent]'): pass",
                   "def f() -> 'list[NoteEvent]': pass", "x: NoteEvent = None", "f(NoteEvent)"):
        assert note_event_uses("metrics.py", source), source
        assert not note_event_uses("__init__.py", source), source


class RowOrderUses(ast.NodeVisitor):
    """np.lexsort outside events.row_order, and key-function sorts in read_midi."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [""], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _lexsort(self, node):
        if (self.module, self.scope[-1]) != ("events.py", "row_order"):
            self.found.append((self.module, self.scope[-1], node.lineno, "lexsort"))

    def visit_Attribute(self, node):
        if node.attr == "lexsort":
            self._lexsort(node)
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "lexsort":
            self._lexsort(node)

    def visit_Call(self, node):
        if ((self.module, self.scope[-1]) == ("fileio.py", "read_midi")
                and any(k.arg == "key" for k in node.keywords)):
            self.found.append((self.module, self.scope[-1], node.lineno, "sort by key"))
        self.generic_visit(node)


def test_rows_are_put_in_order_only_by_row_order():
    src = Path(polycanon.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        visitor = RowOrderUses(path.relative_to(src).as_posix())
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found == []


# the event-file keys that differ from their column names, which only events.SCHEMA spells
EVENT_KEY = re.compile(r"\b(onset_s|velocity10|duration_s)\b")


def event_key_literals(source: str) -> list:
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and EVENT_KEY.search(node.value)]


def test_only_events_py_spells_the_event_file_keys():
    src = Path(polycanon.__file__).parent
    found = [(path.relative_to(src).as_posix(), *hit) for path in sorted(src.rglob("*.py"))
             if path.relative_to(src).as_posix() != "events.py"
             for hit in event_key_literals(path.read_text())]
    assert found == []
    # a key fails the check in any str constant: a literal, a part of an f-string, a docstring
    for source in ('x = "onset_s"', "x = f'{a}velocity10'", 'd["duration_s"]',
                   'def f():\n    """Reads onset_s."""'):
        assert event_key_literals(source), source
    assert not event_key_literals('x = ["onset", "onset_sd", "velocity10x"]')
