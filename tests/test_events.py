import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycanon.events import COLUMNS, KEY_RESET_WINDOW, NoteEvent, Piece, _sort_key, key_reset_kept

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
    assert piece.events == tuple(sorted(events, key=_sort_key))
    # the fields beyond the sort key tell full ties apart
    assert [(e.duration, e.symbol, e.generation, e.section) for e in piece.events] == [
        (e.duration, e.symbol, e.generation, e.section) for e in sorted(events, key=_sort_key)]
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


BAD_ROWS = [
    (0.0, -1, 500, 0.1), (0.0, 128, 500, 0.1), (0.0, 60, -1, 0.1), (0.0, 60, 1024, 0.1),
    (0.0, 60, 500, 0.0), (0.0, 60, 500, -0.5), (0.0, 60, 500, math.nan),
    (0.0, 60, 500, math.inf), (math.nan, 60, 500, 0.1), (math.inf, 60, 500, 0.1),
    (-math.inf, 60, 500, 0.1), (-0.031, 60, 500, 0.1), (math.nan, 60, 500, math.nan),
    (-1.0, 200, 2000, -1.0), (0.0, 60.7, 500, 0.1), (0.0, 60, 500.9, 0.1),
    (0.0, 60.5, 500.5, 0.1), (0.0, math.inf, 500, 0.1), (0.0, 60, math.nan, 0.1),
    (0.0, 1e300, 500, 0.1),
]


@pytest.mark.parametrize("bad", BAD_ROWS, ids=repr)
def test_from_columns_raises_the_note_event_message(bad):
    with pytest.raises(ValueError) as expected:
        NoteEvent(*bad)
    rows = [(0.5, 60, 500, 0.1), bad, (0.0, 128, 500, 0.1)]  # the first bad row is reported
    with pytest.raises(ValueError) as got:
        Piece.from_columns(*zip(*rows))
    assert str(got.value) == str(expected.value)


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
    assert piece != piece.with_events([NoteEvent(0.0, 60, 500, 0.1, symbol="B"), events[1]])
    assert Piece.from_events([]) == Piece.from_columns([], [], [], [])


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
