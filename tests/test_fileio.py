import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycanon.events import NoteEvent, Piece
from polycanon.fileio import (
    CSV_HEADER,
    MidiRenderConfig,
    ParseError,
    read_events,
    read_midi,
    velocity_from_7bit,
    velocity_to_7bit,
    write_events_csv,
    write_events_json,
    write_midi,
)
from polycanon.grammar import expand
from polycanon.hal import LatencyModel, enforce_constraints, precompensate
from polycanon.pipeline import generate
from polycanon.presets import canonical_table, fibonacci_grammar
from polycanon.stochastic import make_rng


def sample_piece(n=60, seed=1, negative=False):
    rng = make_rng(seed)
    onsets = np.sort(rng.uniform(0, 8, n))
    if negative:
        onsets = onsets - onsets.min() - 0.02
    events = [NoteEvent(float(t), int(rng.integers(21, 109)), int(rng.integers(0, 1024)),
                        float(rng.uniform(0.05, 0.4)), int(rng.integers(0, 3)),
                        "AB"[int(rng.integers(0, 2))], int(rng.integers(0, 3)),
                        int(rng.integers(0, 4)))
              for t in onsets]
    return Piece.from_events(events, (("A", 0.0, 4.0), ("B", 4.0, 8.0)),
                             {"seed": seed, "config_hash": "abc123"})


def test_velocity_bit_mapping():
    assert velocity_to_7bit(1023) == 127
    assert velocity_to_7bit(0) == 1  # note-on zero would mean note-off
    assert velocity_from_7bit(127) == 1023


def test_json_round_trip_is_lossless(tmp_path):
    piece = sample_piece()
    path = write_events_json(piece, tmp_path / "p.json")
    back = read_events(path)
    assert back == piece


def test_csv_round_trip_and_header(tmp_path):
    piece = sample_piece()
    path = write_events_csv(piece, tmp_path / "p.csv")
    first = path.read_text().splitlines()[0]
    assert first == "onset_s,pitch,velocity10,duration_s,voice,symbol,generation,section"
    assert first.split(",") == CSV_HEADER
    back = read_events(path)
    assert back.events == piece.events


def test_empty_piece_round_trips(tmp_path):
    empty = Piece.from_events([])
    back = read_events(write_events_json(empty, tmp_path / "e.json"))
    assert len(back) == 0
    back = read_events(write_events_csv(empty, tmp_path / "e.csv"))
    assert len(back) == 0


def midi_keys(piece, shift, spt):
    """(voice, tick, pitch, velocity) of every note, as the MIDI file sees it."""
    return Counter((e.voice, round((e.onset + shift) / spt), e.pitch, e.velocity)
                   for e in piece.events)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["linear", "power", "log"]))
def test_midi_round_trip_keeps_every_velocity_at_canonical_density(seed, variant):
    piece = generate(expand(fibonacci_grammar(), 4), canonical_table(), make_rng(seed))
    piece, _ = enforce_constraints(piece)
    piece = precompensate(piece, LatencyModel(variant=variant))
    cfg = MidiRenderConfig()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_midi(piece, cfg, Path(tmp) / "p.mid")
        back = read_midi(path)
        shift = json.loads(Path(str(path) + ".velocity.json").read_text())["onset_shift_s"]
    assert midi_keys(back, shift, cfg.seconds_per_tick) == midi_keys(
        piece, shift, cfg.seconds_per_tick)


def test_midi_same_key_restruck_while_sounding(tmp_path):
    events = [NoteEvent(0.0, 60, 900, 0.3), NoteEvent(0.1, 60, 300, 0.05),
              NoteEvent(0.1, 60, 500, 0.3), NoteEvent(0.12, 64, 700, 0.1)]
    path = write_midi(Piece.from_events(events), MidiRenderConfig(), tmp_path / "p.mid")
    back = read_midi(path)
    assert sorted((round(e.onset, 3), e.pitch, e.velocity) for e in back.events) == [
        (0.0, 60, 900), (0.1, 60, 300), (0.1, 60, 500), (0.12, 64, 700)]


def test_midi_round_trip_bounds(tmp_path):
    piece = sample_piece()
    cfg = MidiRenderConfig()
    path = write_midi(piece, cfg, tmp_path / "p.mid")
    back = read_midi(path)
    assert len(back) == len(piece)
    ours = sorted(piece.events, key=lambda e: (e.onset, e.voice, e.pitch, e.velocity))
    theirs = sorted(back.events, key=lambda e: (e.onset, e.voice, e.pitch, e.velocity))
    for a, b in zip(ours, theirs):
        assert abs(a.onset - b.onset) <= 0.6e-3  # one tick at 960 PPQ
        assert a.velocity == b.velocity          # exact via sidecar
        assert a.pitch == b.pitch


def test_midi_voice_tracks_survive(tmp_path):
    piece = sample_piece()
    back = read_midi(write_midi(piece, MidiRenderConfig(), tmp_path / "v.mid"))
    assert sorted({e.voice for e in back.events}) == piece.voices()


def test_negative_onset_shift_recorded_and_reversed(tmp_path):
    piece = sample_piece(negative=True)
    assert min(e.onset for e in piece.events) < 0
    path = write_midi(piece, MidiRenderConfig(), tmp_path / "n.mid")
    sidecar = json.loads((tmp_path / "n.mid.velocity.json").read_text())
    assert sidecar["onset_shift_s"] == pytest.approx(0.030)
    back = read_midi(path)
    assert min(e.onset for e in back.events) == pytest.approx(
        min(e.onset for e in piece.events), abs=0.6e-3)


def test_foreign_midi_without_sidecar_widens_velocity(tmp_path):
    piece = sample_piece()
    path = write_midi(piece, MidiRenderConfig(velocity_mode="off"), tmp_path / "f.mid")
    assert not (tmp_path / "f.mid.velocity.json").exists()
    back = read_midi(path)
    ours = sorted(piece.events, key=lambda e: (e.onset, e.voice, e.pitch))
    theirs = sorted(back.events, key=lambda e: (e.onset, e.voice, e.pitch))
    for a, b in zip(ours, theirs):
        assert b.velocity == velocity_from_7bit(velocity_to_7bit(a.velocity))


def test_cc88_mode_reads_back(tmp_path):
    piece = sample_piece()
    path = write_midi(piece, MidiRenderConfig(velocity_mode="cc88"), tmp_path / "c.mid")
    back = read_midi(path)
    assert len(back) == len(piece)


def test_truncated_midi_raises_parse_error(tmp_path):
    piece = sample_piece()
    path = write_midi(piece, MidiRenderConfig(), tmp_path / "t.mid")
    data = path.read_bytes()
    bad = tmp_path / "bad.mid"
    bad.write_bytes(data[: len(data) // 2])
    with pytest.raises(ParseError):
        read_midi(bad)


def test_malformed_json_and_csv_report_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"events": [')
    with pytest.raises(ParseError, match="line"):
        read_events(bad)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("onset_s,pitch,velocity10,duration_s,voice,symbol,generation,section\n1,2\n")
    with pytest.raises(ParseError, match="line 2"):
        read_events(bad_csv)
    with pytest.raises(ParseError, match="header"):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("a,b\n")
        read_events(bad_header)


def test_unsupported_extension(tmp_path):
    path = tmp_path / "x.xml"
    path.write_text("nope")
    with pytest.raises(ParseError):
        read_events(path)


def test_render_config_validation():
    with pytest.raises(ValueError):
        MidiRenderConfig(ppq=10)
    with pytest.raises(ValueError):
        MidiRenderConfig(velocity_mode="weird")
    assert MidiRenderConfig().seconds_per_tick == pytest.approx(0.000520833, abs=1e-9)


# ---------------------------------------------------------------------------
# Column writers against per-event reference writers
# ---------------------------------------------------------------------------


def json_reference(piece):
    doc = {"metadata": piece.metadata, "sections": [list(s) for s in piece.sections],
           "events": [{"onset_s": e.onset, "pitch": e.pitch, "velocity10": e.velocity,
                       "duration_s": e.duration, "voice": e.voice, "symbol": e.symbol,
                       "generation": e.generation, "section": e.section}
                      for e in piece.events]}
    return json.dumps(doc, indent=1)


def csv_reference(piece):
    rows = [",".join(CSV_HEADER)]
    for e in piece.events:
        rows.append(f"{e.onset!r},{e.pitch},{e.velocity},{e.duration!r},"
                    f"{e.voice},{e.symbol},{e.generation},{e.section}")
    return "\n".join(rows) + "\n"


def vlq_reference(value):
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def track_reference(messages):
    body = bytearray()
    prev = 0
    for tick, payload in sorted(messages, key=lambda m: m[0]):
        body += vlq_reference(tick - prev) + payload
        prev = tick
    body += vlq_reference(0) + bytes([0xFF, 0x2F, 0x00])
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def midi_reference(piece, cfg):
    """Per-message SMF bytes and sidecar velocities, one track per voice 0..max."""
    shift = 0.030 if piece.events and min(e.onset for e in piece.events) < 0 else 0.0
    tracks = {v: [] for v in range(max(piece.voices(), default=0) + 1)}
    keys = []
    spt = cfg.seconds_per_tick
    for e in piece.events:
        tick_on = round((e.onset + shift) / spt)
        tick_off = max(tick_on + 1, round((e.onset + shift + e.duration) / spt))
        v7 = max(1, round(e.velocity * 127 / 1023))
        if cfg.velocity_mode == "cc88":
            tracks[e.voice].append((tick_on, bytes([0xB0, 88, (e.velocity & 0x7) << 4])))
        tracks[e.voice].append((tick_on, bytes([0x90, e.pitch, v7])))
        tracks[e.voice].append((tick_off, bytes([0x80, e.pitch, 0x40])))
        keys.append((tick_on, e.voice, e.pitch))
    text = f"onset_shift_s={shift}".encode()
    tempo = [(0, bytes([0xFF, 0x51, 0x03]) + cfg.tempo_us.to_bytes(3, "big")),
             (0, bytes([0xFF, 0x01]) + vlq_reference(len(text)) + text)]
    chunks = [track_reference(tempo)] + [track_reference(tracks[v]) for v in sorted(tracks)]
    header = (b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big")
              + len(chunks).to_bytes(2, "big") + cfg.ppq.to_bytes(2, "big"))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    sidecar = {"velocities": [piece.events[i].velocity for i in order], "onset_shift_s": shift}
    return header + b"".join(chunks), json.dumps(sidecar)


# a grid near the 0.52 ms tick puts notes of different voices on one tick
writer_rows = st.lists(st.tuples(
    st.one_of(st.integers(0, 400).map(lambda k: k * 0.00026 - 0.03),
              st.floats(-0.03, 3000.0, allow_nan=False)),
    st.integers(0, 127), st.integers(0, 1023),
    st.one_of(st.sampled_from([1e-4, 0.05, 0.3]), st.floats(1e-6, 10.0)),
    st.integers(0, 3), st.sampled_from(["A", "B", 'say "hi"', "é", "\\", "日本", ""]),
    st.integers(0, 5), st.integers(0, 5)), max_size=60)


@settings(max_examples=60, deadline=None)
@given(writer_rows, st.sampled_from(["sidecar", "cc88", "off"]))
def test_column_writers_match_per_event_references(rows, mode):
    metadata = {"seed": 3, "label": 'x"é', "nested": {"a": [1, 2.5]}}
    piece = Piece.from_events([NoteEvent(*row) for row in rows],
                              (("A", 0.0, 1.5), ('B"', 1.5, 3.0)), metadata)
    cfg = MidiRenderConfig(velocity_mode=mode)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert write_events_json(piece, tmp / "p.json").read_text() == json_reference(piece)
        assert write_events_csv(piece, tmp / "p.csv").read_text() == csv_reference(piece)
        midi, sidecar = midi_reference(piece, cfg)
        assert write_midi(piece, cfg, tmp / "p.mid").read_bytes() == midi
        sidecar_path = tmp / "p.mid.velocity.json"
        assert sidecar_path.exists() == (mode == "sidecar")
        if mode == "sidecar":
            assert sidecar_path.read_text() == sidecar


def test_empty_piece_writers_match_references(tmp_path):
    piece = Piece.from_events([], (("A", 0.0, 1.0),), {"seed": 0})
    assert write_events_json(piece, tmp_path / "e.json").read_text() == json_reference(piece)
    assert write_events_csv(piece, tmp_path / "e.csv").read_text() == csv_reference(piece)
    midi, sidecar = midi_reference(piece, MidiRenderConfig())
    assert write_midi(piece, MidiRenderConfig(), tmp_path / "e.mid").read_bytes() == midi
    assert (tmp_path / "e.mid.velocity.json").read_text() == sidecar


def test_midi_keeps_voices_that_are_not_contiguous(tmp_path):
    events = [NoteEvent(0.0, 60, 500, 0.1, voice=0), NoteEvent(0.2, 64, 700, 0.1, voice=2)]
    path = write_midi(Piece.from_events(events), MidiRenderConfig(), tmp_path / "v.mid")
    back = read_midi(path)
    assert [(e.voice, e.pitch, e.velocity) for e in back.events] == [(0, 60, 500), (2, 64, 700)]
    assert path.read_bytes()[10:12] == (4).to_bytes(2, "big")  # tempo track + voices 0, 1, 2


def test_cc88_mode_reads_back_the_widened_7bit_velocity(tmp_path):
    piece = Piece.from_events([NoteEvent(0.0, 60, 517, 0.1)])
    back = read_midi(write_midi(piece, MidiRenderConfig(velocity_mode="cc88"), tmp_path / "c.mid"))
    assert back.events[0].velocity == velocity_from_7bit(velocity_to_7bit(517)) == 516


@pytest.mark.parametrize("field,value", [("onset_s", float("nan")), ("duration_s", float("nan")),
                                         ("onset_s", float("inf")), ("duration_s", -float("inf"))])
def test_json_reader_rejects_non_finite_times(tmp_path, field, value):
    path = write_events_json(sample_piece(n=3), tmp_path / "p.json")
    doc = json.loads(path.read_text())
    doc["events"][1][field] = value
    path.write_text(json.dumps(doc))  # NaN / Infinity literals, which json.loads accepts
    with pytest.raises(ParseError, match="finite"):
        read_events(path)


@pytest.mark.parametrize("column,value", [(0, "nan"), (3, "nan"), (0, "inf"), (3, "-inf")])
def test_csv_reader_rejects_non_finite_times_with_the_line(tmp_path, column, value):
    path = write_events_csv(sample_piece(n=3), tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[column] = value
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 3: .*finite"):
        read_events(path)


def test_csv_reader_names_the_line_of_an_out_of_range_value(tmp_path):
    path = write_events_csv(sample_piece(n=3), tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[1] = "300"
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 4: pitch 300 outside"):
        read_events(path)


@pytest.mark.parametrize("field,value", [("pitch", 60.7), ("velocity10", 500.9)])
def test_json_reader_rejects_a_fractional_pitch_or_velocity(tmp_path, field, value):
    path = write_events_json(sample_piece(n=3), tmp_path / "p.json")
    doc = json.loads(path.read_text())
    doc["events"][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"{value} is not an integer"):
        read_events(path)


@pytest.mark.parametrize("column,value", [(1, "60.7"), (2, "500.9")])
def test_csv_reader_rejects_a_fractional_pitch_or_velocity_with_the_line(tmp_path, column, value):
    path = write_events_csv(sample_piece(n=3), tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[column] = value
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line 3: .*{value}"):
        read_events(path)
