import json
import struct
import tempfile
from collections import Counter, defaultdict
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycanon.cli import main
from polycanon.events import COLUMNS, NoteEvent, Piece
from polycanon.fileio import _CHUNK_ROWS as CHUNK_ROWS
from polycanon.fileio import (
    CSV_HEADER,
    MidiRenderConfig,
    ParseError,
    read_events,
    read_midi,
    velocity_from_7bit,
    velocity_from_cc88,
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


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_json_and_csv_round_trip_exactly_at_canonical_density(seed):
    piece = generate(expand(fibonacci_grammar(), 6), canonical_table(), make_rng(seed), seed=seed)
    piece, _ = enforce_constraints(piece)
    piece = precompensate(piece, LatencyModel())
    with tempfile.TemporaryDirectory() as tmp:
        back_json = read_events(write_events_json(piece, Path(tmp) / "p.json"))
        back_csv = read_events(write_events_csv(piece, Path(tmp) / "p.csv"))
    assert len(piece) > 10_000  # depth 6 at 35 and 120.6 notes/s
    assert back_json.events == piece.events
    assert back_csv.events == piece.events


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


def test_every_cut_midi_file_is_a_parse_error_naming_it(tmp_path):
    data = write_midi(sample_piece(), MidiRenderConfig(velocity_mode="cc88"),
                      tmp_path / "whole.mid").read_bytes()
    cut = tmp_path / "cut.mid"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ParseError, match=f"^{cut}: "):
            read_events(cut)


@pytest.mark.parametrize("name", ["gone.json", "gone.csv", "gone.mid", "dir.json", "dir.mid"])
def test_a_file_that_cannot_be_read_is_a_parse_error_naming_it(tmp_path, name):
    """A missing file or a directory raises ParseError with the OSError's
    message, which names the path."""
    path = tmp_path / name
    if name.startswith("dir"):
        path.mkdir()
    with pytest.raises(ParseError) as err:
        read_events(path)
    assert isinstance(err.value.__cause__, OSError)
    assert str(err.value) == str(err.value.__cause__) and f"'{path}'" in str(err.value)


@pytest.mark.parametrize("name", ["bin.json", "bin.csv"])
def test_an_undecodable_text_file_is_a_parse_error_naming_it(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe\x00\x81")
    with pytest.raises(ParseError, match=f"^{path}: "):
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


# a grid near the 0.52 ms tick puts notes of different voices on one tick;
# -0.0 and 0.0 onsets print apart, generation and section reach -1 and the
# int64 top, and durations and velocities repeat
TOP = 2**63 - 1
writer_rows = st.lists(st.tuples(
    st.one_of(st.integers(0, 400).map(lambda k: k * 0.00026 - 0.03), st.sampled_from([-0.0, 0.0]),
              st.floats(-0.03, 3000.0, allow_nan=False)),
    st.integers(0, 127), st.one_of(st.sampled_from([1, 512, 1023]), st.integers(0, 1023)),
    st.one_of(st.sampled_from([1e-4, 0.05, 0.3]), st.floats(1e-6, 10.0)),
    st.integers(0, 3), st.sampled_from(["A", "B", 'say "hi"', "é", "\\", "日本", ""]),
    st.one_of(st.integers(-1, 5), st.just(TOP)),
    st.one_of(st.integers(-1, 5), st.just(TOP))), max_size=60)


@settings(max_examples=60, deadline=None)
@given(writer_rows, st.sampled_from(["sidecar", "cc88", "off"]))
@example([(-0.0, 60, 500, 0.05, 0, "A", -1, TOP), (0.0, 61, 500, 0.05, 1, "B", TOP, -1),
          (-0.0, 62, 500, 0.05, 0, "A", 0, 0)], "sidecar")
@example([(k * 0.01, 60 + k % 12, (100, 900)[k % 2], (0.05, 0.3)[k % 3 == 0], k % 3, "A",
           -(k % 2), k % 4) for k in range(40)], "cc88")
@example([(0.5, 60, 1023, 0.3, 2, "é", TOP, -1)], "off")
def test_column_writers_match_per_event_references(rows, mode):
    metadata = {"seed": 3, "label": 'x"é', "nested": {"a": [1, 2.5]}}
    sections = (("A", 0.0, 1.5), ('B"', 1.5, 3.0))
    piece = Piece.from_events([NoteEvent(*row) for row in rows], sections, metadata)
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
        # the text view is built by whichever writer runs first
        fresh = Piece.from_events([NoteEvent(*row) for row in rows], sections, metadata)
        assert (write_events_csv(fresh, tmp / "q.csv").read_bytes()
                == (tmp / "p.csv").read_bytes())
        assert (write_events_json(fresh, tmp / "q.json").read_bytes()
                == (tmp / "p.json").read_bytes())


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
def test_text_writers_match_references_across_chunks(tmp_path, n):
    piece = sample_piece(n, seed=n, negative=True)
    assert write_events_json(piece, tmp_path / "p.json").read_text() == json_reference(piece)
    assert write_events_csv(piece, tmp_path / "p.csv").read_text() == csv_reference(piece)


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


# the (note-on byte, CC#88 low bits) pairs written for two velocities each,
# and the one velocity each reads back as: the nearest the widened byte
CC88_AMBIGUOUS = {(1, 0): ((0, 8), 8), (1, 1): ((1, 9), 9), (1, 2): ((2, 10), 10),
                  (1, 3): ((3, 11), 11), (1, 4): ((4, 12), 4), (18, 5): ((141, 149), 141),
                  (36, 6): ((286, 294), 286), (54, 7): ((431, 439), 431),
                  (73, 0): ((584, 592), 584), (91, 1): ((729, 737), 729),
                  (109, 2): ((874, 882), 874)}


def test_cc88_mode_reads_back_the_10bit_velocity(tmp_path):
    velocities = np.arange(1024)
    piece = Piece.from_columns(velocities * 0.01, 60, velocities, 0.005)
    back = read_midi(write_midi(piece, MidiRenderConfig(velocity_mode="cc88"), tmp_path / "c.mid"))
    read = dict(zip(velocities.tolist(), back.velocities().tolist()))
    for (v7, low3), (pair, decoded) in CC88_AMBIGUOUS.items():
        for v in pair:
            assert (velocity_to_7bit(v), v & 7) == (v7, low3)
            assert read.pop(v) == decoded
    assert len(read) == 1002
    assert [v for v, got in read.items() if got != v] == []


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


# numpy infers object for the voices [..., 10**30, ...] and float64 for [..., 2**63, ...]
@pytest.mark.parametrize("field,value", [("pitch", 10**30), ("voice", 10**30), ("voice", 2**63)],
                         ids=["pitch", "voice", "voice-2**63"])
def test_json_reader_rejects_an_integer_beyond_int64(tmp_path, field, value):
    path = write_events_json(sample_piece(n=3), tmp_path / "p.json")
    doc = json.loads(path.read_text())
    doc["events"][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="malformed event document"):
        read_events(path)


# pitch, and voice, which NoteEvent does not bound
@pytest.mark.parametrize("column,value", [(1, 10**30), (4, 10**30), (4, 2**63)],
                         ids=["1", "4", "4-2**63"])
def test_csv_reader_rejects_an_integer_beyond_int64_with_the_line(tmp_path, column, value):
    path = write_events_csv(sample_piece(n=3), tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[column] = str(value)
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 3: "):
        read_events(path)


@pytest.mark.parametrize("line2,line3,message", [
    ((1, "300"), (4, str(10**30)), "pitch 300 outside [0, 127]"),
    ((4, str(10**30)), (1, "300"), "Python int too large to convert to C long"),
], ids=["pitch-first", "voice-first"])
def test_csv_reader_names_the_first_invalid_row_with_its_own_message(tmp_path, line2, line3,
                                                                     message):
    path = write_events_csv(sample_piece(n=3), tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    for index, (column, value) in ((1, line2), (2, line3)):
        parts = lines[index].split(",")
        parts[column] = value
        lines[index] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_events(path)
    assert str(err.value) == f"{path}: line 2: {message}"


def test_json_reader_gives_the_first_invalid_rows_own_message(tmp_path):
    path = write_events_json(sample_piece(n=3), tmp_path / "p.json")
    doc = json.loads(path.read_text())
    doc["events"][1]["pitch"], doc["events"][2]["voice"] = 300, 10**30
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        read_events(path)
    assert str(err.value) == f"{path}: malformed event document: pitch 300 outside [0, 127]"


@pytest.fixture(scope="module")
def depth3_midi(tmp_path_factory):
    """A rendered depth-3 piece's MIDI file and its velocity sidecar."""
    piece = generate(expand(fibonacci_grammar(), 3), canonical_table(), make_rng(0))
    path = write_midi(piece, MidiRenderConfig(), tmp_path_factory.mktemp("d3") / "piece.mid")
    return path.read_bytes(), Path(str(path) + ".velocity.json").read_bytes()


def test_a_data_byte_above_0x7f_is_a_parse_error_naming_the_file(tmp_path, depth3_midi):
    data = bytearray(depth3_midi[0])
    data[data.index(bytes([0x90])) + 1] = 0xF8  # the first note-on's pitch
    path = tmp_path / "bad.mid"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{path}: data byte above 0x7f"):
        read_events(path)


def test_corrupt_midi_files_read_or_raise_parse_error(tmp_path, depth3_midi):
    data = depth3_midi[0]
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(150):
        corrupt = bytearray(data)
        for _ in range(rng.integers(1, 5)):
            corrupt[rng.integers(len(corrupt))] = rng.integers(256)
        cases.append(bytes(corrupt))
    cases += [data[:n] for n in rng.integers(0, len(data), 30)]
    path = tmp_path / "m.mid"
    outcomes = Counter()
    for corrupt in cases:
        path.write_bytes(corrupt)
        try:
            read_events(path)
            outcomes["read"] += 1
        except ParseError as err:
            assert str(err).startswith(f"{path}: ")
            outcomes["ParseError"] += 1
    assert outcomes["read"] and outcomes["ParseError"]


@pytest.fixture(scope="module")
def depth3_text(tmp_path_factory):
    """A rendered depth-3 piece's JSON and CSV files, by suffix."""
    piece = generate(expand(fibonacci_grammar(), 3), canonical_table(), make_rng(0))
    d = tmp_path_factory.mktemp("d3text")
    return {".json": write_events_json(piece, d / "piece.json").read_bytes(),
            ".csv": write_events_csv(piece, d / "piece.csv").read_bytes()}


# what a changed byte becomes: the characters of numbers and of the two
# formats' syntax, and one byte that is not UTF-8
TEXT_BYTES = b'0123456789-+.eE,"{}[]: \nNaIfn\xff'


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_corrupt_text_files_read_or_exit_2(tmp_path, capsys, depth3_text, suffix):
    """Each changed or cut file reads or raises ParseError, and `analyze` on
    it exits 0 or 2 without a traceback."""
    data = depth3_text[suffix]
    rng = np.random.default_rng(23)
    # every other file has digits changed to digits, which mostly keeps it
    # readable, so that the changed values reach the checks and the metrics
    digits = np.flatnonzero(np.isin(np.frombuffer(data, np.uint8), list(b"0123456789")))
    cases = []
    for case in range(20):
        corrupt = bytearray(data)
        for _ in range(rng.integers(1, 5)):
            if case % 2:
                corrupt[digits[rng.integers(len(digits))]] = TEXT_BYTES[rng.integers(10)]
            else:
                corrupt[rng.integers(len(corrupt))] = TEXT_BYTES[rng.integers(len(TEXT_BYTES))]
        cases.append(bytes(corrupt))
    cases += [data[:n] for n in rng.integers(0, len(data), 6)]
    if suffix == ".csv":
        # the header and then 0-3 whole rows: pieces too short for a metric
        lines = data.splitlines(keepends=True)
        cases += [b"".join(lines[:1 + rows]) for rows in range(4)]
    path = tmp_path / f"m{suffix}"
    outcomes = Counter()
    for corrupt in cases:
        path.write_bytes(corrupt)
        try:
            read_events(path)
            outcomes["read"] += 1
        except ParseError as err:
            assert str(err).startswith(f"{path}: ")
            outcomes["ParseError"] += 1
        code = main(["analyze", "--in", str(path)])
        out, err = capsys.readouterr()
        assert (code, bool(out)) in ((0, True), (2, False))  # exit 2 prints nothing
        outcomes[f"exit {code}"] += 1
    assert outcomes["read"] and outcomes["ParseError"] and outcomes["exit 0"], outcomes


@pytest.mark.parametrize("shift,sidecar", [
    (b"0.0", b"{not json"),
    (b"0.0", b'{"onset_shift_s": 0.0}'),
    (b"0.0", b'{"velocities": 7}'),
    (b"0.0", b'{"velocities": [2000]}'),
    (b"abc", None),
])
def test_a_bad_shift_text_or_sidecar_is_a_parse_error_naming_the_file(tmp_path, depth3_midi,
                                                                       shift, sidecar):
    data, _ = depth3_midi
    path = tmp_path / "bad.mid"
    path.write_bytes(data.replace(b"onset_shift_s=0.0", b"onset_shift_s=" + shift))
    if sidecar is not None:
        Path(str(path) + ".velocity.json").write_bytes(sidecar)
    with pytest.raises(ParseError, match=f"^{path}: "):
        read_events(path)


@pytest.mark.parametrize("division,body", [
    (960, bytes([0x00, 0xC0])),  # a program change cut off before its data byte
    (960, bytes([0x00, 0xFF])),  # a meta event cut off before its type
    (960, bytes([0x00, 0x90, 0x3C])),  # a note-on cut off before its velocity
    (0, bytes([0x00, 0xFF, 0x2F, 0x00])),  # zero ticks per quarter note
])
def test_a_cut_event_or_zero_division_is_a_parse_error_naming_the_file(tmp_path, division, body):
    path = tmp_path / "cut.mid"
    path.write_bytes(b"MThd" + struct.pack(">IHHH", 6, 1, 1, division)
                     + b"MTrk" + struct.pack(">I", len(body)) + body)
    with pytest.raises(ParseError, match=f"^{path}: "):
        read_events(path)


@pytest.fixture(scope="module")
def long_csv_lines(tmp_path_factory):
    """The lines of a CSV file of more rows than one reading chunk, with
    three blank lines after the header."""
    path = write_events_csv(sample_piece(n=CHUNK_ROWS + 60),
                            tmp_path_factory.mktemp("long") / "p.csv")
    lines = path.read_text().splitlines()
    return [lines[0], "", "  ", "", *lines[1:]]


@pytest.mark.parametrize("defect,message", [
    (lambda parts: parts[:1] + ["x"] + parts[2:], "invalid literal for int() with base 10: 'x'"),
    (lambda parts: parts[:-1], "expected 8 fields"),
    (lambda parts: ["nan"] + parts[1:], "onset must be finite, got nan"),
], ids=["bad-value", "short-row", "non-finite-time"])
def test_csv_reader_names_the_line_of_a_defect_after_the_first_chunk(tmp_path, long_csv_lines,
                                                                     defect, message):
    lines = list(long_csv_lines)
    index = CHUNK_ROWS + 40  # a row of the second chunk
    lines[index] = ",".join(defect(lines[index].split(",")))
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_events(path)
    assert str(err.value) == f"{path}: line {index + 1}: {message}"


def test_csv_reader_reports_a_bad_line_before_an_earlier_invalid_value(tmp_path, long_csv_lines):
    # every row is parsed before the piece is checked, as line by line
    lines = list(long_csv_lines)
    parts = lines[5].split(",")
    lines[5] = ",".join(parts[:1] + ["300"] + parts[2:])
    lines[CHUNK_ROWS + 40] += ","
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {CHUNK_ROWS + 41}: expected 8 fields"):
        read_events(path)
    lines[CHUNK_ROWS + 40] = lines[CHUNK_ROWS + 40][:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 6: pitch 300 outside"):
        read_events(path)


def test_csv_reader_checks_the_fields_of_each_row(tmp_path):
    # a short row and a long one hold 16 fields between them, in the wrong places
    path = tmp_path / "p.csv"
    path.write_text(",".join(CSV_HEADER) + "\n0,60,500,1,0,A,0\n0,0,60,500,1,0,A,0,0\n")
    with pytest.raises(ParseError, match="line 2: expected 8 fields"):
        read_events(path)


def track_file(path, body: bytes, division: int = 960) -> Path:
    path.write_bytes(b"MThd" + struct.pack(">IHHH", 6, 0, 1, division)
                     + b"MTrk" + struct.pack(">I", len(body)) + body)
    return path


# a delta time in ticks and its variable-length quantity, written out by hand
DELTAS = {0x7F: b"\x7f", 0x80: b"\x81\x00", 0x3FFF: b"\xff\x7f", 0x4000: b"\x81\x80\x00"}


def test_midi_reader_reads_one_and_multi_byte_deltas_exactly(tmp_path):
    body, ticks, tick = b"", [], 0
    for delta, vlq in DELTAS.items():  # each note sounds for `delta` ticks
        tick += delta
        ticks.append(tick)
        body += vlq + b"\x90\x3c\x40" + vlq + b"\x80\x3c\x40"
        tick += delta
    piece = read_midi(track_file(tmp_path / "d.mid", body))
    spt = MidiRenderConfig().seconds_per_tick
    assert np.rint(piece.onsets() / spt).astype(int).tolist() == ticks
    assert np.rint(piece.durations() / spt).astype(int).tolist() == list(DELTAS)


@pytest.mark.parametrize("body,at", [
    (b"\x81", 1), (b"\x81\x80", 2), (b"\x00\x90\x3c\x40\xff", 5), (b"\x00\x90\x3c\x40\xff\xff", 6),
])
def test_a_track_cut_inside_a_multi_byte_delta_is_a_parse_error(tmp_path, body, at):
    path = track_file(tmp_path / "cut.mid", body)
    with pytest.raises(ParseError) as err:
        read_events(path)
    assert str(err.value) == f"{path}: truncated variable-length quantity at byte {at}"


def test_midi_reader_pairs_a_note_off_within_its_channel(tmp_path):
    # one key at 960 ppq and 500,000 us per quarter: channel 0 on at 0 s,
    # channel 1 on at 0.05 s, channel 1 off at 0.1 s, channel 0 off at 0.5 s
    body = b"\x00\x90\x3c\x40" b"\x60\x91\x3c\x40" b"\x60\x81\x3c\x40" b"\x86\x00\x80\x3c\x40"
    piece = read_midi(track_file(tmp_path / "channels.mid", body))
    assert piece.onsets().tolist() == pytest.approx([0.0, 0.05])
    assert piece.durations().tolist() == pytest.approx([0.5, 0.05])


def tempo_event(us_per_quarter: int) -> bytes:
    return b"\xff\x51\x03" + us_per_quarter.to_bytes(3, "big")


@pytest.mark.parametrize("fmt", [0, 1])
def test_midi_reader_follows_the_tempo_map(tmp_path, fmt):
    # 960 ppq: 500,000 us per quarter, then 250,000 us from tick 960; the
    # note at tick 480 sounds 480 ticks at each tempo
    tempo_map = [(0, tempo_event(500_000)), (960, tempo_event(250_000))]
    notes = [(0, b"\x90\x3c\x40"), (480, b"\x90\x40\x40"), (960, b"\x80\x3c\x40"),
             (960, b"\x90\x3e\x40"), (1440, b"\x80\x40\x40"), (1920, b"\x80\x3e\x40")]
    tracks = [tempo_map + notes] if fmt == 0 else [tempo_map, notes]
    path = tmp_path / "tempo.mid"
    path.write_bytes(b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), 960)
                     + b"".join(map(track_reference, tracks)))
    piece = read_midi(path)
    assert piece.onsets().tolist() == pytest.approx([0.0, 0.25, 0.5])
    assert piece.durations().tolist() == pytest.approx([0.5, 0.375, 0.25])
    assert piece.pitches().tolist() == [0x3C, 0x40, 0x3E]


# ---------------------------------------------------------------------------
# A MIDI tempo the file can state
# ---------------------------------------------------------------------------


def test_a_tempo_beyond_three_bytes_is_rejected():
    # a tempo event holds 3 bytes: 2**24 + 500,000 would be written as 500,000
    with pytest.raises(ValueError, match="tempo"):
        MidiRenderConfig(tempo_us=2**24 + 500_000)
    with pytest.raises(ValueError, match="tempo"):
        MidiRenderConfig(tempo_us=0)


def test_the_largest_tempo_a_file_can_state_reads_back(tmp_path):
    cfg = MidiRenderConfig(tempo_us=0xFFFFFF)
    piece = Piece.from_events([NoteEvent(0.0, 60, 500, 0.5), NoteEvent(1.0, 62, 500, 0.5)])
    back = read_midi(write_midi(piece, cfg, tmp_path / "slow.mid"))
    assert back.onsets().tolist() == pytest.approx([0.0, 1.0], abs=cfg.seconds_per_tick)


# ---------------------------------------------------------------------------
# read_midi on foreign files, against a per-event reference
# ---------------------------------------------------------------------------

# few channels and keys, so that notes overlap on one channel and key and a
# CC#88 prefix lands on the note's own channel or on another one
channels, keys = st.integers(0, 2), st.integers(60, 62)
foreign_events = st.one_of(
    st.tuples(st.just("on"), channels, keys, st.integers(1, 127)),
    # a note-off as 0x80 with any velocity, or as a note-on of velocity 0
    st.tuples(st.just("off"), channels, keys, st.sampled_from([0x80, 0x90]), st.integers(0, 127)),
    st.tuples(st.just("tempo"), st.integers(10_000, 0xFFFFFF)),
    st.tuples(st.just("program"), channels, st.integers(0, 127)),
    st.tuples(st.just("cc"), channels, st.sampled_from([88, 88, 7, 64]), st.integers(0, 127)),
)
# (delta ticks, event, whether a channel event may reuse the running status)
foreign_tracks = st.lists(st.lists(st.tuples(st.one_of(st.just(0), st.integers(0, 3000)),
                                             foreign_events, st.booleans()), max_size=25),
                          min_size=1, max_size=4)


def foreign_track_chunk(track) -> bytes:
    body, running = bytearray(), None
    for delta, event, reuse in track:
        body += vlq_reference(delta)
        kind = event[0]
        if kind == "tempo":
            body += tempo_event(event[1])
            running = None  # a meta event ends running status
            continue
        if kind == "on":
            status, data = 0x90 | event[1], [event[2], event[3]]
        elif kind == "off":
            status = event[3] | event[1]
            data = [event[2], event[4] if event[3] == 0x80 else 0]
        elif kind == "program":
            status, data = 0xC0 | event[1], [event[2]]
        else:
            status, data = 0xB0 | event[1], [event[2], event[3]]
        if not (reuse and status == running):
            body.append(status)
        body += bytes(data)
        running = status
    body += vlq_reference(0) + b"\xff\x2f\x00"
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def read_midi_reference(tracks, division):
    """(onset, pitch, velocity, duration, voice, symbol, generation, section)
    of every note, event by event: a note-off closes the oldest open note of
    its channel and key, a note open at its track's end lasts one tick, a
    CC#88 prefix gives its low bits to the next note-on of its channel in its
    track, and each tick is timed through the tempo map of all tracks."""
    timed = [list(zip(accumulate(delta for delta, _, _ in track), (e for _, e, _ in track)))
             for track in tracks]
    # the default tempo, then every tempo event by tick; at one tick, in the order read
    tempo_map = [(0, 500_000)] + sorted(((tick, event[1]) for track in timed
                                         for tick, event in track if event[0] == "tempo"),
                                        key=lambda change: change[0])

    def tempo_at(tick):
        """Seconds at ``tick``, and the seconds per tick of the tempo it is in."""
        seconds, last_tick, us = 0.0, 0, 500_000
        for change_tick, change_us in tempo_map:
            if change_tick > tick:
                break
            seconds += (change_tick - last_tick) * us / 1e6 / division
            last_tick, us = change_tick, change_us
        return seconds + (tick - last_tick) * us / 1e6 / division, us / 1e6 / division

    rows = []
    for index, track in enumerate(timed):
        sounding, low_bits, ended = defaultdict(list), {}, []
        for tick, event in track:
            if event[0] == "on":
                sounding[event[1], event[2]].append((tick, event[3], low_bits.pop(event[1], None)))
            elif event[0] == "off" and sounding[event[1], event[2]]:
                ended.append((event[2], tick, *sounding[event[1], event[2]].pop(0)))
            elif event[0] == "cc" and event[2] == 88:
                low_bits[event[1]] = event[3] >> 4
        ended += [(key, start + 1, start, v7, low)
                  for (_, key), notes in sounding.items() for start, v7, low in notes]
        for key, off, on, v7, low in ended:
            velocity = velocity_from_7bit(v7) if low is None else velocity_from_cc88(v7, low)
            (on_s, tick_s), (off_s, _) = tempo_at(on), tempo_at(off)
            rows.append((on_s, key, velocity, max(off_s - on_s, tick_s), max(index - 1, 0),
                         "", 0, 0))
    return rows


def assert_same_notes(piece, rows):
    """The piece's rows and ``rows`` as sorted multisets: times within 1e-9 s,
    every other field exactly."""
    def ordered(notes):
        return sorted(notes, key=lambda r: (r[4], r[1], r[2], r[0], r[3]))

    got = ordered(zip(*(piece.column(name).tolist() for name in COLUMNS)))
    want = ordered(rows)
    assert [r[1:3] + r[4:] for r in got] == [r[1:3] + r[4:] for r in want]
    assert np.allclose([(r[0], r[3]) for r in got], [(r[0], r[3]) for r in want],
                       rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1]), st.sampled_from([96, 480, 960]), foreign_tracks)
@example(1, 960, [[(0, ("tempo", 400_000), False)],
                  [(0, ("tempo", 250_000), False), (0, ("cc", 1, 88, 0x70), False),
                   (0, ("cc", 0, 88, 0x30), False), (0, ("on", 0, 60, 90), False),
                   (0, ("on", 0, 60, 40), True), (480, ("off", 0, 60, 0x90, 0), True),
                   (0, ("on", 1, 60, 70), False), (960, ("off", 0, 60, 0x80, 64), False)]])
def test_read_midi_matches_a_per_event_reference_on_foreign_files(fmt, division, tracks):
    tracks = tracks[:1] if fmt == 0 else tracks
    data = (b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), division)
            + b"".join(map(foreign_track_chunk, tracks)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "foreign.mid"
        path.write_bytes(data)
        piece = read_midi(path)
    assert_same_notes(piece, read_midi_reference(tracks, division))


# ---------------------------------------------------------------------------
# The one-pass CSV reader against a per-line reference
# ---------------------------------------------------------------------------

CSV_TYPES = (float, int, int, float, int, str, int, int)


def read_csv_reference(path):
    """One row tuple per non-blank line; the first line that does not parse
    raises, then the first row that fails the NoteEvent checks or the int64
    range of its int fields."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != CSV_HEADER:
        raise ParseError(f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_HEADER):
            raise ParseError(f"{path}: line {lineno}: expected {len(CSV_HEADER)} fields")
        try:
            rows.append((lineno, tuple(read(part) for read, part in zip(CSV_TYPES, parts))))
        except ValueError as err:
            raise ParseError(f"{path}: line {lineno}: {err}") from None
    for lineno, row in rows:
        try:
            NoteEvent(*row)
            for value in row[1:3] + row[4:5] + row[6:]:
                np.int64(value)  # OverflowError beyond int64
        except (ValueError, OverflowError) as err:
            raise ParseError(f"{path}: line {lineno}: {err}") from None
    return Piece.from_events([NoteEvent(*row) for _, row in rows])


# (column, value) of the causes that make a row invalid after it parses: pitch
# 300, a voice beyond int64 as an object or as a float64 column, and a NaN onset
TWO_ROW_CAUSES = [(1, "300"), (4, str(10**30)), (4, str(2**63)), (0, "nan")]

# what an edited character becomes: the characters of numbers, of nan and
# inf, and of the format's syntax
CSV_EDIT_CHARS = "0123456789-+.eE, \nnaif"


def csv_variants(text: str, count: int, seed: int):
    """``count`` seeded edits of a CSV file's text, a few of each kind; every
    fourth also has blank lines put in first, so that they come before the
    other edits' lines."""
    rng = np.random.default_rng(seed)

    def some_row(lines):
        return int(rng.choice([k for k, line in enumerate(lines) if k and line.strip()]))

    def with_field(text, column, value):
        lines = text.splitlines()
        row = some_row(lines)
        parts = lines[row].split(",")
        parts[column] = value
        lines[row] = ",".join(parts)
        return "\n".join(lines) + "\n"

    def edit_characters(text):
        chars = list(text)
        for _ in range(rng.integers(1, 5)):
            at = int(rng.integers(len(chars)))
            new = CSV_EDIT_CHARS[rng.integers(len(CSV_EDIT_CHARS))]
            kind = rng.integers(3)
            if kind == 0:
                chars[at] = new
            elif kind == 1:
                del chars[at]
            else:
                chars.insert(at, new)
        return "".join(chars)

    def move_a_comma(text):
        lines = text.splitlines()
        row = some_row(lines)
        line = lines[row]
        if rng.integers(2):
            at = line.index(",")
            lines[row] = line[:at] + line[at + 1:]
        else:
            at = int(rng.integers(len(line) + 1))
            lines[row] = line[:at] + "," + line[at:]
        return "\n".join(lines) + "\n"

    def blank_lines(text):
        lines = text.splitlines()
        for _ in range(rng.integers(1, 4)):
            lines.insert(int(rng.integers(1, len(lines) + 1)), ["", " ", "\t  "][rng.integers(3)])
        return "\n".join(lines) + "\n"

    def cut_last_line(text):
        return text[:len(text) - 1 - int(rng.integers(1, len(text.splitlines()[-1])))]

    def two_bad_rows(text):
        # two rows made bad by two different causes, the rows in random order
        lines = text.splitlines()
        rows = rng.choice([k for k, line in enumerate(lines) if k and line.strip()], 2,
                          replace=False)
        for row, cause in zip(rows, rng.choice(len(TWO_ROW_CAUSES), 2, replace=False)):
            column, value = TWO_ROW_CAUSES[cause]
            parts = lines[row].split(",")
            lines[row] = ",".join(parts[:column] + [value] + parts[column + 1:])
        return "\n".join(lines) + "\n"

    kinds = [
        edit_characters, edit_characters, edit_characters, move_a_comma, blank_lines,
        lambda text: with_field(text, [0, 3][rng.integers(2)],
                                ["nan", "inf", "-inf"][rng.integers(3)]),
        lambda text: with_field(text, 1, f"{rng.integers(21, 108)}.5"),
        lambda text: with_field(text, 4, str(10**30)),
        cut_last_line, two_bad_rows,
    ]
    return [kinds[k % len(kinds)](blank_lines(text) if k % 4 == 2 else text) for k in range(count)]


def test_the_csv_reader_equals_a_per_line_reference(tmp_path, depth3_text):
    path = tmp_path / "v.csv"
    head = "".join(depth3_text[".csv"].decode().splitlines(keepends=True)[:301])  # 300 rows
    outcomes = Counter()
    for text in csv_variants(head, 200, seed=31):
        path.write_text(text)
        try:
            want = read_csv_reference(path)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                read_events(path)
            assert str(got.value) == str(err)
            outcomes[str(err).split(": ")[2].split(" ")[0]] += 1
        else:
            assert read_events(path) == want
            outcomes["read"] += 1
    # the variants reach both readers' every outcome: a piece, a field count,
    # a conversion, the row checks and the int64 range
    assert {"read", "expected", "could", "invalid", "onset", "pitch", "Python"} <= set(outcomes), \
        outcomes
