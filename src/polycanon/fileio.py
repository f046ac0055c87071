"""Serialization: Standard MIDI File output with a 10-bit velocity convention,
plus lossless JSON/CSV event dumps and round-trip reading.

Standard MIDI carries 7-bit velocities, so the full 10-bit value travels by
one of three modes: a JSON sidecar file keyed by note order (default, exact),
a CC#88 high-resolution prefix before each note-on (the hardware convention
for the 3 extra bits), or nothing. :func:`read_midi` decodes a CC#88 prefix
and the note-on after it on the same channel to the 10-bit value, written as
that pair, nearest the widened 7-bit velocity: exact for all but the 22
velocities :func:`velocity_from_cc88` lists, 11 pairs that each read back as
one of the two. A note-on without a prefix is widened. Onsets are quantised
to the tick grid; at the default 960 PPQ / 500000 us per quarter one tick is
~0.52 ms.

:func:`read_midi` times ticks by the tempo map of all tracks (500000 us per
quarter before the first tempo event) and pairs a note-off with an open note
of its channel and key: the oldest open note closes first.

The JSON and CSV writers print each value's text from the piece's cached
text view, :attr:`Piece.text`, so a piece written both ways formats each
value once, and they write a chunk of rows at a time; the MIDI writer works
on the columns. The event keys come from ``events.SCHEMA``, and only a
format's own limits are checked here: the characters a CSV symbol cannot
hold (``events.CSV_UNSAFE``) and the voices a MIDI file can hold. The
readers only parse, into per-column lists, and :meth:`Piece.from_columns`
judges the rows; the CSV reader names the line of the row it rejects. The
JSON reader takes each value as given and checks only its JSON type, the
CSV reader appends each line's converted fields to their columns in one
pass, and the MIDI reader reads a one-byte delta inline.
"""

from __future__ import annotations

import json
import struct
from collections import defaultdict, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import (COLUMNS, MIN_ONSET, SCHEMA, VELOCITY_MAX, Piece, RowError,
                     csv_symbol_problem, note_problem, row_order)
from .stochastic import config_section

# the event keys in column order
CSV_HEADER = [rule[0] for rule in SCHEMA.values()]
# the header counts tracks in 16 bits: the tempo track, then one per voice from 0
MIDI_MAX_VOICE = 0xFFFF - 2

# Pieces carrying pre-compensated (negative) onsets are shifted late by this
# fixed amount so tick times stay non-negative; recorded in metadata.
NEGATIVE_ONSET_SHIFT = -MIN_ONSET


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class MidiRenderConfig:
    ppq: int = 960
    tempo_us: int = 500_000
    velocity_mode: str = "sidecar"  # sidecar | cc88 | off

    def __post_init__(self):
        if self.ppq < 96:
            raise ValueError(f"PPQ must be >= 96, got {self.ppq}")
        if not 0 < self.tempo_us <= 0xFFFFFF:  # a tempo event holds 3 bytes
            raise ValueError(f"tempo must be 1..16777215 us per quarter, got {self.tempo_us}")
        if self.velocity_mode not in ("sidecar", "cc88", "off"):
            raise ValueError(f"unknown velocity mode {self.velocity_mode!r}")

    @property
    def seconds_per_tick(self) -> float:
        return self.tempo_us / 1e6 / self.ppq


def midi_from_config(cfg: dict) -> MidiRenderConfig:
    """The ``midi`` section's render settings; errors name their path, e.g. ``midi.ppqn``."""
    return config_section(MidiRenderConfig, cfg, "midi")


def velocity_to_7bit(v10):
    """Note-on byte(s) for 10-bit velocities; 0 would mean note-off, so floor at 1.

    Takes a scalar or an array and rounds half to even, like ``round``.
    """
    v7 = np.maximum(1, np.rint(np.asarray(v10) * 127 / VELOCITY_MAX)).astype(np.int64)
    return v7 if v7.ndim else int(v7)


def velocity_from_7bit(v7):
    v10 = np.rint(np.asarray(v7) * VELOCITY_MAX / 127).astype(np.int64)
    return v10 if v10.ndim else int(v10)


def velocity_from_cc88(v7, low3):
    """10-bit velocities for note-on bytes ``v7`` (>= 1) and the low 3 bits
    their CC#88 prefixes carry: of the values written as that pair, the one
    nearest the widened 7-bit velocity, the lower one on a tie.

    This is exact for every velocity but 22: the 11 (v7, low3) pairs that two
    velocities share, (1, 0) to (1, 4) below the note-on floor and (18, 5),
    (36, 6), (54, 7), (73, 0), (91, 1), (109, 2), decode to one of the two.
    A pair no velocity is written as decodes to the nearest value with its
    low bits.
    """
    v7 = np.asarray(v7)
    wide = velocity_from_7bit(v7)
    # the values with these low bits next to the widened one; a value written
    # as (v7, low3) lies within 4.6 of it, so it is one of the two
    below = wide - ((wide - low3) & 7)  # >= 0, since wide >= 8
    above = below + 8
    fits_below = velocity_to_7bit(below) == v7
    fits_above = (above <= VELOCITY_MAX) & (velocity_to_7bit(above) == v7)
    v10 = np.where(fits_above & (~fits_below | (above - wide < wide - below)), above, below)
    return v10 if v10.ndim else int(v10)


# ---------------------------------------------------------------------------
# SMF encoding primitives
# ---------------------------------------------------------------------------


def _vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta time")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        if pos >= len(data):
            raise ParseError(f"truncated variable-length quantity at byte {pos}")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


_END_OF_TRACK = _vlq(0) + bytes([0xFF, 0x2F, 0x00])


def _chunk(events: bytes) -> bytes:
    body = events + _END_OF_TRACK
    return b"MTrk" + struct.pack(">I", len(body)) + body


def _note_track_chunk(ticks: np.ndarray, payloads: np.ndarray) -> bytes:
    """A track of 3-byte channel messages given in insertion order.

    A stable sort by absolute tick keeps same-tick messages in insertion
    order; the delta times are encoded as variable-length quantities all at
    once.
    """
    order = np.argsort(ticks, kind="stable")
    deltas = np.diff(ticks[order], prepend=0)
    if deltas.size and deltas.min() < 0:
        raise ValueError("negative delta time")
    size = np.ones(len(deltas), dtype=np.int64)  # VLQ bytes per delta
    while (more := (deltas >> (7 * size)) > 0).any():
        size += more
    start = np.cumsum(size + 3) - (size + 3)
    body = np.empty(int((size + 3).sum()), dtype=np.uint8)
    for j in range(int(size.max(initial=0))):
        has = size > j
        later = size[has] - 1 - j  # 7-bit groups after this one
        body[start[has] + j] = ((deltas[has] >> (7 * later)) & 0x7F) | np.where(later > 0, 0x80, 0)
    for k in range(3):
        body[start + size + k] = payloads[order, k]
    return _chunk(body.tobytes())


def write_midi(piece: Piece, cfg: MidiRenderConfig, path) -> Path:
    """Format-1 SMF: track 0 holds the tempo map, then one track per voice
    index from 0 to the highest voice (empty for a voice without notes).

    Returns the written path. In sidecar mode the exact 10-bit velocities and
    the applied onset shift land in ``<path>.velocity.json``, the velocities
    in the order :func:`read_midi` lists notes: by (tick, track, pitch).
    """
    path = Path(path)
    n = len(piece)
    onsets, pitches, velocities = piece.onsets(), piece.pitches(), piece.velocities()
    voices = piece.column("voice")
    if n and not 0 <= voices.min() <= voices.max() <= MIDI_MAX_VOICE:
        bad = voices.min() if voices.min() < 0 else voices.max()
        raise ValueError(f"MIDI tracks need voices in 0..{MIDI_MAX_VOICE:,}, got {bad}")
    shift = NEGATIVE_ONSET_SHIFT if n and onsets.min() < 0 else 0.0
    spt = cfg.seconds_per_tick
    tick_on = np.rint((onsets + shift) / spt).astype(np.int64)
    tick_off = np.maximum(tick_on + 1,
                          np.rint((onsets + shift + piece.durations()) / spt).astype(np.int64))
    # per note, in piece order: [CC#88], note-on, note-off
    ones = np.ones(n, dtype=np.int64)
    messages = [(tick_on, 0x90 * ones, pitches, velocity_to_7bit(velocities)),
                (tick_off, 0x80 * ones, pitches, 0x40 * ones)]
    if cfg.velocity_mode == "cc88":
        messages.insert(0, (tick_on, 0xB0 * ones, 88 * ones, (velocities & 0x7) << 4))
    ticks = np.stack([m[0] for m in messages], axis=1)
    payloads = np.stack([np.stack(m[1:], axis=1) for m in messages], axis=1)

    tempo = bytes([0xFF, 0x51, 0x03]) + struct.pack(">I", cfg.tempo_us)[1:]
    chunks = [_chunk(_vlq(0) + tempo + _vlq(0) + _meta_text(f"onset_shift_s={shift}"))]
    for voice in range(int(voices.max()) + 1 if n else 1):
        rows = voices == voice
        chunks.append(_note_track_chunk(ticks[rows].ravel(), payloads[rows].reshape(-1, 3)))
    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), cfg.ppq)
    path.write_bytes(header + b"".join(chunks))

    if cfg.velocity_mode == "sidecar":
        # the reader's note order: (tick, track, pitch), then piece order
        order = row_order(tick_on, voices, pitches)
        sidecar = {"velocities": velocities[order].tolist(), "onset_shift_s": shift}
        Path(str(path) + ".velocity.json").write_text(json.dumps(sidecar))
    return path


def _meta_text(text: str) -> bytes:
    data = text.encode("ascii")
    return bytes([0xFF, 0x01]) + _vlq(len(data)) + data


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_midi(path) -> Piece:
    """Read an SMF written by :func:`write_midi` or a foreign format-0/1 file.

    Without a velocity sidecar, a note-on's 10-bit velocity is decoded from
    its 7-bit byte and the CC#88 prefix before it on its channel
    (:func:`velocity_from_cc88`), or widened from the byte when it has none.
    A sidecar's values must be JSON numbers, and each is judged as given.
    Note-ons with velocity 0 are treated as note-offs (running-status files
    are supported). A note-off closes an open note of its channel and key,
    and the oldest open note closes first; a note open at its track's end
    lasts one tick. Ticks become seconds through one tempo map gathered from
    every track: a tempo event holds from its tick on (of two at one tick,
    the one read last), and 500000 us per quarter holds before the first. A
    note within one tempo lasts its ticks times that tempo's seconds per
    tick, and at least one tick.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 14 or data[:4] != b"MThd":
        raise ParseError("not a Standard MIDI File (missing MThd)")
    header_len, fmt, n_tracks, division = struct.unpack(">IHHH", data[4:14])
    if division & 0x8000:
        raise ParseError("SMPTE time division is not supported")
    if division == 0:
        raise ParseError("time division of 0 ticks per quarter note")
    pos = 14
    tempos = [(0, 500_000)]  # (tick, us per quarter): the default, then as read
    shift = 0.0
    notes = []

    for track_index in range(n_tracks):
        if data[pos:pos + 4] != b"MTrk":
            raise ParseError(f"missing MTrk chunk at byte {pos}")
        if len(data) < pos + 8:
            raise ParseError(f"truncated track {track_index} at byte {pos}")
        length = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + length]
        if len(body) < length:
            raise ParseError(f"truncated track {track_index} at byte {pos}")
        pos += 8 + length

        tick = 0
        p = 0
        status = None
        # per channel * 128 + key, the notes still sounding, oldest first
        open_notes: defaultdict[int, deque] = defaultdict(deque)
        # per channel, the low 3 velocity bits of a CC#88 prefix not yet used
        low_bits: dict[int, int] = {}
        # an index past the body's end is an event cut off by the track's end
        try:
            while p < len(body):
                byte = body[p]
                if byte < 0x80:  # a one-byte delta, the common case
                    tick += byte
                    p += 1
                else:
                    delta, p = _read_vlq(body, p)
                    tick += delta
                byte = body[p]
                if byte >= 0x80:
                    status = byte
                    p += 1
                elif status is None:
                    raise ParseError(f"running status without prior status at byte {p}")
                if status == 0xFF:
                    meta_type = body[p]
                    p += 1
                    mlen, p = _read_vlq(body, p)
                    payload = body[p:p + mlen]
                    p += mlen
                    if meta_type == 0x51 and mlen == 3:
                        tempos.append((tick, int.from_bytes(payload, "big")))
                    elif meta_type == 0x01 and payload.startswith(b"onset_shift_s="):
                        shift = float(payload.split(b"=", 1)[1])
                    continue
                if status in (0xF0, 0xF7):  # sysex
                    mlen, p = _read_vlq(body, p)
                    p += mlen
                    continue
                kind = status & 0xF0
                if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                    d1, d2 = body[p], body[p + 1]
                    p += 2
                elif kind in (0xC0, 0xD0):
                    d1, d2 = body[p], 0
                    p += 1
                else:
                    raise ParseError(f"unknown status byte 0x{status:02x} at byte {p}")
                if (d1 | d2) & 0x80:
                    raise ParseError(f"data byte above 0x7f in a channel event before byte {p}")

                if kind == 0x90 and d2 > 0:
                    low = low_bits.pop(status & 0x0F, -1)
                    open_notes[(status & 0x0F) << 7 | d1].append((tick, d2, low))
                elif kind == 0x80 or kind == 0x90:
                    sounding = open_notes.get((status & 0x0F) << 7 | d1)
                    if sounding:
                        start, v7, low = sounding.popleft()
                        notes.append((track_index, start, tick, d1, v7, low))
                elif kind == 0xB0 and d1 == 88:
                    low_bits[status & 0x0F] = d2 >> 4
        except IndexError:
            raise ParseError(f"track {track_index} ends inside an event") from None
        for key, sounding in open_notes.items():
            notes.extend((track_index, start, start + 1, key & 0x7F, v7, low)
                         for start, v7, low in sounding)

    # the tempo map: each change's tick, seconds per tick and start in seconds
    change, tempo_us = (np.array(c, dtype=np.int64) for c in zip(*tempos))
    order = np.argsort(change, kind="stable")  # at one tick, the tempo read last holds
    change, spt = change[order], tempo_us[order] / 1e6 / division
    change_s = np.concatenate(([0.0], np.cumsum(np.diff(change) * spt[:-1])))
    sidecar_path = Path(str(path) + ".velocity.json")
    sidecar = None
    if sidecar_path.exists():
        payload = json.loads(sidecar_path.read_text())
        sidecar = payload["velocities"]
        shift = payload.get("onset_shift_s", shift)
        if not (_has_json_type(sidecar, np.int64) and _has_json_type([shift], np.float64)):
            raise ValueError(f"{sidecar_path.name}: velocities and onset_shift_s must be "
                             "JSON numbers")

    columns = [np.array(c, dtype=np.int64) for c in list(zip(*notes)) or [()] * 6]
    # by (tick, track, pitch), then in the order the notes were read
    order = row_order(columns[1], columns[0], columns[3])
    track, on_tick, off_tick, pitch, v7, low = (c[order] for c in columns)
    velocity = np.where(low >= 0, velocity_from_cc88(v7, low), velocity_from_7bit(v7))
    if sidecar is not None:  # as given, so the piece's checks judge each value
        velocity = sidecar[:len(notes)] + velocity[len(sidecar):].tolist()
    ticks = np.stack((on_tick, off_tick))
    seg = np.searchsorted(change, ticks, side="right") - 1  # the tempo each tick is in
    on_s, off_s = change_s[seg] + (ticks - change[seg]) * spt[seg]
    # a note within one tempo scales its span of ticks at once, so a one-tempo
    # file reads durations max((off - on) * spt, spt) exactly
    duration = np.where(seg[0] == seg[1], (off_tick - on_tick) * spt[seg[0]], off_s - on_s)
    return Piece.from_columns(on_s - shift, pitch, velocity, np.maximum(duration, spt[seg[0]]),
                              np.maximum(track - 1, 0), metadata={"source": str(path)})


# ---------------------------------------------------------------------------
# JSON / CSV
# ---------------------------------------------------------------------------


# the text after each value of a JSON event: the last closes the event and
# opens the next; _JSON_OPEN opens the first
_JSON_OPEN = f'[\n  {{\n   "{CSV_HEADER[0]}": '
_JSON_SEPS = (*(f',\n   "{key}": ' for key in CSV_HEADER[1:]), "\n  }," + _JSON_OPEN[1:])
_CSV_SEPS = (",",) * (len(CSV_HEADER) - 1) + ("\n",)
# rows per write: the text of a whole piece at once, and its encoded copy,
# would sit in memory next to the piece's text view
_CHUNK_ROWS = 2048


def _write_rows(path: Path, head: str, columns: list[list[str]], seps: tuple[str, ...],
                tail: str) -> Path:
    """Write ``head``, every row's parts (each column's text followed by its
    separator, the last row's final separator replaced by ``tail``), a chunk
    of rows at a time."""
    n, width = len(columns[0]), 2 * len(seps)
    with path.open("w") as f:
        f.write(head)
        for start in range(0, n, _CHUNK_ROWS):
            rows = min(n - start, _CHUNK_ROWS)
            parts = [""] * (width * rows)
            for k, (col, sep) in enumerate(zip(columns, seps)):
                parts[2 * k::width] = col[start:start + rows]
                parts[2 * k + 1::width] = [sep] * rows
            if start + rows == n:
                parts[-1] = tail
            f.write("".join(parts))
    return path


def write_events_json(piece: Piece, path) -> Path:
    """Write the bytes of ``json.dumps(doc, indent=1)`` for the document
    ``{"metadata", "sections", "events": [one object per note]}``."""
    path = Path(path)
    text = json.dumps({"metadata": piece.metadata,
                       "sections": [list(s) for s in piece.sections],
                       "events": []}, indent=1)
    if not len(piece):
        path.write_text(text)
        return path
    # the text view holds each value as json.dumps writes it (repr of an int,
    # float.__repr__ of a float); symbols are quoted here, once per distinct one
    columns = [piece.text[name] for name in COLUMNS]
    quoted = {s: json.dumps(s) for s in set(columns[5])}
    columns[5] = list(map(quoted.__getitem__, columns[5]))
    return _write_rows(path, text[:-len("[]\n}")] + _JSON_OPEN, columns, _JSON_SEPS,
                       "\n  }\n ]\n}")


def write_events_csv(piece: Piece, path) -> Path:
    """Write the header and a line per note; a symbol that holds a character of
    ``events.CSV_UNSAFE`` raises ValueError before the file is opened."""
    columns = [piece.text[name] for name in COLUMNS]
    if problem := csv_symbol_problem(dict.fromkeys(columns[5])):
        raise ValueError(problem)
    return _write_rows(Path(path), ",".join(CSV_HEADER) + "\n", columns, _CSV_SEPS, "\n")


def read_events(path) -> Piece:
    """Read a piece from .json, .csv or .mid/.midi by extension; a file that
    cannot be opened raises ParseError with the OSError's message."""
    path = Path(path)
    try:
        return _read_events(path)
    except OSError as err:
        raise ParseError(str(err)) from err


def _read_events(path: Path) -> Piece:
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            doc = json.loads(_read_text(path))
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from err
        try:
            events = doc["events"]
            columns = [[d[key] for d in events] for key in CSV_HEADER]
            if not all(map(_has_json_type, columns, COLUMNS.values())):
                raise next(RowError(problem, i) for i, row in enumerate(zip(*columns))
                           if (problem := note_problem(*row)))
            sections = tuple(tuple(s) for s in doc.get("sections", []))
            return Piece.from_columns(*columns, sections=sections,
                                      metadata=doc.get("metadata", {}))
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"{path}: malformed event document: {err}") from err
    if suffix == ".csv":
        return _read_csv(path)
    if suffix in (".mid", ".midi"):
        # besides ParseError: a bad onset-shift text or sidecar, or notes the
        # piece's checks reject
        try:
            return read_midi(path)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"{path}: {err}") from err
    raise ParseError(f"unsupported file type: {path}")


def _has_json_type(values, dtype) -> bool:
    """Whether each JSON value is of the type a column of ``dtype`` takes: a str
    for a symbol, any other value a number, and not a bool or str that numpy
    would read as one."""
    return set(map(type, values)) <= ({str} if dtype is object else {int, float})


def _read_csv(path: Path) -> Piece:
    """Parse the rows in one pass over the lines: each non-blank line is
    split, checked for 8 fields, and each field converted and appended to
    its column; a line that fails raises ParseError naming it, as does the
    row the piece's checks reject."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0].split(",") != CSV_HEADER:
        raise ParseError(f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
    width = len(CSV_HEADER)
    columns = [[] for _ in CSV_HEADER]
    (add_onset, add_pitch, add_velocity, add_duration, add_voice, add_symbol, add_generation,
     add_section) = (column.append for column in columns)
    try:
        for lineno, line in enumerate(lines[1:], 2):
            parts = line.split(",")
            if len(parts) != width:
                if not line.strip():
                    continue  # a blank line, which always has too few fields
                raise ValueError(f"expected {width} fields")
            onset, pitch, velocity, duration, voice, symbol, generation, section = parts
            add_onset(float(onset))
            add_pitch(int(pitch))
            add_velocity(int(velocity))
            add_duration(float(duration))
            add_voice(int(voice))
            add_symbol(symbol)
            add_generation(int(generation))
            add_section(int(section))
    except ValueError as err:
        raise ParseError(f"{path}: line {lineno}: {err}") from err
    try:
        return Piece.from_columns(*columns)
    except RowError as err:
        lineno = [n for n, line in enumerate(lines[1:], 2) if line.strip()][err.row]
        raise ParseError(f"{path}: line {lineno}: {err}") from err


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not text: {err}") from err
