"""Serialization: Standard MIDI File output with a 10-bit velocity convention,
plus lossless JSON/CSV event dumps and round-trip reading.

Standard MIDI carries 7-bit velocities, so the full 10-bit value travels by
one of three modes: a JSON sidecar file keyed by note order (default, exact),
a CC#88 high-resolution prefix before each note-on (the hardware convention
for the 3 extra bits; :func:`read_midi` ignores control changes and widens
the 7-bit velocity), or nothing. Onsets are quantised to the tick grid; at
the default 960 PPQ / 500000 us per quarter one tick is ~0.52 ms.

The writers format every note from the piece's columns; the readers parse
into lists and build the piece with :meth:`Piece.from_columns`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import COLUMNS, NoteEvent, Piece

CSV_HEADER = ["onset_s", "pitch", "velocity10", "duration_s", "voice", "symbol",
              "generation", "section"]

# Pieces carrying pre-compensated (negative) onsets are shifted late by this
# fixed amount so tick times stay non-negative; recorded in metadata.
NEGATIVE_ONSET_SHIFT = 0.030


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
        if self.tempo_us <= 0:
            raise ValueError("tempo must be positive")
        if self.velocity_mode not in ("sidecar", "cc88", "off"):
            raise ValueError(f"unknown velocity mode {self.velocity_mode!r}")

    @property
    def seconds_per_tick(self) -> float:
        return self.tempo_us / 1e6 / self.ppq


def velocity_to_7bit(v10):
    """Note-on byte(s) for 10-bit velocities; 0 would mean note-off, so floor at 1.

    Takes a scalar or an array and rounds half to even, like ``round``.
    """
    v7 = np.maximum(1, np.rint(np.asarray(v10) * 127 / 1023)).astype(np.int64)
    return v7 if v7.ndim else int(v7)


def velocity_from_7bit(v7):
    v10 = np.rint(np.asarray(v7) * 1023 / 127).astype(np.int64)
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
    if n and voices.min() < 0:
        raise ValueError(f"MIDI tracks need voice indices >= 0, got {voices.min()}")
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
        order = np.lexsort((pitches, voices, tick_on))
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

    Without a velocity sidecar, 10-bit velocities are widened from the 7-bit
    bytes. Note-ons with velocity 0 are treated as note-offs (running-status
    files are supported).
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 14 or data[:4] != b"MThd":
        raise ParseError("not a Standard MIDI File (missing MThd)")
    header_len, fmt, n_tracks, division = struct.unpack(">IHHH", data[4:14])
    if division & 0x8000:
        raise ParseError("SMPTE time division is not supported")
    pos = 14
    tempo_us = 500_000
    shift = 0.0
    notes = []

    for track_index in range(n_tracks):
        if data[pos:pos + 4] != b"MTrk":
            raise ParseError(f"missing MTrk chunk at byte {pos}")
        length = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + length]
        if len(body) < length:
            raise ParseError(f"truncated track {track_index} at byte {pos}")
        pos += 8 + length

        tick = 0
        p = 0
        status = None
        # per key, the notes still sounding; a note-off ends the oldest one
        open_notes: dict[int, list[tuple[int, int]]] = {}
        while p < len(body):
            delta, p = _read_vlq(body, p)
            tick += delta
            if p >= len(body):
                raise ParseError(f"track {track_index} ends inside an event")
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
                    tempo_us = int.from_bytes(payload, "big")
                elif meta_type == 0x01 and payload.startswith(b"onset_shift_s="):
                    shift = float(payload.split(b"=", 1)[1])
                continue
            if status in (0xF0, 0xF7):  # sysex
                mlen, p = _read_vlq(body, p)
                p += mlen
                continue
            kind = status & 0xF0
            if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                if p + 2 > len(body):
                    raise ParseError(f"truncated channel event at byte {p}")
                d1, d2 = body[p], body[p + 1]
                p += 2
            elif kind in (0xC0, 0xD0):
                d1, d2 = body[p], 0
                p += 1
            else:
                raise ParseError(f"unknown status byte 0x{status:02x} at byte {p}")

            if kind == 0x90 and d2 > 0:
                open_notes.setdefault(d1, []).append((tick, d2))
            elif (kind == 0x80 or (kind == 0x90 and d2 == 0)) and open_notes.get(d1):
                start, v7 = open_notes[d1].pop(0)
                notes.append((track_index, start, tick, d1, v7))
        for pitch, sounding in open_notes.items():
            notes.extend((track_index, start, start + 1, pitch, v7) for start, v7 in sounding)

    spt = tempo_us / 1e6 / division
    sidecar_path = Path(str(path) + ".velocity.json")
    sidecar = None
    if sidecar_path.exists():
        payload = json.loads(sidecar_path.read_text())
        sidecar = payload["velocities"]
        shift = payload.get("onset_shift_s", shift)

    notes.sort(key=lambda n: (n[1], n[0], n[3]))
    track, on_tick, off_tick, pitch, v7 = (np.array(c, dtype=np.int64)
                                           for c in _transpose(notes, 5))
    velocity = velocity_from_7bit(v7)
    if sidecar is not None:
        k = min(len(sidecar), len(notes))
        velocity[:k] = np.asarray(sidecar[:k]).astype(np.int64)
    return Piece.from_columns(on_tick * spt - shift, pitch, velocity,
                              np.maximum((off_tick - on_tick) * spt, spt),
                              np.maximum(track - 1, 0), metadata={"source": str(path)})


# ---------------------------------------------------------------------------
# JSON / CSV
# ---------------------------------------------------------------------------


def _transpose(rows: list[tuple], width: int = len(COLUMNS)) -> list[tuple]:
    return list(zip(*rows)) or [()] * width


# the JSON event keys in column order, with the type each value is read as;
# pitch and velocity are read as given, so Piece.from_columns rejects a fraction
_JSON_FIELDS = (("onset_s", float), ("pitch", None), ("velocity10", None), ("duration_s", float),
                ("voice", int), ("symbol", str), ("generation", int), ("section", int))


def write_events_json(piece: Piece, path) -> Path:
    """Write the bytes of ``json.dumps(doc, indent=1)`` for the document
    ``{"metadata", "sections", "events": [one object per note]}``."""
    path = Path(path)
    text = json.dumps({"metadata": piece.metadata,
                       "sections": [list(s) for s in piece.sections],
                       "events": []}, indent=1)
    if len(piece):
        cols = [piece.column(name).tolist() for name in COLUMNS]
        quoted = {s: json.dumps(s) for s in set(cols[5])}
        cols[5] = [quoted[s] for s in cols[5]]
        # json.dumps writes ints with repr and floats with float.__repr__
        events = ",\n".join([
            f'  {{\n   "onset_s": {t!r},\n   "pitch": {p},\n   "velocity10": {v},\n'
            f'   "duration_s": {d!r},\n   "voice": {vo},\n   "symbol": {s},\n'
            f'   "generation": {g},\n   "section": {se}\n  }}'
            for t, p, v, d, vo, s, g, se in zip(*cols)])
        text = text[:-len("[]\n}")] + "[\n" + events + "\n ]\n}"
    path.write_text(text)
    return path


def write_events_csv(piece: Piece, path) -> Path:
    path = Path(path)
    rows = [f"{t!r},{p},{v},{d!r},{vo},{s},{g},{se}"
            for t, p, v, d, vo, s, g, se in zip(*(piece.column(name).tolist()
                                                   for name in COLUMNS))]
    path.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
    return path


def read_events(path) -> Piece:
    """Read a piece from .json, .csv or .mid/.midi by extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from err
        try:
            events = doc["events"]
            columns = [[d[key] for d in events] if read is None else [read(d[key]) for d in events]
                       for key, read in _JSON_FIELDS]
            sections = tuple(tuple(s) for s in doc.get("sections", []))
            return Piece.from_columns(*columns, sections=sections,
                                      metadata=doc.get("metadata", {}))
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"{path}: malformed event document: {err}") from err
    if suffix == ".csv":
        rows, linenos = [], []
        lines = path.read_text().splitlines()
        if not lines or lines[0].split(",") != CSV_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_HEADER):
                raise ParseError(f"{path}: line {lineno}: expected {len(CSV_HEADER)} fields")
            try:
                rows.append((float(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]),
                             int(parts[4]), parts[5], int(parts[6]), int(parts[7])))
            except ValueError as err:
                raise ParseError(f"{path}: line {lineno}: {err}") from err
            linenos.append(lineno)
        try:
            return Piece.from_columns(*_transpose(rows))
        except ValueError as err:
            # the error is the first invalid row's; name its line
            lineno = next(n for n, row in zip(linenos, rows) if not _is_valid(row))
            raise ParseError(f"{path}: line {lineno}: {err}") from err
    if suffix in (".mid", ".midi"):
        return read_midi(path)
    raise ParseError(f"unsupported file type: {path}")


def _is_valid(row: tuple) -> bool:
    try:
        NoteEvent(*row)
    except ValueError:
        return False
    return True
