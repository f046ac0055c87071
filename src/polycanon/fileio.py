"""Serialization: Standard MIDI File output with a 10-bit velocity convention,
plus lossless JSON/CSV event dumps and round-trip reading.

Standard MIDI carries 7-bit velocities, so the full 10-bit value travels by
one of three modes: a JSON sidecar file keyed by note order (default, exact),
a CC#88 high-resolution prefix before each note-on (hardware convention,
carries the 3 extra bits), or nothing. Onsets are quantised to the tick grid;
at the default 960 PPQ / 500000 us per quarter one tick is ~0.52 ms.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

from .events import NoteEvent, Piece

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


def velocity_to_7bit(v10: int) -> int:
    """Note-on byte for a 10-bit velocity; 0 would mean note-off, so floor at 1."""
    return max(1, round(v10 * 127 / 1023))


def velocity_from_7bit(v7: int) -> int:
    return round(v7 * 1023 / 127)


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


def _track_chunk(messages: list[tuple[int, bytes]]) -> bytes:
    """messages: (absolute tick, event bytes), sorted here."""
    messages = sorted(messages, key=lambda m: m[0])
    body = bytearray()
    prev = 0
    for tick, payload in messages:
        body += _vlq(tick - prev)
        body += payload
        prev = tick
    body += _vlq(0) + bytes([0xFF, 0x2F, 0x00])  # end of track
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def write_midi(piece: Piece, cfg: MidiRenderConfig, path) -> Path:
    """Format-1 SMF: track 0 holds the tempo map, one track per voice.

    Returns the written path. In sidecar mode the exact 10-bit velocities and
    the applied onset shift land in ``<path>.velocity.json``, the velocities
    in the order :func:`read_midi` lists notes: by (tick, track, pitch).
    """
    path = Path(path)
    shift = 0.0
    if piece.events and min(e.onset for e in piece.events) < 0:
        shift = NEGATIVE_ONSET_SHIFT

    voices = piece.voices() or [0]
    tracks: dict[int, list[tuple[int, bytes]]] = {v: [] for v in voices}
    note_order: list[NoteEvent] = sorted(
        piece.events, key=lambda e: (e.onset, e.voice, e.pitch, e.velocity))
    sidecar_keys = []
    spt = cfg.seconds_per_tick
    for e in note_order:
        tick_on = round((e.onset + shift) / spt)
        tick_off = max(tick_on + 1, round((e.onset + shift + e.duration) / spt))
        v7 = velocity_to_7bit(e.velocity)
        track = tracks[e.voice]
        if cfg.velocity_mode == "cc88":
            track.append((tick_on, bytes([0xB0, 88, (e.velocity & 0x7) << 4])))
        track.append((tick_on, bytes([0x90, e.pitch, v7])))
        track.append((tick_off, bytes([0x80, e.pitch, 0x40])))
        sidecar_keys.append((tick_on, e.voice, e.pitch))
    # the reader's note order: (tick, track, pitch), then note-on order, which
    # the stable sort keeps from note_order
    order = sorted(range(len(note_order)), key=sidecar_keys.__getitem__)
    sidecar_velocities = [note_order[i].velocity for i in order]

    tempo_track = [
        (0, bytes([0xFF, 0x51, 0x03]) + struct.pack(">I", cfg.tempo_us)[1:]),
        (0, _meta_text(f"onset_shift_s={shift}")),
    ]
    chunks = [_track_chunk(tempo_track)] + [_track_chunk(tracks[v]) for v in voices]
    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), cfg.ppq)
    path.write_bytes(header + b"".join(chunks))

    if cfg.velocity_mode == "sidecar":
        sidecar = {"velocities": sidecar_velocities, "onset_shift_s": shift}
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
    events = []
    for order, (track_index, on_tick, off_tick, pitch, v7) in enumerate(notes):
        if sidecar is not None and order < len(sidecar):
            v10 = int(sidecar[order])
        else:
            v10 = velocity_from_7bit(v7)
        events.append(NoteEvent(
            onset=on_tick * spt - shift,
            pitch=pitch,
            velocity=v10,
            duration=max((off_tick - on_tick) * spt, spt),
            voice=max(track_index - 1, 0),
        ))
    return Piece.from_events(events, metadata={"source": str(path)})


# ---------------------------------------------------------------------------
# JSON / CSV
# ---------------------------------------------------------------------------


def _event_to_dict(e: NoteEvent) -> dict:
    return {"onset_s": e.onset, "pitch": e.pitch, "velocity10": e.velocity,
            "duration_s": e.duration, "voice": e.voice, "symbol": e.symbol,
            "generation": e.generation, "section": e.section}


def _event_from_dict(d: dict) -> NoteEvent:
    return NoteEvent(float(d["onset_s"]), int(d["pitch"]), int(d["velocity10"]),
                     float(d["duration_s"]), int(d["voice"]), str(d["symbol"]),
                     int(d["generation"]), int(d["section"]))


def write_events_json(piece: Piece, path) -> Path:
    path = Path(path)
    doc = {
        "metadata": piece.metadata,
        "sections": [list(s) for s in piece.sections],
        "events": [_event_to_dict(e) for e in piece.events],
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def write_events_csv(piece: Piece, path) -> Path:
    path = Path(path)
    rows = [",".join(CSV_HEADER)]
    for e in piece.events:
        rows.append(f"{e.onset!r},{e.pitch},{e.velocity},{e.duration!r},"
                    f"{e.voice},{e.symbol},{e.generation},{e.section}")
    path.write_text("\n".join(rows) + "\n")
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
            events = [_event_from_dict(d) for d in doc["events"]]
            sections = tuple(tuple(s) for s in doc.get("sections", []))
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"{path}: malformed event document: {err}") from err
        return Piece.from_events(events, sections, doc.get("metadata", {}))
    if suffix == ".csv":
        events = []
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
                events.append(NoteEvent(float(parts[0]), int(parts[1]), int(parts[2]),
                                        float(parts[3]), int(parts[4]), parts[5],
                                        int(parts[6]), int(parts[7])))
            except ValueError as err:
                raise ParseError(f"{path}: line {lineno}: {err}") from err
        return Piece.from_events(events)
    if suffix in (".mid", ".midi"):
        return read_midi(path)
    raise ParseError(f"unsupported file type: {path}")
