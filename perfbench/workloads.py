"""The benchmark's three workloads: render, analyze and battery.

Each is a closed loop with one client in one process: the next operation
starts when the previous one has returned. Every input derives from the
workload seed. An operation is split into passes, the smallest cycle that
covers the workload's whole mix, and runs call into polycanon's public
functions through a tracer (``spans.Untraced`` on the timed path).

The module imports polycanon, so ``src`` must be on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polycanon import cli, experiments, fileio, grammar, hal, mapping, metrics, pipeline, presets
from polycanon.stochastic import make_rng

RENDER_DEPTH = 4
UNCALIBRATED_EVERY = 4
ANALYZE_DEPTHS = (4, 6, 8)
ANALYZE_FORMATS = ("json", "csv", "mid")
ANALYZE_METRICS = "pcc,nlz,mc,rc,vss"
# a cheap entry that still touches generation, metrics and stats
BATTERY_WARMUP = "fidelity"
OUTPUT_NAMES = ("piece.json", "piece.csv", "piece.mid", "piece.mid.velocity.json")
REPAIR_REASONS = {"velocity range": "velocity_range", "per-key rate": "per_key_rate",
                  "polyphony": "polyphony"}


def derive_seed(seed: int, *labels) -> int:
    """A 31-bit seed for one input, fixed by the workload seed and the labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass(frozen=True)
class Op:
    id: str
    kind: str  # operations of one kind are alike in cost; a pass has a fixed mix of kinds
    arg: object


def _quiet(argv: list[str]) -> str:
    """Run the command-line front end in process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"polycanon {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _size(path) -> int:
    return Path(path).stat().st_size


# ---------------------------------------------------------------------------
# render: one `polycanon generate` request per operation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    seed: int
    calibrated: bool


def render_requests(seed: int, start: int, n: int) -> list[Request]:
    """Requests start..start+n-1; every 4th takes the uncalibrated path."""
    return [Request(derive_seed(seed, "render", i), (i + 1) % UNCALIBRATED_EVERY != 0)
            for i in range(start, start + n)]


class Render:
    name = "render"
    op_span = "render.request"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "render"
        self.paths = [self.out / n for n in OUTPUT_NAMES]
        self.notes = 0
        self.mismatched = 0

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)
        presets.load_bundled_config("canonical")

    def pass_ops(self, k: int) -> list[Op]:
        start = k * UNCALIBRATED_EVERY
        return [Op(f"request-{start + i}", "calibrated" if r.calibrated else "uncalibrated", r)
                for i, r in enumerate(render_requests(self.seed, start, UNCALIBRATED_EVERY))]

    def warmup_op(self) -> Op:
        return self.pass_ops(0)[0]

    def run(self, op: Op, tr):
        """The calls `polycanon generate --depth 4 --seed S` makes."""
        req = op.arg
        cfg = presets.load_bundled_config("canonical")
        gram = grammar.grammar_from_config(cfg["grammar"])
        table = tr.call("mapping.table_from_config", mapping.table_from_config, cfg["mapping"])
        symbols = tr.call("grammar.expand", grammar.expand, gram, RENDER_DEPTH)
        piece = tr.call("pipeline.generate", pipeline.generate, symbols, table,
                        make_rng(req.seed), seed=req.seed)
        kept, repairs = tr.call("hal.enforce_constraints", hal.enforce_constraints,
                                piece, hal.ConstraintSet())
        if tr.enabled:
            tr.count("pipeline.generate.events", len(piece))
            tr.count("hal.enforce_constraints.in", len(piece))
            tr.count("hal.enforce_constraints.kept", len(kept))
            for reason, n in Counter(v.reason for v in repairs).items():
                tr.count(f"hal.enforce_constraints.repairs.{REPAIR_REASONS[reason]}", n)
        if req.calibrated:
            model = hal.model_from_config(cfg.get("hal", {}))
        else:
            filtered = tr.call("hal.robustness_filter", hal.robustness_filter,
                               kept, hal.FilterConfig())
            if tr.enabled:
                unchanged = sum((Counter(kept.events) & Counter(filtered.events)).values())
                tr.count("hal.robustness_filter.in", len(kept))
                tr.count("hal.robustness_filter.changed", len(kept) - unchanged)
            kept = filtered
            model = hal.LatencyModel(variant="linear")
        compensated = tr.call("hal.precompensate", hal.precompensate, kept, model)

        json_path, csv_path, mid_path, sidecar = self.paths
        tr.call("fileio.write_events_json", fileio.write_events_json, compensated, json_path)
        tr.call("fileio.write_events_csv", fileio.write_events_csv, compensated, csv_path)
        tr.call("fileio.write_midi", fileio.write_midi, compensated,
                fileio.MidiRenderConfig(), mid_path)
        if tr.enabled:
            tr.count("fileio.write_events_json.bytes", _size(json_path))
            tr.count("fileio.write_events_csv.bytes", _size(csv_path))
            tr.count("fileio.write_midi.bytes", _size(mid_path) + _size(sidecar))
        return compensated

    def work(self, piece) -> int:
        return len(piece)

    def digest(self, piece) -> str:
        return _digest(self.paths)

    def check(self, op: Op, piece) -> list[str]:
        problems = []
        json_path, csv_path, mid_path, sidecar = self.paths
        for path in (json_path, csv_path):
            if fileio.read_events(path).events != piece.events:
                problems.append(f"{path.name} does not read back as the written piece")
        # MIDI velocity losses are the known sidecar defect: measured, not failed
        shift = json.loads(sidecar.read_text())["onset_shift_s"]
        spt = fileio.MidiRenderConfig().seconds_per_tick

        def key(e):
            return (e.voice, round((e.onset + shift) / spt), e.pitch, e.velocity)

        written = Counter(map(key, piece.events))
        back = Counter(map(key, fileio.read_midi(mid_path).events))
        self.notes += len(piece)
        self.mismatched += sum((written - back).values())
        return problems

    def faithfulness(self, op: Op, piece) -> list[str]:
        """The calibrated warm-up request against the command-line front end."""
        cli_out = self.out.parent / "render-cli"
        _quiet(["generate", "--depth", str(RENDER_DEPTH), "--seed", str(op.arg.seed),
                "--out", str(cli_out)])
        return [f"{name} differs from `polycanon generate --depth {RENDER_DEPTH} "
                f"--seed {op.arg.seed}`"
                for name, mine in zip(OUTPUT_NAMES, self.paths)
                if (cli_out / name).read_bytes() != mine.read_bytes()]

    def summary(self, phase) -> list[tuple[str, float, str, str]]:
        ops = phase.ops
        times = [r.seconds for r in ops]
        p50, p90 = np.percentile(times, [50, 90])
        beyond = sum(t > p90 for t in times)
        return [
            ("render_events_per_s", sum(r.work for r in ops) / sum(times), "events/s",
             f"{sum(r.work for r in ops)} events in {len(ops)} requests"),
            ("render_piece_s_p50", p50, "s", f"n={len(times)}"),
            ("render_piece_s_p90", p90, "s", f"n={len(times)}, {beyond} beyond"),
            ("render_midi_velocity_mismatch_share", self.mismatched / max(self.notes, 1),
             "ratio", f"{self.mismatched} of {self.notes} written notes"),
        ]


# ---------------------------------------------------------------------------
# analyze: one `polycanon analyze --metrics pcc,nlz,mc,rc,vss` per operation
# ---------------------------------------------------------------------------


def analyze_corpus_seeds(seed: int) -> dict[int, int]:
    return {d: derive_seed(seed, "analyze", d) for d in ANALYZE_DEPTHS}


class Analyze:
    name = "analyze"
    op_span = "analyze.file"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.corpus = workdir / "corpus"
        self._json_values: dict[int, dict] = {}

    def setup(self):
        """Render the corpus exactly as `polycanon generate` would."""
        for depth, s in analyze_corpus_seeds(self.seed).items():
            _quiet(["generate", "--depth", str(depth), "--seed", str(s),
                    "--out", str(self.corpus / f"depth{depth}")])

    def pass_ops(self, k: int) -> list[Op]:
        return [Op(f"depth{d}.{fmt}", f"depth{d}.{fmt}",
                   (d, fmt, self.corpus / f"depth{d}" / f"piece.{fmt}"))
                for d in ANALYZE_DEPTHS for fmt in ANALYZE_FORMATS]

    def warmup_op(self) -> Op:
        return self.pass_ops(0)[0]

    def run(self, op: Op, tr):
        """The calls `polycanon analyze --metrics pcc,nlz,mc,rc,vss` makes."""
        depth, fmt, path = op.arg
        piece = tr.call(f"fileio.read_events.{fmt}", fileio.read_events, path)
        pitches = piece.pitches()
        iois = np.diff(np.sort(piece.onsets()))
        half, ihalf = len(pitches) // 2, len(iois) // 2
        values = {
            "pcc": tr.call("metrics.pitch_class_concentration",
                           metrics.pitch_class_concentration, pitches),
            "nlz": tr.call("metrics.normalized_lz", metrics.normalized_lz, piece.events),
            "mc": tr.call("metrics.melodic_coherence", metrics.melodic_coherence,
                          pitches[:half], pitches[half:]),
            "rc": tr.call("metrics.rhythmic_coherence", metrics.rhythmic_coherence,
                          iois[:ihalf], iois[ihalf:]),
        }
        voices = piece.voices()
        if len(voices) >= 2:
            vss, wvss, nwvss = tr.call("metrics.voice_separation", metrics.voice_separation,
                                       piece.voice_events(voices[0]),
                                       piece.voice_events(voices[1]))
            values.update({"vss": vss, "wvss": wvss, "nwvss": nwvss})
        report = metrics.MetricReport(**values)
        if tr.enabled:
            size = _size(path)
            if fmt == "mid":
                size += _size(str(path) + ".velocity.json")
            tr.count(f"fileio.read_events.{fmt}.bytes", size)
            tr.count("metrics.normalized_lz.symbols", len(piece) - 1)
            tr.count("metrics.melodic_coherence.cells", (half - 1) * (len(pitches) - half - 1))
        return len(piece), report

    def work(self, result) -> int:
        return result[0]

    def digest(self, result) -> str:
        return hashlib.sha256(json.dumps(result[1].as_dict(), sort_keys=True).encode()).hexdigest()

    def check(self, op: Op, result) -> list[str]:
        depth, fmt, _ = op.arg
        values = result[1].as_dict()
        if fmt == "json":
            self._json_values[depth] = values
        elif fmt == "csv" and values != self._json_values.get(depth):
            return [f"depth {depth}: CSV metrics differ from the JSON copy's"]
        return []

    def faithfulness(self, op: Op, result) -> list[str]:
        printed = json.loads(_quiet(["analyze", "--in", str(op.arg[2]),
                                     "--metrics", ANALYZE_METRICS]))
        if printed != result[1].as_dict():
            return [f"{op.id}: values differ from `polycanon analyze`"]
        return []

    def summary(self, phase) -> list[tuple[str, float, str, str]]:
        ops = phase.ops
        events = sum(r.work for r in ops)
        return [("analyze_events_per_s", events / sum(r.seconds for r in ops), "events/s",
                 f"{events} events in {len(ops)} analyses")]


# ---------------------------------------------------------------------------
# battery: one registry experiment per operation, as `experiment --all` runs it
# ---------------------------------------------------------------------------


class Battery:
    name = "battery"
    op_span = "battery.experiment"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.gated = 0
        self.gated_passed = 0
        self.not_passed: list[str] = []

    def setup(self):
        """Nothing beyond the imports: experiments build their own inputs."""

    def pass_ops(self, k: int) -> list[Op]:
        return [Op(name, name, experiments.ExperimentSpec(name, self.seed, {}))
                for name in sorted(experiments.REGISTRY)]

    def warmup_op(self) -> Op:
        return Op(BATTERY_WARMUP, BATTERY_WARMUP,
                  experiments.ExperimentSpec(BATTERY_WARMUP, self.seed, {}))

    def run(self, op: Op, tr):
        return tr.call(f"experiments.{op.id}", experiments.run, op.arg)

    def work(self, report) -> int:
        return 1

    def digest(self, report) -> str:
        rows = report.to_dict()["rows"]  # provenance holds the runtime, so it is left out
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    def check(self, op: Op, report) -> list[str]:
        try:
            report.lint()
        except experiments.ReportLintError as err:
            return [f"{op.id}: {err}"]
        gated = [r for r in report.rows if r.gating]
        self.gated += len(gated)
        self.gated_passed += sum(r.passed for r in gated)
        if not report.passed:
            self.not_passed.append(op.id)
        return []

    def faithfulness(self, op: Op, report) -> list[str]:
        return []

    def summary(self, phase) -> list[tuple[str, float, str, str]]:
        failing = ", ".join(sorted(set(self.not_passed))) or "none"
        return [
            ("battery_s", phase.pass_time(self.pass_ops(0)), "s", f"{phase.pass_count} passes"),
            ("battery_rows_passed_share", self.gated_passed / max(self.gated, 1), "ratio",
             f"{self.gated_passed} of {self.gated} gated rows; not passed: {failing}"),
        ]


WORKLOADS = {w.name: w for w in (Render, Analyze, Battery)}
