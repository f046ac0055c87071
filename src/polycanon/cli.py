"""Command-line front end.

Subcommands: expand, generate, compensate, analyze, experiment, report.
All outputs are deterministic for a fixed seed; the default seed comes from
POLYCANON_SEED when set. Exit codes: 0 success, 2 usage error (argparse),
3 experiment gate failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiments
from .fileio import MidiRenderConfig, read_events, write_events_csv, write_events_json, write_midi
from .grammar import expand as grammar_expand
from .grammar import grammar_from_config
from .hal import ConstraintSet, enforce_constraints, model_from_config, precompensate
from .mapping import table_from_config
from .metrics import (
    MetricReport,
    melodic_coherence,
    normalized_lz,
    pitch_class_concentration,
    rhythmic_coherence,
    voice_separation,
)
from .pipeline import generate
from .presets import load_bundled_config
from .stochastic import make_rng

EXIT_OK = 0
EXIT_EXPERIMENT_FAILED = 3


def _default_seed() -> int:
    return int(os.environ.get("POLYCANON_SEED", "42"))


def _load_config(path: str | None) -> dict:
    if path is None or path == "canonical":
        return load_bundled_config("canonical")
    return json.loads(Path(path).read_text())


def _cmd_expand(args) -> int:
    cfg = _load_config(args.grammar)
    grammar = grammar_from_config(cfg["grammar"] if "grammar" in cfg else cfg)
    result = grammar_expand(grammar, args.depth)
    print(result.text)
    if args.tags:
        print(" ".join(str(g) for g in result.generations))
    return EXIT_OK


# the sections of the config document that `generate` reads
CONFIG_KEYS = ("grammar", "mapping", "depth", "seed", "hal", "midi")


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    unknown = [k for k in cfg if k not in CONFIG_KEYS]
    unknown += [f"midi.{k}" for k in cfg.get("midi", {})
                if k not in {f.name for f in fields(MidiRenderConfig)}]
    if unknown:
        print(f"unknown config key(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    grammar = grammar_from_config(cfg["grammar"])
    table = table_from_config(cfg["mapping"])
    depth = args.depth if args.depth is not None else int(cfg.get("depth", 4))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", _default_seed()))
    symbols = grammar_expand(grammar, depth)
    piece = generate(symbols, table, make_rng(seed), seed=seed)
    piece, violations = enforce_constraints(piece, ConstraintSet())
    model = model_from_config(cfg.get("hal", {}))
    compensated = precompensate(piece, model)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_events_json(compensated, out / "piece.json")
    write_events_csv(compensated, out / "piece.csv")
    write_midi(compensated, MidiRenderConfig(**cfg.get("midi", {})), out / "piece.mid")
    print(f"{len(compensated)} events -> {out}/piece.[json|csv|mid] "
          f"({len(violations)} constraint repairs)")
    return EXIT_OK


def _cmd_compensate(args) -> int:
    piece = read_events(args.infile)
    model = model_from_config(json.loads(Path(args.model).read_text())
                              if args.model else {})
    compensated = precompensate(piece, model)
    write_events_json(compensated, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    piece = read_events(args.infile)
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    other = read_events(args.pair) if args.pair else None
    values: dict = {}
    pitches = piece.pitches()
    iois = np.diff(np.sort(piece.onsets()))
    for metric in wanted:
        if metric == "pcc":
            values["pcc"] = pitch_class_concentration(pitches)
        elif metric == "nlz":
            values["nlz"] = normalized_lz(piece.events)
        elif metric == "mc":
            # pairwise against --pair, otherwise split-half self coherence
            ref = other.pitches() if other is not None else pitches[len(pitches) // 2:]
            base = pitches if other is not None else pitches[: len(pitches) // 2]
            values["mc"] = melodic_coherence(base, ref)
        elif metric == "rc":
            ref = np.diff(np.sort(other.onsets())) if other is not None else iois[len(iois) // 2:]
            base = iois if other is not None else iois[: len(iois) // 2]
            values["rc"] = rhythmic_coherence(base, ref)
        elif metric in ("vss", "wvss", "nwvss"):
            voices = piece.voices()
            if len(voices) >= 2:
                vss, wvss, nwvss = voice_separation(piece.voice_events(voices[0]),
                                                    piece.voice_events(voices[1]))
                values.update({"vss": vss, "wvss": wvss, "nwvss": nwvss})
        else:
            print(f"unknown metric: {metric}", file=sys.stderr)
            return 2
    report = MetricReport(**values)
    if args.csv:
        print(MetricReport.csv_header())
        print(report.to_csv_row())
    else:
        print(report.to_json())
    return EXIT_OK


def _run_one(payload):
    name, seed, overrides = payload
    return experiments.run(experiments.ExperimentSpec(name, seed, overrides))


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.full_scale:
        overrides["full_scale"] = True
    if args.all:
        seed = args.seed if args.seed is not None else _default_seed()
        names = sorted(experiments.REGISTRY)
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                reports = list(pool.map(_run_one, [(n, seed, overrides) for n in names]))
        else:
            reports = experiments.run_all(seed, names=names, **overrides)
    else:
        if not args.name:
            print("--name or --all required", file=sys.stderr)
            return 2
        spec = experiments.ExperimentSpec(
            args.name, args.seed if args.seed is not None else _default_seed(), overrides)
        reports = [experiments.run(spec)]
    failed = False
    for report in reports:
        print(report.to_text())
        print()
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            report.to_json(out / f"{report.name}.json")
            report.to_csv(out / f"{report.name}.csv")
        failed |= not report.passed
    if len(reports) > 1:
        print(experiments.summarize(reports))
    return EXIT_EXPERIMENT_FAILED if failed else EXIT_OK


def _cmd_report(args) -> int:
    directory = Path(args.dir)
    rows = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if "rows" not in doc:
            continue
        for row in doc["rows"]:
            rows.append((doc["experiment"], row["label"], row["value"],
                         row["expected"], row["passed"], row["gating"]))
    if not rows:
        print(f"no experiment reports under {directory}", file=sys.stderr)
        return 2
    gated = [r for r in rows if r[5]]
    n_pass = sum(r[4] for r in gated)
    print(f"reproduction matrix: {n_pass}/{len(gated)} gated rows pass")
    for exp, label, value, expected, passed, gating in rows:
        mark = "pass" if passed else "FAIL"
        if not gating:
            mark = "  . "
        print(f"  [{mark}] {exp}.{label} = {value}  ({expected})")
    return EXIT_OK if n_pass == len(gated) else EXIT_EXPERIMENT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycanon",
        description="Grammar-driven stochastic composition for automated piano.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an L-system and print the symbol string")
    p.add_argument("--grammar", default=None, help="grammar config JSON (default: bundled)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tags", action="store_true", help="also print generation tags")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("generate", help="render a piece to JSON/CSV/MIDI")
    p.add_argument("--config", default=None, help="config JSON (default: bundled canonical)")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compensate", help="apply latency pre-compensation to an event file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", default=None, help="latency model config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser("analyze", help="compute metrics over an event file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pair", default=None, help="second event file for pairwise metrics")
    p.add_argument("--metrics", default="pcc,vss")
    p.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("experiment", help="run named experiments")
    p.add_argument("--name", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--full-scale", action="store_true",
                   help="full-size resampling instead of desk scale")
    p.add_argument("--jobs", type=int, default=1,
                   help="process-level parallelism for --all")
    p.add_argument("--out", default=None, help="directory for JSON/CSV reports")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="consolidate experiment reports into one matrix")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
