"""Command-line front end.

Subcommands: expand, generate, compensate, analyze, experiment, report.
All outputs are deterministic for a fixed seed; the seed comes from --seed,
else the config's ``seed`` (generate), else POLYCANON_SEED, else 42. Exit
codes: 0 success, 2 usage error, 3 experiment gate failure. Argparse exits 2
on a bad command line; every other usage error is a ConfigError or ParseError
raised by a subcommand (an unknown experiment is an UnknownExperimentError,
a ConfigError), and ``main`` alone turns it into its message on stderr and
exit 2: an unusable or unreadable config or latency model, an unreadable
event file or one too short for a requested metric, an unknown metric, an
unreadable or missing experiment report, an unknown experiment, no
experiment named, a negative depth, or a seed that is negative or not an
integer.

The module loads only what expand, generate and compensate run: analyze
imports ``metrics`` (and with it ``stats``) and experiment imports
``experiments`` when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .fileio import (
    ParseError,
    midi_from_config,
    read_events,
    write_events_csv,
    write_events_json,
    write_midi,
)
from .grammar import expand as grammar_expand
from .grammar import grammar_from_config
from .hal import ConstraintSet, enforce_constraints, model_from_config, precompensate
from .mapping import table_from_config
from .pipeline import generate
from .presets import load_bundled_config
from .stochastic import ConfigError, config_value, make_rng, reject_unknown_keys, require_keys

EXIT_OK = 0
EXIT_EXPERIMENT_FAILED = 3


def _seed(flag: int | None, cfg: dict) -> int:
    """The seed of ``generate`` and ``experiment``: ``--seed`` when given, else
    the config's ``seed``, else POLYCANON_SEED, else 42. The variable is read
    only when it is used; a seed that is not a non-negative integer raises
    ConfigError naming the flag, the config key or the variable."""
    if flag is not None:
        seed, source = flag, "--seed"
    elif "seed" in cfg:
        seed, source = config_value(cfg["seed"], int, "seed"), "seed"
    else:
        text = os.environ.get("POLYCANON_SEED", "42")
        try:
            seed = int(text)
        except ValueError as err:
            raise ConfigError(f"POLYCANON_SEED must be an integer, got {text!r}") from err
        source = "POLYCANON_SEED"
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def _read_json(path: str):
    """The JSON document in the file at ``path``; a missing or unreadable
    file, or one that is not JSON, raises ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _load_config(path: str | None) -> dict:
    if path is None or path == "canonical":
        return load_bundled_config("canonical")
    return _read_json(path)


def _cmd_expand(args) -> int:
    cfg = _load_config(args.grammar)
    grammar = grammar_from_config(cfg["grammar"] if "grammar" in cfg else cfg)
    if args.depth < 0:
        raise ConfigError(f"depth must be >= 0, got {args.depth}")
    result = grammar_expand(grammar, args.depth)
    print(result.text)
    if args.tags:
        print(" ".join(str(g) for g in result.generations))
    return EXIT_OK


# the sections of the config document that `generate` reads
CONFIG_KEYS = ("grammar", "mapping", "depth", "seed", "hal", "midi")


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    reject_unknown_keys(cfg, CONFIG_KEYS, "")
    require_keys(cfg, ("grammar", "mapping"), "")
    midi = midi_from_config(cfg.get("midi", {}))
    grammar = grammar_from_config(cfg["grammar"])
    table = table_from_config(cfg["mapping"])
    model = model_from_config(cfg.get("hal", {}))
    depth = (args.depth if args.depth is not None
             else config_value(cfg.get("depth", 4), int, "depth"))
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    seed = _seed(args.seed, cfg)
    symbols = grammar_expand(grammar, depth)
    piece = generate(symbols, table, make_rng(seed), seed=seed)
    piece, violations = enforce_constraints(piece, ConstraintSet())
    compensated = _precompensate(piece, model)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_events_json(compensated, out / "piece.json")
    write_events_csv(compensated, out / "piece.csv")
    write_midi(compensated, midi, out / "piece.mid")
    print(f"{len(compensated)} events -> {out}/piece.[json|csv|mid] "
          f"({len(violations)} constraint repairs)")
    return EXIT_OK


def _precompensate(piece, model):
    """``precompensate``, raising ConfigError on the ``hal`` section when the
    latency model moves an onset before the earliest legal one: the model
    checks cannot see the piece, so such a model shows only here."""
    try:
        return precompensate(piece, model)
    except ValueError as err:
        raise ConfigError(f"hal: the latency model cannot be compensated: {err}") from err


def _cmd_compensate(args) -> int:
    piece = read_events(args.infile)
    model = model_from_config(_read_json(args.model) if args.model else {})
    compensated = _precompensate(piece, model)
    write_events_json(compensated, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .metrics import (MetricError, MetricReport, melodic_coherence, normalized_lz,
                          pitch_class_concentration, rhythmic_coherence, voice_separation)

    piece = read_events(args.infile)
    other = read_events(args.pair) if args.pair else None
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    values: dict = {}
    pitches = piece.pitches()
    iois = np.diff(piece.onsets())
    for metric in wanted:
        try:
            if metric == "pcc":
                values["pcc"] = pitch_class_concentration(pitches)
            elif metric == "nlz":
                values["nlz"] = normalized_lz(piece)
            elif metric == "mc":
                # pairwise against --pair, otherwise split-half self coherence
                ref = other.pitches() if other is not None else pitches[len(pitches) // 2:]
                base = pitches if other is not None else pitches[: len(pitches) // 2]
                values["mc"] = melodic_coherence(base, ref)
            elif metric == "rc":
                ref = np.diff(other.onsets()) if other is not None else iois[len(iois) // 2:]
                base = iois if other is not None else iois[: len(iois) // 2]
                values["rc"] = rhythmic_coherence(base, ref)
            elif metric in ("vss", "wvss", "nwvss"):
                voices = piece.voices()
                if len(voices) >= 2 and metric not in values:  # all three come at once
                    vss, wvss, nwvss = voice_separation(*map(piece.voice_events, voices[:2]))
                    values.update({"vss": vss, "wvss": wvss, "nwvss": nwvss})
            else:
                raise ConfigError(f"unknown metric: {metric}")
        except MetricError as err:
            # a readable piece too short for the metric
            raise ParseError(f"{args.infile}: {metric}: {err}") from err
    report = MetricReport(**values)
    if args.csv:
        print(MetricReport.csv_header())
        print(report.to_csv_row())
    else:
        print(report.to_json())
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from . import experiments

    if not (args.all or args.name):
        raise ConfigError("--name or --all required")
    seed = _seed(args.seed, {})
    overrides = {"full_scale": True} if args.full_scale else {}
    reports = experiments.run_all(seed, names=None if args.all else [args.name],
                                  jobs=args.jobs, **overrides)
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


def _report_rows(path: Path) -> list[tuple]:
    """The (experiment, label, value, expected, passed, gating) rows of the
    experiment report in the file at ``path``, none for a JSON document that is
    not a report; an unreadable or malformed report raises ConfigError naming
    the file."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "rows" not in doc:
        return []
    try:
        rows = [(doc["experiment"], row["label"], row["value"], row["expected"],
                 row["passed"], row["gating"]) for row in doc["rows"]]
    except (KeyError, TypeError) as err:
        raise ConfigError(f"{path}: not an experiment report: bad field {err}") from err
    if not all(isinstance(r[4], bool) and isinstance(r[5], bool) for r in rows):
        raise ConfigError(f"{path}: not an experiment report: passed and gating must be booleans")
    return rows


def _cmd_report(args) -> int:
    directory = Path(args.dir)
    rows = [row for path in sorted(directory.glob("*.json")) for row in _report_rows(path)]
    if not rows:
        raise ConfigError(f"no experiment reports under {directory}")
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
    try:
        return args.func(args)
    except (ConfigError, ParseError) as err:
        print(err.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
