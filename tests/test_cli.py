import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import polycanon
from polycanon.cli import main
from polycanon.events import EventView
from polycanon.presets import load_bundled_config


def test_expand_prints_canonical_string(capsys):
    assert main(["expand", "--depth", "4"]) == 0
    assert capsys.readouterr().out.strip() == "ABAABABA"


def test_expand_with_tags(capsys):
    main(["expand", "--depth", "2", "--tags"])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ABA"
    assert out[1] == "0 1 1"


def test_generate_writes_outputs_and_is_seed_deterministic(tmp_path, capsys):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert main(["generate", "--out", str(out1), "--seed", "9", "--depth", "3"]) == 0
    assert main(["generate", "--out", str(out2), "--seed", "9", "--depth", "3"]) == 0
    for name in ("piece.json", "piece.csv", "piece.mid"):
        assert (out1 / name).exists()
    assert (out1 / "piece.json").read_bytes() == (out2 / "piece.json").read_bytes()
    assert (out1 / "piece.mid").read_bytes() == (out2 / "piece.mid").read_bytes()


def test_analyze_reports_metrics(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "3"])
    capsys.readouterr()
    assert main(["analyze", "--in", str(out / "piece.json"),
                 "--metrics", "pcc,vss,nlz"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["pcc"] <= 1.0
    assert doc["vss"] >= 0.0 and "nlz" in doc


def test_analyze_builds_no_note_event(tmp_path, capsys, monkeypatch):
    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "3"])

    def build(view):
        raise AssertionError("a NoteEvent was built")

    monkeypatch.setattr(EventView, "_built", build)
    for name in ("piece.json", "piece.csv", "piece.mid"):
        assert main(["analyze", "--in", str(out / name), "--pair", str(out / "piece.json"),
                     "--metrics", "pcc,nlz,mc,rc,vss"]) == 0


def test_analyze_computes_voice_separation_once(tmp_path, capsys, monkeypatch):
    from polycanon import metrics

    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "3"])
    capsys.readouterr()
    calls = []

    def counted(*voices):
        calls.append(voices)
        return voice_separation(*voices)

    voice_separation = metrics.voice_separation
    monkeypatch.setattr(metrics, "voice_separation", counted)
    assert main(["analyze", "--in", str(out / "piece.json"), "--metrics", "vss,wvss,nwvss"]) == 0
    assert len(calls) == 1
    assert set(json.loads(capsys.readouterr().out)) >= {"vss", "wvss", "nwvss"}


@pytest.mark.parametrize("char", [",", "\n", "\u2028"], ids=repr)
def test_generate_rejects_a_grammar_symbol_its_csv_file_cannot_hold(tmp_path, capsys, char):
    cfg = load_bundled_config("canonical")
    cfg["grammar"] = {"alphabet": [char, "B"], "axiom": char, "rules": {char: char + "B", "B": char}}
    cfg["mapping"]["symbols"][char] = cfg["mapping"]["symbols"].pop("A")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    argv = ["generate", "--config", str(path), "--depth", "3", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"grammar: symbol {char!r} cannot be written to a CSV event file\n"
    assert not (tmp_path / "out").exists()


def test_generate_names_a_grammar_symbol_the_mapping_lacks(tmp_path, capsys):
    cfg = load_bundled_config("canonical")
    cfg["grammar"] = {"axiom": "A", "rules": {"A": "AC", "C": "A"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    argv = ["generate", "--config", str(path), "--depth", "3", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "mapping: grammar symbol 'C' has no mapping\n"
    assert not (tmp_path / "out").exists()


def test_analyze_names_no_metric_is_usage_error(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "2"])
    capsys.readouterr()
    assert main(["analyze", "--in", str(out / "piece.json"), "--metrics", ","]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == "--metrics names no metric: ','\n"


def test_analyze_unknown_metric_is_usage_error(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "2"])
    assert main(["analyze", "--in", str(out / "piece.json"), "--metrics", "zzz"]) == 2


# the sha256 of each file of `polycanon generate --depth 4 --seed 0`; a change
# that moves these bytes on purpose updates them and says so
GENERATE_DIGESTS = {
    "piece.json": "83aed3cdd0e75a2e4e35b263a45838eefbf7b0f381ee7cb88ac1201468c8694a",
    "piece.csv": "0b3d8dab0e87314adff1d4d925338afe81555698dd721c7b083d5754e88e0138",
    "piece.mid": "786cc90dc214ad0e7bc68c09f4f6a7dc486d337c9ae778f49ffb45dfc54248dd",
    "piece.mid.velocity.json": "ecc42b03d0ecb48d5ac5cc64da2d6279b4354d39b9db7ad1df14c9d7f9561ccd",
}


def test_generate_writes_the_pinned_bytes(tmp_path, capsys):
    assert main(["generate", "--depth", "4", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (f"4480 events -> {tmp_path}/piece.[json|csv|mid] "
                                       "(193 constraint repairs)\n")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GENERATE_DIGESTS} == GENERATE_DIGESTS


MALFORMED = '{"events": [{"onset_s": 1}]}'
NOT_JSON = "{not json"


def events_doc(*notes):
    """An event document of (onset, pitch, voice) notes."""
    return json.dumps({"events": [
        {"onset_s": t, "pitch": p, "velocity10": 500, "duration_s": 0.1, "voice": v,
         "symbol": "", "generation": 0, "section": 0} for t, p, v in notes]})


TWO_VOICES = [(0.0, 60, 0), (0.1, 62, 1), (0.2, 64, 0)]


@pytest.mark.parametrize("argv,content,message", [
    pytest.param(["analyze", "--in", "BAD"], MALFORMED, ": malformed event document: 'pitch'",
                 id="analyze-malformed"),
    pytest.param(["analyze", "--in", "BAD"], None, "No such file or directory",
                 id="analyze-missing"),
    pytest.param(["analyze", "--in", "GOOD", "--pair", "BAD"], None, "No such file or directory",
                 id="analyze-pair-missing"),
    pytest.param(["analyze", "--in", "GOOD", "--pair", "BAD"], MALFORMED, "malformed",
                 id="analyze-pair-malformed"),
    pytest.param(["analyze", "--in", "BAD.mid"], "MThd", ": not a Standard MIDI File",
                 id="analyze-not-midi"),
    pytest.param(["compensate", "--in", "BAD", "--out", "OUT"], None, "No such file or directory",
                 id="compensate-missing"),
    pytest.param(["compensate", "--in", "BAD", "--out", "OUT"], MALFORMED, "malformed",
                 id="compensate-malformed"),
    pytest.param(["compensate", "--in", "GOOD", "--model", "BAD", "--out", "OUT"], None,
                 "No such file or directory", id="compensate-model-missing"),
    pytest.param(["compensate", "--in", "GOOD", "--model", "BAD", "--out", "OUT"], NOT_JSON,
                 ": Expecting property name", id="compensate-model-not-json"),
    pytest.param(["generate", "--config", "BAD", "--out", "OUT"], None,
                 "No such file or directory", id="generate-config-missing"),
    pytest.param(["generate", "--config", "BAD", "--out", "OUT"], NOT_JSON,
                 ": Expecting property name", id="generate-config-not-json"),
    pytest.param(["expand", "--grammar", "BAD", "--depth", "2"], None,
                 "No such file or directory", id="expand-grammar-missing"),
    pytest.param(["expand", "--grammar", "BAD", "--depth", "2"], NOT_JSON,
                 ": Expecting property name", id="expand-grammar-not-json"),
    pytest.param(["analyze", "--in", "BAD"], events_doc(),
                 ": pcc: pitch_class_concentration needs a non-empty pitch sequence",
                 id="analyze-empty-piece"),
    pytest.param(["analyze", "--in", "BAD"], events_doc(*TWO_VOICES[:2]),
                 ": vss: voice separation needs >= 2 events per voice", id="analyze-2-notes"),
    pytest.param(["analyze", "--in", "BAD"], events_doc(*TWO_VOICES),
                 ": vss: voice separation needs >= 2 events per voice", id="analyze-3-notes"),
    pytest.param(["analyze", "--in", "BAD", "--metrics", "vss"],
                 events_doc(*((t, p, 0) for t, p, _ in TWO_VOICES)),
                 ": vss: voice separation needs 2 voices, got 1", id="analyze-1-voice"),
    pytest.param(["analyze", "--in", "BAD", "--metrics", "mc"], events_doc(*TWO_VOICES[:1]),
                 ": mc: melodic_coherence needs", id="analyze-mc-1-note"),
    pytest.param(["analyze", "--in", "BAD", "--metrics", "mc"], events_doc(*TWO_VOICES),
                 ": mc: melodic_coherence needs", id="analyze-mc-3-notes"),
    pytest.param(["analyze", "--in", "GOOD", "--pair", "BAD", "--metrics", "mc"],
                 events_doc(*TWO_VOICES[:1]), ": mc: melodic_coherence needs",
                 id="analyze-pair-mc-1-note"),
    pytest.param(["analyze", "--in", "GOOD", "--pair", "BAD", "--metrics", "rc"],
                 events_doc(*TWO_VOICES[:1]), ": rc: rhythmic_coherence needs",
                 id="analyze-pair-rc-1-note"),
    pytest.param(["analyze", "--in", "BAD", "--metrics", "rc"], events_doc(*TWO_VOICES[:2]),
                 ": rc: rhythmic_coherence needs non-empty IOI samples", id="analyze-rc-2-notes"),
])
def test_an_unreadable_event_file_exits_2(tmp_path, capsys, argv, content, message):
    good = tmp_path / "gen" / "piece.json"
    assert main(["generate", "--depth", "2", "--out", str(good.parent)]) == 0
    bad = tmp_path / ("bad.mid" if "BAD.mid" in argv else "bad.json")
    if content is not None:
        bad.write_text(content)
    paths = {"GOOD": good, "BAD": bad, "BAD.mid": bad, "OUT": tmp_path / "out.json"}
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(bad) in err and message in err
    assert not (tmp_path / "out.json").exists()


def test_compensate_round_trip(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "2"])
    target = tmp_path / "comp.json"
    assert main(["compensate", "--in", str(out / "piece.json"),
                 "--out", str(target)]) == 0
    assert target.exists()


def test_experiment_subcommand_and_report(tmp_path, capsys):
    rc = main(["experiment", "--name", "epsilon_sensitivity", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "epsilon_sensitivity.json").exists()
    capsys.readouterr()
    assert main(["report", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "reproduction matrix" in out


def test_experiment_requires_name_or_all(capsys):
    assert main(["experiment"]) == 2


ROW = {"label": "x", "value": 1, "expected": "", "passed": True, "gating": True}


@pytest.mark.parametrize("content,message", [
    pytest.param(b'{"rows": [', ": Expecting value", id="truncated"),
    pytest.param(b'{"rows": [{"label": 1}]}', ": not an experiment report: bad field 'experiment'",
                 id="no-experiment"),
    pytest.param(b"\xff\xfe", ": 'utf-8' codec can't decode byte 0xff", id="not-utf8"),
    pytest.param(json.dumps({"experiment": "x", "rows": [7]}).encode(),
                 ": not an experiment report: bad field", id="row-not-an-object"),
    pytest.param(json.dumps({"experiment": "x", "rows": 7}).encode(),
                 ": not an experiment report: bad field", id="rows-not-a-list"),
    pytest.param(json.dumps({"experiment": "x", "rows": [{**ROW, "passed": None}]}).encode(),
                 ": not an experiment report: passed and gating must be booleans",
                 id="passed-null"),
])
def test_an_unreadable_report_file_exits_2(tmp_path, capsys, content, message):
    assert main(["experiment", "--name", "epsilon_sensitivity", "--out", str(tmp_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    assert main(["report", "--dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(str(bad)) and message in err


def test_experiment_all_prints_the_same_with_two_jobs(monkeypatch, capsys):
    """The --jobs pool runs the specs that the serial path runs and prints the
    same bytes; two cheap experiments stand in for the registry."""
    from polycanon import experiments

    monkeypatch.setattr(experiments, "REGISTRY", {
        name: experiments.REGISTRY[name] for name in ("epsilon_sensitivity", "hal_sensitivity")})
    runs = []
    for jobs in ("1", "2"):
        code = main(["experiment", "--all", "--seed", "3", "--jobs", jobs])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert "experiment: epsilon_sensitivity (seed 3)" in runs[0][1]
    assert "experiment: hal_sensitivity (seed 3)" in runs[0][1]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["experiment", "--name", "nope"], "unknown experiment 'nope'; known: ablation_a, ",
                 id="experiment-unknown"),
    pytest.param(["expand", "--depth", "-1"], "depth must be >= 0, got -1",
                 id="expand-negative-depth"),
])
def test_an_unknown_experiment_or_a_negative_depth_exits_2(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message)


@pytest.mark.parametrize("command,config_seed,flag,env,message", [
    # the config's seed wins, so the variable is not read
    pytest.param("generate", 42, None, "abc", None, id="generate-config-seed"),
    pytest.param("generate", None, "3", "abc", None, id="generate-flag"),
    pytest.param("generate", None, None, "abc", "POLYCANON_SEED must be an integer, got 'abc'",
                 id="generate-variable-not-an-integer"),
    pytest.param("generate", None, None, "-1", "POLYCANON_SEED must be >= 0, got -1",
                 id="generate-variable-negative"),
    pytest.param("generate", 42, "-3", None, "--seed must be >= 0, got -3",
                 id="generate-flag-negative"),
    pytest.param("generate", -1, None, "7", "seed must be >= 0, got -1",
                 id="generate-config-seed-negative"),
    pytest.param("experiment", None, "-3", "abc", "--seed must be >= 0, got -3",
                 id="experiment-flag-negative"),
    pytest.param("experiment", None, None, "-1", "POLYCANON_SEED must be >= 0, got -1",
                 id="experiment-variable-negative"),
    pytest.param("experiment", None, None, "abc", "POLYCANON_SEED must be an integer, got 'abc'",
                 id="experiment-variable-not-an-integer"),
])
def test_a_bad_seed_exits_2_naming_its_source(tmp_path, capsys, monkeypatch, command,
                                              config_seed, flag, env, message):
    """The seed comes from --seed, else the config, else POLYCANON_SEED; only
    the source in use is read, and a bad one is a usage error naming it."""
    if env is None:
        monkeypatch.delenv("POLYCANON_SEED", raising=False)
    else:
        monkeypatch.setenv("POLYCANON_SEED", env)
    if command == "generate":
        cfg = load_bundled_config("canonical")
        if config_seed is not None:
            cfg["seed"] = config_seed
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["generate", "--config", str(tmp_path / "cfg.json"), "--depth", "2",
                "--out", str(tmp_path / "out")]
    else:
        argv = ["experiment", "--name", "ablation_c"]
    if flag is not None:
        argv += ["--seed", flag]
    code = main(argv)
    out, err = capsys.readouterr()
    if message is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "") and err.startswith(message)


def test_polycanon_seed_reaches_generate_with_the_bundled_config(tmp_path, capsys,
                                                                 monkeypatch):
    """The bundled config sets no seed, so POLYCANON_SEED picks the piece,
    and without it the piece is the seed-42 one."""
    assert "seed" not in load_bundled_config("canonical")

    def generated(name, *argv):
        out = tmp_path / name
        assert main(["generate", "--depth", "3", "--out", str(out), *argv]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    monkeypatch.setenv("POLYCANON_SEED", "7")
    from_variable = generated("variable")
    monkeypatch.delenv("POLYCANON_SEED")
    assert from_variable == generated("flag-7", "--seed", "7")
    seed_42 = generated("flag-42", "--seed", "42")
    assert generated("default") == seed_42 != from_variable


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["expand"])  # missing --depth
    assert err.value.code == 2


def test_only_main_turns_an_error_into_exit_2():
    """`main` is the one home of the usage-error exit: it is the only function
    of the CLI that returns 2 or handles an error (an except clause elsewhere
    only re-raises, translating the error into a ConfigError or ParseError),
    and no subcommand prints to stderr."""
    from polycanon import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    returns_2 = []
    for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and ast.unparse(node) == "return 2":
                returns_2.append(func.name)
            elif isinstance(node, ast.ExceptHandler) and func.name != "main":
                assert [type(s) for s in node.body] == [ast.Raise], (
                    f"{func.name}:{node.lineno} handles an error")
            elif isinstance(node, ast.keyword) and func.name.startswith("_cmd_"):
                assert ast.unparse(node) != "file=sys.stderr", (
                    f"{func.name}:{node.lineno} prints to stderr")
    assert returns_2 == ["main"]


def test_generate_reads_the_midi_section_of_the_config(tmp_path, capsys):
    cfg = load_bundled_config("canonical")
    cfg["midi"]["ppq"] = 480
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path), "--depth", "2"]) == 0
    assert (tmp_path / "piece.mid").read_bytes()[12:14] == (480).to_bytes(2, "big")


@pytest.mark.parametrize("section,key", [(None, "canon"), ("midi", "ppqn")])
def test_generate_rejects_an_unknown_config_key(tmp_path, capsys, section, key):
    cfg = load_bundled_config("canonical")
    (cfg[section] if section else cfg)[key] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert (f"{section}.{key}" if section else key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _parent_and_key(cfg, path):
    """The node holding the last key of a dotted config path, and that key."""
    *parents, key = path.split(".")
    for part in parents:
        cfg = cfg[part]
    return cfg, key


@pytest.mark.parametrize("path,value", [
    *(pytest.param(path, 1, id=path)
      for path in ["hal.lmax", "mapping.scale_iot", "grammar.axoim",
                   "mapping.symbols.A.ioi.sigma", "mapping.symbols.B.pitch.step"]),
    # a known key holding a value of the wrong type or range is named the same way
    pytest.param("mapping.symbols.A.ioi", 0.2, id="mapping.symbols.A.ioi=0.2"),
    pytest.param("mapping.symbols.A.ratios", "3:4", id="mapping.symbols.A.ratios=3:4"),
    pytest.param("depth", "four", id="depth=four"),
    pytest.param("depth", -1, id="depth=-1"),
    pytest.param("seed", -5, id="seed=-5"),
    pytest.param("hal.l_max", "30", id="hal.l_max=30"),
    pytest.param("hal.l_max", 10**400, id="hal.l_max=1e400-int"),
    pytest.param("mapping.symbols.B.ioi", {"type": "exponential", "scale": 0},
                 id="mapping.symbols.B.ioi.scale=0"),
    pytest.param("grammar.rules.A", 5, id="grammar.rules.A=5"),
    pytest.param("mapping.symbols.B.pitch.lo", 48.5, id="mapping.symbols.B.pitch.lo=48.5"),
])
def test_generate_rejects_an_unknown_nested_config_key(tmp_path, capsys, path, value):
    cfg = load_bundled_config("canonical")
    node, key = _parent_and_key(cfg, path)
    node[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNCOMPENSABLE = "hal: the latency model cannot be compensated"


@pytest.mark.parametrize("command,hal,code,message", [
    # the model checks accept l_max = 1e308, but no onset can move 1e305 s early
    pytest.param("generate", {"l_max": 1e308}, 2, UNCOMPENSABLE, id="generate-l_max=1e308"),
    pytest.param("generate", {"l_max": 31}, 0, "", id="generate-l_max=31"),
    pytest.param("generate", {"l_max": 45}, 0, "", id="generate-l_max=45"),
    pytest.param("compensate", {"lmax": 30}, 2, "hal.lmax", id="compensate-lmax"),
    pytest.param("compensate", {"l_max": 1e308}, 2, UNCOMPENSABLE, id="compensate-l_max=1e308"),
])
def test_latency_model_errors_exit_2(tmp_path, capsys, command, hal, code, message):
    cfg = load_bundled_config("canonical")
    if command == "generate":
        cfg["hal"].update(hal)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["generate", "--config", str(tmp_path / "cfg.json"), "--depth", "4"]
    else:
        assert main(["generate", "--out", str(tmp_path / "gen"), "--depth", "4"]) == 0
        (tmp_path / "model.json").write_text(json.dumps(hal))
        argv = ["compensate", "--in", str(tmp_path / "gen" / "piece.json"),
                "--model", str(tmp_path / "model.json")]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err
    assert (tmp_path / "out").exists() == (code == 0)


def test_generate_rejects_a_midi_setting_out_of_range(tmp_path, capsys):
    cfg = load_bundled_config("canonical")
    cfg["midi"]["ppq"] = 10
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "midi: PPQ must be >= 96, got 10" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_rejects_a_tempo_a_midi_file_cannot_state(tmp_path, capsys):
    cfg = load_bundled_config("canonical")
    cfg["midi"]["tempo_us"] = 16777216  # one past the 3 bytes of a tempo event
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "midi: tempo must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", ["grammar", "grammar.rules", "mapping.symbols.A.ratios",
                                  "mapping.symbols.B.ioi.rate"])
def test_generate_names_a_missing_config_key(tmp_path, capsys, path):
    cfg = load_bundled_config("canonical")
    node, key = _parent_and_key(cfg, path)
    del node[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"missing config key(s): {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_fresh(script: str, *args: str) -> str:
    """What ``script`` prints when run with ``args`` in a fresh interpreter
    with ``src`` on PYTHONPATH; it must exit 0. This test process has loaded
    every module already, so only a fresh one shows what a command loads."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(polycanon.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


ANALYSIS_MODULES = ("polycanon.metrics", "polycanon.stats", "polycanon.experiments", "scipy")


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    """The generation commands run without the analysis stack; analyze loads
    metrics and stats, but neither the experiments nor scipy."""
    script = f"""if True:
        import json, sys
        from polycanon import cli

        def loaded():
            return [name for name in {ANALYSIS_MODULES!r} if name in sys.modules]

        out = sys.argv[1]
        stages = {{"import": (0, loaded())}}
        for argv in (["generate", "--depth", "4", "--out", out],
                     ["expand", "--depth", "4"],
                     ["compensate", "--in", f"{{out}}/piece.json", "--out", f"{{out}}/c.json"]):
            stages[argv[0]] = (cli.main(argv), loaded())
        codes = [cli.main(["analyze", "--in", f"{{out}}/{{name}}",
                           "--metrics", "pcc,nlz,mc,rc,vss"])
                 for name in ("piece.json", "piece.csv", "piece.mid")]
        stages["analyze"] = (max(codes), loaded())
        print(json.dumps(stages))
    """
    stages = json.loads(run_fresh(script, str(tmp_path)).splitlines()[-1])
    assert stages == {"import": [0, []], "generate": [0, []], "expand": [0, []],
                      "compensate": [0, []],
                      "analyze": [0, ["polycanon.metrics", "polycanon.stats"]]}


def test_expand_rejects_an_unknown_grammar_key(tmp_path, capsys):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps({"rules": {"A": "AB", "B": "A"}, "axiom": "A", "axoim": "B"}))
    assert main(["expand", "--grammar", str(path), "--depth", "2"]) == 2
    assert "grammar.axoim" in capsys.readouterr().err


# what a changed byte of a JSON or CSV file becomes: the characters of numbers
# and of the two formats' syntax, and one byte that is not UTF-8
TEXT_BYTES = b'0123456789-+.eE,"{}[]: \nNaIfn\xff'


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The files that `compensate`, `generate --config` and `report --dir`
    read: a depth-3 piece in each format, a latency model, the bundled config
    and a written experiment report."""
    from polycanon.experiments import ExperimentSpec, run

    d = tmp_path_factory.mktemp("inputs")
    assert main(["generate", "--depth", "3", "--seed", "0", "--out", str(d)]) == 0
    config = Path(polycanon.__file__).parent / "data" / "canonical.json"
    return {
        "piece.json": (d / "piece.json").read_bytes(),
        "piece.csv": (d / "piece.csv").read_bytes(),
        "piece.mid": (d / "piece.mid").read_bytes(),
        "model.json": json.dumps(load_bundled_config()["hal"]).encode(),
        "config.json": config.read_bytes(),
        "report.json": run(ExperimentSpec("hal_sensitivity", 0)).to_json().encode(),
    }


# (input, argv with IN for the changed file); --depth 2 keeps the work that a
# changed config number asks for small
MUTATED_RUNS = [
    ("piece.json", ["compensate", "--in", "IN", "--out", "OUT"]),
    ("piece.csv", ["compensate", "--in", "IN", "--out", "OUT"]),
    ("piece.mid", ["compensate", "--in", "IN", "--out", "OUT"]),
    ("model.json", ["compensate", "--in", "PIECE", "--model", "IN", "--out", "OUT"]),
    ("config.json", ["generate", "--config", "IN", "--depth", "2", "--out", "OUT"]),
    ("report.json", ["report", "--dir", "DIR"]),
]


@pytest.mark.parametrize("name,argv", MUTATED_RUNS, ids=[run[0] for run in MUTATED_RUNS])
def test_changed_or_cut_input_files_exit_0_or_2(tmp_path, capsys, cli_inputs, name, argv):
    """Each input with 1-4 bytes changed, or cut short, gives exit 0 or a
    usage error (exit 2, nothing on stdout), never a traceback."""
    data = cli_inputs[name]
    rng = np.random.default_rng(31)
    alphabet = bytes(range(256)) if name.endswith(".mid") else TEXT_BYTES
    cases = []
    for _ in range(24):
        corrupt = bytearray(data)
        for _ in range(rng.integers(1, 5)):
            corrupt[rng.integers(len(corrupt))] = alphabet[rng.integers(len(alphabet))]
        cases.append(bytes(corrupt))
    cases += [data[:n] for n in rng.integers(0, len(data), 6)]
    (tmp_path / "in").mkdir()
    path = tmp_path / "in" / f"m{Path(name).suffix}"
    piece = tmp_path / "piece.json"
    piece.write_bytes(cli_inputs["piece.json"])
    paths = {"IN": path, "DIR": path.parent, "PIECE": piece, "OUT": tmp_path / "out"}
    codes = Counter()
    for corrupt in cases:
        path.write_bytes(corrupt)
        code = main([str(paths.get(arg, arg)) for arg in argv])
        out, err = capsys.readouterr()
        assert (code, bool(out)) in ((0, True), (2, False)), (corrupt, err)
        codes[code] += 1
    assert codes[0] and codes[2], codes
