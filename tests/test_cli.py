import json

import pytest

from polycanon.cli import main
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


def test_analyze_unknown_metric_is_usage_error(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["generate", "--out", str(out), "--seed", "3", "--depth", "2"])
    assert main(["analyze", "--in", str(out / "piece.json"), "--metrics", "zzz"]) == 2


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["expand"])  # missing --depth
    assert err.value.code == 2


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
