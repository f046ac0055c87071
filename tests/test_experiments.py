import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycanon.events import Piece
from polycanon.experiments import (
    REGISTRY,
    ExperimentSpec,
    ReportLintError,
    UnknownExperimentError,
    run,
    run_all,
    summarize,
)
from polycanon.experiments._common import null_stream, window_counts
from polycanon.experiments.reporting import Report, Row, config_hash
from polycanon.stochastic import make_rng


def test_registry_covers_all_conditions():
    expected = {
        "fidelity", "degradation", "ablation_a", "ablation_b", "ablation_c",
        "lsystem_info", "density_sweep", "null_baseline", "distribution_independence",
        "constraints", "wvss_weights", "cp_discrete", "cp_continuous",
        "epsilon_sensitivity", "hal_sensitivity", "latency_mismatch",
        "virtual_piano", "robustness", "beyond_human",
    }
    assert set(REGISTRY) == expected


def test_unknown_name_rejected():
    with pytest.raises(UnknownExperimentError):
        ExperimentSpec("psychoacoustics")


def test_rows_require_registry_anchor():
    with pytest.raises(ReportLintError):
        Row.make("x", 1.0, "not.a.real.anchor")
    report = Report("demo", 0)
    with pytest.raises(ReportLintError):
        report.add("x", 1.0, "")


def test_reports_are_deterministic_for_fixed_seed():
    a = run(ExperimentSpec("epsilon_sensitivity", 7))
    b = run(ExperimentSpec("epsilon_sensitivity", 7))
    da, db = a.to_dict(), b.to_dict()
    da["provenance"].pop("runtime_s")
    db["provenance"].pop("runtime_s")
    assert da == db


def test_cp_continuous_deterministic_rows():
    a = run(ExperimentSpec("cp_continuous", 11))
    b = run(ExperimentSpec("cp_continuous", 11))
    assert [(r.label, r.value) for r in a.rows] == [(r.label, r.value) for r in b.rows]


def test_report_serialization(tmp_path, reports):
    report = reports("epsilon_sensitivity")
    report.to_json(tmp_path / "r.json")
    report.to_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.json").exists()
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == "experiment,label,value,expected,passed,anchor"
    text = report.to_text()
    assert "epsilon_sensitivity" in text and "pass" in text


def test_provenance_recorded(reports):
    report = reports("epsilon_sensitivity")
    assert report.provenance["seed"] == 42
    assert "config_hash" in report.provenance
    assert report.provenance["runtime_s"] >= 0


def test_run_all_suite_mostly_green(reports):
    # desk-scale pass over the whole registry at default trial counts
    reps = [reports(n) for n in sorted(REGISTRY)]
    gated = [row for r in reps for row in r.rows if row.gating]
    passed = sum(row.passed for row in gated)
    assert passed / len(gated) >= 0.90
    summary = summarize(reps)
    assert "total" in summary


def test_only_run_creates_and_times_a_report():
    """`experiments.run` is the one home of a report's creation and timing: no
    other module of the package calls `Report(` or imports `time`, and every
    registry function takes the report, the seed and `full_scale`, and no
    other option."""
    package = Path(inspect.getfile(run)).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "Report", f"{path.name}:{node.lineno} constructs a Report"
            elif isinstance(node, ast.Import):
                assert "time" not in [a.name for a in node.names], f"{path.name} imports time"
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "time", f"{path.name} imports from time"
    for name, experiment in REGISTRY.items():
        assert list(inspect.signature(experiment).parameters) == [
            "report", "seed", "full_scale"], name


def test_an_unknown_override_raises_naming_the_key():
    with pytest.raises(ValueError, match="'trails'"):
        ExperimentSpec("fidelity", 0, {"trails": 3})
    with pytest.raises(ValueError, match="'trails'"):
        run_all(5, names=["fidelity"], trails=3)
    with pytest.raises(ValueError, match="'full_scale': 1"):
        ExperimentSpec("fidelity", 0, {"full_scale": 1})


@pytest.mark.parametrize("name", ["latency_mismatch", "virtual_piano"])
def test_full_scale_reaches_the_experiment(name, reports):
    desk = [(r.label, r.value) for r in reports(name, 5).rows]
    full = [(r.label, r.value) for r in run(ExperimentSpec(name, 5, {"full_scale": True})).rows]
    assert [label for label, _ in desk] == [label for label, _ in full]
    assert desk != full


def test_run_stamps_the_provenance_of_the_spec():
    report = run(ExperimentSpec("epsilon_sensitivity", 5, {"full_scale": True}))
    assert list(report.provenance) == ["seed", "config_hash", "runtime_s"]
    assert report.provenance["seed"] == 5 and report.name == "epsilon_sensitivity"
    assert report.provenance["config_hash"] == config_hash(
        {"name": "epsilon_sensitivity", "seed": 5, "full_scale": True})
    assert report.provenance["config_hash"] != run(
        ExperimentSpec("epsilon_sensitivity", 5)).provenance["config_hash"]


def test_run_all_checks_every_name_before_running_any(monkeypatch):
    from polycanon import experiments

    ran = []
    monkeypatch.setitem(experiments.REGISTRY, "epsilon_sensitivity",
                        lambda report, seed, full_scale: ran.append(seed))
    with pytest.raises(UnknownExperimentError, match="'nope'"):
        run_all(0, names=["epsilon_sensitivity", "nope"])
    assert ran == []


def test_run_all_subset_api():
    reps = run_all(5, names=["epsilon_sensitivity"])
    assert len(reps) == 1 and reps[0].name == "epsilon_sensitivity"


def window_counts_reference(piece, horizon):
    onsets = piece.onsets()
    n = int(round(horizon))
    counts = np.zeros(n)
    for k in range(n):
        counts[k] = np.sum((onsets >= k) & (onsets < k + 1))
    return counts


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 12.0),
       st.lists(st.one_of(st.integers(0, 12), st.floats(-0.03, 12.0)), max_size=60))
def test_window_counts_matches_the_window_loop(horizon, marks):
    # integers stand for onsets exactly on a window edge
    piece = Piece.from_columns([float(k) for k in marks], 60, 500, 0.05)
    got = window_counts(piece, horizon)
    expected = window_counts_reference(piece, horizon)
    assert got.tolist() == expected.tolist()


def null_stream_reference(density, rng, duration=10.0):
    """Onset, pitch and velocity columns of ``null_stream`` from scalar draws,
    pitch then velocity per note."""
    onsets = np.cumsum(rng.exponential(1.0 / density, int(density * duration * 2) + 20))
    onsets = onsets[onsets < duration]
    pitches, velocities = np.empty((2, len(onsets)), dtype=int)
    for i in range(len(onsets)):
        pitches[i] = rng.integers(0, 128)
        velocities[i] = rng.integers(0, 1024)
    return onsets, pitches, velocities


@pytest.mark.parametrize("density", [0.01, 3.0, 20.0, 120.0, 500.0])
@pytest.mark.parametrize("seed", [0, 7])
def test_null_stream_matches_the_scalar_draw_loop(density, seed):
    # 0.01 notes/s draws no note in 10 s; the generator then goes on to a
    # second stream, as the density sweeps reuse it, after one more 32-bit
    # draw that leaves half of a 64-bit output buffered
    rng, ref_rng = make_rng(seed), make_rng(seed)
    for _ in range(2):
        assert rng.integers(0, 128) == ref_rng.integers(0, 128)
        piece = null_stream(density, rng)
        onsets, pitches, velocities = null_stream_reference(density, ref_rng)
        assert piece.onsets().tolist() == onsets.tolist()
        assert piece.pitches().tolist() == pitches.tolist()
        assert piece.velocities().tolist() == velocities.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(null_stream(0.01, make_rng(seed))) == 0
