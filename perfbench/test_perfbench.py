"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time_by_name, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.leaf", 2.0, 3.0, 1, "r"),
        Span("b", 3.0, 6.0, 0, "r"),  # overlaps a: the overlap is covered once
        Span("root", 20.0, 22.0, None, "s"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0, 2.0])
    assert self_time_by_name(spans) == pytest.approx(
        {"root": 7.0, "a": 2.0, "a.leaf": 1.0, "b": 3.0})


def test_tracer_records_parents_and_requests():
    tr = Tracer()
    tr.request = "op-1"
    assert tr.call("outer", lambda: tr.call("inner", lambda: 7)) == 7
    outer, inner = tr.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert all(s.request == "op-1" for s in tr.spans)
    assert self_times(tr.spans)[0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))


def test_benchmark_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_layer_map_names_per_layer_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    mapped = [n for layer in LAYERS["layers"] for n in layer["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    for layer in LAYERS["layers"]:
        for move in layer["should_move"]:
            assert move["result"] in {m["name"] for m in SPEC["end_to_end"]}
            assert move["workload"] not in layer["no_change"]


def test_summary_and_traced_names_are_well_formed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        wl = cls(1, tmp_path)
        ops = [run.OpRecord(0, op.kind, op.id, 0.5, 100, "") for op in wl.pass_ops(0)]
        for name, value, unit, _ in wl.summary(run.Phase(ops=ops, pass_count=1)):
            assert NAME.fullmatch(name) and value >= 0 and unit
    render = workloads.Render(1, tmp_path)
    render.setup()
    tr = Tracer()
    for op in render.pass_ops(0):
        tr.call(render.op_span, render.run, op, tr)
    layers, reported = run.layer_metrics(tr, 1, [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.fullmatch(n) for n in layers)
    assert list(reported) == [m["name"] for m in SPEC["per_layer"]]
    assert reported["pipeline.generate.s"] > 0
    assert reported["hal.robustness_filter.changed_ratio"] > 0
    assert reported["experiments.ablation_a.s"] == 0


def test_same_seed_gives_the_same_inputs(tmp_path):
    assert workloads.render_requests(5, 0, 8) == workloads.render_requests(5, 0, 8)
    assert workloads.analyze_corpus_seeds(5) == workloads.analyze_corpus_seeds(5)
    battery = [op.arg for op in workloads.Battery(5, tmp_path).pass_ops(0)]
    assert battery == [op.arg for op in workloads.Battery(5, tmp_path).pass_ops(0)]


def test_different_seeds_give_different_inputs(tmp_path):
    a, b = workloads.render_requests(5, 0, 8), workloads.render_requests(6, 0, 8)
    assert [r.seed for r in a] != [r.seed for r in b]
    assert [r.calibrated for r in a] == [True, True, True, False] * 2
    assert workloads.analyze_corpus_seeds(5) != workloads.analyze_corpus_seeds(6)
    assert ([op.arg for op in workloads.Battery(5, tmp_path).pass_ops(0)]
            != [op.arg for op in workloads.Battery(6, tmp_path).pass_ops(0)])
