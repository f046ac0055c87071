"""Every battery row at seed 42 and the analyze output of one generated piece,
against the pins ``tests/data/make_pins.py`` wrote."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from polycanon.experiments import REGISTRY

_spec = importlib.util.spec_from_file_location(
    "make_pins", Path(__file__).parent / "data" / "make_pins.py")
make_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_pins)
PINS = json.loads(make_pins.PATH.read_text())

# rows whose last digits follow the host (numpy's SIMD power and log kernels),
# compared within this relative tolerance
HOST_SENSITIVE = ("hal_sensitivity.residual_sd_c", "virtual_piano.paired_p")
REL_TOL = 1e-9


def same_row(name, pinned, row) -> bool:
    (label, value, passed), (pinned_label, pinned_value, pinned_passed) = row, pinned
    if (label, passed) != (pinned_label, pinned_passed):
        return False
    if f"{name}.{label}".startswith(HOST_SENSITIVE):
        return math.isclose(float(value), float(pinned_value), rel_tol=REL_TOL)
    return value == pinned_value


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_report_row_at_seed_42_is_the_pinned_one(reports, name):
    rows = make_pins.report_rows(reports(name, PINS["seed"]))
    pinned = PINS["rows"][name]
    assert [row[0] for row in rows] == [row[0] for row in pinned]
    assert [row for row, pin in zip(rows, pinned) if not same_row(name, pin, row)] == []


def test_the_pins_name_every_experiment_and_the_host_sensitive_rows():
    assert sorted(PINS["rows"]) == sorted(REGISTRY)
    for prefix in HOST_SENSITIVE:
        name, label = prefix.split(".")
        assert any(row[0].startswith(label) for row in PINS["rows"][name]), prefix


def test_analyze_prints_the_pinned_bytes_for_each_format():
    assert make_pins.analyze_digests() == PINS["analyze_sha256"]
