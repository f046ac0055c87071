"""Experiment reports: anchored rows, pass/fail scoring, and serialization."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .reference import REFERENCE, evaluate


class ReportLintError(ValueError):
    pass


@dataclass(frozen=True)
class Row:
    label: str
    value: object
    anchor: str
    passed: bool
    expected: str
    gating: bool

    @staticmethod
    def make(label: str, value, anchor: str) -> "Row":
        if anchor not in REFERENCE:
            raise ReportLintError(f"row {label!r} has no registry anchor ({anchor!r})")
        passed, expected = evaluate(anchor, value)
        gating = REFERENCE[anchor]["kind"] != "info"
        return Row(label, value, anchor, passed, expected, gating)


@dataclass
class Report:
    name: str
    seed: int
    rows: list[Row] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, label: str, value, anchor: str) -> Row:
        row = Row.make(label, value, anchor)
        self.rows.append(row)
        return row

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.gating)

    def failures(self) -> list[Row]:
        return [r for r in self.rows if r.gating and not r.passed]

    def lint(self) -> None:
        for r in self.rows:
            if not r.anchor or r.anchor not in REFERENCE:
                raise ReportLintError(f"row {r.label!r} lacks a registry anchor")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "experiment": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "provenance": self.provenance,
            "rows": [
                {"label": r.label, "value": _jsonable(r.value), "anchor": r.anchor,
                 "expected": r.expected, "passed": r.passed, "gating": r.gating}
                for r in self.rows
            ],
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=1)
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["experiment", "label", "value", "expected", "passed", "anchor"])
            for r in self.rows:
                writer.writerow([self.name, r.label, _jsonable(r.value),
                                 r.expected, r.passed, r.anchor])

    def to_text(self) -> str:
        lines = [f"experiment: {self.name} (seed {self.seed})"]
        width = max((len(r.label) for r in self.rows), default=10)
        for r in self.rows:
            mark = "pass" if r.passed else "FAIL"
            if not r.gating:
                mark = "  . "
            value = _format_value(r.value)
            lines.append(f"  [{mark}] {r.label:<{width}}  {value:>14}  {r.expected}")
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"  => {status} ({sum(r.gating for r in self.rows)} gated rows)")
        return "\n".join(lines)


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_format_value(x) for x in v) + ")"
    return str(v)


def _jsonable(v):
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.generic, np.ndarray)):
        return v.item()
    return v


def config_hash(params: dict) -> str:
    payload = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:12]

