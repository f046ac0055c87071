"""Write ``tests/data/report_rows.json``, the outputs that tier-1 pins.

Run from the root of a checkout: ``PYTHONPATH=src python tests/data/make_pins.py``.
The file holds every row of every registry experiment at seed 42, as
[label, repr(value), passed], and the sha256 of what
``polycanon analyze --metrics pcc,nlz,mc,rc --csv`` prints for each event file
that ``polycanon generate --depth 4 --seed 0`` writes. ``vss`` stays out: its
Wasserstein distance ends in a BLAS dot product, whose last bits follow the
BLAS thread count. A change that moves a pinned output on purpose reruns this
script, and the file's diff lists what moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from polycanon.cli import main
from polycanon.experiments import REGISTRY, ExperimentSpec, run

SEED = 42
PATH = Path(__file__).with_name("report_rows.json")
ANALYZED = ("piece.json", "piece.csv", "piece.mid")


def report_rows(report) -> list[list]:
    return [[row.label, repr(row.value), row.passed] for row in report.rows]


def analyze_digests() -> dict[str, str]:
    """The sha256 of ``analyze``'s stdout on each file ``generate`` writes."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--depth", "4", "--seed", "0", "--out", tmp]) == 0
        for name in ANALYZED:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["analyze", "--in", str(Path(tmp) / name),
                             "--metrics", "pcc,nlz,mc,rc", "--csv"]) == 0
            digests[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def pins(report_for) -> dict:
    """The pinned outputs, with ``report_for(name)`` the report of an experiment at SEED."""
    return {"seed": SEED,
            "rows": {name: report_rows(report_for(name)) for name in sorted(REGISTRY)},
            "analyze_sha256": analyze_digests()}


if __name__ == "__main__":
    PATH.write_text(json.dumps(pins(lambda name: run(ExperimentSpec(name, SEED))), indent=1)
                    + "\n")
    print(f"wrote {PATH}")
