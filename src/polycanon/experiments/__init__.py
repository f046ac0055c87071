"""Seeded experiment harness: one named experiment per study condition, each
emitting a machine-readable report scored against the target-value registry.

Each experiment is a function ``name(report, seed, full_scale)`` that adds its
rows to ``report``. ``run`` is the one place an experiment is run: it creates
the report, calls the experiment, lints the rows and stamps the provenance
with ``seed``, ``config_hash`` (a hash of the spec: name, seed and overrides)
and ``runtime_s``. ``full_scale`` is the one override. ``run_all`` is the one
runner of several, serial or over a process pool; ``polycanon experiment``
calls it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..stochastic import ConfigError
from .beyond import beyond_human
from .convergence import cp_continuous, cp_discrete, epsilon_sensitivity
from .density import density_sweep, distribution_independence, null_baseline
from .fidelity import ablation_a, ablation_b, ablation_c, degradation, fidelity
from .hardware import hal_sensitivity, latency_mismatch, robustness, virtual_piano
from .lsystem_info import lsystem_info
from .reporting import Report, ReportLintError, Row, config_hash
from .separation import constraints, wvss_weights

REGISTRY = {
    "fidelity": fidelity,
    "degradation": degradation,
    "ablation_a": ablation_a,
    "ablation_b": ablation_b,
    "ablation_c": ablation_c,
    "lsystem_info": lsystem_info,
    "density_sweep": density_sweep,
    "null_baseline": null_baseline,
    "distribution_independence": distribution_independence,
    "constraints": constraints,
    "wvss_weights": wvss_weights,
    "cp_discrete": cp_discrete,
    "cp_continuous": cp_continuous,
    "epsilon_sensitivity": epsilon_sensitivity,
    "hal_sensitivity": hal_sensitivity,
    "latency_mismatch": latency_mismatch,
    "virtual_piano": virtual_piano,
    "robustness": robustness,
    "beyond_human": beyond_human,
}


class UnknownExperimentError(ConfigError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    seed: int = 42
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in REGISTRY:
            raise UnknownExperimentError(
                f"unknown experiment {self.name!r}; known: {', '.join(sorted(REGISTRY))}")
        full_scale = self.overrides.get("full_scale", False)
        if set(self.overrides) - {"full_scale"} or not isinstance(full_scale, bool):
            raise ValueError(f"overrides take only full_scale (a bool), got {self.overrides}")


def run(spec: ExperimentSpec) -> Report:
    report = Report(spec.name, spec.seed)
    start = time.perf_counter()
    REGISTRY[spec.name](report, spec.seed, spec.overrides.get("full_scale", False))
    runtime_s = round(time.perf_counter() - start, 3)
    report.lint()
    report.provenance.update({
        "seed": spec.seed,
        "config_hash": config_hash({"name": spec.name, "seed": spec.seed, **spec.overrides}),
        "runtime_s": runtime_s,
    })
    return report


def run_all(master_seed: int = 42, names=None, jobs: int = 1, **overrides) -> list[Report]:
    """The reports of the named experiments (the whole registry, sorted, by
    default) at ``master_seed``; a failed gate is recorded, not raised. Every
    spec is built first, so an unknown name or override raises before anything
    runs; the specs then run serially, or over a pool of ``min(jobs, number of
    specs)`` processes, with the same reports in the same order."""
    specs = [ExperimentSpec(name, master_seed, overrides) for name in names or sorted(REGISTRY)]
    workers = min(jobs, len(specs))
    if workers <= 1:
        return list(map(run, specs))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, specs))


def summarize(reports: list[Report]) -> str:
    lines = []
    total = passed = 0
    for r in reports:
        gated = [row for row in r.rows if row.gating]
        ok = sum(row.passed for row in gated)
        total += len(gated)
        passed += ok
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:28s} {status}  ({ok}/{len(gated)} rows)")
    lines.append(f"{'total':28s}       ({passed}/{total} rows)")
    return "\n".join(lines)


__all__ = [
    "ExperimentSpec", "REGISTRY", "Report", "Row", "ReportLintError",
    "run", "run_all", "summarize", "UnknownExperimentError",
]
