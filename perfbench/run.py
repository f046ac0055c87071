"""polycanon benchmark: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload render|analyze|battery --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Timing covers whole passes of the workload's operation cycle until the
operations have been busy for ``--seconds``, after set-up and one untimed
warm-up operation. Every operation's output is checked outside the timed
region, and failing operations are counted against those attempted.

With ``--trace 0`` the last line of standard output is the result object
carrying the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the
same operations run once untraced and once with a span around every call
into a layer; the last line carries the per-layer metrics, and the lines
before it give the tracing overhead. Per-run records and spans are written
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer, Untraced, self_time_by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import polycanon.cli; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class OpRecord:
    pass_index: int
    kind: str
    op: str
    seconds: float
    work: int
    digest: str


@dataclass
class Phase:
    """The timed operations of one phase (untraced or traced)."""

    ops: list[OpRecord] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    pass_count: int = 0

    def digests(self) -> dict[tuple[int, str], str]:
        return {(r.pass_index, r.op): r.digest for r in self.ops}

    def pass_time(self, mix) -> float:
        """Time of one pass with the operation mix `mix`: the sum over its
        operations of the median time of their kind.

        Medians per kind keep one slow operation from moving the whole pass,
        which matters on a host whose speed varies from one operation to the
        next.
        """
        by_kind: dict[str, list[float]] = {}
        for r in self.ops:
            by_kind.setdefault(r.kind, []).append(r.seconds)
        return sum(statistics.median(by_kind[op.kind]) for op in mix)


def measure(wl, tracer, seconds: float) -> Phase:
    """Run whole passes until the operations have been busy for `seconds`."""
    phase = Phase()
    busy = 0.0
    started = perf_counter()
    # the wall-clock cap ends a run whose operations fail before doing work
    while busy < seconds and perf_counter() - started < 3 * seconds + 60:
        for op in wl.pass_ops(phase.pass_count):
            phase.attempted += 1
            tracer.request = op.id
            t0 = perf_counter()
            try:
                result = tracer.call(wl.op_span, wl.run, op, tracer)
            except Exception as err:  # a failing operation is counted and the loop goes on
                busy += perf_counter() - t0
                phase.failed += 1
                phase.failures.append(f"{op.id}: {type(err).__name__}: {err}")
                continue
            dt = perf_counter() - t0
            busy += dt
            try:
                problems = wl.check(op, result)
            except Exception as err:  # an output that cannot be checked fails its operation
                problems = [f"check raised {type(err).__name__}: {err}"]
            if problems:
                phase.failed += 1
                phase.failures.extend(f"{op.id}: {p}" for p in problems)
                continue
            phase.ops.append(OpRecord(phase.pass_count, op.kind, op.id, dt,
                                      wl.work(result), wl.digest(result)))
        phase.pass_count += 1
    return phase


def time_imports() -> list[float]:
    """Import time of the command-line module graph, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "polycanon").rglob("*")):
        if path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def layer_metrics(tracer: Tracer, passes: int, names: list[str]) -> tuple[dict, dict]:
    """Self time and counts per pass of every span, and the `names` subset
    for the result line, 0 where the workload does not call the layer."""
    self_s = self_time_by_name(tracer.spans)
    counts = tracer.counts
    values = {f"{name}.s": t / passes for name, t in self_s.items()}
    values.update({name: v / passes for name, v in counts.items()})

    def ratio(num, den):
        return num / den if den else 0.0

    values["pipeline.generate.events_per_s"] = ratio(
        counts.get("pipeline.generate.events", 0), self_s.get("pipeline.generate", 0))
    values["hal.enforce_constraints.kept_ratio"] = ratio(
        counts.get("hal.enforce_constraints.kept", 0), counts.get("hal.enforce_constraints.in", 0))
    values["hal.robustness_filter.changed_ratio"] = ratio(
        counts.get("hal.robustness_filter.changed", 0), counts.get("hal.robustness_filter.in", 0))
    return values, {n: values.get(n, 0.0) for n in names}


def run_workload(args, spec: dict, workdir: Path) -> tuple[dict, list[str]]:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    # set-up time is an end-to-end metric, so a traced run sets up only once
    imports = [] if args.trace else time_imports()
    reps = []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = perf_counter()
        wl.setup()
        reps.append(perf_counter() - t0)
    setup_s = statistics.median(imports or [0.0]) + statistics.median(reps)

    problems = []
    warm = wl.warmup_op()
    problems += wl.faithfulness(warm, wl.run(warm, Untraced()))

    untraced = measure(wl, Untraced(), args.seconds)
    phases = [untraced]
    if args.trace:
        tracer = Tracer()
        traced = measure(wl, tracer, args.seconds)
        phases.append(traced)
        ref = untraced.digests()
        problems += [f"traced output of {op} in pass {k} differs from the untraced run's"
                     for (k, op), d in traced.digests().items() if ref.get((k, op), d) != d]
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.attempted for p in phases)
    mix = wl.pass_ops(0)
    if any({op.kind for op in mix} - {r.kind for r in p.ops} for p in phases):
        raise RuntimeError("an operation never succeeded; failures: " + "; ".join(failures[:5]))

    env = environment()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {"pass_s": untraced.pass_time(mix), "peak_rss_mb": rss_mb, "setup_s": setup_s}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = [("peak_rss_mb", rss_mb, "MB", "")] + wl.summary(untraced)
    if not args.trace:
        summary.insert(0, ("setup_s", setup_s, "s", f"imports {statistics.median(imports):.4f} s"
                                                    f" + set-up {statistics.median(reps):.4f} s"))

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}",
             "environment " + json.dumps(env, sort_keys=True),
             f"ops attempted={attempted} failed={sum(p.failed for p in phases)} "
             f"passes={untraced.pass_count}"]
    lines.extend(f"{name} {value:.6g} {unit}  {note}".rstrip() for name, value, unit, note in summary)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "end_to_end": end_to_end,
              "summary": {name: value for name, value, _, _ in summary},
              "imports_s": imports, "setup_reps_s": reps,
              "ops": [r.__dict__ for r in untraced.ops], "failures": failures,
              "problems": problems}
    metrics = end_to_end
    if args.trace:
        layers, reported = layer_metrics(tracer, traced.pass_count,
                                         [m["name"] for m in spec["per_layer"]])
        overhead = traced.pass_time(mix) / untraced.pass_time(mix) - 1
        lines.append(f"tracing_overhead {overhead:.6g} ratio  traced pass "
                     f"{traced.pass_time(mix):.6g} s against untraced {untraced.pass_time(mix):.6g} s")
        for name, value in sorted(layers.items()):
            lines.append(f"{name} {value:.6g} {units.get(name, '')}".rstrip())
        record.update(tracing_overhead=overhead, per_layer=layers,
                      traced_ops=[r.__dict__ for r in traced.ops])
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))
        metrics = reported
    lines.extend(f"PROBLEM {p}" for p in problems)
    lines.extend(f"FAILED {f}" for f in failures)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    result = {"correct": not problems and not failures, "attempted": attempted,
              "failed": sum(p.failed for p in phases),
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("render", "analyze", "battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "polycanon" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no polycanon sources under {SRC} or no {spec_path.name}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result, lines = run_workload(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
