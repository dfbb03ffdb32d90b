"""qdensity benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run compiles the sources with one untimed import, writes the
workload's seeded inputs under .bench_work/, and starts a fresh worker
interpreter pinned to QDENSITY_THREADS=1 and one BLAS thread. The worker
drives the CLI in-process for S seconds and times cold imports of
qdensity.cli (setup) before the first pass, after every pass and at
intervals during ops. The outputs are then checked with numpy alone.

With --trace 0 the last stdout line carries the end-to-end metrics.
pass_ref and cpu_ref are the median pass's wall and CPU time in units of a
fixed reference kernel sampled during and around every op (see worker.py),
so that the host's speed drift cancels; the raw seconds are in the report
line, and peak_rss_mb is taken after an untimed warm-up pass. With
--trace 1 a second, traced half of the passes gives the per-layer metrics
and the tracing overhead. The line before the result records the
environment, the input properties and the raw pass timings; both lines
are also kept in .bench_work/report-WORKLOAD-SEED-traceT.json, and a
traced run keeps its spans in .bench_work/spans-WORKLOAD-SEED.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import summarize
from worker import blas_threads, digest
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
TIME_LIMIT_S = 170.0
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
PINNED = {
    "QDENSITY_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    """Pinned threads, the sources on the path, and bytecode caching on.

    Caching lets the untimed first import compile the sources once, as an
    installed package would have them, whatever the caller's environment.
    """
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark ran out of time")
    return left


def compile_sources(deadline: float) -> None:
    """One untimed cold import of qdensity.cli, which writes the bytecode (the build)."""
    subprocess.run([sys.executable, "-c", "import qdensity.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=remaining(deadline))


def environment(worker: dict) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "qdensity").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_default": blas_threads(),
        "blas_threads_run": worker.get("blas_threads"),
        "QDENSITY_THREADS": worker.get("qdensity_threads"),
        "pinned_env": PINNED,
    }


def judge(plan, passes: list[dict], problems: dict[str, list[str]], workdir: Path) -> tuple[int, list[str]]:
    """Failed (op, pass) pairs: raised, output differs from the checked pass, or failed its check."""
    reference = [digest([str(workdir / p) for p in op["outputs"]]) for op in plan.ops]
    failed, notes = 0, []
    for p, record in enumerate(passes):
        for i, op in enumerate(plan.ops):
            name = op["name"]
            if record["errors"][i]:
                notes.append(f"pass {p} {name}: {record['errors'][i]}")
            elif record["digests"][i] != reference[i]:
                notes.append(f"pass {p} {name}: output differs from the checked pass")
            elif problems.get(name):
                notes.append(f"pass {p} {name}: {'; '.join(problems[name][:3])}")
            else:
                continue
            failed += 1
    return failed, notes


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(summary: dict, passes: list[dict], units: dict[str, str]) -> dict[str, dict]:
    """Per-layer metrics: medians over traced passes, plus the tracing overhead."""
    med = summary["median"]
    untraced = statistics.median(r["wall_s"] for r in passes if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in passes if r["traced"])
    train_ms = [1000 * d for d in summary["durations"].get("mps.train", [])]
    enumerations = med.get("fca.formal_concepts_calls", 0.0)
    commands = med.get("cli.concepts_calls", 0.0)
    values = dict(med)
    values.update({
        "trace.pass_s": traced,
        "trace.untraced_pass_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.spans_per_pass": summary["spans_per_pass"],
        "mps.train_p50_ms": _percentile(train_ms, 50),
        "mps.train_p90_ms": _percentile(train_ms, 90),
        "fca.concepts": med.get("fca.concepts", 0.0) / enumerations if enumerations else 0.0,
        "fca.enumerations_per_command": enumerations / commands if commands else 0.0,
    })
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not (SRC / "qdensity" / "cli.py").is_file():
        print(f"qdensity sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]

    compile_sources(deadline)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workload.make(str(workdir), args.seed)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps({
            "ops": plan.ops,
            "seconds": args.seconds,
            "min_passes": MIN_TRACED_PASSES if args.trace else MIN_PASSES,
            "trace": bool(args.trace),
            "workdir": str(workdir),
        }))
        subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path)],
                       env=child_env(), cwd=ROOT, check=True, timeout=remaining(deadline))
        worker = json.loads((workdir / "result.json").read_text())
        passes = worker["passes"]
        problems = workload.check(str(workdir), plan)
        failed, notes = judge(plan, passes, problems, workdir)
        attempted = len(passes) * len(plan.ops)
        correct = failed == 0
        timed = [r for r in passes if not r["warmup"] and not r["traced"]]
        if args.trace:
            spans = json.loads((workdir / "spans.json").read_text())
            summary = summarize(spans["spans"], spans["counters"])
            missing = [s for s in workload.spans if not summary["median"].get(f"{s}_calls")]
            if missing:
                correct = False
                notes.append(f"expected spans never recorded: {missing}")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = per_layer(summary, [r for r in passes if not r["warmup"]], units)
            shutil.copy(workdir / "spans.json", WORK / f"spans-{args.workload}-{args.seed}.json")
        else:
            values = {
                "pass_ref": statistics.median(r["wall_ratio"] for r in timed),
                "cpu_ref": statistics.median(r["cpu_ratio"] for r in timed),
                "peak_rss_mb": worker["peak_rss_mb"],
                "setup_s": statistics.median(worker["setup_import_s"]),
                "ok_frac": 1.0 - failed / attempted,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(worker),
            "inputs": plan.properties,
            "passes": len(passes),
            "pass_wall_s": [r["wall_s"] for r in passes],
            "pass_cpu_s": [r["cpu_s"] for r in passes],
            "pass_s": statistics.median(r["wall_s"] for r in timed),
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
            "pass_wall_ratio": [r["wall_ratio"] for r in passes],
            "pass_cpu_ratio": [r["cpu_ratio"] for r in passes],
            "setup_import_s": worker["setup_import_s"],
            "fail_frac": failed / attempted,
            "failures": notes[:20],
        }
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        (WORK / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"report": report, "result": result}, indent=1))
        for note in notes[:20]:
            print(note, file=sys.stderr)
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
