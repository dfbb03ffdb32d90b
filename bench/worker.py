"""Run one workload's passes in this fresh interpreter and report raw timings.

Usage: python3 bench/worker.py PLAN.json

The launcher (run.py) writes the plan and sets the environment before this
process starts: PYTHONPATH points at the sources, and QDENSITY_THREADS=1
and one BLAS thread are pinned, so numpy reads the pins at import. The
worker changes into the plan's work directory, drives the CLI in-process
the way `qdensity ...` would, and writes result.json there. Only the ops
are timed; hashing outputs and serializing library results happen between
passes.

On a shared host the CPU's speed can switch by up to 1.5x within seconds
as neighbours come and go, slowing the program and anything timed next to
it alike. So a fixed
reference kernel of 15-35 ms is sampled from a timer signal every
SAMPLE_PERIOD_S while an untraced op runs, and EDGE_SAMPLES times just
before and after it. An op's net time (its time less the samples taken
during it) divided by the kernel's mean time over those samples is steady
where its seconds are not, because both slow together. Sampling during
the op, not only around it, matters: on a shared 2-vCPU VM, samples taken
only around each op left 2-3x the run-to-run spread on parity_experiment,
whose one op lasts 5-7 s. For the same reason every PROBE_EVERY-th timer
tick times a cold import of qdensity.cli (setup) instead; its time, too, is
taken out of the op's.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import Tracer

SAMPLE_PERIOD_S = 0.25
EDGE_SAMPLES = 3
PROBE_EVERY = 12
SETUP_BEFORE = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qdensity.cli; print(time.perf_counter() - t)"
)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def import_seconds() -> float:
    """One cold import of qdensity.cli in a fresh interpreter (setup)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


class Reference:
    """Fixed stdlib and numpy work, a mix like qdensity's: dict counting,
    JSON emitting, np.unique on integer codes and small symmetric
    eigensolves, on inputs of a few hundred kB so that it allocates and
    misses cache as the program's tables do. Inputs are built once, outside
    timing. Totals of the samples' wall and CPU time accumulate until reset."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.codes = rng.integers(0, 1 << 15, size=30_000)
        m = rng.random((8, 8))
        self.sym = m + m.T
        self.floats = rng.random(10_000).tolist()
        self.words = [f"w{i % 997} v{i % 31}" for i in range(30_000)]
        self.setups: list[float] = []
        self.ticks = 0
        self.busy = False
        self.reset()

    def work(self) -> None:
        counts: dict[str, int] = {}
        for word in self.words:
            counts[word] = counts.get(word, 0) + 1
        json.dumps({"counts": counts, "values": self.floats})
        np.unique(self.codes, return_inverse=True)
        for _ in range(200):
            np.linalg.eigh(self.sym)

    def sample(self) -> None:
        """Time one run of the kernel. The collector is paused meanwhile, so
        a collection of the program's heap that falls due is left to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            self.work()
            self.wall += time.perf_counter() - t0
            self.cpu += _cpu_seconds() - cpu0
            self.count += 1
        finally:
            if enabled:
                gc.enable()

    def reset(self) -> None:
        self.wall = self.cpu = self.probe_wall = self.probe_cpu = 0.0
        self.count = 0

    def tick(self, *_signal) -> None:
        """Timer handler: a kernel sample, or every PROBE_EVERY-th tick a cold
        import (setup), so that setup samples span the run as the host's
        speed changes. A tick that arrives while one is handled is dropped."""
        if self.busy:
            return
        self.busy = True
        try:
            self.ticks += 1
            if self.ticks % PROBE_EVERY:
                self.sample()
            else:
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                self.setups.append(import_seconds())
                self.probe_wall += time.perf_counter() - t0
                self.probe_cpu += _cpu_seconds() - cpu0
        finally:
            self.busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    @staticmethod
    def stop_timer() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


class Ops:
    """Executes plan ops against the imported qdensity modules."""

    def __init__(self):
        from qdensity import cli, empirical, entailment, mps

        self.cli, self.empirical, self.entailment, self.mps = cli, empirical, entailment, mps

    def run(self, op: dict):
        kind = op["kind"]
        if kind == "cli":
            self.cli.main.main(args=op["args"], prog_name="qdensity", standalone_mode=False)
            return None
        if kind == "born":
            model = self.mps.load_model(op["model"])
            with open(op["samples"], encoding="utf-8") as fh:
                lines = fh.read().splitlines()[: op["count"]]
            return [self.mps.born_probability(model, s) for s in lines]
        if kind == "decompose":
            cs = self.entailment.CorpusState.from_dataset(self.empirical.load_dataset(op["corpus"]))
            return self.entailment.decompose(cs, {int(k): v for k, v in op["pattern"].items()})
        raise ValueError(f"unknown op kind {kind!r}")

    @staticmethod
    def save(op: dict, result) -> None:
        """Write a library op's result as JSON; floats via repr, so exact."""
        if op["kind"] == "born":
            payload = result
        elif op["kind"] == "decompose":
            payload = {
                "suffix_alphabet": list(result[0][2].suffix_alphabet) if result else [],
                "prefixes": [list(prefix) for prefix, _, _ in result],
                "weights": [w for _, w, _ in result],
                "densities": [d.matrix.tolist() for _, _, d in result],
            }
        else:
            return
        with open(op["outputs"][0], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def digest(paths: list[str]) -> str | None:
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            return None
    return h.hexdigest()


def run_op(ops: Ops, ref: Reference | None, op: dict, tracer: Tracer | None) -> tuple:
    """Run one op with reference samples around it, and during it unless traced.

    Returns (result, error, net wall s, net CPU s, wall ratio, CPU ratio);
    without a reference the ratios are 0.
    """
    if ref is not None:
        ref.reset()
        for _ in range(EDGE_SAMPLES):
            ref.sample()
        edge_wall, edge_cpu = ref.wall, ref.cpu
    result, error = None, None
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        if ref is not None and tracer is None:
            ref.start_timer()
        if tracer is None:
            result = ops.run(op)
        else:
            with tracer.span(("cli." if op["kind"] == "cli" else "op.") + op["name"]):
                result = ops.run(op)
    except Exception as exc:  # a failing op is counted, the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        Reference.stop_timer()
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    if ref is None:
        return result, error, wall, cpu, 0.0, 0.0
    wall -= ref.wall - edge_wall + ref.probe_wall
    cpu -= ref.cpu - edge_cpu + ref.probe_cpu
    for _ in range(EDGE_SAMPLES):
        ref.sample()
    return result, error, wall, cpu, wall / (ref.wall / ref.count), cpu / (ref.cpu / ref.count)


def run_pass(ops: Ops, ref: Reference | None, plan_ops: list[dict], tracer: Tracer | None,
             pass_id: int) -> dict:
    """One pass over the ops. Its ratios are the sums of its ops' ratios."""
    for op in plan_ops:
        for path in op["outputs"]:
            if os.path.exists(path):
                os.remove(path)
    errors: list[str | None] = []
    results = []
    if tracer is not None:
        tracer.pass_id = pass_id
    totals = [0.0, 0.0, 0.0, 0.0]
    for op in plan_ops:
        result, error, *timings = run_op(ops, ref, op, tracer)
        results.append(result)
        errors.append(error)
        totals = [t + x for t, x in zip(totals, timings)]
    digests, out_bytes = [], 0
    for op, result, error in zip(plan_ops, results, errors):
        if error is None:
            ops.save(op, result)
        digests.append(digest(op["outputs"]) if error is None else None)
        if op["kind"] == "cli":
            out_bytes += sum(os.path.getsize(p) for p in op["outputs"] if os.path.exists(p))
    if tracer is not None:
        tracer.count("cli.out_bytes", out_bytes)
    wall, cpu, wall_ratio, cpu_ratio = totals
    return {"wall_s": wall, "cpu_s": cpu, "wall_ratio": wall_ratio, "cpu_ratio": cpu_ratio,
            "errors": errors, "digests": digests, "traced": tracer is not None, "warmup": False}


def run_passes(ops, ref, plan_ops, seconds, min_passes, tracer, passes, first_id) -> None:
    """Run passes while another one fits in the budget, and at least min_passes.

    A cold import is also timed after each pass.
    """
    start = time.perf_counter()
    lengths: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if len(lengths) >= min_passes and elapsed + statistics.median(lengths) > seconds:
            return
        passes.append(run_pass(ops, ref, plan_ops, tracer, first_id + len(lengths)))
        ref.setups.append(import_seconds())
        lengths.append(time.perf_counter() - start - elapsed)


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(plan["workdir"])
    ops = Ops()
    # A warm-up pass, checked but not timed. Peak RSS is taken after it and
    # before the reference kernel's inputs exist, so it is the program's own.
    start = time.perf_counter()
    passes = [dict(run_pass(ops, None, plan["ops"], None, -1), warmup=True)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = Reference()
    ref.setups.extend(import_seconds() for _ in range(SETUP_BEFORE))
    seconds = plan["seconds"] - (time.perf_counter() - start)
    min_passes = plan["min_passes"]
    tracer = None
    if plan["trace"]:
        # Half the budget untraced, half traced: the difference is the overhead.
        run_passes(ops, ref, plan["ops"], seconds / 2, min_passes, None, passes, 0)
        tracer = Tracer()
        tracer.install()
        try:
            run_passes(ops, ref, plan["ops"], seconds / 2, min_passes, tracer, passes, len(passes))
        finally:
            tracer.uninstall()
        tracer.write("spans.json")
    else:
        run_passes(ops, ref, plan["ops"], seconds, min_passes, None, passes, 0)
    result = {
        "passes": passes,
        "setup_import_s": ref.setups,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        "qdensity_threads": os.environ.get("QDENSITY_THREADS"),
    }
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: worker.py PLAN.json")
    main(sys.argv[1])
