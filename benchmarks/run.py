"""qhyper benchmark: one workload, one process, a closed loop with one client.

Run from the repository root:

    python3 benchmarks/run.py --workload lu_generic --seed 1 --seconds 20 --trace 0

The run imports qhyper from ``src/`` of the checkout it sits in and
pins BLAS to one thread.  ``setup_s`` is the median over SETUP_REPEATS
fresh interpreters of the time from starting one to the point where
its first timed op could start: interpreter start, the NumPy and
qhyper imports, input generation from the seed and warm-up.  The run
then sets up once more in its own process, and the timed phase cycles
through the workload's pass of operations until the operations have
taken ``--seconds`` and at least one whole pass and MIN_OPS operations
have run.  Each operation is checked right after it with the clock
stopped, and cross checks run after the phase.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` every operation runs twice,
once as is and once with every public qhyper function wrapped, in
whole passes, until the untraced runs have taken half the seconds.
The result holds the per-layer metrics and the tracing overhead; the
spans are written to ``.bench_out/spans_<workload>.json``.  The metric
names and units of both kinds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import tracer  # standard library only; NumPy is imported after BLAS is pinned

# Thread-count variables of the BLAS builds NumPy may load; they are
# read when NumPy is imported, so they are set before the import.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
# The 90th percentile needs ten samples beyond it.
MIN_OPS = 100
_SC_LEVEL3_CACHE_SIZE = 194  # glibc's name for it; Python's os.sysconf lacks it
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# What a fresh interpreter runs to time one set-up.
SET_UP_CHILD = "import sys; sys.path.insert(0, {bench!r}); import run; run.set_up_alone({workload!r}, {seed})"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def workload_builder(workload):
    """Import NumPy (after BLAS is pinned) and the workloads; returns the
    workload's plan builder, or None if the name is unknown."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS.get(workload)


def set_up(build, seed):
    """Import qhyper, make the inputs and warm up; returns (modules, plan, tmpdir)."""
    import numpy as np

    importlib.import_module("qhyper")
    importlib.import_module("qhyper.cli")
    q = SimpleNamespace(**{layer: sys.modules[f"qhyper.{layer}"] for layer in tracer.LAYERS})
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    plan = build(q, np.random.default_rng(seed), tmpdir)
    for warm in plan.warmup:
        warm()
    plan.cleanup()
    return q, plan, tmpdir


def set_up_alone(workload, seed):
    """Set up in this fresh interpreter and print the monotonic clock
    (system-wide on Linux) at the point the first timed op could start."""
    _, _, tmpdir = set_up(workload_builder(workload), seed)
    print(time.monotonic())
    shutil.rmtree(tmpdir)


def time_set_up(workload, seed):
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    code = SET_UP_CHILD.format(bench=str(BENCH_DIR), workload=workload, seed=seed)
    t0 = time.monotonic()
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{child.stderr}")
    return float(child.stdout.split()[-1]) - t0


def l3_bytes():
    """L3 cache size from glibc's sysconf, which reads it from cpuid."""
    if platform.libc_ver()[0] != "glibc":
        return None
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    size = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    return size if size > 0 else None


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Phase:
    """Latencies, results and failures of one timed phase."""

    def __init__(self):
        self.latencies, self.results, self.failures, self.busy = [], [], {}, 0.0

    def step(self, plan, i):
        """Run and check op ``i`` of the cycle (pass position i mod size)."""
        pos = i % len(plan.ops)
        op = plan.ops[pos]
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is counted, the loop goes on
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        else:
            reason = None
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt)
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = f"output check raised {type(exc).__name__}: {exc}"
            self.results.append((i, pos, result))
        if reason is not None:
            self.failures[i] = f"{op.kind}: {reason}"


def run_phase(plan, seconds, min_ops):
    """Closed loop over the pass until the ops have taken ``seconds`` and
    at least ``min_ops`` ran."""
    phase = Phase()
    i = 0
    while phase.busy < seconds or i < min_ops:
        phase.step(plan, i)
        i += 1
    return phase


def run_paired(plan, seconds, recorder):
    """Run every op twice, untraced and traced, in whole passes until the
    untraced runs have taken ``seconds``.  Pairs alternate which run goes first, so
    neither gains from the caches the other warmed, and the two runs of
    a pair see the same machine load.  Returns (untraced, traced)."""
    untraced, traced = Phase(), Phase()
    i = 0
    # Whole passes only: the per-op layer figures then average over the
    # same mix of ops whatever the speed of the code.
    while untraced.busy < seconds or i % len(plan.ops):
        for trace in (False, True) if i % 2 == 0 else (True, False):
            if not trace:
                untraced.step(plan, i)
                continue
            recorder.op = i
            recorder.install()
            try:
                traced.step(plan, i)
            finally:
                recorder.restore()
        i += 1
    return untraced, traced


def cross_check(plan, phase):
    """Apply the workload's final checks to a finished phase."""
    bad = plan.final_check([(pos, result) for _, pos, result in phase.results])
    for i, pos, _ in phase.results:
        if pos in bad and i not in phase.failures:
            phase.failures[i] = f"{plan.ops[pos].kind}: {bad[pos]}"


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # inherited by the set-up interpreters
        os.environ[var] = "1"
    if not (SRC / "qhyper" / "__init__.py").is_file():
        print(f"error: no qhyper sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build = workload_builder(args.workload)
    if build is None:
        names = ", ".join(w["name"] for w in bench["workloads"])
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    setup_times = [time_set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    q, plan, tmpdir = set_up(build, args.seed)
    if not Path(q.tensor.__file__).resolve().is_relative_to(SRC):
        print(f"error: qhyper was imported from {q.tensor.__file__}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            recorder = tracer.Recorder()
            untraced, traced = run_paired(plan, args.seconds / 2, recorder)
            phases = [untraced, traced]
        else:
            # A whole pass makes lu_decided_frac a property of the seed.
            phases = [run_phase(plan, args.seconds, max(MIN_OPS, len(plan.ops)))]
        for phase in phases:
            cross_check(plan, phase)
    finally:
        shutil.rmtree(tmpdir)

    attempted = sum(len(p.latencies) for p in phases)
    failures = [reason for p in phases for reason in p.failures.values()]
    for reason in failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "l3_bytes": l3_bytes(),
        "ops_per_pass": len(plan.ops),
        "setup_runs_s": setup_times,
        "failed_frac": len(failures) / attempted,
        "byte_metrics": "computed from array and file sizes, not measured traffic",
    }

    if args.trace:
        untraced_rate = len(untraced.latencies) / untraced.busy
        traced_rate = len(traced.latencies) / traced.busy
        overhead = 1.0 - traced_rate / untraced_rate
        metrics = recorder.metrics(bench["per_layer"], len(traced.latencies), overhead)
        recorder.dump(OUT_DIR / f"spans_{args.workload}.json")
        meta["spans"] = len(recorder.spans)
        meta["ops_per_s"] = {"untraced": untraced_rate, "traced": traced_rate}
        table = sorted(recorder.aggregate().items(), key=lambda kv: -kv[1]["self_s"])
        lines = [
            f"  {name:45s} calls {row['calls']:8d}  busy {row['busy_s']:9.4f} s  self {row['self_s']:9.4f} s"
            for name, row in table
        ]
    else:
        (phase,) = phases
        lat = phase.latencies
        first = [r for i, _, r in phase.results if i < len(plan.ops)]
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(lat) / phase.busy,
            "latency_p50_ms": 1e3 * percentile(lat, 50),
            "latency_p90_ms": 1e3 * percentile(lat, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "lu_decided_frac": sum(map(plan.decided, first)) / len(plan.ops),
        }
        samples = {"setup_s": len(setup_times), "ops_per_s": len(lat),
                   "latency_p50_ms": len(lat), "latency_p90_ms": len(lat)}
        meta["samples"] = samples
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        lines = [
            f"  {name:16s} {m['value']:14.6g} {m['unit']:6s}"
            + (f" (n={samples[name]})" if name in samples else "")
            for name, m in metrics.items()
        ]
        lines.append(f"  {'failed_frac':16s} {meta['failed_frac']:14.6g} ratio  "
                     f"({len(failures)} of {attempted})")

    print("meta " + json.dumps(meta))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
