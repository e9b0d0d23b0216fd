"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/sweep.py --seeds 1-10 [--workloads lu_generic,kernels]
                                [--out summary.json]

Runs run.py once per (workload, seed), one at a time, from the
repository root, untraced, with ``run_seconds`` from BENCHMARK.json.
For every metric it reports the median and quartiles of the per-seed
values (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the interquartile distance as a share of the median.  The spread is what a
metric's bound in BENCHMARK.json must exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                      f"ops failed\n{proc.stderr}", file=sys.stderr)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        metrics["failed_frac"] = summarise([r["failed"] / r["attempted"] for r in runs])
        summary[workload] = metrics
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound and s["spread"] is not None and name != "setup_s":
                flag = "  OK" if s["spread"] < bound / 3 else "  WIDE" if s["spread"] > bound else "  >1/3 bound"
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:13s} {name:32s} median {s['median']:<12.6g} spread {spread}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
