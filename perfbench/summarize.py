"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/summarize.py --seeds 1-10 [--sets 2]
        [--workloads taskB-ptk,...] [--out perfbench/BASELINE.json]

The workloads default to those of ``BENCHMARK.json``. A set runs every
workload once per seed; ``--sets`` runs that many sets back to back.

For every set, workload and end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, next to the bound that ``BENCHMARK.json`` fixes; from
the second set on, also the change of the median against the first set.
With ``--out`` it also writes the summary with the machine, the source
revision, the workloads' scales and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import LAYER_MAP, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run_set(workload: str, seeds: list[int], seconds: int,
             bounds: dict, first: dict | None) -> dict:
    """One run per seed; the medians, quartiles and spreads of the metrics."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode,
                     "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: exit {proc.returncode} "
              f"correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']}", flush=True)
    metrics = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        entry = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / median, "bound": bounds.get(name),
                 "values": vals}
        line = (f"  {name:14s} {median:12.5g} {units[name]:3s} spread "
                f"{entry['spread']:6.3f}")
        if first is not None:
            entry["change"] = median / first[name]["median"] - 1.0
            line += f"  change {entry['change']:+7.3f}"
        if bounds.get(name):
            line += f"  bound {bounds[name]}"
        print(line, flush=True)
        metrics[name] = entry
    return {"runs": runs, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    sets: list[dict] = []
    for number in range(args.sets):
        print(f"set {number + 1}", flush=True)
        sets.append({w: _run_set(w, _seeds(args.seeds), spec["run_seconds"],
                                 bounds, sets[0][w]["metrics"] if sets
                                 else None)
                     for w in workloads})
    if args.out:
        import numpy
        out = {
            "machine": {"nproc": len(os.sched_getaffinity(0)),
                        "cpu": _cpu_model(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__},
            "revision": _revision(),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "workloads": {w: {"why": WORKLOADS[w].why,
                              "scale": WORKLOADS[w].scale.__dict__}
                          for w in workloads},
            "layer_map": [{"layer_metrics": a.split(), "moves": b.split(),
                           "workload": c} for a, b, c in LAYER_MAP],
            "sets": sets,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
