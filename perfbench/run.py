"""Benchmark of the qrerank CLI pipeline on a seeded SemEval-shaped corpus.

    python3 perfbench/run.py --workload taskB-ptk --seed 1 --seconds 45 --trace 0

Run from the root of a qrerank source tree. The script generates the
workload's corpus from the seed, then runs the CLI chain (featurize train and
test, gram, train, rerank --strict, evaluate, sigtest against the search-rank
baseline), one fresh ``stage.py`` process per stage, one stage at a time.
Every stage's output is checked; a stage that exits non-zero or fails its
check is a failed operation. Around every stage the calibration job of
``calibrate.py`` measures the machine's speed, and the stage's time is also
given at the reference speed.

The seed's input comes in parts: part k is a corpus of the workload's scale
generated from (seed, k). With ``--trace 0`` the chain runs once on each of
parts 0, 1, ..., as many as the workload's nominal pass time fits in
``--seconds``, and the end-to-end metrics are medians over the passes of the
reference-speed times. With ``--trace 1`` the chain runs twice on part 0,
untraced and then traced (``stage.py --trace``); the per-layer metrics come
from the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (inputs and their sha256, per-stage times, machine).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from corpus import TASK_LABELS, baseline_tsv, generate, to_jsonl
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_LAUNCHES_PER_PASS = 3
CALIBRATION_REPEATS = 5
JOB_REUSE_S = 1.0
RUN_LIMIT_S = 170.0
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
RELEVANT = set(TASK_LABELS["B"][:2]) | set(TASK_LABELS["D"][:2])


@dataclass
class StageRun:
    code: int
    seconds: float      # wall time from spawn to exit
    ref_s: float        # the same at the reference speed: see calibrate.py
    job_s: float        # the calibration job's time around the stage
    cpu_s: float        # user + system time of the process
    rss_mb: float       # peak resident set size
    stdout: str


class Runner:
    """Starts stage processes one at a time and counts operations."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._last_job: tuple[float, float] | None = None   # (when, job_s)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def _job_s(self) -> float:
        if self._last_job is None or \
                time.monotonic() - self._last_job[0] > JOB_REUSE_S:
            self._last_job = (time.monotonic(),
                              calibrate.measure(CALIBRATION_REPEATS))
        return self._last_job[1]

    def launch(self, argv: list[str], cwd: Path,
               trace: tuple[str, str] | None = None):
        """Run one stage process in ``cwd`` and wait for it to end. The
        machine's speed is measured just before and just after; a
        measurement taken after the previous stage counts as this one's
        "before" while it is recent."""
        before = self._job_s()
        peak_path = self.work / "stage.peak"
        peak_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "stage.py"), str(peak_path),
               *(("--trace", *trace) if trace else ()), *argv]
        out_path = self.work / "stage.out"
        with open(out_path, "wb") as out, \
                open(self.work / "stage.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self._last_job = None
        job_s = (before + self._job_s()) / 2
        try:
            peak_kb = int(peak_path.read_text())
        except (OSError, ValueError):   # the stage died before writing it
            peak_kb = usage.ru_maxrss
        return StageRun(proc.returncode, seconds,
                        seconds * calibrate.REFERENCE_S / job_s, job_s,
                        usage.ru_utime + usage.ru_stime, peak_kb / 1024.0,
                        out_path.read_text(encoding="utf-8", errors="replace"))

    def stage(self, name: str, argv: list[str], cwd: Path, check,
              trace=None) -> StageRun | None:
        """Run and check one stage; None when it failed."""
        self.attempted += 1
        result = self.launch(argv, cwd, trace)
        problems = ([f"exit code {result.code}: " + (self.work / "stage.err")
                     .read_text(errors="replace")[-500:]]
                    if result.code != 0 else check(result.stdout))
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
            return None
        return result


def _chain(runner: Runner, w, splits, part: Path, out: str,
           trace_run: str | None):
    """One pass of the CLI chain in directory ``part``, writing into its
    subdirectory ``out``; returns its record, or None on a failure."""
    import checks   # imports qrerank, which main() puts on sys.path

    n_train = len(splits["train"])
    k = str(w.cutoff)
    (part / out).mkdir()
    f = {name: f"{out}/{name}" for name in
         ("train.examples", "test.examples", "train.gram", "model.txt",
          "predictions.tsv")}
    conf = ["--config", "qrerank.conf"]
    stages = [
        ("featurize_train", ["featurize", *conf, "--corpus", "train.jsonl",
                             "--out", f["train.examples"]],
         lambda _: checks.check_examples(part / f["train.examples"],
                                         splits["train"])),
        ("featurize_test", ["featurize", *conf, "--corpus", "test.jsonl",
                            "--out", f["test.examples"]],
         lambda _: checks.check_examples(part / f["test.examples"],
                                         splits["test"])),
        ("gram", ["gram", *conf, "--examples", f["train.examples"],
                  "--out", f["train.gram"]],
         lambda _: checks.check_gram(part / f["train.gram"], n_train)),
        ("train", ["train", *conf, "--gram", f["train.gram"],
                   "--examples", f["train.examples"], "--out", f["model.txt"]],
         lambda _: checks.check_model(part / f["model.txt"], n_train)),
        ("rerank", ["rerank", *conf, "--strict", "--model", f["model.txt"],
                    "--train-examples", f["train.examples"],
                    "--test-examples", f["test.examples"],
                    "--out", f["predictions.tsv"]],
         lambda _: checks.check_predictions(part / f["predictions.tsv"],
                                            splits["test"])),
        ("evaluate", ["evaluate", "--predictions", f["predictions.tsv"],
                      "--k", k],
         lambda stdout: checks.check_evaluate(
             stdout, part / f["predictions.tsv"], w.cutoff)),
        ("sigtest", ["sigtest", "--predictions-a", f["predictions.tsv"],
                     "--predictions-b", "baseline.tsv", "--k", k],
         lambda stdout: checks.check_sigtest(stdout, splits["test"],
                                             RELEVANT)),
    ]
    record = {"stage_s": {}, "stage_ref_s": {}, "stage_cpu_s": {},
              "job_s": {}, "rss_mb": 0.0}
    for name, argv, check in stages:
        trace = None
        if trace_run is not None:
            trace = (f"{out}/spans-{name}.json", trace_run)
        result = runner.stage(name, argv, part, check, trace)
        if result is None:
            return None
        record["stage_s"][name] = result.seconds
        record["stage_ref_s"][name] = result.ref_s
        record["job_s"][name] = result.job_s
        record["stage_cpu_s"][name] = result.cpu_s
        record["rss_mb"] = max(record["rss_mb"], result.rss_mb)
        if name == "evaluate":
            record["MAP"] = checks.printed_map(result.stdout)
    record["pipeline_s"] = sum(record["stage_s"].values())
    record["pipeline_ref_s"] = sum(record["stage_ref_s"].values())
    record["predictions_sha256"] = hashlib.sha256(
        (part / f["predictions.tsv"]).read_bytes()).hexdigest()
    return record


def _end_to_end(records: list[dict], setup: list[float]) -> dict:
    """Medians over the chain passes of the times at the reference speed;
    peak RSS is the largest of any stage."""
    return {
        "pipeline_s": (statistics.median(r["pipeline_ref_s"]
                                         for r in records), "s"),
        "gram_s": (statistics.median(r["stage_ref_s"]["gram"]
                                     for r in records), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
    }


def _per_layer(w, out: Path, traced: dict, untraced: dict) -> dict:
    """Layer metrics from the traced chain's span files, with work counts
    computed from its inputs and outputs."""
    import checks
    from qrerank.pipeline import load_examples
    from qrerank.svm import load_model
    from tracing import summarize

    traces = [json.loads(p.read_text()) for p in sorted(out.glob("spans-*"))]
    t = summarize(traces)
    counters: dict[str, int] = {}
    for trace in traces:
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def self_s(*names):
        return sum(t.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(t.get(n, {}).get("calls", 0) for n in names)

    train = load_examples(out / "train.examples")
    test = load_examples(out / "test.examples")
    support = load_model(out / "model.txt").support_indices
    n = len(train)
    tk = dict(w.config).get("kernel.tk_kind", "PTK")
    matched = (checks.matched_node_pairs(train, test, support, tk)
               if train[0].tree_first is not None else 0)
    tk_s = self_s("kernels.ptk", "kernels.stk")
    gram_cells = n * (n + 1) // 2
    sim_calls = calls("features.similarity_vector")
    examples = [out / "train.examples", out / "test.examples"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "kernels.tree_kernel_calls": (calls("kernels.ptk", "kernels.stk"),
                                      "count"),
        "kernels.tree_kernel_s": (tk_s, "s"),
        "kernels.self_kernel_calls": (counters["kernels.self_kernel_calls"],
                                      "count"),
        "kernels.matched_node_pairs": (matched, "count"),
        "kernels.ns_per_matched_pair": (ratio(tk_s * 1e9, matched), "ns"),
        "kernels.gram_matrix_s": (self_s("kernels.gram_matrix"), "s"),
        "kernels.gram_cells": (gram_cells, "count"),
        "kernels.gram_cells_per_s": (
            ratio(gram_cells, self_s("kernels.gram_matrix")), "1/s"),
        "kernels.kernel_matrix_s": (self_s("kernels.kernel_matrix"), "s"),
        "kernels.kernel_matrix_cells": (len(test) * len(support), "count"),
        "kernels.save_gram_s": (self_s("kernels.save_gram"), "s"),
        "kernels.load_gram_s": (self_s("kernels.load_gram"), "s"),
        "kernels.gram_file_bytes": ((out / "train.gram").stat().st_size,
                                    "bytes"),
        "svm.train_smo_s": (self_s("svm.train_smo"), "s"),
        "svm.n_train": (n, "count"),
        "svm.support_vectors": (len(support), "count"),
        "svm.save_model_s": (self_s("svm.save_model"), "s"),
        "svm.load_model_s": (self_s("svm.load_model"), "s"),
        "features.similarity_vector_s": (
            self_s("features.similarity_vector"), "s"),
        "features.similarity_vector_calls": (sim_calls, "count"),
        "features.similarity_us_per_pair": (
            ratio(self_s("features.similarity_vector") * 1e6, sim_calls),
            "us"),
        "rellink.rel_link_s": (self_s("rellink.rel_link"), "s"),
        "rellink.rel_link_calls": (calls("rellink.rel_link"), "count"),
        "rellink.rel_nodes": (sum(p.read_text().count("(REL-")
                                  for p in examples), "count"),
        "treebank.parse_bracketed_s": (self_s("treebank.parse_bracketed"),
                                       "s"),
        "treebank.parse_bracketed_calls": (
            calls("treebank.parse_bracketed"), "count"),
        "treebank.nodes_parsed": (counters["treebank.nodes_parsed"], "count"),
        "treebank.to_bracketed_s": (self_s("treebank.to_bracketed"), "s"),
        "pipeline.examples_bytes": (sum(p.stat().st_size for p in examples),
                                    "bytes"),
        "featurize_s": (untraced["stage_ref_s"]["featurize_train"]
                        + untraced["stage_ref_s"]["featurize_test"], "s"),
        "train_s": (untraced["stage_ref_s"]["train"], "s"),
        "rerank_s": (untraced["stage_ref_s"]["rerank"], "s"),
        "rankeval.MAP": (traced["MAP"], "%"),
        "trace_overhead_pct": (100.0 * (traced["pipeline_ref_s"]
                                        - untraced["pipeline_ref_s"])
                               / untraced["pipeline_ref_s"], "%"),
    }
    for fn in ("load_corpus", "build_examples", "save_examples",
               "load_examples", "score_examples"):
        m[f"pipeline.{fn}_s"] = (self_s(f"pipeline.{fn}"), "s")
    for fn in ("evaluate", "randomization_test", "write_predictions",
               "read_predictions"):
        m[f"rankeval.{fn}_s"] = (self_s(f"rankeval.{fn}"), "s")
    for stage in ("featurize", "gram", "train", "rerank", "evaluate",
                  "sigtest"):
        m[f"cli.{stage}_s"] = (t.get(f"cli.{stage}", {}).get("total_s", 0.0),
                               "s")
    return m


def _machine() -> dict:
    import numpy
    return {"nproc": NPROC, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _write_inputs(part: Path, w, seed: int, k: int):
    """Generate part ``k`` of the seed's inputs; returns (splits, sha256s)."""
    splits = generate(w.scale, seed, k)
    inputs = {"train.jsonl": to_jsonl(splits["train"]),
              "test.jsonl": to_jsonl(splits["test"]),
              "baseline.tsv": baseline_tsv(splits["test"]),
              "qrerank.conf": "".join(f"{key} = {value}\n"
                                      for key, value in w.config).encode()}
    part.mkdir(parents=True)
    for name, data in inputs.items():
        (part / name).write_bytes(data)
    return splits, {name: hashlib.sha256(data).hexdigest()
                    for name, data in inputs.items()}


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    w = WORKLOADS[workload]
    work = WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + RUN_LIMIT_S)

    inputs: list[dict] = []
    records: list[dict] = []
    setup: list[float] = []
    metrics: dict = {}
    if not trace:
        runner.launch(["--help"], work)     # warm the bytecode caches
        for k in range(w.passes(seconds)):
            # setup launches are spread over the run, not bunched at its start
            for _ in range(SETUP_LAUNCHES_PER_PASS):
                result = runner.stage("setup", ["--help"], work, lambda _: [])
                if result is not None:
                    setup.append(result.ref_s)
            splits, sha = _write_inputs(work / f"part{k}", w, seed, k)
            inputs.append(sha)
            record = _chain(runner, w, splits, work / f"part{k}", "out", None)
            if record is None:
                break
            records.append(record)
        if not runner.failed:
            metrics = _end_to_end(records, setup)
    else:
        part = work / "part0"
        splits, sha = _write_inputs(part, w, seed, 0)
        inputs.append(sha)
        untraced = _chain(runner, w, splits, part, "out", None)
        if untraced is not None:
            records.append(untraced)
            traced = _chain(runner, w, splits, part, "traced",
                            f"{workload}-{seed}")
            if traced is not None:
                records.append(traced)
                runner.attempted += 1
                if traced["predictions_sha256"] != \
                        untraced["predictions_sha256"]:
                    runner.failed += 1
                    runner.problems.append(
                        "traced and untraced predictions differ")
                metrics = _per_layer(w, part / "traced", traced, untraced)

    correct = not runner.problems and bool(metrics)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "why": w.why, "scale": w.scale.__dict__,
        "inputs_sha256": inputs,
        "setup_s": setup, "chains": records, "problems": runner.problems,
        "elapsed_s": time.monotonic() - started,
        "machine": _machine(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qrerank" / "cli.py").is_file():
        print(f"error: no qrerank sources at {SRC}; run from the root of a "
              f"qrerank source tree", file=sys.stderr)
        return 2
    # a terminated run raises SystemExit, which kills the running stage
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
