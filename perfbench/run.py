#!/usr/bin/env python3
"""Builds and runs the tcfbench serving benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first run configures and builds the
library and the benchmark (Release) under $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Any
failure to build, run or produce every metric exits non-zero without
printing a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
RUN_LIMIT_S = 170  # the whole run, build excepted
BUILD_LIMIT_S = 700  # with RUN_LIMIT_S, inside the first run's 900 s


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}")
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    binary = out / "tcfbench"
    if not binary.exists():
        raise BenchError("build produced no tcfbench binary")
    return binary


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(binary, spec, workload, seed, seconds, trace, corrupt=False,
             deadline=None):
    """One run of the benchmark binary; returns (result, trace file)."""
    deadline = deadline or time.monotonic() + RUN_LIMIT_S
    data = build_root() / "data"
    traces = build_root() / "traces"
    data.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    db = data / f"keyhole-{seed}.tcfdb"
    trace_file = traces / f"{workload}-{seed}.json"
    args = [str(binary), "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--trace-out", str(trace_file)]
    if corrupt:
        args.append("--corrupt-oracle")

    def call(argv):
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        try:
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(argv[:2])}")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"{' '.join(argv[:2])} exited "
                             f"{done.returncode}")
        return done.stdout.splitlines()

    try:
        if workload == "paged-mixed":
            # The database file exists before set-up starts; writing it in
            # its own process keeps the build out of the run's memory peak.
            for line in call([str(binary), "write-db", "--seed", str(seed),
                              "--out", str(db)]):
                print(line)
            args += ["--db", str(db)]
        lines = call(args)
    finally:
        for leftover in (db, Path(str(db) + ".updates")):
            if leftover.exists():
                leftover.unlink()
    if not lines:
        raise BenchError("no output")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("last line is not JSON")
    return select(raw, spec, trace), trace_file


def select(raw, spec, trace):
    """The result with exactly the metrics BENCHMARK.json names."""
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"unexpected keys {sorted(raw)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} in {got['unit']}, "
                             f"expected {m['unit']}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not a number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        raise BenchError("nothing attempted")
    return {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
            "failed": int(raw["failed"]), "metrics": metrics}


def check_spans(path):
    """Recomputes span self-times from the written trace; returns the
    number of spans and a list of problems."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    by_id = {s[1]: s for s in spans}
    children = {}
    problems = []
    for s in spans:
        if s[2]:
            if s[2] not in by_id:
                problems.append(f"span {s[1]} has no parent {s[2]}")
            children.setdefault(s[2], []).append(s)
    self_time = {}
    for s in spans:
        duration = s[5] - s[4]
        covered, run_start, run_end = 0.0, None, None
        for c in sorted(children.get(s[1], []), key=lambda c: c[4]):
            if c[4] < s[4] or c[5] > s[5]:
                problems.append(f"{c[0]} {c[1]} outside parent {s[0]}")
            if run_end is None or c[4] > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c[4], c[5]
            else:
                run_end = max(run_end, c[5])
        if run_end is not None:
            covered += run_end - run_start
        self_time[s[1]] = duration - covered
        if self_time[s[1]] < 0:
            problems.append(f"{s[0]} {s[1]} self time {self_time[s[1]]}")
    for s in spans:
        if s[2] in by_id:
            parent = by_id[s[2]]
            if self_time[s[1]] > parent[5] - parent[4]:
                problems.append(f"{s[0]} {s[1]} self time exceeds parent")
    return len(spans), problems


def self_check(binary, spec, seconds):
    """Tiny runs of every workload: every metric with its unit, a corrupted
    expected answer caught, span self-times within bounds."""
    failures = []

    def expect(ok, what):
        log(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with open(PACKAGE / "layers.json") as f:
        mapped = {m["metric"] for m in json.load(f)["layers"]}
    unmapped = [m["name"] for m in spec["per_layer"] if m["name"] not in mapped]
    expect(not unmapped, "every per-layer metric has a layer -> end-to-end "
           f"mapping in layers.json (missing: {unmapped})")

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            try:
                result, trace_file = run_once(binary, spec, name, 11,
                                              seconds, trace)
            except BenchError as e:
                expect(False, f"{name} trace {trace}: {e}")
                continue
            kind = "per-layer" if trace else "end-to-end"
            expect(len(result["metrics"]) == len(
                spec["per_layer" if trace else "end_to_end"]),
                f"{name}: every {kind} metric printed with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: answers correct, nothing failed")
            if trace:
                count, problems = check_spans(trace_file)
                for p in problems[:5]:
                    log("  " + p)
                expect(count > 0 and not problems,
                       f"{name}: {count} spans, self-times never negative "
                       f"nor above the parent's duration")
        try:
            result, _ = run_once(binary, spec, name, 11, seconds, 0,
                                 corrupt=True)
            expect(not result["correct"],
                   f"{name}: a corrupted expected answer fails the run")
        except BenchError as e:
            expect(False, f"{name} corrupted oracle: {e}")
    log(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    start = time.monotonic()
    try:
        spec = load_spec()
        binary = build()
        if args.self_check:
            return self_check(binary, spec, 1)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"one of {names}")
        # The build may take long on the first run; the run itself has its
        # own budget.
        result, _ = run_once(binary, spec, args.workload, args.seed,
                             args.seconds, args.trace,
                             deadline=time.monotonic() + RUN_LIMIT_S)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"run.py: {e}")
        return 1
    log(f"run.py: done in {time.monotonic() - start:.1f} s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
