#!/usr/bin/env python3
"""Builds and runs one benchmark run of the repository (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a repository checkout. It configures and builds the
library and the benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build) on first use, then runs the binary. Its standard output --
human-readable lines, then one JSON result as the last line -- passes
through unchanged once the result's metric names and units are checked
against BENCHMARK.json. Build output goes to standard error. Exits non-zero,
printing no result, when the checkout holds no library sources, the build
fails, or the run fails, overruns or reports other metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (is this a checkout?)")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "ebbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "ebbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    exe = build(target / "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = target / "perfbench" / "spans" / f"{args.workload}-{args.seed}"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(spans)]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"ebbench exited with {run.returncode}")
    check_metrics(run.stdout, args.trace)
    sys.stdout.write(run.stdout)


def check_metrics(stdout, trace):
    """The run must report exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError):
        fail("ebbench printed no result")
    have = {name: m["unit"] for name, m in got.items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


if __name__ == "__main__":
    main()
