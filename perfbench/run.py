#!/usr/bin/env python3
"""Serve-path benchmark: builds serve_bench from source, runs one workload.

    python3 perfbench/run.py --workload hot_point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; scratch files (delta batches) to work/ beside
it. The human-readable report goes to stdout, and the last stdout line is
one JSON object with the metrics BENCHMARK.json lists for the mode:
end-to-end with --trace 0, per-layer with --trace 1.
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


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")]).returncode

    names = expected_metrics(args.trace)
    workdir = out.parent / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "serve_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics missing: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
