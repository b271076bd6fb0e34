#!/usr/bin/env python3
"""Builds and runs the uhcg benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: generate-scale, serve-mix.

The first run configures and builds perfbench/ (the uhcg libraries from
src/ plus the benchmark binary, Release) into .bench_build/perfbench;
later runs only rebuild what changed. The binary runs the workload
in-process, checks its outputs and prints one JSON line; this script
checks that the exact counts and digests repeat those of earlier runs of
the same seed and build, and prints the result as the last line of its
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/README.md). Everything the run writes stays under
.bench_build/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
EXACT_RECORD = BUILD_DIR / "exact-values.json"
WORKLOADS = ("generate-scale", "serve-mix")
RUN_LIMIT_S = 170  # a run after the first must end well within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        result = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT, timeout=timeout)
    if result.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        fail(f"{' '.join(cmd[:3])} failed:\n" + "\n".join(tail))


def build():
    """Configures on first use, then brings the binary up to date."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], log, 300)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs], log, 840)
    return BUILD_DIR / "perfbench"


def expected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_exact(binary, key, exact):
    """Exact values must repeat across runs of one seed and one build."""
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    record = {}
    if EXACT_RECORD.exists():
        record = json.loads(EXACT_RECORD.read_text())
    if record.get("build") != build_id:
        record = {"build": build_id, "runs": {}}
    seen = record["runs"].setdefault(key, {})
    changed = [name for name, value in exact.items()
               if name in seen and seen[name] != value]
    for name in changed:
        print(f"perfbench: exact value {name} was {seen[name]}, "
              f"now {exact[name]}", file=sys.stderr)
    seen.update(exact)
    EXACT_RECORD.write_text(json.dumps(record, indent=1, sort_keys=True))
    return not changed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no uhcg sources at {ROOT / 'src'}; run from a full checkout")
    start = time.monotonic()
    binary = build()
    built_s = time.monotonic() - start

    work_dir = Path(".bench_build") / "work" / args.workload
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                timeout=max(60.0, RUN_LIMIT_S - built_s))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {result.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    names = expected_names(args.trace)
    if list(report["metrics"]) != names:
        fail("reported metrics do not match BENCHMARK.json")
    correct = report["correct"]
    for error in report["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if not check_exact(binary, f"{args.workload}/{args.seed}",
                       report["exact"]):
        correct = False
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
