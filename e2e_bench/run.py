#!/usr/bin/env python3
"""Build and run one workload of the gnnbench end-to-end benchmark.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload sage --seed 1 --seconds 12 --trace 0

Configures and builds e2e_bench/ (which compiles the library from
src/) into .bench_build/e2e_bench, runs the gnnbench_e2e binary for the
workload, echoes its provenance header and metric lines, and prints as
the last line one JSON object with the metrics BENCHMARK.json names:
the end_to_end metrics with --trace 0, the per_layer metrics with
--trace 1.  Exits non-zero when the build fails, a metric is missing,
or an output check of the workload failed.
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
# Whole-run budget of one workload process, below the 180 s limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build (incremental); build output goes to stderr."""
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "-j",
              str(os.cpu_count() or 1)]]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("e2e_bench: build step failed: " + " ".join(cmd))
            return False
    return True


def revision():
    """The git revision, or a digest of the sources outside a checkout."""
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"e2e_bench: unknown workload {args.workload!r}; one of {names}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "e2e_bench"
    if not build(build_dir):
        return 1

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "gnnbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(trace_dir), "--revision", revision()]
    started = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2e_bench: workload exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"e2e_bench: no result from the workload (exit {res.returncode})")
        return 1

    metrics = {}
    absent = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log(f"e2e_bench: workload did not report {m['name']}")
                return 1
            # A layer this workload never calls: zero work recorded.
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"e2e_bench: {m['name']} has unit {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if absent:
        print(f"# not on the {args.workload} path (reported as 0): "
              + " ".join(absent))
    print(f"# workload wall {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if res.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
