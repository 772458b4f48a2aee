#!/usr/bin/env python3
"""Build and run the simulator-speed benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rsync_ooo --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
in Release mode with the per-cycle verify hook off, under
$CARGO_TARGET_DIR (default .bench_build). Later calls rebuild
incrementally. The driver's last stdout line is the result JSON; build
output goes to stderr. With --trace 1 the folded spans are written to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build incrementally; returns the driver path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except FileNotFoundError:
            fail("cmake not found")
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return out / "perfbench"


def git_commit():
    """HEAD of the checkout, or "none" when it is not itself a git work
    tree (an enclosing repository's commit would be misleading)."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "none"
    return lines[1]


def source_digest():
    """sha256 over the simulator and benchmark sources (names + bytes)."""
    h = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def run_driver(driver, args, capture=False):
    cmd = [str(driver)] + args + ["--commit", git_commit(),
                                  "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s: {' '.join(args)}")


def selftest(driver):
    """Tiny runs of every workload: metric names and units match
    BENCHMARK.json, outputs check, and a wrong expected checksum counts
    as a failed run rather than a crash or a pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def result(workload, trace, *extra):
        args = ["--workload", workload, "--seed", "1", "--seconds", "0.01",
                "--trace", str(trace), "--tiny", *extra]
        proc = run_driver(driver, args, capture=True)
        lines = (proc.stdout or "").strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{workload} trace {trace}: exit {proc.returncode}")
            return None
        res = json.loads(lines[-1])
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys {sorted(res)}")
        return res

    for w in spec["workloads"]:
        for trace in (0, 1):
            res = result(w["name"], trace)
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = wanted[trace]
            if got != want:
                units = sorted(k for k in got if k in want and got[k] != want[k])
                problems.append(
                    f"{w['name']} trace {trace}: metrics differ: missing "
                    f"{sorted(set(want) - set(got))}, extra "
                    f"{sorted(set(got) - set(want))}, wrong unit {units}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(
                    f"{w['name']} trace {trace}: output check failed")

    res = result("memchase_ooo", 0, "--checksum-skew", "1")
    if res is not None and (res["correct"] or res["failed"] != res["attempted"]):
        problems.append("a wrong expected checksum was not counted as failed")

    for p in problems:
        print(f"selftest: FAIL: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    driver = build()
    if args.selftest:
        return selftest(driver)
    if not args.workload:
        fail("--workload is required")
    extra = []
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra = ["--trace-out",
                 str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = run_driver(driver, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)] + extra)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
