#!/usr/bin/env python3
"""Build and run the AIDE wall-clock benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 20 --trace 0

Workloads: paper_apps, pool_sessions, trace_replay (see perfbench/README.md).
The first run configures and builds the program and the benchmark from
source into .bench_build/perfbench (Release); later runs only rebuild what
changed. The last line of standard output is the JSON result.

Other modes:
    --selftest               build and run the benchmark's own tests
    --write-reference 0-31   regenerate perfbench/reference.tsv for those seeds
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.tsv"
WORKLOADS = ("paper_apps", "pool_sessions", "trace_replay")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"program sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", target,
               "-j", jobs])
    return BUILD_DIR / target


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             check=True, capture_output=True, text=True)
        lines = top.stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    return "unknown"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def write_reference(binary, seeds):
    lines = ["# workload seed virt_ns_per_pass digest",
             "# One pass's virtual time and output digest per seed; a run",
             "# whose pass differs counts as failed. Regenerate only when",
             "# the program's behaviour is meant to change:",
             "#   python3 perfbench/run.py --write-reference 0-31"]
    for workload in WORKLOADS:
        for seed in seeds:
            out = subprocess.run([str(binary), "--workload", workload,
                                  "--seed", str(seed), "--setup-reps", "1",
                                  "--emit-reference"],
                                 check=True, capture_output=True, text=True)
            lines.append(out.stdout.strip())
            log(lines[-1])
    REFERENCE.write_text("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-reference", metavar="LO-HI")
    args = ap.parse_args()

    try:
        if args.selftest:
            build("perfbench_spans_test")
            return subprocess.call(["ctest", "--test-dir", str(BUILD_DIR),
                                    "--output-on-failure"])
        binary = build("perfbench")
        if args.write_reference:
            write_reference(binary, seed_range(args.write_reference))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit(),
               "--reference", str(REFERENCE)]
        if args.trace:
            cmd += ["--spans-out",
                    str(BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
        sys.stdout.flush()
        return subprocess.call(cmd)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
