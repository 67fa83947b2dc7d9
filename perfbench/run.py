#!/usr/bin/env python3
"""Builds and runs the Gremlin-CPP benchmark from a source checkout.

Run from the root of the checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --gate [--seed <n>] [--seconds <s>]

The first form builds the library and the benchmark (CMake, into
$CARGO_TARGET_DIR or .bench_build) if needed and runs one workload; the
last line of its output is the result JSON. The second form is the
correctness gate: the benchmark's self-tests, then every workload timed and
traced at one seed, printing every metric with its unit and exiting non-zero
on any mismatch.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep_patterns", "windowed_mega", "search_shrink"]
DEFAULT_SEED = 1  # the seed the pinned results belong to (workloads.h)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: library sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    # Compiler and LTO temporary files stay inside the build tree.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("error: cmake configure failed")
            return None
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        log("error: build failed")
        return None
    return out


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (names and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(cmd):
    """Runs one benchmark process; returns (exit code, stdout)."""
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        log("error: benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1, exc.stdout or ""
    sys.stderr.write(res.stderr)
    return res.returncode, res.stdout


def workload_cmd(bindir, workload, seed, seconds, trace):
    cmd = [os.path.join(bindir, "gremlin_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if trace:
        trace_dir = os.path.join(bindir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s.json" % workload)]
    return cmd


def gate(bindir, seed, seconds):
    ok = True
    code, out = run_binary([os.path.join(bindir, "perfbench_selftest")])
    print(out, end="")
    ok &= code == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s seed=%d trace=%d" % (workload, seed, trace), flush=True)
            code, out = run_binary(
                workload_cmd(bindir, workload, seed, seconds, trace))
            print(out, end="", flush=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:
                result = {}
            good = (code == 0 and result.get("correct") is True
                    and result.get("failed") == 0)
            print("== %s: %s" % (workload, "ok" if good else "FAILED"))
            ok &= good
    print("gate %s at seed %d" % ("passed" if ok else "FAILED", seed))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", action="store_true")
    args = ap.parse_args()
    if not args.gate and args.workload is None:
        ap.error("--workload or --gate is required")

    bindir = build()
    if bindir is None:
        return 2
    if args.gate:
        return gate(bindir, args.seed, args.seconds or 3)
    code, out = run_binary(workload_cmd(bindir, args.workload, args.seed,
                                        args.seconds or 30, args.trace))
    print(out, end="", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
