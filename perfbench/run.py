#!/usr/bin/env python3
"""Repository benchmark: builds the library and the benchmark program from
source, runs the statistics unit tests, then runs one workload.

    python3 perfbench/run.py --workload knn-d768 --seed 1 --seconds 12 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build; data files go to a scratch directory inside it that the
program removes. Build output goes to stderr; stdout carries the program's
host fingerprint line and, last, its JSON result. See perfbench/NOTES.md.
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
WORKLOADS = ("knn-d768", "hybrid-d128", "ingest-recover")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs])


def source_rev():
    """A digest of the library sources, prefixed with the git revision when
    there is git metadata, so results from different code never compare:
    uncommitted changes under src/ change the digest, not the revision."""
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    rev = "src-sha1:" + digest.hexdigest()[:12]
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                rev = out.stdout.strip() + " " + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def check_result(line, trace):
    """The result line must list exactly this mode's metrics of
    BENCHMARK.json, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = json.loads(line)
    have = {k: v["unit"] for k, v in got["metrics"].items()}
    if have != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(have.items()) ^ set(want.items()))}")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 2
    if not run_quiet([os.path.join(build_dir, "bench_stats_test")]):
        log("statistics unit tests failed")
        return 3

    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [os.path.join(build_dir, "vdb_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--rev", source_rev()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"vdb_perfbench exited with {proc.returncode} and no result")
        return 5
    if not check_result(lines[-1], args.trace == 1):
        return 6
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
