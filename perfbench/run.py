#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload suite|stream|whatif --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  The benchmark executable is configured
and built under .bench_build/perfbench (build output goes to stderr), then
run with the given arguments.  Its standard output is passed through; the
last line is the JSON result.  Working files (archives, span traces) go to
.bench_run/.  The exit code is the benchmark's, or 2 when the build fails.

    python3 perfbench/run.py --make-references

regenerates perfbench/references.txt, the per-op output digests the
benchmark checks at its default seeds (see perfbench/METRICS.md).
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
REFERENCES = os.path.join("perfbench", "references.txt")
WORKLOADS = ["suite", "stream", "whatif"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def make_references():
    lines = []
    for workload in WORKLOADS:
        for seed in range(10):
            print(f"references: {workload} seed {seed}", file=sys.stderr)
            proc = subprocess.run(
                [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", "0", "--emit-digests"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                return proc.returncode
            lines += [l[len("digest "):] for l in proc.stdout.splitlines()
                      if l.startswith("digest ")]
    with open(REFERENCES, "w") as f:
        f.write("# workload seed op digest — regenerate with: "
                "python3 perfbench/run.py --make-references\n")
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests to {REFERENCES}", file=sys.stderr)
    return 0


def main(argv):
    if not build():
        return 2
    if "--make-references" in argv:
        return make_references()
    cmd = [EXE] + argv + ["--references", REFERENCES, "--workdir", ".bench_run"]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
