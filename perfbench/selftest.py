#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at a tiny workload scale.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that
  * every workload, plain and span run, prints every metric BENCHMARK.json
    names, with its unit, in a correct result line;
  * a hand-corrupted archive in `whatif` counts as exactly one failed op and
    does not abort the run;
  * a throwing RunExperiment in `stream` does the same;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

TINY = ["--seed", "0", "--seconds", "0", "--scale", "0.02"]
failures = []


def run(args, cwd="."):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main():
    spec = json.load(open("BENCHMARK.json"))
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    baseline = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            rc, result = run(["--workload", workload, "--trace", trace] + TINY)
            what = f"{workload} --trace {trace}"
            check(rc == 0 and result is not None, what + ": exits 0 with a result line")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  what + ": result keys")
            check(result["correct"] is True and result["attempted"] >= 1,
                  what + ": correct, at least one op attempted")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected[trace], what + ": every metric with its unit")
            if trace == "0":
                baseline[workload] = result

    for workload, fault in (("whatif", "corrupt-archive"), ("stream", "throw")):
        rc, result = run(["--workload", workload, "--trace", "0", "--inject", fault] + TINY)
        base = baseline.get(workload)
        check(rc == 0 and result is not None and base is not None and
              result["attempted"] == base["attempted"] and
              result["failed"] == base["failed"] + 1,
              f"{workload} --inject {fault}: exactly one more failed op, run completes")

    empty = os.path.join(".bench_run", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    shutil.copy("BENCHMARK.json", empty)
    shutil.copytree("perfbench", os.path.join(empty, "perfbench"))
    rc, result = run(["--workload", "suite", "--trace", "0"] + TINY, cwd=empty)
    check(rc != 0 and result is None, "without the program sources: nonzero exit, no result")
    shutil.rmtree(empty, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
