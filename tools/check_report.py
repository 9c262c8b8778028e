#!/usr/bin/env python3
"""Schema and invariant checks for wrltrace's machine-readable reports.

One entry point for every JSON document the CI smoke jobs assert over:

    check_report.py tlb_study        report.json [--tlb-entries N]
    check_report.py wrlverify        wrlverify.json
    check_report.py wrlprof          wrlprof.json --folded wrlprof.folded
    check_report.py wrltrace-analysis live.json
    check_report.py figure3          figure3.json     # bench_figure3 --json

Each check loads the document, asserts the schema tag and the invariants
that keep the report's consumers honest (counter presence, conservation
laws, monotone sweep curves, reconciliation flags), and prints a one-line
summary.  Any violated invariant raises AssertionError and exits nonzero.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_tlb_study(path, args):
    """The tlb_study run report: one live experiment with the sweep."""
    report = load(path)
    assert report["schema"] == "wrlstats/1", report.get("schema")
    assert report["tool"] == "tlb_study"
    (experiment,) = report["experiments"]
    assert experiment["trace"]["parser_errors"] == 0, experiment["trace"]
    assert experiment["measured"]["cycles"] > 0
    sweep = experiment["sweep"]
    # The exact LRU curve, monotone in capacity, up to the requested bound.
    curve = sweep["tlb"]["lru_misses"]
    entries = [point["entries"] for point in curve]
    assert entries, "empty TLB curve"
    if args.tlb_entries:
        want = 1 << (args.tlb_entries.bit_length() - 1)
        assert entries[-1] == want, (entries, args.tlb_entries)
    misses = [point["misses"] for point in curve]
    assert all(a >= b for a, b in zip(misses, misses[1:])), misses
    # The 8-point I-cache family + the 8-point D-cache family, monotone in
    # size.
    assert sweep["family_points"] == 16, sweep["family_points"]
    for side in ("icache", "dcache"):
        family = [point["misses"] for point in sweep[side]]
        assert len(family) == 8, (side, family)
        assert all(a >= b for a, b in zip(family, family[1:])), (side, family)
    # The primary simulator and the sweep run the same faithful 64-entry TLB
    # over the same stream.
    counters = experiment["counters"]
    assert counters["predicted.tlbsim.utlb_misses"] == \
        counters["sweep.tlbsim.utlb_misses"], counters["sweep.tlbsim.utlb_misses"]
    metrics = report["metrics"]
    assert metrics["sweep.mrefs_per_sec"] > 0, metrics.get("sweep.mrefs_per_sec")
    assert report["traceEvents"], "empty event timeline"
    print(f"tlb_study OK: {entries[-1]}-entry curve, "
          f"{sweep['family_points']} family points, "
          f"{int(counters['predicted.tlbsim.utlb_misses'])} faithful misses, "
          f"sweep {metrics['sweep.mrefs_per_sec']:.0f} Mrefs/s equivalent")


def check_wrlverify(path, args):
    """The wrlverify/1 static-verification report: zero findings."""
    report = load(path)
    assert report["schema"] == "wrlverify/1", report.get("schema")
    targets = report["targets"]
    assert len(targets) > 40, f"only {len(targets)} targets verified"
    totals = report["totals"]
    assert totals["verify.errors"] == 0, totals
    assert totals["verify.warnings"] == 0, totals
    assert totals["verify.traced_blocks"] > 1000
    print(f"wrlverify OK: {len(targets)} targets, "
          f"{int(totals['verify.blocks'])} blocks, "
          f"{int(totals['verify.mem_ops'])} memory ops, 0 findings")


def check_wrlprof(path, args):
    """The wrlprof/1 attribution profile: exact reconciliation."""
    report = load(path)
    assert report["schema"] == "wrlprof/1", report.get("schema")
    assert report["tool"] == "wrlprof"
    assert report["reconcile"]["exact"] is True, report["reconcile"]
    profile = report["profile"]
    totals = profile["totals"]
    assert totals["refs"] > 0 and totals["insts"] > 0
    assert totals["unattributed_insts"] == 0, totals
    assert totals["block_entries"] > 0
    assert profile["blocks"] and profile["symbols"] and profile["pages"]
    assert profile["working_set"], "empty working-set curve"
    for block in profile["blocks"]:
        assert block["insts"] >= block["entries"], block
    folded = []
    if args.folded:
        with open(args.folded) as f:
            folded = f.read().splitlines()
        assert folded and all(";" in line for line in folded)
    print(f"wrlprof OK: {int(totals['refs'])} refs, "
          f"{len(profile['symbols'])} symbols, "
          f"{len(folded)} folded stacks, reconcile exact")


def check_wrltrace_analysis(path, args):
    """The wrltrace-analysis/1 counter document record/replay agree over."""
    report = load(path)
    assert report["schema"] == "wrltrace-analysis/1", report.get("schema")
    assert report["tool"] == "wrltrace"
    assert report["mode"] in ("record", "replay"), report.get("mode")
    assert report["workload"], "missing workload identity"
    counters = report["counters"]
    assert counters, "empty counters object"
    for key in ("parser.refs", "parser.validation_errors", "predicted.instructions"):
        assert key in counters, f"missing counter: {key}"
    assert counters["parser.refs"] > 0
    assert counters["parser.validation_errors"] == 0, counters
    assert report["predicted_cycles"] > 0, report["predicted_cycles"]
    print(f"wrltrace analysis OK ({report['mode']}): {len(counters)} counters, "
          f"{int(counters['parser.refs'])} refs, "
          f"{report['predicted_cycles']:.0f} predicted cycles")


def check_figure3(path, args):
    """The bench_figure3 run report: the what-if variants on every workload."""
    report = load(path)
    assert report["schema"] == "wrlstats/1", report.get("schema")
    assert report["tool"] == "bench_figure3"
    experiments = report["experiments"]
    assert len(experiments) == 12, f"{len(experiments)} experiments"
    names = ["cache32k", "cache16k", "slowmem", "wired16"]
    for e in experiments:
        replays = e["replays"]
        assert [r["name"] for r in replays] == names, (e["workload"], replays)
        # Geometry-only variants ride the sweep pass; the others get their
        # own simulator on the analysis tee.
        assert [r["swept"] for r in replays] == [True, True, False, False], e["workload"]
        assert e["trace"]["parser_errors"] == 0, e["workload"]
    metrics = report["metrics"]
    assert metrics["replay.mrefs_per_sec"] > 0, metrics.get("replay.mrefs_per_sec")
    assert metrics["sweep.mrefs_per_sec"] > 0, metrics.get("sweep.mrefs_per_sec")
    print(f"figure3 OK: {len(experiments)} experiments x {len(names)} variants, "
          f"replay {metrics['replay.mrefs_per_sec']:.1f} Mrefs/s, "
          f"sweep {metrics['sweep.mrefs_per_sec']:.0f} Mrefs/s equivalent")


CHECKS = {
    "tlb_study": check_tlb_study,
    "wrlverify": check_wrlverify,
    "wrlprof": check_wrlprof,
    "wrltrace-analysis": check_wrltrace_analysis,
    "figure3": check_figure3,
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("kind", choices=sorted(CHECKS))
    parser.add_argument("path")
    parser.add_argument("--folded", help="folded-stacks file (wrlprof only)")
    parser.add_argument("--tlb-entries", type=int,
                        help="the TLB curve bound tlb_study was asked for (tlb_study only)")
    args = parser.parse_args(argv)
    try:
        CHECKS[args.kind](args.path, args)
    except AssertionError as e:
        print(f"check_report: {args.kind}: {args.path}: FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
