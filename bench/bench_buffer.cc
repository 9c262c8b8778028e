// §4.3's buffer sizing: the in-kernel buffer bounds how long the system
// runs between generation/analysis mode switches ("the current system uses
// a 64 megabyte buffer ... approximately 32 million instructions of
// continuous execution").  We sweep the buffer size and report the
// instructions-per-switch ratio, which should scale linearly.
//
// The untraced system runs once too, and every point must reproduce its
// exit code: a point whose traced run exits differently was distorted by
// tracing (its instruction count is not the workload's), so it is printed
// as DISTORTED and kept out of the other metrics and the extrapolation.  A
// point whose run never switched to analysis is printed as NO SWITCH: it
// has no instrs/switch, and the extrapolation to 64 MB is a least-squares
// fit through the origin over the points that did switch, of which it
// needs at least two.
//
// --jobs N runs the five systems on a worker pool
// (ParallelFor); rows, metrics, and the extrapolation are printed in size
// order either way.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "kernel/system_build.h"
#include "support/parallel.h"

using namespace wrl;

namespace {

struct SweepPoint {
  uint32_t kb = 0;
  bool halted = false;
  uint32_t exit_code = 0;
  uint64_t switches = 0;
  uint64_t instructions = 0;
};

// One run of the workload: traced with a `kb` KB in-kernel buffer, or
// untraced (kb == 0) at the undilated clock.
SweepPoint RunPoint(const WorkloadSpec& w, uint32_t kb) {
  SweepPoint point;
  point.kb = kb;
  ExperimentOptions options;
  if (kb != 0) {
    options.trace_buf_bytes = kb * 1024;
  }
  auto sys = BuildSystem(MakeConfig(w, options, kb != 0));
  sys->SetTraceSink([](const uint32_t*, size_t) {});
  RunResult r = sys->Run(3'000'000'000ull);
  point.halted = r.halted;
  point.exit_code = sys->ProcessExitCode(1);
  point.switches = sys->AnalysisSwitches();
  point.instructions = sys->machine().instructions();
  return point;
}

int Run(ArgList args) {
  double scale = kBenchScale;
  unsigned jobs = 1;
  std::string json;
  Flags flags;
  flags.Real("scale", &scale);
  flags.Unsigned("jobs", &jobs);
  flags.String("json", &json, "PATH");
  flags.Parse(args);
  WorkloadSpec w = PaperWorkload("compress", scale);
  const std::vector<uint32_t> sizes = {192u, 384u, 768u, 1536u};
  printf("=== In-kernel buffer sizing vs analysis-mode switches ===\n");
  printf("%-10s %10s %14s %16s\n", "buffer", "switches", "traced instrs", "instrs/switch");

  // Index i < sizes.size() is the traced run at sizes[i]; the last index is
  // the untraced run.
  std::vector<SweepPoint> points(sizes.size() + 1);
  ParallelFor(points.size(), jobs,
              [&](size_t i) { points[i] = RunPoint(w, i < sizes.size() ? sizes[i] : 0); });
  const SweepPoint untraced = points.back();
  points.pop_back();
  if (!untraced.halted) {
    fprintf(stderr, "error: the untraced %s run did not halt\n", w.name.c_str());
    return 1;
  }

  std::map<std::string, double> metrics;
  // Least squares through the origin of instrs/switch against buffer MB,
  // over the undistorted points that switched: per_mb = sum(xy) / sum(xx).
  double sum_xy = 0;
  double sum_xx = 0;
  unsigned fit_points = 0;
  for (const SweepPoint& point : points) {
    std::string key = "buf" + std::to_string(point.kb) + "kb";
    const bool distorted = !point.halted || point.exit_code != untraced.exit_code;
    metrics[key + ".distorted"] = distorted ? 1 : 0;
    if (!point.halted) {
      printf("%7uKB DID NOT HALT\n", point.kb);
      continue;
    }
    if (distorted) {
      printf("%7uKB DISTORTED (exit %u != %u)\n", point.kb, point.exit_code,
             untraced.exit_code);
      continue;
    }
    metrics[key + ".switches"] = static_cast<double>(point.switches);
    metrics[key + ".instructions"] = static_cast<double>(point.instructions);
    if (point.switches == 0) {
      // The whole run fit in the buffer: it says nothing about the ratio.
      printf("%7uKB %10s %14llu %16s\n", point.kb, "0",
             static_cast<unsigned long long>(point.instructions), "NO SWITCH");
      continue;
    }
    double per_switch = static_cast<double>(point.instructions) / point.switches;
    printf("%7uKB %10llu %14llu %16.0f\n", point.kb,
           static_cast<unsigned long long>(point.switches),
           static_cast<unsigned long long>(point.instructions), per_switch);
    metrics[key + ".instrs_per_switch"] = per_switch;
    double mb = point.kb / 1024.0;
    sum_xy += mb * per_switch;
    sum_xx += mb * mb;
    ++fit_points;
  }
  if (fit_points >= 2) {
    double per_mb = sum_xy / sum_xx;
    printf("\nextrapolation (least squares over %u points): a 64MB buffer sustains\n",
           fit_points);
    printf("~%.0fM instructions between analysis phases (the paper reports ~32M;\n",
           per_mb * 64 / 1e6);
    printf("the ratio depends on the workload's trace density).\n");
    metrics["extrapolated_instrs_per_64mb"] = per_mb * 64;
  } else {
    printf("\nno extrapolation: %u undistorted point(s) switched to analysis, the fit "
           "needs 2\n",
           fit_points);
  }
  MaybeWriteMetricsReport(json, "bench_buffer", scale, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("bench_buffer", argc, argv, Run); }
