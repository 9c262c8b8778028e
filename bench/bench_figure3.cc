// Figure 3: percent error in predicted execution times for Ultrix, as an
// ASCII bar chart.  The paper's shape: most workloads within ~5%, with the
// short-running and I/O-heavy ones (sed, compress) and the write-buffer-
// bound one (liv) larger.
//
// Each workload's traced run feeds one analysis as its drains arrive: one
// parse of the trace prices the primary prediction and the what-if sweep
// (half/quarter-size caches, a slower memory, more wired TLB entries)
// together.  The geometry-only variants (cache32k, cache16k) are absorbed
// by ONE forest-simulation sweep pass with exact miss counts; only the
// non-sweepable ones (slowmem, wired16 — different penalties / TLB wiring
// change the effective stream) get dedicated simulators on the same tee.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace wrl;

namespace {

// The what-if sweep priced from each workload's trace.
std::vector<ReplayVariant> SweepVariants() {
  std::vector<ReplayVariant> variants;
  {
    ReplayVariant v;
    v.name = "cache32k";
    v.memsys.icache.size_bytes = 32 * 1024;
    v.memsys.dcache.size_bytes = 32 * 1024;
    variants.push_back(v);
  }
  {
    ReplayVariant v;
    v.name = "cache16k";
    v.memsys.icache.size_bytes = 16 * 1024;
    v.memsys.dcache.size_bytes = 16 * 1024;
    variants.push_back(v);
  }
  {
    ReplayVariant v;
    v.name = "slowmem";
    v.memsys.read_miss_penalty = 30;
    v.memsys.uncached_penalty = 30;
    variants.push_back(v);
  }
  {
    ReplayVariant v;
    v.name = "wired16";
    v.tlb_wired = 16;
    variants.push_back(v);
  }
  return variants;
}

int Run(ArgList args) {
  double scale = kBenchScale;
  unsigned jobs = 1;
  std::string json;
  ExperimentOptions base;
  Flags flags;
  flags.Real("scale", &scale);
  flags.Unsigned("jobs", &jobs);
  flags.Switch("progress", &base.progress);
  flags.String("json", &json, "PATH");
  flags.Parse(args);
  printf("=== Figure 3: Error in predicted execution times for Ultrix (scale %.2f) ===\n", scale);
  EventRecorder events;
  base.replay_variants = SweepVariants();
  // Absorb the geometry-only variants into the single-pass sweep engine;
  // slowmem and wired16 still replay (their penalties / wiring are not
  // sweepable).  The sweep also exports the LRU TLB capacity curve.
  base.sweep.enabled = true;
  base.sweep.tlb_max_entries = 64;
  std::vector<ExperimentResult> results =
      RunPersonalitySuite(Personality::kUltrix, scale, &events, jobs, base);
  printf("%-10s %8s  (one '#' per half percent of |error|)\n", "workload", "error");
  double worst = 0;
  for (const ExperimentResult& r : results) {
    double err = r.TimeErrorPercent();
    worst = std::max(worst, std::fabs(err));
    int bars = static_cast<int>(std::fabs(err) * 2.0 + 0.5);
    printf("%-10s %+7.2f%% |", r.workload.c_str(), err);
    for (int i = 0; i < bars && i < 60; ++i) {
      putchar('#');
    }
    putchar('\n');
  }
  printf("\nworst |error| = %.2f%%\n", worst);

  // The what-if sweep: predicted time for each config, from the same trace
  // as the primary prediction (one traced run per workload).
  printf("\n=== What-if sweep (one capture; '*' = priced by the sweep pass) ===\n");
  printf("%-10s %10s", "workload", "primary");
  for (const ReplayVariant& v : base.replay_variants) {
    printf(" %10s", v.name.c_str());
  }
  printf("\n");
  double mrefs_sum = 0;
  double sweep_mrefs_sum = 0;
  unsigned sweep_runs = 0;
  for (const ExperimentResult& r : results) {
    printf("%-10s %10.4f", r.workload.c_str(), r.PredictedSeconds());
    for (const ReplayVariantResult& v : r.replays) {
      printf(" %9.4f%c", static_cast<double>(v.prediction.PredictedCycles()) / kClockHz,
             v.swept ? '*' : ' ');
    }
    printf("\n");
    mrefs_sum += r.replay_mrefs_per_sec;
    if (r.sweep_ran && r.sweep_mrefs_per_sec > 0) {
      sweep_mrefs_sum += r.sweep_mrefs_per_sec;
      ++sweep_runs;
    }
  }
  if (!results.empty()) {
    printf("\nreplay fan-out %.1f Mrefs/s (mean)\n",
           mrefs_sum / static_cast<double>(results.size()));
  }
  if (sweep_runs > 0) {
    printf("sweep pass: %.0f Mrefs/s equivalent (mean; family points x refs / pass wall time)\n",
           sweep_mrefs_sum / static_cast<double>(sweep_runs));
  }
  MaybeWriteRunReport(json, "bench_figure3", scale, results, &events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("bench_figure3", argc, argv, Run); }
