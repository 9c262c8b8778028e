// Table 3: user TLB misses, measured (kernel counter in the uninstrumented
// system) and predicted (TLB simulation over the reconstructed trace), for
// both personalities.  The paper's headline shapes: Mach's user miss counts
// are far larger than Ultrix's (system code runs in user space), and the
// explicit tlbdropin/tlb_map_random TLB loads are a visible error source.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace wrl;

namespace {

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
  printf("=== Table 3: TLB misses, measured and predicted (scale %.2f) ===\n", scale);
  EventRecorder events;
  std::vector<ExperimentResult> ultrix =
      RunPersonalitySuite(Personality::kUltrix, scale, &events, jobs, base);
  std::vector<ExperimentResult> mach =
      RunPersonalitySuite(Personality::kMach, scale, &events, jobs, base);

  printf("%-10s | %21s | %21s\n", "", "Mach 3.0", "Ultrix");
  printf("%-10s | %10s %10s | %10s %10s\n", "workload", "predicted", "measured", "predicted",
         "measured");
  printf("-----------+-----------------------+----------------------\n");
  double log_ratio_sum = 0;
  int ratio_count = 0;
  for (size_t i = 0; i < ultrix.size(); ++i) {
    printf("%-10s | %10llu %10llu | %10llu %10llu\n", ultrix[i].workload.c_str(),
           static_cast<unsigned long long>(mach[i].prediction.utlb_misses),
           static_cast<unsigned long long>(mach[i].measured_utlb),
           static_cast<unsigned long long>(ultrix[i].prediction.utlb_misses),
           static_cast<unsigned long long>(ultrix[i].measured_utlb));
    if (ultrix[i].measured_utlb > 0 && mach[i].measured_utlb > 0) {
      log_ratio_sum += std::log(static_cast<double>(mach[i].measured_utlb) /
                                static_cast<double>(ultrix[i].measured_utlb));
      ++ratio_count;
    }
  }
  printf("\nexplicit TLB loads (tlbdropin / tlb_map_random), the error source the\n");
  printf("simulator cannot see:\n");
  for (size_t i = 0; i < ultrix.size(); ++i) {
    printf("  %-10s ultrix tlbdropin=%-8llu mach tlb_map_random=%llu\n",
           ultrix[i].workload.c_str(),
           static_cast<unsigned long long>(ultrix[i].measured_tlbdropins),
           static_cast<unsigned long long>(mach[i].measured_tlbdropins));
  }
  printf("\nmeasured mach/ultrix miss ratio (geometric mean over workloads): %.2fx\n",
         ratio_count ? std::exp(log_ratio_sum / ratio_count) : 0.0);
  printf("(the paper's gap is larger still: its UX server is a full UNIX server\n");
  printf("whose text/data dwarf our reconstruction's)\n");

  std::vector<ExperimentResult> all = ultrix;
  all.insert(all.end(), mach.begin(), mach.end());
  MaybeWriteRunReport(json, "bench_table3", scale, all, &events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("bench_table3", argc, argv, Run); }
