// §3.4's Tunix-era observation, reproduced with the full system: kernel
// cycles-per-instruction exceed user CPI severalfold (the paper: kernel CPI
// was three times user CPI), because kernel code has worse locality.
#include <cstdio>

#include "bench/bench_util.h"
#include "sim/predictor.h"
#include "trace/parser.h"

using namespace wrl;

namespace {

int Run(ArgList args) {
  double scale = kBenchScale;
  std::string json;
  Flags flags;
  flags.Real("scale", &scale);
  flags.String("json", &json, "PATH");
  flags.Parse(args);
  printf("=== Kernel vs user CPI from trace-driven cache simulation ===\n");
  printf("%-10s %9s %9s %7s\n", "workload", "user CPI", "kern CPI", "ratio");
  EventRecorder events;
  std::vector<ExperimentResult> results;
  const char* names[] = {"sed", "egrep", "compress", "yacc"};
  for (const char* name : names) {
    WorkloadSpec w = PaperWorkload(name, scale);
    ExperimentOptions options;
    options.events = &events;
    ExperimentResult r = RunExperiment(w, options);
    PrintResultWarnings(r, stderr);
    double ratio = r.prediction.UserCpi() > 0
                       ? r.prediction.KernelCpi() / r.prediction.UserCpi()
                       : 0;
    printf("%-10s %9.3f %9.3f %6.2fx\n", name, r.prediction.UserCpi(),
           r.prediction.KernelCpi(), ratio);
    results.push_back(std::move(r));
  }
  printf("\n(the paper's Tunix experiments saw kernel CPI ~ 3x user CPI; the exact\n");
  printf("ratio depends on workload locality and the cache configuration)\n");
  MaybeWriteRunReport(json, "bench_cpi", scale, results, &events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("bench_cpi", argc, argv, Run); }
