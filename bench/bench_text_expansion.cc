// §3.2's text-expansion comparison: epoxie's minimized instrumentation
// (1.9–2.3x in the paper) against the pixie-style baseline (4–6x), over
// every workload binary, the user library, and the kernel.
#include <cstdio>

#include "asm/assembler.h"
#include "bench/bench_util.h"
#include "epoxie/epoxie.h"
#include "kernel/kernel_asm.h"
#include "kernel/system_build.h"

using namespace wrl;

namespace {

int Run(ArgList args) {
  double scale = kBenchScale;
  std::string json;
  Flags flags;
  flags.Real("scale", &scale);
  flags.String("json", &json, "PATH");
  flags.Parse(args);
  printf("=== Text expansion: epoxie vs pixie-style instrumentation ===\n");
  printf("%-10s %10s %10s %10s\n", "binary", "words", "epoxie", "pixie");

  std::map<std::string, double> metrics;
  auto measure = [&metrics](const char* name, const ObjectFile& obj) {
    EpoxieConfig e;
    EpoxieConfig p;
    p.mode = InstrumentMode::kPixie;
    InstrumentResult re = Instrument(obj, e);
    InstrumentResult rp = Instrument(obj, p);
    printf("%-10s %10u %9.2fx %9.2fx\n", name, re.original_text_words, re.TextGrowthFactor(),
           rp.TextGrowthFactor());
    metrics[std::string(name) + ".text_words"] = re.original_text_words;
    metrics[std::string(name) + ".epoxie_growth"] = re.TextGrowthFactor();
    metrics[std::string(name) + ".pixie_growth"] = rp.TextGrowthFactor();
    return std::make_pair(re, rp);
  };

  double esum = 0;
  double psum = 0;
  int count = 0;
  for (const WorkloadSpec& w : PaperWorkloads(scale)) {
    ObjectFile obj = Assemble(w.name + ".s", w.source);
    auto [re, rp] = measure(w.name.c_str(), obj);
    esum += re.TextGrowthFactor();
    psum += rp.TextGrowthFactor();
    ++count;
  }
  measure("userlib", Assemble("userlib.s", UserLibAsm()));
  measure("kernel", Assemble("kernel.s", KernelAsm()));
  measure("server", Assemble("server.s", ServerAsm()));

  printf("\nworkload averages: epoxie %.2fx (paper: 1.9-2.3x), pixie-style %.2fx (paper: 4-6x)\n",
         esum / count, psum / count);
  metrics["workloads.epoxie_growth_mean"] = esum / count;
  metrics["workloads.pixie_growth_mean"] = psum / count;
  MaybeWriteMetricsReport(json, "bench_text_expansion", scale, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("bench_text_expansion", argc, argv, Run); }
