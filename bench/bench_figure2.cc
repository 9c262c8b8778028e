// Figure 2: instrumentation by epoxie — the before/after listing of the
// paper's fopen-prologue example, produced by our actual rewriter.
#include <cstdio>

#include "asm/assembler.h"
#include "bench/bench_util.h"
#include "epoxie/epoxie.h"
#include "isa/isa.h"

using namespace wrl;

namespace {

int Run(ArgList args) {
  std::string json;
  Flags flags;
  flags.String("json", &json, "PATH");
  flags.Parse(args);
  const char* before = R"(
        .globl fopen
fopen:  addiu $sp, $sp, -24
        sw   $ra, 20($sp)
        sw   $a0, 24($sp)
        jal  _findiop
        sw   $a1, 28($sp)
        .globl _findiop
_findiop:
        jr   $ra
        nop
)";
  ObjectFile obj = Assemble("fopen.s", before);
  InstrumentResult result = Instrument(obj, EpoxieConfig{});

  printf("=== Figure 2: Instrumentation by epoxie ===\n\n");
  printf("a) Before instrumentation\n");
  for (uint32_t off = 0; off < obj.NumTextWords() * 4; off += 4) {
    printf("  i+%-3u  %s\n", off / 4, DisassembleWord(obj.TextWord(off), off).c_str());
  }
  printf("\nb) After instrumentation (%u -> %u words, growth %.2fx)\n",
         result.original_text_words, result.instrumented_text_words,
         result.TextGrowthFactor());
  for (uint32_t off = 0; off < result.object.NumTextWords() * 4; off += 4) {
    printf("  i'+%-3u %s\n", off / 4, DisassembleWord(result.object.TextWord(off), off).c_str());
  }
  printf("\n(jal targets are unresolved until link time; the 'ori zero, zero, N'\n");
  printf("delay-slot no-ops carry each block's trace word count, and the sw/lw\n");
  printf("through $t7 address the tracing bookkeeping area, as in the paper.)\n");

  std::map<std::string, double> metrics;
  metrics["fopen.original_text_words"] = result.original_text_words;
  metrics["fopen.instrumented_text_words"] = result.instrumented_text_words;
  metrics["fopen.text_growth"] = result.TextGrowthFactor();
  MaybeWriteMetricsReport(json, "bench_figure2", 0, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("bench_figure2", argc, argv, Run); }
