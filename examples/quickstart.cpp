// Quickstart: assemble a tiny program, instrument it with epoxie, run it
// traced on the bare machine, and print the reconstructed address trace
// next to the ground truth from the hardware reference hook.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "harness/bare_runtime.h"
#include "support/flags.h"
#include "support/strings.h"

using namespace wrl;

namespace {

int Run(ArgList args) {
  Flags().Parse(args);
  const char* program = R"(
        .globl main
main:
        la   $t0, buf            # a few loads and stores over a buffer
        li   $t1, 3
        sw   $t1, 0($t0)
        lw   $t2, 0($t0)
        addu $t2, $t2, $t2
        sw   $t2, 4($t0)
        lw   $t3, 4($t0)
        jr   $ra
        nop
        .data
buf:    .space 16
)";

  printf("building: assemble -> epoxie -> link (original and instrumented)\n");
  BareBuild build = BuildBareTraced(program);
  printf("  original text:      %u words\n", build.instrument_result.original_text_words);
  printf("  instrumented text:  %u words (%.2fx growth; the paper: 1.9-2.3x)\n",
         build.instrument_result.instrumented_text_words,
         build.instrument_result.TextGrowthFactor());

  printf("\nrunning both and comparing the reference streams:\n");
  BareComparison cmp = CompareBareTrace(build);
  printf("  %-28s | %s\n", "software trace (parsed)", "hardware reference");
  size_t n = std::max(cmp.parsed.size(), cmp.reference.size());
  const char* kKind[] = {"ifetch", "load  ", "store "};
  for (size_t i = 0; i < n; ++i) {
    std::string left = i < cmp.parsed.size()
                           ? StrFormat("%s %s", kKind[cmp.parsed[i].kind],
                                       Hex32(cmp.parsed[i].addr).c_str())
                           : "(none)";
    std::string right = i < cmp.reference.size()
                            ? StrFormat("%s %s", kKind[cmp.reference[i].kind],
                                        Hex32(cmp.reference[i].vaddr).c_str())
                            : "(none)";
    bool match = i < cmp.parsed.size() && i < cmp.reference.size() &&
                 cmp.parsed[i].kind == static_cast<int>(cmp.reference[i].kind) &&
                 cmp.parsed[i].addr == cmp.reference[i].vaddr;
    printf("  %-28s | %-28s %s\n", left.c_str(), right.c_str(), match ? "" : "  <-- MISMATCH");
  }
  printf("\n%zu references, parser errors: %zu\n", cmp.parsed.size(), cmp.parser_errors.size());
  if (!cmp.parser_errors.empty()) {
    fprintf(stderr, "*** WARNING: %zu parser errors — the software trace diverged from the "
            "hardware reference ***\n",
            cmp.parser_errors.size());
    for (const std::string& e : cmp.parser_errors) {
      fprintf(stderr, "***   %s ***\n", e.c_str());
    }
    return 1;
  }
  printf("(every line matches: the software trace is exact — the paper's §4.3\n");
  printf("validation against an independent CPU simulator)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("quickstart", argc, argv, Run); }
