// A TLB study in the style the paper's traces enabled (its reference [9],
// "A Simulation Based Study of TLB Performance"), run as one validation
// experiment: the traced machine's drains feed one live analysis as they
// arrive, and the single-pass sweep engine on that analysis prices the
// whole configuration family — every TLB capacity on the LRU curve
// (Mattson-style stack distances) plus 8-point I- and D-cache families
// (Hill-&-Smith forest simulation) — next to the faithful 64-entry
// production model the primary simulator runs.
//
//   $ ./build/examples/tlb_study [--scale S] [--sweep-sizes 8,64,...]
//                                [--check] [--json report.json]
//
// --check runs the experiment again with one dedicated TraceDrivenSimulator
// per family size (I- and D-cache both at that size) and fails loudly
// unless the sweep's miss counts are bit-identical at every point — the
// exactness contract, verified on demand.
//
// Exit codes: 0 ok, 1 a --check mismatch, 2 usage or runtime error.
//
// With --json the run emits the wrlstats/1 run report bench_figure3 emits:
// the experiment's counters, the sweep curves and families, and the event
// timeline (load the file in chrome://tracing or ui.perfetto.dev).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace wrl;

namespace {

// The 8-point cache-size family priced by the sweep (alongside the TLB
// curve): 4 KB through 512 KB at the production line sizes.
constexpr uint32_t kCacheFamilyMin = 4 * 1024;
constexpr uint32_t kCacheFamilyMax = 512 * 1024;
constexpr uint32_t kIcacheLine = 16;
constexpr uint32_t kDcacheLine = 4;

// Parses --sweep-sizes: a comma-separated list of TLB capacities, each an
// unsigned integer greater than 0.
std::vector<unsigned> ParseSweepSizes(const Flags& flags, const std::string& spec) {
  std::vector<unsigned> sizes;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    try {
      sizes.push_back(static_cast<unsigned>(ParseUnsigned(item, UINT32_MAX)));
    } catch (const Error& e) {
      throw flags.UsageError("--sweep-sizes: " + std::string(e.what()));
    }
    if (sizes.back() == 0) {
      throw flags.UsageError("--sweep-sizes: a TLB of 0 entries has no miss count");
    }
    pos = comma + 1;
  }
  return sizes;
}

// One dedicated simulator per family size, with the I- and D-cache both at
// that size, so each replay checks one point of either family.
std::vector<ReplayVariant> FamilyReplays(const SweepResult& sweep) {
  std::vector<ReplayVariant> variants;
  for (size_t i = 0; i < sweep.icache.size(); ++i) {
    ReplayVariant v;
    v.name = "check" + std::to_string(sweep.icache[i].size_bytes / 1024) + "k";
    v.memsys.icache = {sweep.icache[i].size_bytes, sweep.icache[i].line_bytes};
    v.memsys.dcache = {sweep.dcache[i].size_bytes, sweep.dcache[i].line_bytes};
    variants.push_back(v);
  }
  return variants;
}

// --check: every family point against its dedicated replay.  Returns false
// (after saying where) unless all of them are bit-identical.
bool CheckFamilies(const WorkloadSpec& w, ExperimentOptions options, const SweepResult& sweep) {
  options.sweep = SweepOptions();
  options.replay_variants = FamilyReplays(sweep);
  const size_t points = sweep.icache.size() + sweep.dcache.size();
  printf("\nverifying %zu family points against %zu independent replays...\n", points,
         options.replay_variants.size());
  ExperimentResult check = RunExperiment(w, options);
  uint64_t replay_wall_us = 0;
  for (size_t i = 0; i < check.replays.size(); ++i) {
    const MemSysStats& got = check.replays[i].prediction.memsys_stats;
    replay_wall_us += check.replays[i].wall_us;
    if (got.icache_misses != sweep.icache[i].misses ||
        got.dcache_misses != sweep.dcache[i].misses) {
      fprintf(stderr, "*** MISMATCH at %uK: sweep i=%llu d=%llu, replay i=%llu d=%llu ***\n",
              sweep.icache[i].size_bytes / 1024,
              static_cast<unsigned long long>(sweep.icache[i].misses),
              static_cast<unsigned long long>(sweep.dcache[i].misses),
              static_cast<unsigned long long>(got.icache_misses),
              static_cast<unsigned long long>(got.dcache_misses));
      return false;
    }
  }
  printf("all %zu points bit-identical; %zu replays took %.1fms vs one %.1fms sweep pass "
         "(%.1fx)\n",
         points, check.replays.size(), static_cast<double>(replay_wall_us) / 1000.0,
         static_cast<double>(sweep.wall_us) / 1000.0,
         sweep.wall_us == 0
             ? 0.0
             : static_cast<double>(replay_wall_us) / static_cast<double>(sweep.wall_us));
  return true;
}

int Run(ArgList args) {
  double scale = 0.15;
  std::string sizes_spec = "8,16,32,64,128,256";
  bool check = false;
  std::string json;
  Flags flags;
  flags.Real("scale", &scale);
  flags.String("sweep-sizes", &sizes_spec, "N,N,...");
  flags.Switch("check", &check);
  flags.String("json", &json, "PATH");
  flags.Parse(args);
  const std::vector<unsigned> sizes = ParseSweepSizes(flags, sizes_spec);
  const unsigned max_entries = *std::max_element(sizes.begin(), sizes.end());
  WorkloadSpec w = PaperWorkload("eqntott", scale);  // The TLB-hostile one.
  printf("running %s once: one traced run, one live analysis with the sweep...\n",
         w.name.c_str());

  EventRecorder events;
  ExperimentOptions options;
  options.events = &events;
  options.sweep.icache.push_back({kIcacheLine, kCacheFamilyMin, kCacheFamilyMax});
  options.sweep.dcache.push_back({kDcacheLine, kCacheFamilyMin, kCacheFamilyMax});
  options.sweep.tlb_max_entries = max_entries;
  ExperimentResult result = RunExperiment(w, options);
  PrintResultWarnings(result, stderr);
  const SweepResult& sweep = result.sweep;

  printf("\nLRU TLB capacity-miss curve (exact, one stack-distance pass):\n");
  printf("%-10s %12s\n", "entries", "misses");
  for (unsigned entries : sizes) {
    if (entries > sweep.tlb_lru_misses.size()) {
      continue;
    }
    printf("%8u   %12llu\n", entries,
           static_cast<unsigned long long>(sweep.tlb_lru_misses[entries - 1]));
  }
  printf("\ncache-size family (exact, same pass; line %u/%u bytes):\n", kIcacheLine, kDcacheLine);
  printf("%-10s %12s %12s\n", "size", "i-misses", "d-misses");
  for (size_t i = 0; i < sweep.icache.size(); ++i) {
    printf("%7uK   %12llu %12llu\n", sweep.icache[i].size_bytes / 1024,
           static_cast<unsigned long long>(sweep.icache[i].misses),
           static_cast<unsigned long long>(sweep.dcache[i].misses));
  }
  printf("\nfaithful 64-entry simulation (random replacement, synthesized\n");
  printf("handler refs): %llu misses\n",
         static_cast<unsigned long long>(result.prediction.utlb_misses));
  printf("measured on the uninstrumented system (kernel counter): %llu misses\n",
         static_cast<unsigned long long>(result.measured_utlb));
  printf("\nsweep: %zu family points + %u-entry TLB curve in one pass "
         "(%.0f Mrefs/s equivalent)\n",
         sweep.family_points, max_entries, result.sweep_mrefs_per_sec);

  if (check && !CheckFamilies(w, options, sweep)) {
    return 1;
  }
  MaybeWriteRunReport(json, "tlb_study", scale, {result}, &events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("tlb_study", argc, argv, Run); }
