// wrlprof: the trace-attribution profiler CLI.
//
// Runs one paper workload on the traced system, reconstructs the reference
// stream, and attributes every reference back to the basic block, symbol,
// and page that generated it — plus the §5 distortion accounting: trace
// words and epoxie-inserted instructions charged per block.
//
// The profiler sits behind one parser that consumes each drain during the
// traced run itself.
//
// The built-in reconciliation gate cross-checks the profile against the
// wrlstats parser counters — Σ block insts == parser.ifetches, Σ loads ==
// parser.loads, Σ stores == parser.stores, Σ entries == parser.blocks, no
// unattributed references — and the tool exits nonzero when any of it is
// off (--no-verify downgrades that to a warning).
//
// Exit codes: 0 ok, 1 the profile does not reconcile, 2 usage or runtime
// error.
//
// Usage:
//   wrlprof [--workload NAME] [--personality ultrix|mach] [--scale F]
//           [--top N] [--window REFS] [--json PATH]
//           [--folded PATH] [--no-verify] [--quiet]
//
// --json writes a schema-versioned document ("wrlprof/1"):
//   {
//     "schema": "wrlprof/1", "tool": "wrlprof",
//     "workload": ..., "personality": ..., "scale": ..., "mode": "live",
//     "reconcile": {"exact": true, ...},
//     "profile": { "totals": ..., "blocks": [...], "symbols": [...],
//                  "pages": [...], "working_set": [...] },
//     "counters": {"parser.words": ..., ...}
//   }
// --folded writes flamegraph-compatible folded stacks
// ("space;symbol;block_0xADDR insts" per line).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "prof/prof.h"
#include "support/error.h"
#include "support/flags.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/parser.h"
#include "workloads/workloads.h"

using namespace wrl;

namespace {

struct CliOptions {
  std::string workload = "sed";
  Personality personality = Personality::kUltrix;
  double scale = 1.0;
  size_t top = 10;
  uint64_t window_refs = 1u << 18;
  std::string json_path;
  std::string folded_path;
  bool no_verify = false;
  bool quiet = false;
  uint64_t max_instructions = 3'000'000'000;
};

struct Reconcile {
  uint64_t parser_ifetches = 0;
  uint64_t parser_loads = 0;
  uint64_t parser_stores = 0;
  uint64_t parser_blocks = 0;
  uint64_t parser_idle = 0;
  const ProfileTotals* totals = nullptr;

  bool Exact() const {
    return totals->insts == parser_ifetches && totals->loads == parser_loads &&
           totals->stores == parser_stores && totals->block_entries == parser_blocks &&
           totals->idle_insts == parser_idle && totals->unattributed_insts == 0 &&
           totals->unattributed_data == 0;
  }
};

void WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out || !(out << content)) {
    throw Error("cannot write " + path);
  }
}

void PrintTables(const Profile& profile, size_t top) {
  const ProfileTotals& t = profile.totals;
  std::printf("refs %llu: %llu ifetches (%llu kernel, %llu user, %llu idle), "
              "%llu loads, %llu stores\n",
              static_cast<unsigned long long>(t.refs),
              static_cast<unsigned long long>(t.insts),
              static_cast<unsigned long long>(t.kernel_insts),
              static_cast<unsigned long long>(t.user_insts),
              static_cast<unsigned long long>(t.idle_insts),
              static_cast<unsigned long long>(t.loads),
              static_cast<unsigned long long>(t.stores));
  std::printf("attribution: %llu block entries, %llu trace words, "
              "%llu epoxie-inserted instructions (dilation x%.2f over traced insts)\n",
              static_cast<unsigned long long>(t.block_entries),
              static_cast<unsigned long long>(t.trace_words),
              static_cast<unsigned long long>(t.overhead_insts),
              t.insts == 0 ? 1.0
                           : 1.0 + static_cast<double>(t.overhead_insts) /
                                       static_cast<double>(t.insts));

  std::printf("\n%-44s %12s %10s %10s %10s\n", "hot symbols", "insts", "loads", "stores",
              "trace_w");
  size_t n = top == 0 ? profile.symbols.size() : std::min(top, profile.symbols.size());
  for (size_t i = 0; i < n; ++i) {
    const SymbolProfile& s = profile.symbols[i];
    std::printf("%-44s %12llu %10llu %10llu %10llu\n",
                (s.space + ":" + s.name).c_str(),
                static_cast<unsigned long long>(s.insts),
                static_cast<unsigned long long>(s.loads),
                static_cast<unsigned long long>(s.stores),
                static_cast<unsigned long long>(s.trace_words));
  }

  std::printf("\n%-44s %12s %10s %10s %10s\n", "hot blocks", "insts", "entries", "trace_w",
              "ovh_insts");
  n = top == 0 ? profile.blocks.size() : std::min(top, profile.blocks.size());
  for (size_t i = 0; i < n; ++i) {
    const BlockProfile& b = profile.blocks[i];
    std::printf("%-44s %12llu %10llu %10llu %10llu\n",
                StrFormat("%s:%s @0x%08x", b.space.c_str(), b.symbol.c_str(), b.addr).c_str(),
                static_cast<unsigned long long>(b.insts),
                static_cast<unsigned long long>(b.entries),
                static_cast<unsigned long long>(b.TraceWords()),
                static_cast<unsigned long long>(b.OverheadInsts()));
  }

  std::printf("\n%-44s %12s %10s %10s\n", "hot pages", "ifetches", "loads", "stores");
  n = top == 0 ? profile.pages.size() : std::min(top, profile.pages.size());
  for (size_t i = 0; i < n; ++i) {
    const PageProfile& p = profile.pages[i];
    std::printf("%-44s %12llu %10llu %10llu\n",
                StrFormat("%s:0x%08x", p.space.c_str(), p.page_addr).c_str(),
                static_cast<unsigned long long>(p.ifetches),
                static_cast<unsigned long long>(p.loads),
                static_cast<unsigned long long>(p.stores));
  }

  if (!profile.working_set.empty()) {
    std::printf("\nworking set (unique pages per %llu-ref window):",
                static_cast<unsigned long long>(profile.window_refs));
    for (uint64_t pages : profile.working_set) {
      std::printf(" %llu", static_cast<unsigned long long>(pages));
    }
    std::printf("\n");
  }
}

void WriteJsonReport(const std::string& path, const CliOptions& cli, const Reconcile& reconcile,
                     const Profile& profile, const TraceParserStats& pstats) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema", "wrlprof/1");
  writer.KV("tool", "wrlprof");
  writer.KV("workload", cli.workload);
  writer.KV("personality", PersonalityName(cli.personality));
  writer.KV("scale", cli.scale);
  writer.KV("mode", "live");  // The only mode; kept so the wrlprof/1 schema is unchanged.

  writer.Key("reconcile");
  writer.BeginObject();
  writer.KV("exact", reconcile.Exact());
  writer.KV("parser_ifetches", reconcile.parser_ifetches);
  writer.KV("profile_insts", profile.totals.insts);
  writer.KV("parser_loads", reconcile.parser_loads);
  writer.KV("profile_loads", profile.totals.loads);
  writer.KV("parser_stores", reconcile.parser_stores);
  writer.KV("profile_stores", profile.totals.stores);
  writer.KV("parser_blocks", reconcile.parser_blocks);
  writer.KV("profile_block_entries", profile.totals.block_entries);
  writer.KV("unattributed_insts", profile.totals.unattributed_insts);
  writer.KV("unattributed_data", profile.totals.unattributed_data);
  writer.EndObject();

  writer.Key("profile");
  profile.WriteJson(writer);

  writer.Key("counters");
  writer.BeginObject();
  writer.KV("parser.words", pstats.words);
  writer.KV("parser.blocks", pstats.blocks);
  writer.KV("parser.refs", pstats.refs);
  writer.KV("parser.ifetches", pstats.ifetches);
  writer.KV("parser.loads", pstats.loads);
  writer.KV("parser.stores", pstats.stores);
  writer.KV("parser.kernel_ifetches", pstats.kernel_ifetches);
  writer.KV("parser.user_ifetches", pstats.user_ifetches);
  writer.KV("parser.idle_instructions", pstats.idle_instructions);
  writer.KV("parser.markers", pstats.markers);
  writer.KV("parser.validation_errors", pstats.validation_errors);
  writer.EndObject();
  writer.EndObject();
  WriteTextFile(path, writer.TakeString() + "\n");
}

int Run(ArgList args) {
  CliOptions cli;
  std::string personality = PersonalityName(cli.personality);
  Flags flags;
  flags.String("workload", &cli.workload, "NAME");
  flags.String("personality", &personality, "ultrix|mach");
  flags.Real("scale", &cli.scale);
  flags.Unsigned("top", &cli.top);
  flags.Unsigned("window", &cli.window_refs);
  flags.String("json", &cli.json_path, "PATH");
  flags.String("folded", &cli.folded_path, "PATH");
  flags.Switch("no-verify", &cli.no_verify);
  flags.Switch("quiet", &cli.quiet);
  flags.Parse(args);
  cli.personality = PersonalityFromName(personality);

  WorkloadSpec workload = PaperWorkload(cli.workload, cli.scale);

  // The traced half of an experiment; the measured half is not needed.
  ExperimentOptions options;
  options.personality = cli.personality;
  std::unique_ptr<SystemInstance> traced = BuildSystem(MakeConfig(workload, options, true));

  ProfileOptions popts;
  popts.window_refs = cli.window_refs;
  std::unique_ptr<TraceProfiler> profiler = MakeProfiler(popts, *traced);

  TraceParser parser = traced->MakeParser();
  parser.SetBatchSink(profiler.get());
  traced->SetTraceSink(
      [&parser](const uint32_t* words, size_t count) { parser.Feed(words, count); });

  RunResult run = traced->Run(cli.max_instructions);
  if (!run.halted) {
    throw Error(StrFormat("traced run of '%s' did not halt (pc=0x%08x)",
                          workload.name.c_str(), traced->machine().pc()));
  }

  parser.Finish();
  const TraceParserStats& pstats = parser.stats();

  Profile profile = profiler->Finish();
  Reconcile reconcile;
  reconcile.parser_ifetches = pstats.ifetches;
  reconcile.parser_loads = pstats.loads;
  reconcile.parser_stores = pstats.stores;
  reconcile.parser_blocks = pstats.blocks;
  reconcile.parser_idle = pstats.idle_instructions;
  reconcile.totals = &profile.totals;

  if (!cli.quiet) {
    std::printf("wrlprof: %s (%s, scale %g, live analysis)\n", workload.name.c_str(),
                PersonalityName(cli.personality), cli.scale);
    PrintTables(profile, cli.top);
  }

  if (!cli.json_path.empty()) {
    WriteJsonReport(cli.json_path, cli, reconcile, profile, pstats);
  }
  if (!cli.folded_path.empty()) {
    WriteTextFile(cli.folded_path, profile.FoldedStacks());
  }

  if (!reconcile.Exact()) {
    std::fprintf(stderr,
                 "wrlprof: profile does NOT reconcile with parser counters: "
                 "insts %llu/%llu loads %llu/%llu stores %llu/%llu entries %llu/%llu "
                 "unattributed %llu+%llu\n",
                 static_cast<unsigned long long>(profile.totals.insts),
                 static_cast<unsigned long long>(pstats.ifetches),
                 static_cast<unsigned long long>(profile.totals.loads),
                 static_cast<unsigned long long>(pstats.loads),
                 static_cast<unsigned long long>(profile.totals.stores),
                 static_cast<unsigned long long>(pstats.stores),
                 static_cast<unsigned long long>(profile.totals.block_entries),
                 static_cast<unsigned long long>(pstats.blocks),
                 static_cast<unsigned long long>(profile.totals.unattributed_insts),
                 static_cast<unsigned long long>(profile.totals.unattributed_data));
    if (!cli.no_verify) {
      return 1;
    }
  } else if (!cli.quiet) {
    std::printf("\nreconcile: exact (profile == parser counters)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("wrlprof", argc, argv, Run); }
