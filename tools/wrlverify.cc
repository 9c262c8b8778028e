// wrlverify: the static instrumentation verifier CLI.
//
// Rebuilds the same artifacts the harness runs — the instrumented kernel
// and every paper workload, in epoxie mode and the pixie baseline — and
// runs the wrl_verify passes (shape, liveness, relocation, tracetable,
// scavenge) over each instrumented object plus the image-level audit over
// each image linked by the system's own recipe (BuildKernelImage,
// BuildUserImage).  Object targets also carry the static dilation
// prediction (per-procedure text growth, trace words per visit, memtrace
// density) computed by src/dataflow.  This is the CI gate: any
// error-severity finding makes the tool exit nonzero.
//
// Usage:
//   wrlverify [--json PATH] [--scale F] [--jobs N] [--quiet]
//
// --jobs audits targets on a worker pool (ParallelFor; 0 = every core);
// findings and the report order stay deterministic regardless of N
// (results are slot-indexed and printed in task order).
//
// Exit codes: 0 clean, 1 error-severity findings, 2 usage or runtime error.
//
// --json writes the machine-readable report (schema "wrlverify/1"):
//   {
//     "schema": "wrlverify/1",
//     "targets": [{"name": ..., "report": {...}, "dilation": {...}}, ...],
//     "totals": {"targets": N, "errors": N, "warnings": N, ...}
//   }
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.h"
#include "dataflow/dilation.h"
#include "epoxie/epoxie.h"
#include "kernel/kernel_asm.h"
#include "kernel/kernel_config.h"
#include "kernel/system_build.h"
#include "obj/object_file.h"
#include "stats/stats.h"
#include "support/error.h"
#include "support/flags.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "verify/verify.h"
#include "workloads/workloads.h"

using namespace wrl;

namespace {

struct TargetResult {
  VerifyReport report;
  // Static dilation prediction; object targets only.
  std::optional<DilationPrediction> dilation;
};

struct Task {
  std::string name;
  std::function<TargetResult()> run;
};

struct TargetReport {
  std::string name;
  TargetResult result;
};

const char* ModeName(InstrumentMode mode) {
  return mode == InstrumentMode::kEpoxie ? "epoxie" : "pixie";
}

TargetResult ObjectTarget(const ObjectFile& orig, const InstrumentResult& res,
                          const EpoxieConfig& config, uint32_t text_base) {
  VerifyOptions options;
  options.epoxie = config;
  options.text_base = text_base;
  TargetResult out;
  out.report = VerifyInstrumentedObject(orig, res, options);
  out.dilation = PredictDilation(orig, res);
  return out;
}

// Runs every task on `jobs` workers; results keep task order.
std::vector<TargetReport> RunTasks(const std::vector<Task>& tasks, unsigned jobs) {
  std::vector<TargetReport> out(tasks.size());
  ParallelFor(tasks.size(), jobs, [&](size_t t) { out[t] = {tasks[t].name, tasks[t].run()}; });
  return out;
}

void PrintTarget(const TargetReport& t, bool quiet) {
  const VerifyReport& report = t.result.report;
  if (!quiet) {
    std::string growth;
    if (t.result.dilation.has_value()) {
      growth = StrFormat("  growth %.2fx", t.result.dilation->Growth());
    }
    printf("%-38s %5llu blocks %7llu insts %5llu relocs  %llu errors, %llu warnings%s\n",
           t.name.c_str(), static_cast<unsigned long long>(report.stats.blocks),
           static_cast<unsigned long long>(report.stats.instructions),
           static_cast<unsigned long long>(report.stats.relocations),
           static_cast<unsigned long long>(report.stats.errors),
           static_cast<unsigned long long>(report.stats.warnings), growth.c_str());
  }
  for (const VerifyFinding& f : report.findings) {
    fprintf(f.severity == VerifySeverity::kError ? stderr : stdout,
            "  [%s] %s: pc=0x%08x block=%d%s%s: %s\n", VerifySeverityName(f.severity),
            VerifyPassName(f.pass), f.pc, f.block, f.symbol.empty() ? "" : " sym=",
            f.symbol.c_str(), f.message.c_str());
  }
}

void WriteDilationJson(JsonWriter& writer, const DilationPrediction& d) {
  writer.BeginObject();
  writer.KV("orig_insts", d.orig_insts);
  writer.KV("instr_words", d.instr_words);
  writer.KV("mem_ops", d.mem_ops);
  writer.KV("trace_words_per_visit", d.trace_words_per_visit);
  writer.KV("ra_dead_leaders", static_cast<uint64_t>(d.ra_dead_leaders));
  writer.KV("growth", d.Growth());
  writer.KV("memtrace_density", d.MemtraceDensity());
  writer.Key("procs");
  writer.BeginArray();
  for (const ProcDilation& p : d.procs) {
    writer.BeginObject();
    writer.KV("name", p.name);
    writer.KV("addr", StrFormat("0x%x", p.addr));
    writer.KV("blocks", static_cast<uint64_t>(p.blocks));
    writer.KV("orig_insts", static_cast<uint64_t>(p.orig_insts));
    writer.KV("instr_words", static_cast<uint64_t>(p.instr_words));
    writer.KV("mem_ops", static_cast<uint64_t>(p.mem_ops));
    writer.KV("trace_words_per_visit", static_cast<uint64_t>(p.trace_words_per_visit));
    writer.KV("ra_dead_leaders", static_cast<uint64_t>(p.ra_dead_leaders));
    writer.KV("growth", p.Growth());
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

void WriteJsonReport(const std::string& path, const std::vector<TargetReport>& targets,
                     const StatsRegistry& registry) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema", "wrlverify/1");
  writer.Key("targets");
  writer.BeginArray();
  for (const TargetReport& t : targets) {
    writer.BeginObject();
    writer.KV("name", t.name);
    writer.Key("report");
    t.result.report.WriteJson(writer);
    if (t.result.dilation.has_value()) {
      writer.Key("dilation");
      WriteDilationJson(writer, *t.result.dilation);
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("totals");
  writer.BeginObject();
  writer.KV("targets", static_cast<uint64_t>(targets.size()));
  for (const std::string& name : registry.Names()) {
    writer.KV(name, registry.CounterValue(name));
  }
  writer.EndObject();
  writer.EndObject();
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot write " + path);
  }
  out << writer.TakeString() << "\n";
}

int Run(ArgList args) {
  std::string json_path;
  double scale = 1.0;
  unsigned jobs = 1;
  bool quiet = false;
  Flags flags;
  flags.String("json", &json_path, "PATH");
  flags.Real("scale", &scale);
  flags.Unsigned("jobs", &jobs);
  flags.Switch("quiet", &quiet);
  flags.Parse(args);
  if (jobs == 0) {
    jobs = std::max(1u, std::thread::hardware_concurrency());
  }

  // ---- Shared inputs, assembled once up front (the tasks only read) ----
  ObjectFile kernel_obj = Assemble("kernel.s", KernelAsm());
  ObjectFile userlib = Assemble("userlib.s", UserLibAsm());
  std::vector<WorkloadSpec> workloads = PaperWorkloads(scale);
  WorkloadSpec server;
  server.name = "server";
  server.source = ServerAsm();
  workloads.push_back(server);

  std::vector<Task> tasks;

  // ---- Kernel: epoxie-instrumented object + the image the system boots ----
  tasks.push_back({"kernel/epoxie", [&]() {
    EpoxieConfig config;
    InstrumentResult ikernel = Instrument(kernel_obj, config);
    return ObjectTarget(kernel_obj, ikernel, config, kKseg0);
  }});
  tasks.push_back({"kernel/epoxie/image", []() {
    TargetResult out;
    out.report = VerifyImage(BuildKernelImage(EpoxieConfig{}).exe);
    return out;
  }});

  // ---- User programs: every workload plus the Mach server, both modes ----
  for (InstrumentMode mode : {InstrumentMode::kEpoxie, InstrumentMode::kPixie}) {
    tasks.push_back({std::string("userlib/") + ModeName(mode), [&userlib, mode]() {
      EpoxieConfig config;
      config.mode = mode;
      InstrumentResult ilib = Instrument(userlib, config);
      return ObjectTarget(userlib, ilib, config, kUserTracedTextBase);
    }});
    for (const WorkloadSpec& w : workloads) {
      tasks.push_back({w.name + "/" + ModeName(mode), [&w, mode]() {
        EpoxieConfig config;
        config.mode = mode;
        ObjectFile prog = Assemble(w.name + ".s", w.source);
        InstrumentResult iprog = Instrument(prog, config);
        return ObjectTarget(prog, iprog, config, kUserTracedTextBase);
      }});
      tasks.push_back({w.name + "/" + ModeName(mode) + "/image", [&w, mode]() {
        EpoxieConfig config;
        config.mode = mode;
        TargetResult out;
        out.report = VerifyImage(BuildUserImage(w.name, w.source, config).exe);
        return out;
      }});
    }
  }

  std::vector<TargetReport> targets = RunTasks(tasks, jobs);

  // ---- Totals, wrlstats binding, JSON report ----
  VerifyReport total;
  for (const TargetReport& t : targets) {
    PrintTarget(t, quiet);
    total.Merge(t.result.report);
  }
  StatsRegistry registry;
  total.RegisterStats(registry);
  if (!quiet) {
    printf("\n%zu targets: %llu blocks, %llu instructions, %llu memory ops, "
           "%llu relocations — %llu errors, %llu warnings\n",
           targets.size(), static_cast<unsigned long long>(total.stats.blocks),
           static_cast<unsigned long long>(total.stats.instructions),
           static_cast<unsigned long long>(total.stats.mem_ops),
           static_cast<unsigned long long>(total.stats.relocations),
           static_cast<unsigned long long>(total.stats.errors),
           static_cast<unsigned long long>(total.stats.warnings));
  }
  if (!json_path.empty()) {
    WriteJsonReport(json_path, targets, registry);
  }
  return total.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("wrlverify", argc, argv, Run); }
