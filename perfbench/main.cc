// The end-to-end benchmark's entry point (METRICS.md has the metric table
// and why each workload was chosen):
//
//   perfbench --workload suite|stream|whatif --seed N --seconds S --trace 0|1
//             [--scale X] [--references FILE] [--workdir DIR]
//             [--inject throw|corrupt-archive] [--emit-digests]
//
// --trace 0 measures the end-to-end metrics with no spans; --trace 1 runs
// the same ops once plain and once inside the benchmark's spans, checks the
// simulated outputs are identical, and reports the per-layer metrics.  The
// last line of standard output is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "support/error.h"
#include "support/json.h"

namespace perfbench {

// ---- Digests ---------------------------------------------------------------

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& value) {
  Add(static_cast<uint64_t>(value.size()));
  for (unsigned char c : value) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void AddPrediction(Digest& digest, const wrl::Prediction& p) {
  for (uint64_t v : {p.instructions, p.idle_instructions, p.mem_stall_cycles,
                     p.arith_stall_cycles, p.utlb_misses, p.synthesized_refs,
                     p.memsys_stats.inst_fetches, p.memsys_stats.icache_misses,
                     p.memsys_stats.data_reads, p.memsys_stats.dcache_misses,
                     p.memsys_stats.data_writes, p.memsys_stats.wb_stall_cycles,
                     p.memsys_stats.uncached_reads, p.memsys_stats.uncached_writes,
                     p.user_instructions, p.kernel_instructions, p.user_stall_cycles,
                     p.kernel_stall_cycles}) {
    digest.Add(v);
  }
  digest.Add(p.io_stall_cycles);
}

std::string ExperimentDigest(const wrl::ExperimentResult& r) {
  Digest d;
  d.Add(r.workload);
  for (uint64_t v : {r.measured_cycles, r.measured_utlb, r.measured_idle_instructions,
                     r.measured_tlbdropins, r.measured_user_instructions,
                     static_cast<uint64_t>(r.exit_code), r.traced_machine_instructions,
                     r.trace_words, r.parser_errors, r.analysis_switches}) {
    d.Add(v);
  }
  AddPrediction(d, r.prediction);
  for (const auto& [name, value] : r.stats.values()) {
    if (name.rfind("trace.pipeline.", 0) == 0) {
      continue;  // Ring occupancy depends on thread scheduling.
    }
    d.Add(name);
    d.Add(static_cast<uint64_t>(value.kind));
    d.Add(value.counter);
    d.Add(value.gauge);
    for (uint64_t v : {value.hist_count, value.hist_sum, value.hist_min, value.hist_max}) {
      d.Add(v);
    }
    for (uint64_t v : value.hist_buckets) {
      d.Add(v);
    }
  }
  return d.Hex();
}

void References::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw wrl::Error("perfbench: cannot read references file '" + path + "'");
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload, seed, op, digest;
    if (!(fields >> workload >> seed >> op >> digest)) {
      throw wrl::Error("perfbench: malformed references line '" + line + "'");
    }
    digests_[workload + " " + seed + " " + op] = digest;
  }
}

const std::string* References::Find(const std::string& workload, uint64_t seed,
                                    const std::string& op) const {
  auto it = digests_.find(workload + " " + std::to_string(seed) + " " + op);
  return it == digests_.end() ? nullptr : &it->second;
}

bool CheckDigest(const Args& args, const References& refs, const std::string& op,
                 const std::string& digest) {
  if (args.emit_digests) {
    std::printf("digest %s %llu %s %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), op.c_str(), digest.c_str());
    return true;
  }
  if (args.scale != kDefaultScale) {
    return true;  // References exist only at the default scale.
  }
  const std::string* expected = refs.Find(args.workload, args.seed, op);
  return expected == nullptr || *expected == digest;
}

// ---- Spans -------------------------------------------------------------------

void Spans::BeginOp(uint64_t id, const std::string& name, const std::string& category) {
  if (enabled_) {
    op_windows_.emplace_back(id, recorder_.ElapsedUs());
    recorder_.Begin(name, category);
  }
}

void Spans::EndOp() {
  if (enabled_) {
    recorder_.End();
  }
}

void Spans::Absorb(wrl::EventRecorder& harness, uint64_t harness_epoch_us) {
  if (enabled_) {
    recorder_.Absorb(harness.TakeEvents(), harness_epoch_us,
                     static_cast<int>(recorder_.open_scopes()));
  }
}

std::vector<const wrl::TimelineEvent*> Spans::Sorted() const {
  std::vector<const wrl::TimelineEvent*> spans;
  for (const wrl::TimelineEvent& event : recorder_.events()) {
    if (!event.instant) {
      spans.push_back(&event);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const wrl::TimelineEvent* a, const wrl::TimelineEvent* b) {
              return a->wall_start_us != b->wall_start_us ? a->wall_start_us < b->wall_start_us
                                                          : a->depth < b->depth;
            });
  return spans;
}

uint64_t Spans::OpAt(uint64_t wall_us) const {
  // The op whose window opened last at or before `wall_us`.
  auto it = std::upper_bound(
      op_windows_.begin(), op_windows_.end(), wall_us,
      [](uint64_t t, const std::pair<uint64_t, uint64_t>& w) { return t < w.second; });
  return it == op_windows_.begin() ? 0 : std::prev(it)->first;
}

namespace {

// Wall time of spans[i] covered by its children: the spans one level down
// that start inside it, merged as a union (they overlap when a consumer
// thread ran beside the producer).
uint64_t CoveredUs(const std::vector<const wrl::TimelineEvent*>& spans, size_t i) {
  const wrl::TimelineEvent& parent = *spans[i];
  const uint64_t end = parent.wall_start_us + parent.wall_dur_us;
  uint64_t covered = 0;
  uint64_t cursor = parent.wall_start_us;
  for (size_t j = i + 1; j < spans.size() && spans[j]->wall_start_us <= end; ++j) {
    const wrl::TimelineEvent& child = *spans[j];
    if (child.depth != parent.depth + 1) {
      continue;
    }
    uint64_t lo = std::max(child.wall_start_us, cursor);
    uint64_t hi = std::min(child.wall_start_us + child.wall_dur_us, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return std::min(covered, parent.wall_dur_us);
}

}  // namespace

std::map<std::string, Spans::Totals> Spans::Summarize() const {
  std::map<std::string, Totals> totals;
  const std::vector<const wrl::TimelineEvent*> spans = Sorted();
  for (size_t i = 0; i < spans.size(); ++i) {
    Totals& t = totals[spans[i]->name];
    t.calls += 1;
    t.wall_us += spans[i]->wall_dur_us;
    t.self_us += spans[i]->wall_dur_us - CoveredUs(spans, i);
  }
  return totals;
}

double Spans::CoveragePct() const {
  const std::vector<const wrl::TimelineEvent*> spans = Sorted();
  uint64_t wall = 0;
  uint64_t covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i]->category == "op") {
      wall += spans[i]->wall_dur_us;
      covered += CoveredUs(spans, i);
    }
  }
  return wall == 0 ? 0 : 100.0 * static_cast<double>(covered) / static_cast<double>(wall);
}

void Spans::WriteChromeTrace(const std::string& path) const {
  std::vector<wrl::TimelineEvent> events = recorder_.events();
  for (wrl::TimelineEvent& event : events) {
    if (event.instant) {
      continue;
    }
    event.has_arg = true;
    event.arg_name = "op";
    event.arg = OpAt(event.wall_start_us);
  }
  wrl::JsonWriter writer;
  writer.BeginObject();
  writer.KV("displayTimeUnit", "ms");
  writer.Key("traceEvents").BeginArray();
  wrl::WriteChromeTraceEvents(writer, events);
  writer.EndArray();
  writer.EndObject();
  std::string json = writer.TakeString();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr || std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
      std::fclose(file) != 0) {
    throw wrl::Error("perfbench: cannot write spans to '" + path + "'");
  }
}

void PrintLayerTable(const Spans& spans) {
  // Harness experiment phases carry the workload in their name; fold them.
  std::map<std::string, Spans::Totals> folded;
  for (const auto& [name, t] : spans.Summarize()) {
    std::string key = name;
    for (const char* prefix : {"experiment:", "op ", "study ", "record ", "isolate "}) {
      if (name.rfind(prefix, 0) == 0) {
        key = std::string(prefix) + "*";
      }
    }
    Spans::Totals& f = folded[key];
    f.calls += t.calls;
    f.wall_us += t.wall_us;
    f.self_us += t.self_us;
  }
  std::printf("%-28s %8s %12s %12s\n", "span", "calls", "wall_ms", "self_ms");
  for (const auto& [name, t] : folded) {
    std::printf("%-28s %8llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), static_cast<double>(t.wall_us) / 1e3,
                static_cast<double>(t.self_us) / 1e3);
  }
}

// ---- Results -------------------------------------------------------------------

std::vector<Metric> LayerMetrics(const LayerValues& values) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"kernel.build.s", "s"},
      {"kernel.analysis_switches", "count"},
      {"kernel.drains", "count"},
      {"kernel.drain_words", "count"},
      {"mach.run.s", "s"},
      {"mach.run.ns_per_inst", "ns"},
      {"mach.traced_run.s", "s"},
      {"mach.traced_run.ns_per_inst", "ns"},
      {"trace.ring.producer_stalls", "count"},
      {"trace.ring.consumer_starves", "count"},
      {"trace.ring.max_occupancy", "count"},
      {"trace.parse.ns_per_word", "ns"},
      {"trace.codec.encode.ns_per_word", "ns"},
      {"trace.archive.append_ms", "ms"},
      {"trace.archive.finalize_ms", "ms"},
      {"trace.codec.decode.ns_per_word", "ns"},
      {"trace.archive.open_ms", "ms"},
      {"trace.archive.compression", "ratio"},
      {"harness.analysis_tail.s", "s"},
      {"harness.replay.parse.ns_per_ref", "ns"},
      {"harness.replay.materialized_mb", "MB"},
      {"sim.predictor.ns_per_ref", "ns"},
      {"sim.tlb.ns_per_ref", "ns"},
      {"sweep.ns_per_ref", "ns"},
      {"prof.ns_per_ref", "ns"},
      {"bench.span_overhead_pct", "%"},
      {"bench.span_coverage_pct", "%"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayers) {
    auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    (void)value;
    bool known = false;
    for (const auto& layer : kLayers) {
      known |= name == layer.first;
    }
    if (!known) {
      throw wrl::Error("perfbench: per-layer metric '" + name + "' is not in the table");
    }
  }
  return metrics;
}

double PerItemNs(uint64_t us, uint64_t items) {
  return items == 0 ? 0 : static_cast<double>(us) * 1e3 / static_cast<double>(items);
}


void Outcome::Fail(const std::string& op, const std::string& why, bool wrong_output) {
  ++failed;
  if (wrong_output) {
    correct = false;
  }
  if (!quiet) {
    std::printf("FAILED %s: %s\n", op.c_str(), why.c_str());
  }
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double TrimmedMean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(values.size()));
  return Mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(cut),
                                  values.end() - static_cast<std::ptrdiff_t>(cut)));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

namespace {

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--emit-digests") {
      args.emit_digests = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--scale") {
      args.scale = std::atof(value.c_str());
    } else if (flag == "--references") {
      args.references = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--inject") {
      args.inject = value;
    } else {
      return false;
    }
  }
  return (args.workload == "suite" || args.workload == "stream" || args.workload == "whatif") &&
         args.scale > 0 && args.seconds >= 0;
}

void PrintResult(const Outcome& outcome) {
  wrl::JsonWriter writer(0);
  writer.BeginObject();
  writer.KV("correct", outcome.correct);
  writer.KV("attempted", outcome.attempted);
  writer.KV("failed", outcome.failed);
  writer.Key("metrics").BeginObject();
  for (const Metric& m : outcome.metrics) {
    writer.Key(m.name).BeginObject();
    writer.KV("value", std::isfinite(m.value) ? m.value : 0.0);
    writer.KV("unit", m.unit);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  std::printf("%s\n", writer.TakeString().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload suite|stream|whatif --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--references FILE] [--workdir DIR] "
                 "[--inject throw|corrupt-archive] [--emit-digests]\n");
    return 2;
  }
  try {
    References refs;
    if (!args.references.empty()) {
      refs.Load(args.references);
    }
    Outcome outcome = args.workload == "whatif" ? RunWhatIfWorkload(args, refs)
                                                : RunExperimentWorkload(args, refs);
    std::fflush(stdout);
    PrintResult(outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
