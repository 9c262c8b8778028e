// Shared pieces of the end-to-end benchmark (see METRICS.md): arguments,
// seeded inputs, output digests, reference checking, the span recorder, and
// the result that main() prints.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "stats/events.h"
#include "sweep/sweep.h"
#include "trace/parser.h"
#include "workloads/workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The workload scale every default-seed reference digest was taken at.
constexpr double kDefaultScale = 0.1;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  double scale = kDefaultScale;
  std::string references;          // Default-seed digests (run.py passes it).
  std::string workdir = ".bench_run";
  // Fault injection for the self-tests: "throw" makes one `stream`
  // experiment throw; "corrupt-archive" hands one `whatif` study a damaged
  // archive.
  std::string inject;
  bool emit_digests = false;  // Print "digest ..." lines (reference making).
};

// ---- Inputs ----------------------------------------------------------------

// Throws wrl::Error when an input file of PaperWorkloads(scale) has no known
// byte class, or when the class table no longer reproduces the shipped bytes
// from the shipped seeds.  Run once, before SeededWorkloads is trusted.
void CheckInputClasses(double scale);
// PaperWorkloads(scale) with every input file regenerated from `seed` at the
// same length and byte class; seed 0 reproduces the shipped inputs.
std::vector<wrl::WorkloadSpec> SeededWorkloads(uint64_t seed, double scale);
// CRC-32 over a workload's input file contents.
uint32_t InputChecksum(const wrl::WorkloadSpec& workload);
// Prints the "inputs seed=... scale=... <workload>=<crc> ..." line.
void PrintInputs(uint64_t seed, double scale, const std::vector<wrl::WorkloadSpec>& workloads);

// ---- Output digests ----------------------------------------------------------

// FNV-1a over a canonical sequence of values.
class Digest {
 public:
  void Add(uint64_t value);
  void Add(double value);
  void Add(const std::string& value);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void AddPrediction(Digest& digest, const wrl::Prediction& prediction);
// Every simulated counter of an experiment except the scheduling-dependent
// trace.pipeline.* ones, plus the result fields the tables print.
std::string ExperimentDigest(const wrl::ExperimentResult& result);

// Per-op digests the benchmark stores for its default seeds, keyed by
// (workload, seed, op).  Other seeds and scales have no references; their
// ops are checked against seed-free invariants only.
class References {
 public:
  void Load(const std::string& path);
  // Null when no reference exists for the op.
  const std::string* Find(const std::string& workload, uint64_t seed,
                          const std::string& op) const;

 private:
  std::map<std::string, std::string> digests_;
};

// ---- Spans -------------------------------------------------------------------

// The benchmark's own spans around each call into a layer, recorded with
// wrl::EventRecorder; null-tolerant so the plain run pays nothing.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  wrl::EventRecorder* recorder() { return enabled_ ? &recorder_ : nullptr; }
  // Opens an op span; every span recorded until EndOp() belongs to op `id`.
  // Only category "op" spans count as op wall for CoveragePct().
  void BeginOp(uint64_t id, const std::string& name, const std::string& category = "op");
  void EndOp();
  // Folds a harness recorder's completed phases in under the open spans.
  void Absorb(wrl::EventRecorder& harness, uint64_t harness_epoch_us);

  // Total wall and self time (wall minus the union of child spans) per span
  // name, in microseconds.
  struct Totals {
    uint64_t calls = 0;
    uint64_t wall_us = 0;
    uint64_t self_us = 0;
  };
  std::map<std::string, Totals> Summarize() const;
  // Σ over op spans of (wall − own self time) / Σ op wall, in percent.
  double CoveragePct() const;
  // Writes {"traceEvents": [...]} with each span's op id as its argument.
  void WriteChromeTrace(const std::string& path) const;

 private:
  // Completed (non-instant) spans ordered by start, outer before inner.
  std::vector<const wrl::TimelineEvent*> Sorted() const;
  uint64_t OpAt(uint64_t wall_us) const;

  bool enabled_;
  wrl::EventRecorder recorder_;
  std::vector<std::pair<uint64_t, uint64_t>> op_windows_;  // (op id, start us).
};

// The per-layer table of a span run: calls, wall and self time per span.
void PrintLayerTable(const Spans& spans);

// ---- Results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  bool quiet = false;  // Do not print failures (the span run's second copy).
  std::vector<Metric> metrics;  // End-to-end (plain run) or per-layer (span run).

  // An op that failed: RunExperiment threw, the parser reported errors, the
  // prediction was degenerate, an archive failed to verify, or the output
  // digest differed from its reference.  Digest and invariant violations
  // also make the run incorrect.
  void Fail(const std::string& op, const std::string& why, bool wrong_output);
  // A correctness check outside any op (span run vs plain run, sweep vs
  // dedicated replay, isolation pass vs live analysis).
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Checks an op's digest against the default-seed reference (or, with
// --emit-digests, prints it).  Returns false on a mismatch.
bool CheckDigest(const Args& args, const References& refs, const std::string& op,
                 const std::string& digest);

// Per-layer metric values by name; LayerMetrics emits every per-layer
// metric of BENCHMARK.json in a fixed order, 0 for a layer the workload does
// not exercise.
using LayerValues = std::map<std::string, double>;
std::vector<Metric> LayerMetrics(const LayerValues& values);
// Nanoseconds per item of `us` microseconds (0 when there are no items).
double PerItemNs(uint64_t us, uint64_t items);

// Median and other quantiles of a sample (linear interpolation).
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);  // 0 for an empty sample.
// Mean of the sample without its lowest and highest `trim` shares.
double TrimmedMean(std::vector<double> values, double trim);
double PeakRssMb();

// ---- Workloads -------------------------------------------------------------------

// `suite` (Table 2 as shipped) and `stream` (small in-kernel buffer).
Outcome RunExperimentWorkload(const Args& args, const References& refs);
// `whatif`: archived what-if studies over captured traces.
Outcome RunWhatIfWorkload(const Args& args, const References& refs);

// ---- Layer isolation and sweep checks (layers.cc) ----------------------------------

// One capture of a traced run plus the systems needed to analyse it: the
// measured instance supplies the page map and original binaries, the
// traced one the instrumentation tables.
struct Capture {
  const wrl::WorkloadSpec* workload = nullptr;
  wrl::Personality personality = wrl::Personality::kUltrix;
  std::unique_ptr<wrl::SystemInstance> measured;  // Built, not run.
  std::unique_ptr<wrl::SystemInstance> traced;
  wrl::PredictorConfig pconfig;
  std::vector<std::vector<uint32_t>> chunks;  // The drained trace.
  uint64_t words = 0;
};

// Builds both systems the way RunExperiment does for `options`; with `run`
// also runs the traced one, keeping every drained chunk.
Capture BuildCapture(const wrl::WorkloadSpec& workload, const wrl::ExperimentOptions& options,
                     bool run);
wrl::ReplaySource CaptureSource(const Capture& capture, const wrl::TraceChunkSource* log);

// Per-reference layer costs measured in isolation over a capture.
struct IsolationCosts {
  uint64_t words = 0;
  uint64_t refs = 0;
  uint64_t parse_us = 0;
  uint64_t predictor_us = 0;
  uint64_t tlb_us = 0;
  uint64_t encode_us = 0;
  uint64_t decode_us = 0;
};

// Feeds the capture through TraceParser::Feed, TraceDrivenSimulator::
// OnRefBatch and TlbSimulator::OnRefBatch (and, with `codec`, the chunk
// codec), each inside its own span.  Returns the isolated prediction.
wrl::Prediction IsolateLayers(const Capture& capture, bool codec, Spans& spans,
                              IsolationCosts& costs);

// The one-pass sweep of the tlb_study analysis (TLB curve to 256 entries,
// I/D cache families 4K–512K) over the capture's page map and geometry.
wrl::SweepConfig StudySweepConfig(const wrl::PredictorConfig& pconfig);
// Replays one dedicated TraceDrivenSimulator per family point and checks
// its I- and D-cache misses against the sweep's (as tlb_study --check does).
bool SweepMatchesReplays(wrl::ReplayEngine& engine, const wrl::PredictorConfig& pconfig,
                         wrl::SweepEngine& sweep, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
