// The `whatif` workload: a closed loop with one client over archived
// captures.  Set-up runs the largest-trace workloads (gcc, compress,
// eqntott, sed under both personalities) through RunExperiment with the
// wrltrace/1 archive tee on.  The timed phase is a seeded sequence of
//   record  write a capture to a fresh archive (Append + Finalize, fsync), and
//   study   ArchiveReader -> ReplayEngine::Parse -> Run of one of the
//           Figure 3 what-if fan-out, the tlb_study sweep, or a
//           TraceProfiler pass; ArchiveReader::Verify runs after the op,
//           untimed, and a failure fails the op.
// The simulated machine does no work in the timed phase, so it isolates the
// codec, archive, parser, replay materialization and sinks.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "prof/prof.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"
#include "trace/trace_archive.h"

namespace perfbench {
namespace {

constexpr const char* kCaptureWorkloads[] = {"gcc", "compress", "eqntott", "sed"};
constexpr size_t kMinStudies = 100;
constexpr size_t kSpanRunRounds = 4;

enum class StudyKind { kFigure3, kSweep, kProfile };
constexpr StudyKind kStudyKinds[] = {StudyKind::kFigure3, StudyKind::kSweep,
                                     StudyKind::kProfile};

const char* KindName(StudyKind kind) {
  switch (kind) {
    case StudyKind::kFigure3:
      return "fig3";
    case StudyKind::kSweep:
      return "sweep";
    case StudyKind::kProfile:
      return "prof";
  }
  return "?";
}

// One captured traced run, with everything a study needs to analyse it.
struct Archived {
  std::string key;   // "ultrix/gcc"
  std::string path;  // The archive set-up wrote.
  Capture capture;   // Built systems plus the decoded chunks.
  wrl::ArchiveMeta meta;
  uint32_t file_crc = 0;
  uint64_t measured_cycles = 0;
  uint64_t traced_cycles = 0;  // Simulated cycles of the traced run.
  wrl::Prediction live;        // RunExperiment's live prediction.
};

struct WhatIfOp {
  bool record = false;
  size_t archived = 0;
  StudyKind kind = StudyKind::kFigure3;
};

// One round: every study kind of every archive plus one record of each, in
// a seeded order.  Runs are made of whole rounds, so every seed runs the
// same mix and only the order changes.
std::vector<WhatIfOp> Round(wrl::Rng& rng, size_t archives) {
  std::vector<WhatIfOp> round;
  for (size_t a = 0; a < archives; ++a) {
    round.push_back({true, a, StudyKind::kFigure3});
    for (StudyKind kind : kStudyKinds) {
      round.push_back({false, a, kind});
    }
  }
  for (size_t i = round.size() - 1; i > 0; --i) {
    std::swap(round[i], round[rng.Below(static_cast<uint32_t>(i + 1))]);
  }
  return round;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw wrl::Error("perfbench: cannot read '" + path + "'");
  }
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

uint32_t FileCrc(const std::string& path) {
  std::vector<uint8_t> bytes = ReadFile(path);
  return wrl::Crc32(bytes.data(), bytes.size());
}

std::vector<Archived> Setup(const Args& args, const std::vector<wrl::WorkloadSpec>& workloads) {
  std::vector<Archived> archives;
  for (const char* name : kCaptureWorkloads) {
    const wrl::WorkloadSpec* spec = nullptr;
    for (const wrl::WorkloadSpec& w : workloads) {
      spec = w.name == name ? &w : spec;
    }
    if (spec == nullptr) {
      throw wrl::Error(std::string("perfbench: no workload named ") + name);
    }
    for (wrl::Personality p : {wrl::Personality::kUltrix, wrl::Personality::kMach}) {
      Archived a;
      a.key = std::string(wrl::PersonalityName(p)) + "/" + name;
      a.path = args.workdir + "/capture-" + wrl::PersonalityName(p) + "-" + name + ".wrlt";
      wrl::ExperimentOptions options;
      options.personality = p;
      options.archive_path = a.path;
      options.archive_meta.emplace_back("scale", wrl::StrFormat("%.17g", args.scale));
      options.archive_meta.emplace_back("seed", std::to_string(args.seed));
      wrl::EventRecorder events;
      options.events = &events;
      wrl::ExperimentResult r = wrl::RunExperiment(*spec, options);
      if (r.parser_errors > 0 || r.DegeneratePrediction()) {
        throw wrl::Error("perfbench: capture of " + a.key + " is unusable");
      }
      for (const wrl::TimelineEvent& e : events.events()) {
        a.traced_cycles += e.name == "run.traced" ? e.cycle_dur : 0;
      }
      a.measured_cycles = r.measured_cycles;
      a.live = r.prediction;
      a.capture = BuildCapture(*spec, options, false);
      wrl::ArchiveReader reader(a.path);
      a.meta = reader.meta();
      for (size_t i = 0; i < reader.chunk_count(); ++i) {
        std::vector<uint32_t> chunk;
        reader.DecodeChunk(i, chunk);
        a.capture.words += chunk.size();
        a.capture.chunks.push_back(std::move(chunk));
      }
      a.file_crc = FileCrc(a.path);
      archives.push_back(std::move(a));
    }
  }
  return archives;
}

// Everything one op measured, for the metrics and the span-run comparison.
struct OpResult {
  std::string name;  // The op type: "record/ultrix/gcc", "fig3/mach/sed", ...
  bool ok = false;
  bool record = false;
  std::string digest;
  double wall_s = 0;
  uint64_t sim_cycles = 0;
  double pred_error_pct = NAN;  // Figure 3 studies only.
  uint64_t parsed_refs = 0;
  uint64_t delivered_refs = 0;  // Σ over configs.
  double compression = 0;
  std::map<std::string, uint64_t> config_refs;  // Refs per replay config.
};

// Runs one record op: the capture's chunks into a fresh archive.
OpResult Record(const Args& args, const Archived& a, uint64_t id, Spans& spans,
                Outcome& outcome) {
  OpResult r;
  r.record = true;
  const std::string path = args.workdir + "/record.wrlt";
  std::filesystem::remove(path);
  const std::string name = "record/" + a.key;
  r.name = name;
  wrl::EventRecorder* rec = spans.recorder();
  ++outcome.attempted;
  spans.BeginOp(id, "record " + a.key);
  std::string error;
  Clock::time_point t0 = Clock::now();
  try {
    wrl::ArchiveWriter writer(path, a.meta);
    {
      wrl::EventRecorder::Scope scope(rec, "trace.archive.append", "trace");
      for (const std::vector<uint32_t>& chunk : a.capture.chunks) {
        writer.Append(chunk);
      }
    }
    wrl::EventRecorder::Scope scope(rec, "trace.archive.finalize", "trace");
    writer.Finalize();
  } catch (const std::exception& e) {
    error = e.what();
  }
  r.wall_s = SecondsSince(t0);
  spans.EndOp();
  if (!error.empty()) {
    outcome.Fail(name, error, false);
    return r;
  }
  // The archive must be byte-identical to the one the harness wrote from
  // the same chunks and metadata.
  const uint32_t crc = FileCrc(path);
  r.digest = wrl::StrFormat("%08x", crc);
  if (crc != a.file_crc) {
    outcome.Fail(name, "archive bytes differ from the harness's capture", true);
    return r;
  }
  r.ok = true;
  r.sim_cycles = a.traced_cycles;
  return r;
}

std::unique_ptr<wrl::TraceDrivenSimulator> Simulator(const Archived& a,
                                                      const wrl::PredictorConfig& config) {
  auto sim = std::make_unique<wrl::TraceDrivenSimulator>(config);
  sim->AddTextImage(a.capture.measured->kernel_exe());
  sim->AddTextImage(a.capture.measured->workload_orig());
  return sim;
}

std::unique_ptr<wrl::TraceProfiler> Profiler(const Archived& a) {
  const Capture& c = a.capture;
  auto prof = std::make_unique<wrl::TraceProfiler>();
  prof->AddTable(wrl::kKernelPid, &c.traced->kernel_table());
  prof->AddTable(1, &c.traced->user_table());
  prof->AddSymbols(wrl::kKernelPid, c.traced->kernel_orig());
  prof->AddSymbols(1, c.measured->workload_orig());
  prof->SetSpaceName(1, c.workload->name);
  if (c.personality == wrl::Personality::kMach) {
    prof->AddTable(2, &c.traced->server_table());
    prof->AddSymbols(2, c.traced->server_orig());
    prof->SetSpaceName(2, "server");
  }
  return prof;
}

std::vector<wrl::ReplayEngine::Config> StudyConfigs(const Archived& a, StudyKind kind) {
  const wrl::PredictorConfig& base = a.capture.pconfig;
  std::vector<wrl::ReplayEngine::Config> configs;
  switch (kind) {
    case StudyKind::kFigure3: {
      wrl::PredictorConfig slowmem = base;
      slowmem.memsys.read_miss_penalty = 30;
      slowmem.memsys.uncached_penalty = 30;
      wrl::PredictorConfig wired16 = base;
      wired16.tlb_wired = 16;
      configs.push_back({"primary", [&a, base] { return Simulator(a, base); }});
      configs.push_back({"slowmem", [&a, slowmem] { return Simulator(a, slowmem); }});
      configs.push_back({"wired16", [&a, wired16] { return Simulator(a, wired16); }});
      configs.push_back({"tlb", [] { return std::make_unique<wrl::TlbSimulator>(); }});
      break;
    }
    case StudyKind::kSweep: {
      wrl::SweepConfig sweep = StudySweepConfig(base);
      configs.push_back({"tlb", [] { return std::make_unique<wrl::TlbSimulator>(); }});
      configs.push_back({"sweep", [sweep] { return std::make_unique<wrl::SweepEngine>(sweep); }});
      break;
    }
    case StudyKind::kProfile:
      configs.push_back({"profile", [&a] { return Profiler(a); }});
      break;
  }
  return configs;
}

void AddTlb(Digest& d, const wrl::TlbSimStats& s) {
  d.Add(s.user_refs);
  d.Add(s.utlb_misses);
  d.Add(s.ktlb_misses);
}

// Runs one study op.  `corrupt_path`, when set, replaces the archive.
OpResult Study(const Args& args, const References& refs, const Archived& a, StudyKind kind,
               const std::string& corrupt_path, bool check_sweep, uint64_t id, Spans& spans,
               Outcome& outcome) {
  OpResult r;
  const std::string name = std::string(KindName(kind)) + "/" + a.key;
  r.name = name;
  wrl::EventRecorder* rec = spans.recorder();
  ++outcome.attempted;
  spans.BeginOp(id, "study " + name);
  std::string error;
  Digest digest;
  wrl::Prediction primary;
  std::unique_ptr<wrl::ArchiveReader> reader;
  std::unique_ptr<wrl::ReplayEngine> engine;
  std::vector<wrl::ReplayEngine::Outcome> outcomes;
  Clock::time_point t0 = Clock::now();
  try {
    {
      wrl::EventRecorder::Scope scope(rec, "trace.archive.open", "trace");
      reader = std::make_unique<wrl::ArchiveReader>(corrupt_path.empty() ? a.path : corrupt_path);
    }
    if (reader->degraded()) {
      throw wrl::Error("archive is damaged: " + (reader->diagnostics().empty()
                                                     ? std::string("?")
                                                     : reader->diagnostics().front()));
    }
    engine = std::make_unique<wrl::ReplayEngine>(CaptureSource(a.capture, reader.get()));
    {
      wrl::EventRecorder::Scope scope(rec, "harness.replay.parse", "harness");
      engine->Parse();
    }
    wrl::ReplayEngine::Options options;
    options.events = rec;
    {
      wrl::EventRecorder::Scope scope(rec, "harness.replay.run", "harness");
      outcomes = engine->Run(StudyConfigs(a, kind), options);
    }
    switch (kind) {
      case StudyKind::kFigure3: {
        for (size_t i = 0; i < 3; ++i) {
          wrl::Prediction p =
              static_cast<wrl::TraceDrivenSimulator*>(outcomes[i].sink.get())->Finish();
          AddPrediction(digest, p);
          primary = i == 0 ? p : primary;
        }
        AddTlb(digest, static_cast<wrl::TlbSimulator*>(outcomes[3].sink.get())->stats());
        break;
      }
      case StudyKind::kSweep: {
        AddTlb(digest, static_cast<wrl::TlbSimulator*>(outcomes[0].sink.get())->stats());
        const wrl::SweepResult& s =
            static_cast<wrl::SweepEngine*>(outcomes[1].sink.get())->Finish();
        for (uint64_t v : s.tlb_lru_misses) {
          digest.Add(v);
        }
        digest.Add(s.tlb_cold_misses);
        for (const auto* family : {&s.icache, &s.dcache}) {
          for (const wrl::SweepCachePoint& point : *family) {
            digest.Add(static_cast<uint64_t>(point.size_bytes));
            digest.Add(point.misses);
          }
        }
        break;
      }
      case StudyKind::kProfile:
        digest.Add(static_cast<wrl::TraceProfiler*>(outcomes[0].sink.get())
                       ->Finish()
                       .CanonicalJson());
        break;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  r.wall_s = SecondsSince(t0);
  spans.EndOp();
  // The full check of every chunk runs outside the op: replay itself only
  // decodes (which checks each payload CRC) and tests degraded().
  std::vector<std::string> findings;
  if (error.empty() && !reader->Verify(&findings)) {
    error = "archive does not verify: " + (findings.empty() ? std::string("?") : findings.front());
  }
  if (!error.empty()) {
    outcome.Fail(name, error, false);
    return r;
  }

  r.digest = digest.Hex();
  r.parsed_refs = engine->refs().size();
  r.compression = reader->CompressionRatio();
  for (const wrl::ReplayEngine::Outcome& o : outcomes) {
    r.delivered_refs += o.refs;
    r.config_refs[o.name] += o.refs;
  }
  if (engine->parser_stats().validation_errors > 0) {
    outcome.Fail(name, "trace parser validation errors", true);
    return r;
  }
  if (kind == StudyKind::kFigure3) {
    // Replay of the archive against the live analysis of the same run.
    Digest replayed, live;
    AddPrediction(replayed, primary);
    AddPrediction(live, a.live);
    if (replayed.Hex() != live.Hex()) {
      outcome.Fail(name, "replayed primary prediction differs from the live one", true);
      return r;
    }
    if (primary.PredictedCycles() <= 0) {
      outcome.Fail(name, "degenerate prediction", true);
      return r;
    }
    r.pred_error_pct = 100.0 * std::fabs(primary.PredictedCycles() -
                                         static_cast<double>(a.measured_cycles)) /
                       static_cast<double>(a.measured_cycles);
  }
  if (!CheckDigest(args, refs, name, r.digest)) {
    outcome.Fail(name, "output digest " + r.digest + " differs from its reference", true);
    return r;
  }
  if (check_sweep && kind == StudyKind::kSweep) {
    std::string why;
    outcome.Check(SweepMatchesReplays(*engine, a.capture.pconfig,
                                      *static_cast<wrl::SweepEngine*>(outcomes[1].sink.get()),
                                      &why),
                  "sampled sweep of " + a.key + " vs dedicated replays: " + why);
  }
  r.ok = true;
  r.sim_cycles = a.traced_cycles;
  return r;
}

// A copy of an archive with one payload byte flipped (the self-test fault).
std::string CorruptCopy(const Args& args, const Archived& a) {
  std::vector<uint8_t> bytes = ReadFile(a.path);
  bytes[bytes.size() / 2] ^= 0x5a;
  const std::string path = args.workdir + "/corrupt.wrlt";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw wrl::Error("perfbench: cannot write '" + path + "'");
  }
  return path;
}

// Runs the ops.  With --inject corrupt-archive the first study reads a
// damaged copy of its archive; the first clean sweep study is checked
// against dedicated replays.
class OpRunner {
 public:
  OpRunner(const Args& args, const References& refs, const std::vector<Archived>& archives)
      : args_(args), refs_(refs), archives_(archives) {}

  OpResult Run(const WhatIfOp& op, uint64_t id, bool first_study, Spans& spans,
               Outcome& outcome) {
    const Archived& a = archives_[op.archived];
    if (op.record) {
      return Record(args_, a, id, spans, outcome);
    }
    const bool corrupt = first_study && args_.inject == "corrupt-archive";
    OpResult r = Study(args_, refs_, a, op.kind, corrupt ? CorruptCopy(args_, a) : "",
                       !sweep_checked_, id, spans, outcome);
    sweep_checked_ |= op.kind == StudyKind::kSweep && r.ok;
    return r;
  }

 private:
  const Args& args_;
  const References& refs_;
  const std::vector<Archived>& archives_;
  bool sweep_checked_ = false;
};

}  // namespace

Outcome RunWhatIfWorkload(const Args& args, const References& refs) {
  Outcome outcome;
  std::filesystem::create_directories(args.workdir);
  // Set-up: inputs plus the captures, several times; the median is reported
  // and the last set of archives is kept.  The generators' self-check runs
  // once, untimed.
  CheckInputClasses(args.scale);
  std::vector<double> setup_s;
  std::vector<wrl::WorkloadSpec> workloads;
  std::vector<Archived> archives;
  for (int i = 0; i < 3; ++i) {
    archives.clear();
    Clock::time_point t0 = Clock::now();
    workloads = SeededWorkloads(args.seed, args.scale);
    archives = Setup(args, workloads);
    setup_s.push_back(SecondsSince(t0));
  }
  PrintInputs(args.seed, args.scale, workloads);
  for (const Archived& a : archives) {
    std::printf("capture %s: %llu words in %zu chunk(s), %llu traced cycles, %llu measured\n",
                a.key.c_str(), static_cast<unsigned long long>(a.capture.words),
                a.capture.chunks.size(), static_cast<unsigned long long>(a.traced_cycles),
                static_cast<unsigned long long>(a.measured_cycles));
  }
  OpRunner runner(args, refs, archives);
  wrl::Rng rng(args.seed ^ 0x3a7f1c05ull);
  size_t studies = 0;
  // The span run times each op plain and inside spans back to back, in
  // alternating order, so warm-up and drift fall on both sides alike.
  Spans plain_spans(false);
  Spans spans(true);
  Outcome span_outcome;  // Op failures are counted once, by the plain runs.
  span_outcome.quiet = true;
  std::vector<OpResult> plain;
  std::vector<OpResult> traced;
  Clock::time_point t0 = Clock::now();
  for (size_t rounds = 0;; ++rounds) {
    if (args.emit_digests || args.trace
            ? rounds == (args.trace ? kSpanRunRounds : 1)
            : rounds > 0 && SecondsSince(t0) >= args.seconds && studies >= kMinStudies) {
      break;
    }
    for (const WhatIfOp& op : Round(rng, archives.size())) {
      const size_t i = plain.size();
      const bool first_study = !op.record && studies == 0;
      if (args.trace && i % 2 == 1) {
        traced.push_back(runner.Run(op, i, first_study, spans, span_outcome));
      }
      plain.push_back(runner.Run(op, i, first_study, plain_spans, outcome));
      if (args.trace && i % 2 == 0) {
        traced.push_back(runner.Run(op, i, first_study, spans, span_outcome));
      }
      studies += op.record ? 0 : 1;
    }
  }
  const double phase_s = SecondsSince(t0);

  std::vector<double> study_ms;
  std::vector<double> record_ms;
  std::vector<double> errors;
  double study_s = 0;
  double op_s = 0;
  uint64_t delivered = 0;
  uint64_t sim_cycles = 0;
  for (const OpResult& r : plain) {
    (r.record ? record_ms : study_ms).push_back(r.wall_s * 1e3);
    op_s += r.wall_s;
    sim_cycles += r.sim_cycles;
    if (!r.record) {
      study_s += r.wall_s;
      delivered += r.delivered_refs;
    }
    if (!std::isnan(r.pred_error_pct)) {
      errors.push_back(r.pred_error_pct);
    }
  }
  const double mean_error = Mean(errors);
  std::printf("whatif: %zu ops (%zu studies, %zu records) in %.2f s\n", plain.size(),
              study_ms.size(), record_ms.size(), phase_s);

  if (!args.trace) {
    const double error_rate =
        static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
    std::printf("  study_ms mean %.2f p50 %.2f p90 %.2f ms (n=%zu)\n", Mean(study_ms),
                Quantile(study_ms, 0.5), Quantile(study_ms, 0.9), study_ms.size());
    std::printf("  record_ms mean %.2f p50 %.2f p90 %.2f ms (n=%zu)\n", Mean(record_ms),
                Quantile(record_ms, 0.5), Quantile(record_ms, 0.9), record_ms.size());
    // Studies take about ten times as long as records, so a plain op mean
    // would hardly see the write path.  The geometric mean of the two
    // per-kind means weighs both alike: either kind 2x slower moves it 41%.
    const double op_ms_mean = std::sqrt(Mean(study_ms) * Mean(record_ms));
    std::printf("  op_ms.mean %.3f ms (geometric mean of the study and record means)\n",
                op_ms_mean);
    std::printf("  study_mrefs_per_s %.3f Mrefs/s\n",
                static_cast<double>(delivered) / study_s / 1e6);
    std::printf("  sim_mcycles_per_s %.3f Mcycles/s (traced cycles the ops archived or studied)\n",
                static_cast<double>(sim_cycles) / op_s / 1e6);
    std::printf("  pred_error_pct %.4f %% (mean |Figure 3 error| over %zu studies)\n", mean_error,
                errors.size());
    std::printf("  error_rate %.4f (%llu failed / %llu attempted)\n", error_rate,
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    outcome.Add("setup_s", Quantile(setup_s, 0.5), "s");
    outcome.Add("sim_mcycles_per_s", static_cast<double>(sim_cycles) / op_s / 1e6, "Mcycles/s");
    outcome.Add("op_ms.mean", op_ms_mean, "ms");
    outcome.Add("pred_error_pct", mean_error, "%");
    outcome.Add("success_pct", 100.0 * (1.0 - error_rate), "%");
    outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
    return outcome;
  }

  // ---- The span run ----
  double span_op_s = 0;
  for (size_t i = 0; i < plain.size(); ++i) {
    span_op_s += traced[i].wall_s;
    outcome.Check(traced[i].ok == plain[i].ok && traced[i].digest == plain[i].digest,
                  wrl::StrFormat("span run output of op %zu differs from the plain run's", i));
  }
  const double coverage_pct = spans.CoveragePct();
  IsolationCosts costs;
  for (size_t i = 0; i < archives.size(); ++i) {
    spans.BeginOp(plain.size() + i, "isolate " + archives[i].key, "isolate");
    IsolateLayers(archives[i].capture, true, spans, costs);
    spans.EndOp();
  }

  std::map<std::string, uint64_t> config_refs;
  uint64_t parsed_refs = 0;
  uint64_t max_parsed = 0;
  double compression = 0;
  size_t clean_studies = 0;
  for (const OpResult& r : traced) {
    for (const auto& [name, n] : r.config_refs) {
      config_refs[name] += n;
    }
    parsed_refs += r.parsed_refs;
    max_parsed = std::max(max_parsed, r.parsed_refs);
    if (!r.record && r.ok) {
      compression += r.compression;
      ++clean_studies;
    }
  }
  const std::map<std::string, Spans::Totals> totals = spans.Summarize();
  auto wall_us = [&totals](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? uint64_t{0} : it->second.wall_us;
  };
  auto mean_ms = [&totals](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() || it->second.calls == 0
               ? 0.0
               : static_cast<double>(it->second.wall_us) / 1e3 /
                     static_cast<double>(it->second.calls);
  };
  LayerValues layer;
  layer["trace.parse.ns_per_word"] = PerItemNs(costs.parse_us, costs.words);
  layer["trace.codec.encode.ns_per_word"] = PerItemNs(costs.encode_us, costs.words);
  layer["trace.archive.append_ms"] = mean_ms("trace.archive.append");
  layer["trace.archive.finalize_ms"] = mean_ms("trace.archive.finalize");
  layer["trace.codec.decode.ns_per_word"] = PerItemNs(costs.decode_us, costs.words);
  layer["trace.archive.open_ms"] = mean_ms("trace.archive.open");
  layer["trace.archive.compression"] =
      clean_studies == 0 ? 0 : compression / static_cast<double>(clean_studies);
  layer["harness.replay.parse.ns_per_ref"] =
      PerItemNs(wall_us("harness.replay.parse"), parsed_refs);
  layer["harness.replay.materialized_mb"] =
      static_cast<double>(max_parsed * sizeof(wrl::TraceRef)) / (1 << 20);
  layer["sim.predictor.ns_per_ref"] =
      PerItemNs(wall_us("replay:primary") + wall_us("replay:slowmem") + wall_us("replay:wired16"),
                config_refs["primary"] + config_refs["slowmem"] + config_refs["wired16"]);
  layer["sim.tlb.ns_per_ref"] = PerItemNs(wall_us("replay:tlb"), config_refs["tlb"]);
  layer["sweep.ns_per_ref"] = PerItemNs(wall_us("replay:sweep"), config_refs["sweep"]);
  layer["prof.ns_per_ref"] = PerItemNs(wall_us("replay:profile"), config_refs["profile"]);
  layer["bench.span_overhead_pct"] = 100.0 * (span_op_s - op_s) / op_s;
  layer["bench.span_coverage_pct"] = coverage_pct;
  PrintLayerTable(spans);
  const std::string path = wrl::StrFormat("%s/spans-whatif-seed%llu.json", args.workdir.c_str(),
                                          static_cast<unsigned long long>(args.seed));
  spans.WriteChromeTrace(path);
  std::printf("wrote spans to %s\n", path.c_str());
  outcome.metrics = LayerMetrics(layer);
  return outcome;
}

}  // namespace perfbench
