// Layer isolation: captured copies of the traced runs, fed through one
// layer at a time inside the benchmark's spans, and the sampled sweep check.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "kernel/system_build.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/error.h"
#include "support/strings.h"
#include "trace/chunk_codec.h"

namespace perfbench {
namespace {

// Discards references: the parse is timed without any consumer behind it.
class NullSink : public wrl::RefBatchSink {
 public:
  void OnRefBatch(const wrl::TraceRef*, size_t) override {}
};

class CollectSink : public wrl::RefBatchSink {
 public:
  void OnRefBatch(const wrl::TraceRef* refs, size_t count) override {
    refs_.insert(refs_.end(), refs, refs + count);
  }
  const std::vector<wrl::TraceRef>& refs() const { return refs_; }

 private:
  std::vector<wrl::TraceRef> refs_;
};

std::unique_ptr<wrl::TraceParser> MakeParser(const Capture& capture) {
  auto parser = std::make_unique<wrl::TraceParser>(&capture.traced->kernel_table());
  parser->SetUserTable(1, &capture.traced->user_table());
  if (capture.personality == wrl::Personality::kMach) {
    parser->SetUserTable(2, &capture.traced->server_table());
  }
  parser->SetInitialContext(wrl::kKernelPid);
  return parser;
}

uint64_t UsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
}

template <typename Sink>
void DeliverBatches(const std::vector<wrl::TraceRef>& refs, Sink& sink) {
  for (size_t off = 0; off < refs.size(); off += wrl::kRefBatchCapacity) {
    sink.OnRefBatch(refs.data() + off, std::min(wrl::kRefBatchCapacity, refs.size() - off));
  }
}

// The SystemConfig RunExperiment builds for `options` (MakeConfig in
// src/harness/experiment.cc, which is internal to the harness).
wrl::SystemConfig HarnessConfig(const wrl::WorkloadSpec& workload,
                                const wrl::ExperimentOptions& options, bool tracing) {
  wrl::SystemConfig config;
  config.personality = options.personality;
  config.tracing = tracing;
  config.clock_period = tracing
                            ? options.clock_period * static_cast<uint32_t>(options.dilation)
                            : options.clock_period;
  config.program_source = workload.source;
  config.program_name = workload.name;
  config.files = workload.files;
  config.trace_buf_bytes = options.trace_buf_bytes;
  config.scavenge = options.scavenge;
  if (options.personality == wrl::Personality::kMach) {
    config.policy = wrl::PagePolicy::kScrambled;
    config.policy_mult = 9;
  }
  return config;
}

}  // namespace

Capture BuildCapture(const wrl::WorkloadSpec& workload, const wrl::ExperimentOptions& options,
                     bool run) {
  Capture capture;
  capture.workload = &workload;
  capture.personality = options.personality;
  capture.measured = wrl::BuildSystem(HarnessConfig(workload, options, false));
  capture.traced = wrl::BuildSystem(HarnessConfig(workload, options, true));
  capture.pconfig.dilation = options.dilation;
  // The page-map draws RunExperiment makes: the measured map under the
  // deterministic policy, a different permutation under Mach's.
  capture.pconfig.page_map = options.personality == wrl::Personality::kMach
                                 ? capture.measured->PageMap(13)
                                 : capture.measured->PageMap();
  if (run) {
    capture.traced->SetTraceSink([&capture](const uint32_t* words, size_t count) {
      capture.chunks.emplace_back(words, words + count);
      capture.words += count;
    });
    wrl::RunResult result = capture.traced->Run(options.max_instructions);
    capture.traced->SetTraceSink(nullptr);
    if (!result.halted) {
      throw wrl::Error("perfbench: traced capture of '" + workload.name + "' did not halt");
    }
  }
  return capture;
}

wrl::ReplaySource CaptureSource(const Capture& capture, const wrl::TraceChunkSource* log) {
  wrl::ReplaySource source;
  source.log = log;
  source.kernel_table = &capture.traced->kernel_table();
  source.user_tables.emplace_back(1, &capture.traced->user_table());
  if (capture.personality == wrl::Personality::kMach) {
    source.user_tables.emplace_back(2, &capture.traced->server_table());
  }
  return source;
}

wrl::Prediction IsolateLayers(const Capture& capture, bool codec, Spans& spans,
                              IsolationCosts& costs) {
  wrl::EventRecorder* rec = spans.recorder();
  costs.words += capture.words;
  {
    auto parser = MakeParser(capture);
    NullSink sink;
    parser->SetBatchSink(&sink);
    Clock::time_point t0 = Clock::now();
    wrl::EventRecorder::Scope scope(rec, "trace.parse", "trace");
    for (const std::vector<uint32_t>& chunk : capture.chunks) {
      parser->Feed(chunk);
    }
    parser->Finish();
    costs.parse_us += UsSince(t0);
  }
  // An untimed second parse materializes the stream the sinks are fed.
  auto parser = MakeParser(capture);
  CollectSink collected;
  parser->SetBatchSink(&collected);
  for (const std::vector<uint32_t>& chunk : capture.chunks) {
    parser->Feed(chunk);
  }
  parser->Finish();
  const std::vector<wrl::TraceRef>& refs = collected.refs();
  costs.refs += refs.size();

  wrl::TraceDrivenSimulator simulator(capture.pconfig);
  simulator.AddTextImage(capture.measured->kernel_exe());
  simulator.AddTextImage(capture.measured->workload_orig());
  {
    Clock::time_point t0 = Clock::now();
    wrl::EventRecorder::Scope scope(rec, "sim.predictor", "sim");
    DeliverBatches(refs, simulator);
    costs.predictor_us += UsSince(t0);
  }
  {
    wrl::TlbSimulator tlb;
    Clock::time_point t0 = Clock::now();
    wrl::EventRecorder::Scope scope(rec, "sim.tlb", "sim");
    DeliverBatches(refs, tlb);
    costs.tlb_us += UsSince(t0);
  }
  if (codec) {
    std::vector<std::vector<uint8_t>> coded(capture.chunks.size());
    {
      Clock::time_point t0 = Clock::now();
      wrl::EventRecorder::Scope scope(rec, "trace.codec.encode", "trace");
      for (size_t i = 0; i < capture.chunks.size(); ++i) {
        wrl::codec::EncodeChunk(capture.chunks[i].data(), capture.chunks[i].size(), coded[i]);
      }
      costs.encode_us += UsSince(t0);
    }
    std::vector<uint32_t> words;
    bool lossless = true;
    {
      Clock::time_point t0 = Clock::now();
      wrl::EventRecorder::Scope scope(rec, "trace.codec.decode", "trace");
      for (size_t i = 0; i < coded.size(); ++i) {
        words.clear();
        lossless &= wrl::codec::DecodeChunkBounded(coded[i].data(), coded[i].size(),
                                                   capture.chunks[i].size(), words) &&
                    words == capture.chunks[i];
      }
      costs.decode_us += UsSince(t0);
    }
    if (!lossless) {
      throw wrl::Error("perfbench: chunk codec round trip of '" + capture.workload->name +
                       "' is not lossless");
    }
  }
  return simulator.Finish();
}

wrl::SweepConfig StudySweepConfig(const wrl::PredictorConfig& pconfig) {
  wrl::SweepConfig config;
  config.base = pconfig.memsys;
  config.page_map = pconfig.page_map;
  config.tlb_wired = pconfig.tlb_wired;
  config.tlb_max_entries = 256;
  config.icache.push_back({pconfig.memsys.icache.line_bytes, 4 * 1024, 512 * 1024});
  config.dcache.push_back({pconfig.memsys.dcache.line_bytes, 4 * 1024, 512 * 1024});
  return config;
}

bool SweepMatchesReplays(wrl::ReplayEngine& engine, const wrl::PredictorConfig& pconfig,
                         wrl::SweepEngine& sweep, std::string* why) {
  const wrl::SweepResult& result = sweep.Finish();
  // I- and D-caches are independent, so one replay per family size checks
  // both points of that size.
  std::vector<wrl::ReplayEngine::Config> configs;
  for (size_t i = 0; i < result.icache.size(); ++i) {
    wrl::PredictorConfig pc = pconfig;
    pc.memsys.icache.size_bytes = result.icache[i].size_bytes;
    pc.memsys.dcache.size_bytes = result.dcache[i].size_bytes;
    configs.push_back({"check" + std::to_string(result.icache[i].size_bytes),
                       [pc] { return std::make_unique<wrl::TraceDrivenSimulator>(pc); }});
  }
  std::vector<wrl::ReplayEngine::Outcome> outcomes = engine.Run(configs);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    auto* sim = static_cast<wrl::TraceDrivenSimulator*>(outcomes[i].sink.get());
    wrl::Prediction p = sim->Finish();
    if (p.memsys_stats.icache_misses != result.icache[i].misses ||
        p.memsys_stats.dcache_misses != result.dcache[i].misses) {
      *why = wrl::StrFormat(
          "%uK: sweep i=%llu d=%llu, replay i=%llu d=%llu", result.icache[i].size_bytes / 1024,
          static_cast<unsigned long long>(result.icache[i].misses),
          static_cast<unsigned long long>(result.dcache[i].misses),
          static_cast<unsigned long long>(p.memsys_stats.icache_misses),
          static_cast<unsigned long long>(p.memsys_stats.dcache_misses));
      return false;
    }
  }
  return !outcomes.empty();
}

}  // namespace perfbench
