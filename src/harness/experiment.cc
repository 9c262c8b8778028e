#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "kernel/kernel_config.h"
#include "support/error.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "trace/abi.h"
#include "trace/parser.h"

namespace wrl {
namespace {

uint64_t WallNowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// A variant the sweep engine can price exactly: only the (power-of-two)
// cache geometry differs from the primary configuration.  Anything that
// perturbs the reference stream or the non-cache timing — TLB wiring,
// page-map draws, miss penalties, write-buffer shape — needs a real replay.
bool GeometryOnly(const ReplayVariant& v, const PredictorConfig& primary) {
  const MemSysConfig& base = primary.memsys;
  return v.tlb_wired == primary.tlb_wired && v.page_map_mult == 0 &&
         v.memsys.read_miss_penalty == base.read_miss_penalty &&
         v.memsys.uncached_penalty == base.uncached_penalty &&
         v.memsys.wb_depth == base.wb_depth &&
         v.memsys.wb_cycles_per_entry == base.wb_cycles_per_entry &&
         IsPow2(v.memsys.icache.line_bytes) && IsPow2(v.memsys.icache.size_bytes) &&
         IsPow2(v.memsys.dcache.line_bytes) && IsPow2(v.memsys.dcache.size_bytes) &&
         v.memsys.icache.size_bytes >= v.memsys.icache.line_bytes &&
         v.memsys.dcache.size_bytes >= v.memsys.dcache.line_bytes;
}

// Extends `families` so the family at `line` covers `size` (the forest
// prices every power-of-two size in the range anyway).
void CoverFamilyPoint(std::vector<CacheFamilySpec>& families, uint32_t line, uint32_t size) {
  for (CacheFamilySpec& family : families) {
    if (family.line_bytes == line) {
      family.min_size_bytes = std::min(family.min_size_bytes, size);
      family.max_size_bytes = std::max(family.max_size_bytes, size);
      return;
    }
  }
  families.push_back({line, size, size});
}

// How often the progress heartbeat prints.
constexpr auto kProgressInterval = std::chrono::milliseconds(2000);

// Live progress heartbeat (stderr only, so reports are untouched): a
// monitor thread prints workloads done, aggregate parse throughput, the
// suite-so-far sim.mips, and a naive ETA every interval.  Workers feed it
// through atomics; enabled by ExperimentOptions::progress.
class ProgressMeter {
 public:
  ProgressMeter(bool enabled, size_t total)
      : total_(total), enabled_(enabled && total > 0) {
    if (!enabled_) {
      return;
    }
    start_us_ = WallNowUs();
    monitor_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        cv_.wait_for(lock, kProgressInterval);
        if (stop_) {
          break;
        }
        Emit();
      }
    });
  }

  ~ProgressMeter() {
    if (!monitor_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    monitor_.join();
    Emit();  // Final line, so even sub-interval suites report once.
  }

  void OnDone(const ExperimentResult& result) {
    if (!enabled_) {
      return;
    }
    done_.fetch_add(1);
    if (result.stats.Has("parser.refs")) {
      refs_.fetch_add(result.stats.CounterValue("parser.refs"));
    }
    sim_insts_.fetch_add(result.simulated_instructions);
    run_wall_us_.fetch_add(result.run_wall_us);
    if (result.sweep_ran) {
      // Sweep passes are reported on their own — one pass prices many
      // family points, so folding them into the replay/ref totals would
      // misstate both.
      sweep_passes_.fetch_add(1);
      sweep_points_.fetch_add(result.sweep.family_points);
      sweep_point_refs_.fetch_add(result.sweep.family_points * result.sweep.refs);
      sweep_wall_us_.fetch_add(result.sweep.wall_us);
    }
  }

 private:
  void Emit() const {
    uint64_t done = done_.load();
    uint64_t elapsed_us = WallNowUs() - start_us_;
    double elapsed_s = static_cast<double>(elapsed_us) * 1e-6;
    double mrefs =
        elapsed_s > 0 ? static_cast<double>(refs_.load()) / elapsed_s / 1e6 : 0.0;
    uint64_t wall = run_wall_us_.load();
    double mips =
        wall > 0 ? static_cast<double>(sim_insts_.load()) / static_cast<double>(wall) : 0.0;
    char eta[32];
    if (done == 0 || done >= total_) {
      std::snprintf(eta, sizeof eta, "--");
    } else {
      double eta_s = elapsed_s * static_cast<double>(total_ - done) / static_cast<double>(done);
      std::snprintf(eta, sizeof eta, "%.0fs", eta_s);
    }
    char sweep[64];
    uint64_t passes = sweep_passes_.load();
    if (passes == 0) {
      sweep[0] = '\0';
    } else {
      // Per-family-point throughput: the equivalent replay rate the sweep
      // passes delivered (points × refs per second of sweep wall time).
      uint64_t sweep_wall = sweep_wall_us_.load();
      double point_mrefs =
          sweep_wall > 0
              ? static_cast<double>(sweep_point_refs_.load()) / static_cast<double>(sweep_wall)
              : 0.0;
      std::snprintf(sweep, sizeof sweep, " | sweep %llu pass(es), %llu pts @ %.0f Mrefs/s",
                    static_cast<unsigned long long>(passes),
                    static_cast<unsigned long long>(sweep_points_.load()), point_mrefs);
    }
    std::fprintf(stderr, "[wrl] %llu/%zu workloads | %.1f Mrefs/s | sim %.1f mips%s | eta %s\n",
                 static_cast<unsigned long long>(done), total_, mrefs, mips, sweep, eta);
  }

  size_t total_;
  bool enabled_ = false;
  uint64_t start_us_ = 0;
  std::atomic<uint64_t> done_{0};
  std::atomic<uint64_t> refs_{0};
  std::atomic<uint64_t> sim_insts_{0};
  std::atomic<uint64_t> run_wall_us_{0};
  std::atomic<uint64_t> sweep_passes_{0};
  std::atomic<uint64_t> sweep_points_{0};
  std::atomic<uint64_t> sweep_point_refs_{0};
  std::atomic<uint64_t> sweep_wall_us_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread monitor_;
};

// ---- The measured run ----
// The uninstrumented system with the hardware timer, built and run to halt
// on the calling thread; fills the measured-side fields of `result`
// (run_wall_us starts at its run time).  The traced side reads its build
// outputs (page layouts, original binaries), so it lives for the whole
// experiment.
std::unique_ptr<SystemInstance> RunMeasured(const WorkloadSpec& workload,
                                            const ExperimentOptions& options,
                                            EventRecorder* events, ExperimentResult& result) {
  std::unique_ptr<SystemInstance> system;
  {
    EventRecorder::Scope scope(events, "build.measured", "build");
    system = BuildSystem(MakeConfig(workload, options, false, events));
  }
  auto [idle_lo, idle_hi] = system->IdleRange();
  system->machine().SetIdleRange(idle_lo, idle_hi);

  events->SetCycleSource([machine = &system->machine()] { return machine->cycles(); });
  RunResult run;
  uint64_t wall0 = WallNowUs();
  {
    EventRecorder::Scope scope(events, "run.measured", "run");
    run = system->Run(options.max_instructions);
  }
  result.run_wall_us = WallNowUs() - wall0;
  if (!run.halted) {
    throw Error(StrFormat("measured run of '%s' did not halt (pc=0x%08x)", workload.name.c_str(),
                          system->machine().pc()));
  }
  result.measured_cycles = system->ProcessCycles(1);
  result.measured_utlb = system->UtlbMissCount();
  result.measured_idle_instructions = system->machine().idle_instructions();
  result.measured_tlbdropins = system->TlbDropins();
  result.measured_user_instructions = system->machine().user_instructions();
  result.exit_code = system->ProcessExitCode(1);
  return system;
}

// ---- The analysis ----
// One parser feeding one TeeBatchSink over every sink the options ask for:
// the primary simulator, the profiler and the sweep engine when enabled,
// and one dedicated simulator per variant the sweep cannot price.  The
// traced run feeds it each drain as it arrives.
class Analysis {
 public:
  Analysis(const ExperimentOptions& options, const SystemInstance& measured,
           const SystemInstance& traced);
  // The parser holds the tee's address and the drain chain holds this one.
  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;

  void SetEventRecorder(EventRecorder* events) { parser_.SetEventRecorder(events); }
  void Feed(const uint32_t* words, size_t count) { parser_.Feed(words, count); }
  // Ends the stream and harvests every sink into `result`, variants in the
  // caller's order.
  void Finish(ExperimentResult& result);
  void RegisterStats(StatsRegistry& registry);

 private:
  const ExperimentOptions& options_;
  TraceParser parser_;
  std::unique_ptr<TraceDrivenSimulator> simulator_;
  std::unique_ptr<TraceProfiler> profiler_;
  std::unique_ptr<SweepEngine> sweep_;
  // One entry per ReplayVariant: its dedicated simulator, or null when the
  // sweep engine prices it.
  std::vector<std::unique_ptr<TraceDrivenSimulator>> variants_;
  std::unique_ptr<TeeBatchSink> tee_;
};

Analysis::Analysis(const ExperimentOptions& options, const SystemInstance& measured,
                   const SystemInstance& traced)
    : options_(options), parser_(traced.MakeParser()) {
  const PredictorConfig pconfig = PrimaryConfig(options, measured);
  simulator_ = MakeSimulator(pconfig, measured);
  std::vector<RefBatchSink*> sinks{simulator_.get()};
  if (options.profile) {
    profiler_ = MakeProfiler(options.profile_options, traced);
    sinks.push_back(profiler_.get());
  }

  // With the sweep active, geometry-only variants are priced by the
  // single-pass sweep engine, its families widened to cover every absorbed
  // geometry (its construction rejects non-power-of-two family specs with
  // a diagnostic naming the offending size).  Every other variant gets a
  // dedicated simulator.
  const bool sweep_active = options.sweep.Active();
  SweepConfig sweep_config;
  sweep_config.base = pconfig.memsys;
  sweep_config.page_map = pconfig.page_map;
  sweep_config.tlb_wired = pconfig.tlb_wired;
  sweep_config.icache = options.sweep.icache;
  sweep_config.dcache = options.sweep.dcache;
  sweep_config.tlb_max_entries = options.sweep.tlb_max_entries;
  for (const ReplayVariant& v : options.replay_variants) {
    if (sweep_active && GeometryOnly(v, pconfig)) {
      CoverFamilyPoint(sweep_config.icache, v.memsys.icache.line_bytes,
                       v.memsys.icache.size_bytes);
      CoverFamilyPoint(sweep_config.dcache, v.memsys.dcache.line_bytes,
                       v.memsys.dcache.size_bytes);
      variants_.push_back(nullptr);
      continue;
    }
    PredictorConfig vconfig = pconfig;
    vconfig.memsys = v.memsys;
    vconfig.tlb_wired = v.tlb_wired;
    if (v.page_map_mult != 0) {
      vconfig.page_map = measured.PageMap(v.page_map_mult);
    }
    variants_.push_back(MakeSimulator(vconfig, measured));
  }
  if (sweep_active) {
    sweep_ = std::make_unique<SweepEngine>(sweep_config);
    sinks.push_back(sweep_.get());
  }
  for (const std::unique_ptr<TraceDrivenSimulator>& variant : variants_) {
    if (variant != nullptr) {
      sinks.push_back(variant.get());
    }
  }
  tee_ = std::make_unique<TeeBatchSink>(std::move(sinks));
  parser_.SetBatchSink(tee_.get());
}

void Analysis::Finish(ExperimentResult& result) {
  parser_.Finish();
  result.parser_errors = parser_.stats().validation_errors;
  if (profiler_ != nullptr) {
    result.profile = profiler_->Finish();
  }
  result.prediction = simulator_->Finish();
  if (sweep_ != nullptr) {
    result.sweep = sweep_->Finish();
    result.sweep_ran = true;
  }
  // Host time per sink, from the tee's per-batch timings.  The sweep
  // engine is priced per family point; every other sink counts toward the
  // replay throughput.
  uint64_t wall_us = 0;
  uint64_t sinks = 0;
  for (const RefBatchSink* sink : tee_->sinks()) {
    if (sink != sweep_.get()) {
      wall_us += tee_->wall_us(sink);
      ++sinks;
    }
  }
  const double refs = static_cast<double>(tee_->refs());
  result.replay_mrefs_per_sec =
      wall_us > 0 ? refs * static_cast<double>(sinks) / static_cast<double>(wall_us) : 0.0;
  if (sweep_ != nullptr) {
    result.sweep.wall_us = tee_->wall_us(sweep_.get());
    if (result.sweep.wall_us > 0) {
      // Equivalent-replay throughput: one pass priced `family_points`
      // configurations of `refs` references each.
      result.sweep_mrefs_per_sec = static_cast<double>(result.sweep.family_points) *
                                   static_cast<double>(result.sweep.refs) /
                                   static_cast<double>(result.sweep.wall_us);
    }
  }
  for (size_t i = 0; i < variants_.size(); ++i) {
    const ReplayVariant& v = options_.replay_variants[i];
    ReplayVariantResult vr;
    vr.name = v.name;
    if (variants_[i] == nullptr) {
      // Exact miss counts from the shared sweep pass, derived timing.
      vr.prediction = sweep_->DerivePrediction(result.prediction, v.memsys);
      vr.tlb = sweep_->tlb_stats();
      vr.refs = result.sweep.refs;
      vr.swept = true;
    } else {
      vr.prediction = variants_[i]->Finish();
      vr.tlb = variants_[i]->tlb().stats();
      vr.refs = tee_->refs();
      vr.wall_us = tee_->wall_us(variants_[i].get());
    }
    result.replays.push_back(std::move(vr));
  }
}

void Analysis::RegisterStats(StatsRegistry& registry) {
  parser_.RegisterStats(registry, "parser.");
  simulator_->RegisterStats(registry, "predicted.");
  if (sweep_ != nullptr) {
    sweep_->RegisterStats(registry, "sweep.");
  }
}

// ---- The traced run ----
// Its drain chain: [pipeline] → [archive tee] → the analysis feed.
// Synchronously the chain runs inside each drain; pipelined it runs on a
// consumer thread while the machine simulates ahead.  Either way it sees
// the identical chunk sequence and boundaries, so every output is
// bit-identical.  Members are declared in teardown order: the pipeline
// goes first, so unwinding joins the consumer thread before anything it
// touches is destroyed.
struct TracedRun {
  TracedRun() = default;
  // The drain chain captures this object's address.
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  // Durable capture tee (ExperimentOptions::archive_path).
  std::unique_ptr<ArchiveWriter> archive;
  // Pipelined, the parser runs on the consumer thread, so it records its
  // Feed phases into this private recorder (no cycle source — the traced
  // machine's cycle counter belongs to the producer thread), absorbed into
  // the shared timeline after the pipeline drains.
  std::unique_ptr<EventRecorder> consumer_events;
  uint64_t consumer_epoch_us = 0;
  std::unique_ptr<TracePipeline> pipeline;
  uint64_t wall_us = 0;

  void Run(SystemInstance& traced, Analysis& analysis, const WorkloadSpec& workload,
           const ExperimentOptions& options, EventRecorder* events);
  void RegisterStats(StatsRegistry& registry);
};

void TracedRun::Run(SystemInstance& traced, Analysis& analysis, const WorkloadSpec& workload,
                    const ExperimentOptions& options, EventRecorder* events) {
  std::function<void(const uint32_t*, size_t)> consume =
      [&analysis](const uint32_t* words, size_t count) { analysis.Feed(words, count); };
  if (options.pipeline) {
    consumer_events = std::make_unique<EventRecorder>();
    consumer_epoch_us = events->ElapsedUs();
  }
  analysis.SetEventRecorder(options.pipeline ? consumer_events.get() : events);
  if (!options.archive_path.empty()) {
    archive = std::make_unique<ArchiveWriter>(options.archive_path,
                                              HarnessArchiveMeta(workload, options));
    consume = [w = archive.get(), inner = std::move(consume)](const uint32_t* words,
                                                              size_t count) {
      w->Append(words, count);
      inner(words, count);
    };
  }
  if (options.pipeline) {
    pipeline = std::make_unique<TracePipeline>(std::move(consume));
    traced.SetTraceSink([p = pipeline.get()](const uint32_t* words, size_t count) {
      p->Produce(words, count);
    });
  } else {
    traced.SetTraceSink(std::move(consume));
  }

  events->SetCycleSource([machine = &traced.machine()] { return machine->cycles(); });
  RunResult run;
  uint64_t wall0 = WallNowUs();
  {
    EventRecorder::Scope scope(events, "run.traced", "run");
    run = traced.Run(options.max_instructions);
  }
  wall_us = WallNowUs() - wall0;
  if (!run.halted) {
    throw Error(StrFormat("traced run of '%s' did not halt (pc=0x%08x)", workload.name.c_str(),
                          traced.machine().pc()));
  }
  if (pipeline != nullptr) {
    // Drain the ring and join the consumer; rethrows anything the
    // parser/sink chain threw mid-stream.
    pipeline->Finish();
  }
  if (archive != nullptr) {
    // Every chunk is on disk; seal the directory footer.  A crash before
    // this point leaves a footerless archive the reader recovers by scan.
    archive->Finalize();
  }
}

void TracedRun::RegisterStats(StatsRegistry& registry) {
  if (archive != nullptr) {
    archive->RegisterStats(registry, "archive.");
  }
  if (pipeline != nullptr) {
    pipeline->RegisterStats(registry, "trace.pipeline.");
  }
}

}  // namespace

const char* PersonalityName(Personality personality) {
  return personality == Personality::kUltrix ? "ultrix" : "mach";
}

Personality PersonalityFromName(const std::string& name) {
  if (name == "ultrix") {
    return Personality::kUltrix;
  }
  if (name == "mach") {
    return Personality::kMach;
  }
  throw Error("unknown personality '" + name + "' (expected 'ultrix' or 'mach')");
}

SystemConfig MakeConfig(const WorkloadSpec& workload, const ExperimentOptions& options,
                        bool tracing, EventRecorder* events) {
  SystemConfig config;
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
  config.events = events;
  if (options.personality == Personality::kMach) {
    config.policy = PagePolicy::kScrambled;
    config.policy_mult = 9;
  }
  return config;
}

// Page mapping (paper §4.2): the simulator implements the policy.  Mach's
// random policy gives *a* mapping with the right distribution but different
// draws — the repeatability problem the paper reports — so the simulator
// draws its own permutation (multiplier 13).  The deterministic linear
// policy has no draw: it ignores the multiplier.
PredictorConfig PrimaryConfig(const ExperimentOptions& options, const SystemInstance& measured) {
  PredictorConfig config;
  config.dilation = options.dilation;
  config.page_map = measured.PageMap(13);
  return config;
}

std::unique_ptr<TraceDrivenSimulator> MakeSimulator(const PredictorConfig& config,
                                                    const SystemInstance& measured) {
  auto simulator = std::make_unique<TraceDrivenSimulator>(config);
  simulator->AddTextImage(measured.kernel_exe());
  simulator->AddTextImage(measured.workload_orig());
  return simulator;
}

std::unique_ptr<TraceProfiler> MakeProfiler(const ProfileOptions& options,
                                            const SystemInstance& system) {
  auto profiler = std::make_unique<TraceProfiler>(options);
  for (const AddressSpace& space : system.spaces()) {
    profiler->AddTable(space.pid, &space.table);
    profiler->AddSymbols(space.pid, space.orig);
    profiler->SetSpaceName(space.pid, space.name);
  }
  return profiler;
}

ArchiveMeta HarnessArchiveMeta(const WorkloadSpec& workload, const ExperimentOptions& options) {
  ArchiveMeta meta;
  meta.emplace_back("workload", workload.name);
  meta.emplace_back("personality", PersonalityName(options.personality));
  meta.emplace_back("clock_period", std::to_string(options.clock_period));
  meta.emplace_back("dilation", StrFormat("%.17g", options.dilation));
  meta.emplace_back("trace_buf_bytes", std::to_string(options.trace_buf_bytes));
  meta.emplace_back("scavenge", options.scavenge ? "1" : "0");
  meta.emplace_back("max_instructions", std::to_string(options.max_instructions));
  meta.insert(meta.end(), options.archive_meta.begin(), options.archive_meta.end());
  return meta;
}

namespace {

[[noreturn]] void BadMeta(const std::string& key, const std::string& value,
                          const std::string& why) {
  throw Error("archive metadata '" + key + "' = '" + value + "': " + why);
}

// A whole-string unsigned decimal in [min, max].
uint64_t MetaUnsigned(const std::string& key, const std::string& value, uint64_t min,
                      uint64_t max) {
  uint64_t v = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    BadMeta(key, value, "not an unsigned decimal integer");
  }
  if (v < min || v > max) {
    BadMeta(key, value,
            StrFormat("outside [%llu, %llu]", static_cast<unsigned long long>(min),
                      static_cast<unsigned long long>(max)));
  }
  return v;
}

// A whole-string finite number in [min, max].
double MetaReal(const std::string& key, const std::string& value, double min, double max) {
  double v = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    BadMeta(key, value, "not a finite number");
  }
  if (v < min || v > max) {
    BadMeta(key, value, StrFormat("outside [%.17g, %.17g]", min, max));
  }
  return v;
}

}  // namespace

ArchivedExperiment ParseHarnessArchiveMeta(const ArchiveMeta& meta) {
  static const std::vector<std::string> kHarnessKeys = {
      "workload",        "personality", "clock_period",    "dilation",
      "trace_buf_bytes", "scavenge",    "max_instructions"};
  ArchivedExperiment out;
  ExperimentOptions& options = out.options;
  // The first value of each harness key is the identity; everything else is
  // a caller extra.
  std::map<std::string, std::string> harness;
  for (const auto& [key, value] : meta) {
    const bool is_harness =
        std::find(kHarnessKeys.begin(), kHarnessKeys.end(), key) != kHarnessKeys.end();
    if (!is_harness || !harness.emplace(key, value).second) {
      options.archive_meta.emplace_back(key, value);
    }
  }
  for (const std::string& key : kHarnessKeys) {
    if (harness.count(key) == 0) {
      throw Error("archive metadata has no '" + key +
                  "' key (was the archive recorded by the experiment harness?)");
    }
  }

  const std::string& personality = harness["personality"];
  if (personality != PersonalityName(Personality::kUltrix) &&
      personality != PersonalityName(Personality::kMach)) {
    BadMeta("personality", personality, "expected 'ultrix' or 'mach'");
  }
  options.personality = PersonalityFromName(personality);
  options.clock_period = static_cast<uint32_t>(
      MetaUnsigned("clock_period", harness["clock_period"], 1, UINT32_MAX));
  // The traced clock period (clock_period x whole dilation) must fit 32 bits.
  options.dilation =
      MetaReal("dilation", harness["dilation"], 1, UINT32_MAX / options.clock_period);
  // Room for a full user-buffer copy plus slack, up to the kernel's region.
  options.trace_buf_bytes = static_cast<uint32_t>(MetaUnsigned(
      "trace_buf_bytes", harness["trace_buf_bytes"], 2 * kUserTraceBufBytes,
      kKernelTraceBufMaxBytes));
  options.scavenge = MetaUnsigned("scavenge", harness["scavenge"], 0, 1) == 1;
  options.max_instructions =
      MetaUnsigned("max_instructions", harness["max_instructions"], 1, UINT64_MAX);
  double scale = 1.0;
  for (const auto& [key, value] : options.archive_meta) {
    if (key == "scale") {
      scale = MetaReal(key, value, 0, kMaxWorkloadScale);
      break;
    }
  }
  out.workload = PaperWorkload(harness["workload"], scale);
  return out;
}

std::vector<std::string> ExperimentResult::Warnings() const {
  std::vector<std::string> warnings;
  if (parser_errors > 0) {
    warnings.push_back(StrFormat(
        "WARNING: '%s' had %llu trace parser validation error(s) — the "
        "reconstructed reference stream (and every prediction from it) is suspect",
        workload.c_str(), static_cast<unsigned long long>(parser_errors)));
  }
  if (DegeneratePrediction()) {
    warnings.push_back(StrFormat(
        "WARNING: '%s' prediction is degenerate: predicted 0 cycles against "
        "%llu measured — the trace produced no usable references",
        workload.c_str(), static_cast<unsigned long long>(measured_cycles)));
  }
  return warnings;
}

ExperimentResult RunExperiment(const WorkloadSpec& workload, const ExperimentOptions& options) {
  ExperimentResult result;
  result.workload = workload.name;
  result.personality = options.personality;

  // Timeline: a private recorder unless the caller shares one for the suite.
  // The experiment phase is opened/closed manually so the completed event is
  // harvestable into result.timeline; a thrown Error abandons the recorder.
  EventRecorder local_events;
  EventRecorder* events = options.events != nullptr ? options.events : &local_events;
  events->Begin("experiment:" + workload.name, "experiment");

  std::unique_ptr<SystemInstance> measured = RunMeasured(workload, options, events, result);

  // The traced run driving the analysis.  The analysis is declared before
  // the traced run's drain chain, whose pipeline consumer thread feeds it.
  std::unique_ptr<SystemInstance> traced;
  {
    EventRecorder::Scope scope(events, "build.traced", "build");
    traced = BuildSystem(MakeConfig(workload, options, true, events));
  }
  Analysis analysis(options, *measured, *traced);
  TracedRun traced_run;
  traced_run.Run(*traced, analysis, workload, options, events);
  analysis.Finish(result);
  result.traced_machine_instructions = traced->machine().instructions();
  result.trace_words = traced->trace_words_drained();
  result.analysis_switches = traced->AnalysisSwitches();

  if (traced->ProcessExitCode(1) != result.exit_code) {
    throw Error(StrFormat("'%s': traced exit code %u != measured %u — tracing distorted behavior",
                          workload.name.c_str(), traced->ProcessExitCode(1), result.exit_code));
  }
  result.run_wall_us += traced_run.wall_us;
  result.simulated_instructions =
      measured->machine().instructions() + traced->machine().instructions();

  // ---- Registry snapshot across every layer of both runs ----
  // Must happen before the SystemInstances go out of scope: the registry
  // bindings point into them.
  StatsRegistry registry;
  measured->RegisterStats(registry, "measured.");
  traced->RegisterStats(registry, "traced.");
  analysis.RegisterStats(registry);
  traced_run.RegisterStats(registry);
  result.stats = registry.Snapshot();
  if (traced_run.consumer_events != nullptr) {
    // Fold the consumer thread's parser phases back in at their true wall
    // offset (nested under the experiment scope).
    events->Absorb(traced_run.consumer_events->TakeEvents(), traced_run.consumer_epoch_us,
                   /*depth_offset=*/1);
  }
  events->End();  // experiment:<name>
  events->SetCycleSource(nullptr);
  if (events == &local_events) {
    result.timeline = local_events.TakeEvents();
  }
  return result;
}

std::vector<ExperimentResult> RunSuite(const std::vector<WorkloadSpec>& workloads,
                                       const ExperimentOptions& options) {
  ProgressMeter progress(options.progress, workloads.size());
  // On a pool, each experiment records into a private recorder
  // (options.events is not thread-safe); the timelines are merged back in
  // workload order below, so reports are scheduling-independent.  Serially
  // the experiments record straight into options.events.
  const bool pooled = options.jobs > 1 && workloads.size() > 1;
  ExperimentOptions run_options = options;
  if (pooled) {
    run_options.events = nullptr;
  }
  std::vector<ExperimentResult> results(workloads.size());
  ParallelFor(workloads.size(), options.jobs, [&](size_t i) {
    results[i] = RunExperiment(workloads[i], run_options);
    progress.OnDone(results[i]);
  });
  if (pooled && options.events != nullptr) {
    for (ExperimentResult& r : results) {
      options.events->Absorb(std::move(r.timeline));
      r.timeline.clear();
    }
  }
  return results;
}

}  // namespace wrl
