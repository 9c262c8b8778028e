// The validation experiments (paper §5): run each workload twice —
// uninstrumented on the timing machine (*measured*) and instrumented with
// the trace feeding the analysis program (*predicted*) — and compare.
//
// RunExperiment is three steps: the measured run, the traced run, and one
// analysis — a single parser feeding a single TeeBatchSink over every sink
// the options ask for (primary simulator, profiler, sweep engine, one
// simulator per non-swept variant).  The traced run's drains feed that
// analysis as they arrive, as the paper's traced system switches to
// analysis each time its buffer fills (§4.3).  Recording once and replaying
// many times is the durable archive's job (archive_path → ArchiveReader →
// ReplayEngine).
//
//   Table 2 / Figure 3: execution times, measured vs predicted
//   Table 3:            user TLB miss counts, measured vs predicted
#ifndef WRLTRACE_HARNESS_EXPERIMENT_H_
#define WRLTRACE_HARNESS_EXPERIMENT_H_

#include <limits>
#include <string>
#include <vector>

#include "kernel/system_build.h"
#include "prof/prof.h"
#include "sim/predictor.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "sweep/sweep.h"
#include "trace/chunk_ring.h"
#include "trace/trace_archive.h"
#include "workloads/workloads.h"

namespace wrl {

// Report/archive spelling of a personality and its inverse (used by run
// reports and wrltrace/1 archive metadata; FromName throws wrl::Error on an
// unknown spelling).
const char* PersonalityName(Personality personality);
Personality PersonalityFromName(const std::string& name);

// One extra analysis configuration priced from the same trace: each
// variant analyzes the identical reference stream with its own cache
// geometry, TLB wiring, and page-map draw — no additional traced machine
// run.
struct ReplayVariant {
  std::string name;
  MemSysConfig memsys;
  unsigned tlb_wired = 8;
  // Page-map permutation multiplier override (0 = the experiment's map).
  uint32_t page_map_mult = 0;
};

struct ReplayVariantResult {
  std::string name;
  Prediction prediction;
  TlbSimStats tlb;
  uint64_t refs = 0;
  // Host time inside this variant's simulator (dedicated simulators only;
  // a swept variant shares the sweep pass's sweep.wall_us).
  uint64_t wall_us = 0;
  // Priced by the single-pass sweep engine instead of a dedicated replay
  // (exact miss counts, derived timing — see DESIGN.md §13).
  bool swept = false;
};

// Single-pass sweep configuration (src/sweep).  When active, one
// SweepEngine rides the analysis tee as one more sink and (a) prices the
// explicit
// cache families and TLB curve below, and (b) absorbs every *geometry-only*
// ReplayVariant (same penalties, write buffer, TLB wiring, and page map as
// the primary; power-of-two cache geometry): those variants get exact miss
// counts from the shared pass and derived timing instead of a dedicated
// replay.  Non-sweepable variants each get their own simulator on the tee.
struct SweepOptions {
  // Activates the sweep even with no explicit families (it then covers
  // only the geometry-only replay variants and/or the TLB curve).
  bool enabled = false;
  std::vector<CacheFamilySpec> icache;
  std::vector<CacheFamilySpec> dcache;
  // Capacity bound of the exported LRU TLB miss curve (0 = no curve).
  unsigned tlb_max_entries = 0;

  bool Active() const {
    return enabled || !icache.empty() || !dcache.empty() || tlb_max_entries > 0;
  }
};

struct ExperimentOptions {
  Personality personality = Personality::kUltrix;
  // Untraced clock period; the traced system runs it at 1/15th the rate
  // (paper §4.1).
  uint32_t clock_period = 200000;
  double dilation = 15.0;
  uint32_t trace_buf_bytes = 16u << 20;
  // Liveness-driven epoxie scavenging (WRL_SCAVENGE in the environment by
  // default).  Every counter, prediction, and reconstructed reference is
  // bit-identical either way; only the instrumented text growth — and the
  // traced.epoxie.* dilation metrics derived from it — changes.
  bool scavenge = ScavengeEnabled();
  uint64_t max_instructions = 3'000'000'000;
  // Simulated clock frequency used only to render cycles as seconds.
  double clock_hz = 25e6;
  // Optional shared timeline: build/run/analysis phases and trace drains
  // are recorded here.  When null the experiment records into a private
  // recorder and moves the events into ExperimentResult::timeline.
  EventRecorder* events = nullptr;
  // Worker threads for RunSuite (1 = serial).  Workers run whole
  // experiments with private event recorders; results and (when `events`
  // is shared) timelines are merged back in workload order, so reports are
  // independent of scheduling.  With jobs > 1 each merged experiment's
  // event wall clock restarts at that experiment's start.
  unsigned jobs = 1;
  // Overlap the two halves of one experiment: the measured run executes on
  // a second thread while this thread builds and runs the traced system.
  // All result fields and metrics are unchanged; only wall time shrinks.
  bool parallel_pair = false;
  // Pipelined trace transport: drained chunks flow through a bounded SPSC
  // ring (kDefaultPipelineDepth chunks) to a consumer thread that runs the
  // archive tee and the analysis, so the traced machine keeps simulating
  // while each drain is consumed (simulate ∥ parse ∥ analyze).  Defaults to
  // on when the host has more than one hardware thread; WRL_PIPELINE=0
  // forces the synchronous path and WRL_PIPELINE=1 forces the pipeline even
  // on single-core hosts.  Every counter, trace word, profile, and report
  // value is identical either way; the overlap itself is observable via
  // the trace.pipeline.* metrics, which exist only on pipelined runs.
  bool pipeline = PipelineEnabled();
  // Extra analysis configurations priced from the same trace (each one more
  // sink on the analysis tee, not another traced machine run).
  std::vector<ReplayVariant> replay_variants;
  // Attribution profiling (src/prof): tee the reconstructed reference
  // stream into a TraceProfiler and return the finished Profile in
  // ExperimentResult::profile.  Bit-identical in every mode.
  bool profile = false;
  ProfileOptions profile_options;
  // Single-pass multi-configuration sweep (see SweepOptions above).
  SweepOptions sweep;
  // Tee the trace to a durable wrltrace/1 archive at this path
  // (trace/trace_archive.h): every drained chunk streams to disk just before
  // the analysis consumes it, pipelined or not, so the on-disk chunk
  // sequence is exactly the sequence the analysis saw.  The archive is
  // finalized (directory footer + fsync) after the traced run drains; a
  // crash mid-run leaves a recoverable footerless archive.  Empty = no
  // archive.
  std::string archive_path;
  // Extra identity metadata recorded into the archive alongside the
  // harness's own keys (workload, personality, clock_period, dilation,
  // trace_buf_bytes, scavenge, max_instructions) — e.g. a tool's workload
  // scale, so `wrltrace replay` can rebuild the capturing system.
  ArchiveMeta archive_meta;
  // Live progress heartbeat: RunSuite emits periodic stderr lines
  // (workloads done, refs/sec, sim.mips, ETA).  Reports are unaffected —
  // the heartbeat writes only to stderr.
  bool progress = false;
  uint32_t progress_interval_ms = 2000;
};

struct ExperimentResult {
  std::string workload;
  Personality personality = Personality::kUltrix;

  // Measured (uninstrumented run, hardware timer + kernel counters).
  uint64_t measured_cycles = 0;
  uint64_t measured_utlb = 0;
  uint64_t measured_idle_instructions = 0;
  uint64_t measured_tlbdropins = 0;
  uint64_t measured_user_instructions = 0;
  uint32_t exit_code = 0;

  // Predicted (trace-driven simulation).
  Prediction prediction;
  uint64_t traced_machine_instructions = 0;
  uint64_t trace_words = 0;
  uint64_t parser_errors = 0;
  uint64_t analysis_switches = 0;

  // Host wall microseconds spent inside the two simulated runs (builds and
  // analysis excluded) and the simulated instructions they retired — the
  // raw material for the report-level `sim.mips` throughput metric.  Wall
  // clock, hence deliberately *not* part of the per-workload metrics.
  uint64_t run_wall_us = 0;
  uint64_t simulated_instructions = 0;

  // One result per ReplayVariant, in the caller's order.
  std::vector<ReplayVariantResult> replays;
  // Analysis throughput of every sink but the sweep engine: refs × sinks
  // per wall-second spent inside them (the sweep's own throughput is
  // sweep_mrefs_per_sec, counted per family point).
  double replay_mrefs_per_sec = 0;

  // Single-pass sweep outputs (sweep_ran only when SweepOptions::Active()).
  bool sweep_ran = false;
  SweepResult sweep;
  // Equivalent-replay throughput of the sweep pass: family points × refs
  // per wall-second inside the sweep engine.
  double sweep_mrefs_per_sec = 0;

  // The attribution profile (empty unless ExperimentOptions::profile).
  Profile profile;

  // Full registry snapshot across both runs: `measured.*` and `traced.*`
  // system counters, `parser.*`, and `predicted.*` analysis counters.
  StatsSnapshot stats;
  // The experiment's phase timeline (empty when ExperimentOptions::events
  // supplied a shared recorder — the caller owns the events then).
  std::vector<TimelineEvent> timeline;

  double MeasuredSeconds(double hz) const { return static_cast<double>(measured_cycles) / hz; }
  double PredictedSeconds(double hz) const { return prediction.PredictedCycles() / hz; }
  // A degenerate prediction: the analysis produced no cycles for a workload
  // the hardware measurably ran — the error percentage is meaningless.
  bool DegeneratePrediction() const {
    return prediction.PredictedCycles() <= 0 && measured_cycles != 0;
  }
  double TimeErrorPercent() const {
    double predicted = prediction.PredictedCycles();
    if (measured_cycles == 0) {
      // No measured baseline to compare against: agreement is 0; a nonzero
      // prediction against a zero measurement has unbounded error.
      return predicted <= 0 ? 0 : std::numeric_limits<double>::infinity();
    }
    return 100.0 * (predicted - static_cast<double>(measured_cycles)) /
           static_cast<double>(measured_cycles);
  }
  // Human-readable warnings that must not pass silently: parser validation
  // errors and degenerate predictions.
  std::vector<std::string> Warnings() const;
};

// Runs one workload through both systems.
ExperimentResult RunExperiment(const WorkloadSpec& workload, const ExperimentOptions& options);

// The SystemConfig RunExperiment builds for the measured (tracing = false)
// or traced half of an experiment: the traced half runs its clock dilated,
// and Mach takes the scrambled page policy.
SystemConfig MakeConfig(const WorkloadSpec& workload, const ExperimentOptions& options,
                        bool tracing, EventRecorder* events = nullptr);

// The primary simulator's configuration (paper §4.2): the options'
// dilation, and the measured run's page map under the deterministic policy
// or a different permutation draw under Mach's random one.
PredictorConfig PrimaryConfig(const ExperimentOptions& options, const SystemInstance& measured);

// The experiment's wrltrace/1 archive identity: the harness keys
// (workload, personality, clock_period, dilation, trace_buf_bytes,
// scavenge, max_instructions) first, then options.archive_meta.  Readers
// take the first value of a key, so the harness's own identity wins.
ArchiveMeta HarnessArchiveMeta(const WorkloadSpec& workload, const ExperimentOptions& options);

// Upper bound on a paper workload's scale in archive metadata.
constexpr double kMaxArchiveScale = 16.0;

// An archive's identity parsed back (ParseHarnessArchiveMeta).
struct ArchivedExperiment {
  // PaperWorkload(name, scale), scale from the caller key "scale" (1 when
  // absent, as PaperWorkload's default).
  WorkloadSpec workload;
  // Harness keys in their fields; every other entry, in order, in
  // options.archive_meta.
  ExperimentOptions options;
};

// The exact inverse of HarnessArchiveMeta over archive metadata, which is
// untrusted input: every harness key must be present, and every numeric
// value must parse as a whole string, be finite, and lie in the range an
// experiment can run with (clock_period and trace_buf_bytes within the
// kernel's limits, dilation >= 1 with a dilated clock that fits 32 bits,
// scale in [0, kMaxArchiveScale]).  Anything else throws wrl::Error naming
// the key and the value.
ArchivedExperiment ParseHarnessArchiveMeta(const ArchiveMeta& meta);

// Runs the full Table 2 / Table 3 suite for one personality.
std::vector<ExperimentResult> RunSuite(const std::vector<WorkloadSpec>& workloads,
                                       const ExperimentOptions& options);

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_EXPERIMENT_H_
