// The `suite` and `stream` workloads: the paper's validation experiments
// (Table 2: twelve workloads under Ultrix, then under Mach) through
// RunExperiment, run serially.  `suite` uses the harness defaults (live
// analysis, 16 MB in-kernel buffer: one drain per experiment, at halt);
// `stream` shrinks the buffer so the big workloads switch to analysis mode
// about ten times or more, with the pipelined transport on.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "support/rng.h"
#include "support/strings.h"
#include "trace/trace_log.h"

namespace perfbench {
namespace {

constexpr uint32_t kStreamBufferBytes = 256 * 1024;
// The injected fault: an instruction budget no experiment halts within, so
// RunExperiment throws "did not halt".
constexpr uint64_t kInjectedMaxInstructions = 20'000;
// The share of set-up samples dropped at each end (preempted outliers).
constexpr double kSetupTrim = 0.1;

struct Op {
  size_t workload = 0;
  wrl::Personality personality = wrl::Personality::kUltrix;
  std::string key;  // "ultrix/gcc"
};

std::vector<Op> TableOps(const std::vector<wrl::WorkloadSpec>& workloads) {
  std::vector<Op> ops;
  for (wrl::Personality p : {wrl::Personality::kUltrix, wrl::Personality::kMach}) {
    for (size_t i = 0; i < workloads.size(); ++i) {
      ops.push_back({i, p, std::string(wrl::PersonalityName(p)) + "/" + workloads[i].name});
    }
  }
  return ops;
}

wrl::ExperimentOptions OptionsFor(const Args& args, wrl::Personality personality) {
  wrl::ExperimentOptions options;
  options.personality = personality;
  if (args.workload == "stream") {
    options.trace_buf_bytes = kStreamBufferBytes;
    options.pipeline = true;
  }
  return options;
}

// What one RunExperiment call did, read back from the harness's own phases.
struct OpRecord {
  bool ok = false;
  std::string digest;
  wrl::ExperimentResult result;
  double wall_s = 0;
  uint64_t sim_cycles = 0;  // Σ cycles of the run.* phases (kept on a throw).
  uint64_t build_us = 0;
  uint64_t run_measured_us = 0;
  uint64_t run_traced_us = 0;
};

OpRecord RunOp(const Args& args, const References& refs,
               const std::vector<wrl::WorkloadSpec>& workloads, const Op& op, uint64_t id,
               bool inject_throw, Spans& spans, Outcome& outcome) {
  OpRecord rec;
  wrl::ExperimentOptions options = OptionsFor(args, op.personality);
  if (inject_throw) {
    options.max_instructions = kInjectedMaxInstructions;
  }
  wrl::EventRecorder harness;
  const uint64_t harness_epoch = spans.enabled() ? spans.recorder()->ElapsedUs() : 0;
  options.events = &harness;
  spans.BeginOp(id, "op " + op.key);
  ++outcome.attempted;
  std::string error;
  Clock::time_point t0 = Clock::now();
  try {
    rec.result = wrl::RunExperiment(workloads[op.workload], options);
    rec.ok = true;
  } catch (const std::exception& e) {
    error = e.what();
  }
  rec.wall_s = SecondsSince(t0);
  // A throw leaves the experiment phase open, with a cycle source into a
  // machine that no longer exists: detach it, then close the phase.
  harness.SetCycleSource(nullptr);
  while (harness.open_scopes() > 0) {
    harness.End();
  }
  for (const wrl::TimelineEvent& e : harness.events()) {
    if (e.instant) {
      continue;
    }
    if (e.name == "run.measured" || e.name == "run.traced") {
      rec.sim_cycles += e.cycle_dur;
      (e.name == "run.measured" ? rec.run_measured_us : rec.run_traced_us) += e.wall_dur_us;
    } else if (e.name.rfind("build.", 0) == 0) {
      rec.build_us += e.wall_dur_us;
    }
  }
  spans.Absorb(harness, harness_epoch);
  spans.EndOp();

  if (!rec.ok) {
    outcome.Fail(op.key, error, false);
    return rec;
  }
  rec.digest = ExperimentDigest(rec.result);
  if (rec.result.parser_errors > 0) {
    outcome.Fail(op.key, "trace parser validation errors", true);
  } else if (rec.result.DegeneratePrediction()) {
    outcome.Fail(op.key, "degenerate prediction", true);
  } else if (!CheckDigest(args, refs, op.key, rec.digest)) {
    outcome.Fail(op.key, "output digest " + rec.digest + " differs from its reference", true);
  }
  return rec;
}

uint64_t Counter(const wrl::ExperimentResult& r, const char* name) {
  const wrl::StatValue* v = r.stats.Find(name);
  return v == nullptr ? 0 : v->counter;
}

// The sampled sweep check: one seeded op's trace, captured again, priced by
// the one-pass sweep and by a dedicated replay per family point.
void CheckSampledSweep(const Args& args, const std::vector<wrl::WorkloadSpec>& workloads,
                       const std::vector<Op>& ops, Outcome& outcome) {
  wrl::Rng rng(args.seed ^ 0x5eed5eedull);
  const Op& op = ops[rng.Below(static_cast<uint32_t>(ops.size()))];
  Capture capture = BuildCapture(workloads[op.workload], OptionsFor(args, op.personality), true);
  wrl::TraceLog log;
  for (const std::vector<uint32_t>& chunk : capture.chunks) {
    log.Append(chunk);
  }
  wrl::ReplayEngine engine(CaptureSource(capture, &log));
  const wrl::SweepConfig config = StudySweepConfig(capture.pconfig);
  std::vector<wrl::ReplayEngine::Outcome> outcomes = engine.Run(
      {{"sweep", [&config] { return std::make_unique<wrl::SweepEngine>(config); }}});
  std::string why;
  outcome.Check(SweepMatchesReplays(engine, capture.pconfig,
                                    *static_cast<wrl::SweepEngine*>(outcomes[0].sink.get()),
                                    &why),
                "sampled sweep of " + op.key + " vs dedicated replays: " + why);
}

}  // namespace

Outcome RunExperimentWorkload(const Args& args, const References& refs) {
  Outcome outcome;
  // Set-up: input generation.  It takes about half a millisecond, and the
  // host's speed can flip between two levels every few seconds, so a burst
  // of set-ups would catch one level only.  The set-up is therefore timed
  // again before every plain op, through the whole run, outside the op and
  // phase timings; setup_s is the trimmed mean of those samples.  The
  // generators' self-check runs once, untimed.
  CheckInputClasses(args.scale);
  std::vector<double> setup_s;
  auto set_up = [&args, &setup_s] {
    Clock::time_point t0 = Clock::now();
    std::vector<wrl::WorkloadSpec> workloads = SeededWorkloads(args.seed, args.scale);
    setup_s.push_back(SecondsSince(t0));
    return workloads;
  };
  const std::vector<wrl::WorkloadSpec> workloads = set_up();
  PrintInputs(args.seed, args.scale, workloads);
  const std::vector<Op> ops = TableOps(workloads);
  const bool inject = args.inject == "throw";

  // The plain (span-free) passes: whole passes over the table until the
  // requested time has run out.  The span run makes one pass, timing each op
  // plain and inside spans back to back, in alternating order, so warm-up
  // and drift fall on both sides alike.
  Spans plain(false);
  Spans spans(true);
  Outcome span_outcome;  // Op failures are counted once, by the plain runs.
  span_outcome.quiet = true;
  std::vector<OpRecord> first_pass;
  std::vector<OpRecord> span_pass;
  std::vector<double> op_ms;
  std::vector<double> errors;
  uint64_t sim_cycles = 0;
  unsigned passes = 0;
  Clock::time_point t0 = Clock::now();
  do {
    for (size_t i = 0; i < ops.size(); ++i) {
      const bool inject_here = inject && passes == 0 && i == 0;
      if (args.trace && i % 2 == 1) {
        span_pass.push_back(
            RunOp(args, refs, workloads, ops[i], i, inject_here, spans, span_outcome));
      }
      set_up();
      OpRecord rec = RunOp(args, refs, workloads, ops[i], i, inject_here, plain, outcome);
      op_ms.push_back(rec.wall_s * 1e3);
      sim_cycles += rec.sim_cycles;
      if (rec.ok) {
        errors.push_back(std::fabs(rec.result.TimeErrorPercent()));
      }
      if (passes == 0) {
        first_pass.push_back(std::move(rec));
      }
      if (args.trace && i % 2 == 0) {
        span_pass.push_back(
            RunOp(args, refs, workloads, ops[i], i, inject_here, spans, span_outcome));
      }
    }
    ++passes;
  } while (!args.trace && !args.emit_digests && SecondsSince(t0) < args.seconds);
  double setup_in_phase_s = 0;
  for (size_t i = 1; i < setup_s.size(); ++i) {
    setup_in_phase_s += setup_s[i];
  }
  const double plain_wall_s = SecondsSince(t0) - setup_in_phase_s;

  if (!args.emit_digests) {
    CheckSampledSweep(args, workloads, ops, outcome);
  }
  std::printf("%s: %u pass(es) of %zu experiments in %.2f s\n", args.workload.c_str(), passes,
              ops.size(), plain_wall_s);

  if (!args.trace) {
    const double mean_error = Mean(errors);
    const double error_rate =
        static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
    std::printf("  sim_mcycles_per_s %.3f Mcycles/s (%.4g simulated cycles)\n",
                static_cast<double>(sim_cycles) / plain_wall_s / 1e6,
                static_cast<double>(sim_cycles));
    std::printf("  op_ms mean %.2f p50 %.2f p90 %.2f ms (n=%zu experiments)\n", Mean(op_ms),
                Quantile(op_ms, 0.5), Quantile(op_ms, 0.9), op_ms.size());
    std::printf("  pred_error_pct %.4f %% (mean |Figure 3 error| over %zu experiments)\n",
                mean_error, errors.size());
    std::printf("  error_rate %.4f (%llu failed / %llu attempted)\n", error_rate,
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    outcome.Add("setup_s", TrimmedMean(setup_s, kSetupTrim), "s");
    outcome.Add("sim_mcycles_per_s", static_cast<double>(sim_cycles) / plain_wall_s / 1e6,
                "Mcycles/s");
    outcome.Add("op_ms.mean", Mean(op_ms), "ms");
    outcome.Add("pred_error_pct", mean_error, "%");
    outcome.Add("success_pct", 100.0 * (1.0 - error_rate), "%");
    outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
    return outcome;
  }

  // ---- The span run ----
  double plain_op_s = 0;
  double span_op_s = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    plain_op_s += first_pass[i].wall_s;
    span_op_s += span_pass[i].wall_s;
    outcome.Check(span_pass[i].ok == first_pass[i].ok &&
                      span_pass[i].digest == first_pass[i].digest,
                  "span run output of " + ops[i].key + " differs from the plain run's");
  }
  const double coverage_pct = spans.CoveragePct();

  // Isolation pass: a captured copy of each op's trace through the parser,
  // predictor and TLB simulator alone (outside the op spans).
  IsolationCosts costs;
  uint64_t drains = 0;
  uint64_t drain_words = 0;
  uint64_t switches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    Capture capture =
        BuildCapture(workloads[ops[i].workload], OptionsFor(args, ops[i].personality), true);
    spans.BeginOp(ops.size() + i, "isolate " + ops[i].key, "isolate");
    wrl::Prediction isolated = IsolateLayers(capture, false, spans, costs);
    spans.EndOp();
    drains += capture.chunks.size();
    drain_words += capture.words;
    switches += capture.traced->AnalysisSwitches();
    if (span_pass[i].ok) {
      Digest live, alone;
      AddPrediction(live, span_pass[i].result.prediction);
      AddPrediction(alone, isolated);
      outcome.Check(live.Hex() == alone.Hex() &&
                        span_pass[i].result.analysis_switches ==
                            capture.traced->AnalysisSwitches(),
                    "isolated analysis of " + ops[i].key + " differs from the live one");
    }
  }

  LayerValues layer;
  uint64_t measured_insts = 0;
  uint64_t traced_insts = 0;
  uint64_t measured_us = 0;
  uint64_t traced_us = 0;
  double build_s = 0;
  double tail_s = 0;
  for (const OpRecord& rec : span_pass) {
    build_s += static_cast<double>(rec.build_us) * 1e-6;
    tail_s += rec.wall_s - static_cast<double>(rec.build_us + rec.run_measured_us +
                                               rec.run_traced_us) * 1e-6;
    layer["mach.run.s"] += static_cast<double>(rec.run_measured_us) * 1e-6;
    layer["mach.traced_run.s"] += static_cast<double>(rec.run_traced_us) * 1e-6;
    if (rec.ok) {
      measured_insts += Counter(rec.result, "measured.machine.instructions");
      traced_insts += Counter(rec.result, "traced.machine.instructions");
      measured_us += rec.run_measured_us;
      traced_us += rec.run_traced_us;
      layer["trace.ring.producer_stalls"] +=
          static_cast<double>(Counter(rec.result, "trace.pipeline.producer_stalls"));
      layer["trace.ring.consumer_starves"] +=
          static_cast<double>(Counter(rec.result, "trace.pipeline.consumer_starves"));
      layer["trace.ring.max_occupancy"] =
          std::max(layer["trace.ring.max_occupancy"],
                   static_cast<double>(Counter(rec.result, "trace.pipeline.max_occupancy")));
    }
  }
  layer["kernel.build.s"] = build_s;
  layer["kernel.analysis_switches"] = static_cast<double>(switches);
  layer["kernel.drains"] = static_cast<double>(drains);
  layer["kernel.drain_words"] = static_cast<double>(drain_words);
  layer["mach.run.ns_per_inst"] = PerItemNs(measured_us, measured_insts);
  layer["mach.traced_run.ns_per_inst"] = PerItemNs(traced_us, traced_insts);
  layer["trace.parse.ns_per_word"] = PerItemNs(costs.parse_us, costs.words);
  layer["harness.analysis_tail.s"] = tail_s;
  layer["sim.predictor.ns_per_ref"] = PerItemNs(costs.predictor_us, costs.refs);
  layer["sim.tlb.ns_per_ref"] = PerItemNs(costs.tlb_us, costs.refs);
  layer["bench.span_overhead_pct"] = 100.0 * (span_op_s - plain_op_s) / plain_op_s;
  layer["bench.span_coverage_pct"] = coverage_pct;
  PrintLayerTable(spans);
  std::filesystem::create_directories(args.workdir);
  const std::string path = wrl::StrFormat("%s/spans-%s-seed%llu.json", args.workdir.c_str(),
                                          args.workload.c_str(),
                                          static_cast<unsigned long long>(args.seed));
  spans.WriteChromeTrace(path);
  std::printf("wrote spans to %s\n", path.c_str());
  outcome.metrics = LayerMetrics(layer);
  return outcome;
}

}  // namespace perfbench
