// Shared plumbing for the experiment benches: the default scale, the
// --json report emitters, and suite running with loud warning surfacing.
// Each bench declares its own flags (support/flags.h) and its `main` is one
// RunMain call.
#ifndef WRLTRACE_BENCH_BENCH_UTIL_H_
#define WRLTRACE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "stats/events.h"
#include "support/flags.h"
#include "workloads/workloads.h"

namespace wrl {

// The standard bench workload scale (--scale), chosen so the full
// two-personality suite completes in a few minutes.
constexpr double kBenchScale = 0.2;

// Runs the full paper-workload suite for one personality through RunSuite.
// `options` carries any extra experiment options (replay variants, sweep,
// profile, the --progress heartbeat, ...); personality/events/jobs are
// overwritten from the explicit arguments.  A --jobs of 0 or 1 is serial.
inline std::vector<ExperimentResult> RunPersonalitySuite(Personality personality, double scale,
                                                         EventRecorder* events, unsigned jobs,
                                                         ExperimentOptions options) {
  options.personality = personality;
  options.events = events;
  options.jobs = std::max(jobs, 1u);
  const std::vector<WorkloadSpec> workloads = PaperWorkloads(scale);
  fprintf(stderr, "  running %zu workloads (%s) on %u worker(s)...\n", workloads.size(),
          PersonalityName(personality), options.jobs);
  std::vector<ExperimentResult> results = RunSuite(workloads, options);
  for (const ExperimentResult& r : results) {
    PrintResultWarnings(r, stderr);
  }
  return results;
}

// The timeline a report carries: `events`' events, or none.
inline const std::vector<TimelineEvent>& EventsOf(const EventRecorder* events) {
  static const std::vector<TimelineEvent> kNoEvents;
  return events != nullptr ? events->events() : kNoEvents;
}

// Emits the full run report to `path` (the --json flag) unless it is empty;
// throws wrl::Error when the report cannot be written.
inline void MaybeWriteRunReport(const std::string& path, const char* tool, double scale,
                                const std::vector<ExperimentResult>& results,
                                const EventRecorder* events = nullptr) {
  if (path.empty()) {
    return;
  }
  RunReportOptions options;
  options.tool = tool;
  options.scale = scale;
  WriteRunReport(path, results, EventsOf(events), options);
  fprintf(stderr, "wrote run report to %s\n", path.c_str());
}

// Emits the flat metrics-only report to `path` unless it is empty.
inline void MaybeWriteMetricsReport(const std::string& path, const char* tool, double scale,
                                    const std::map<std::string, double>& metrics,
                                    const EventRecorder* events = nullptr) {
  if (path.empty()) {
    return;
  }
  WriteMetricsReport(path, tool, metrics, EventsOf(events), scale);
  fprintf(stderr, "wrote metrics report to %s\n", path.c_str());
}

}  // namespace wrl

#endif  // WRLTRACE_BENCH_BENCH_UTIL_H_
