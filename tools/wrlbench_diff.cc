// wrlbench_diff: the perf-trajectory gate.
//
// Compares the flat `metrics` objects of two wrlstats/1 reports (a pinned
// BENCH_baseline.json and a fresh run) metric by metric.  Each metric's
// "good" direction is inferred from its name — throughputs up, times and
// miss counts down, everything else neutral — and a change in the bad
// direction beyond the threshold is a regression.
//
// Usage:
//   wrlbench_diff BASELINE.json CURRENT.json
//       [--threshold PCT]     regression threshold, percent (default 10)
//       [--metric NAME=PCT]   per-metric threshold override (repeatable)
//       [--enforce NAME]      metric gates even under --advisory (repeatable)
//       [--advisory]          report regressions but exit 0
//       [--quiet]             print regressions and summary only
//
// Exit codes: 0 ok (or --advisory), 1 regression(s), 2 usage or runtime
// error (an unknown flag, a threshold that is not a finite number, an
// unreadable report).
//
// Neutral metrics (no inferable direction) and metrics present in only one
// report are listed but never gate.  Wall-clock metrics are inherently
// noisy — pick thresholds accordingly; the default 10% suits the
// deterministic counters, CI uses --advisory for the wall-clock ones and
// --enforce for the handful of throughput floors that must hold even on
// shared runners (an enforced metric missing from either report also
// fails: a gate that silently evaporates is no gate).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/flags.h"
#include "support/json.h"

using namespace wrl;

namespace {

enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

Direction DirectionOf(const std::string& name) {
  static const char* kHigher[] = {"per_sec", "per_second", "mips", "speedup",
                                  "compression_ratio", "hit_rate"};
  static const char* kLower[] = {"_ns",     "seconds", "misses",   "errors", "stall",
                                 "wall_us", "bytes",   "dropins",  "_us",    "cycles",
                                 "faults",  "switches"};
  for (const char* pattern : kHigher) {
    if (name.find(pattern) != std::string::npos) {
      return Direction::kHigherBetter;
    }
  }
  for (const char* pattern : kLower) {
    if (name.find(pattern) != std::string::npos) {
      return Direction::kLowerBetter;
    }
  }
  return Direction::kNeutral;
}

std::map<std::string, double> LoadMetrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc = ParseJson(buffer.str());
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->IsObject()) {
    throw Error(path + " has no metrics object");
  }
  std::map<std::string, double> out;
  for (const auto& [key, value] : metrics->object) {
    if (value.IsNumber()) {
      out[key] = value.number;
    }
  }
  return out;
}

int Run(ArgList args) {
  double threshold = 10.0;
  std::vector<std::string> metric_specs;
  std::vector<std::string> enforce;
  bool advisory = false;
  bool quiet = false;
  Flags flags("BASELINE.json CURRENT.json");
  flags.Real("threshold", &threshold);
  flags.Strings("metric", &metric_specs, "NAME=PCT");
  flags.Strings("enforce", &enforce, "NAME");
  flags.Switch("advisory", &advisory);
  flags.Switch("quiet", &quiet);
  const std::vector<std::string> paths = flags.Parse(args, 2, 2);
  std::map<std::string, double> overrides;
  for (const std::string& spec : metric_specs) {
    const size_t eq = spec.rfind('=');
    if (eq == std::string::npos) {
      throw flags.UsageError("--metric wants NAME=PCT, got '" + spec + "'");
    }
    try {
      overrides[spec.substr(0, eq)] = ParseFiniteReal(std::string_view(spec).substr(eq + 1));
    } catch (const Error& e) {
      throw flags.UsageError("--metric " + spec + ": " + e.what());
    }
  }
  const std::set<std::string> enforced(enforce.begin(), enforce.end());

  std::map<std::string, double> baseline = LoadMetrics(paths[0]);
  std::map<std::string, double> current = LoadMetrics(paths[1]);

  size_t compared = 0;
  size_t regressions = 0;
  size_t enforced_regressions = 0;
  size_t improvements = 0;
  size_t only_baseline = 0;
  size_t only_current = 0;
  for (const auto& [name, base_value] : baseline) {
    auto it = current.find(name);
    if (it == current.end()) {
      ++only_baseline;
      if (enforced.count(name) != 0) {
        ++enforced_regressions;
        printf("REGRESSION %-47s ENFORCED metric missing from current report\n", name.c_str());
      } else if (!quiet) {
        printf("  %-56s baseline-only\n", name.c_str());
      }
      continue;
    }
    double cur_value = it->second;
    ++compared;
    double delta_pct = 0;
    if (base_value != 0) {
      delta_pct = 100.0 * (cur_value - base_value) / std::fabs(base_value);
    } else if (cur_value != 0) {
      delta_pct = cur_value > 0 ? 100.0 : -100.0;
    }
    Direction direction = DirectionOf(name);
    double limit = threshold;
    auto override_it = overrides.find(name);
    if (override_it != overrides.end()) {
      limit = override_it->second;
    }
    bool regressed = false;
    bool improved = false;
    if (direction == Direction::kLowerBetter) {
      regressed = delta_pct > limit;
      improved = delta_pct < -limit;
    } else if (direction == Direction::kHigherBetter) {
      regressed = delta_pct < -limit;
      improved = delta_pct > limit;
    }
    bool gate = enforced.count(name) != 0;
    if (regressed) {
      ++regressions;
      if (gate) {
        ++enforced_regressions;
      }
      printf("REGRESSION %-47s %14.6g -> %14.6g  (%+.1f%%, limit %.1f%%)%s\n", name.c_str(),
             base_value, cur_value, delta_pct, limit, gate ? "  ENFORCED" : "");
    } else if (!quiet || gate) {
      const char* tag = improved ? "improved  " : (direction == Direction::kNeutral
                                                       ? "neutral   "
                                                       : "ok        ");
      printf("%s %-47s %14.6g -> %14.6g  (%+.1f%%)%s\n", tag, name.c_str(), base_value,
             cur_value, delta_pct, gate ? "  ENFORCED" : "");
    }
    if (improved) {
      ++improvements;
    }
  }
  for (const auto& [name, value] : current) {
    (void)value;
    if (baseline.find(name) == baseline.end()) {
      ++only_current;
      if (!quiet) {
        printf("  %-56s current-only\n", name.c_str());
      }
    }
  }

  // Enforced metrics must exist in the baseline too, or the gate is vacuous.
  for (const std::string& name : enforced) {
    if (baseline.find(name) == baseline.end()) {
      ++enforced_regressions;
      printf("REGRESSION %-47s ENFORCED metric missing from baseline report\n", name.c_str());
    }
  }
  printf("%zu metrics compared: %zu regression(s) (%zu enforced), %zu improvement(s), "
         "%zu baseline-only, %zu current-only (threshold %.1f%%)\n",
         compared, regressions, enforced_regressions, improvements, only_baseline, only_current,
         threshold);
  if (regressions > 0 && advisory && enforced_regressions == 0) {
    printf("advisory mode: regressions reported, exit 0\n");
  }
  if (enforced_regressions > 0) {
    return 1;
  }
  return (regressions > 0 && !advisory) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return RunMain("wrlbench_diff", argc, argv, Run); }
