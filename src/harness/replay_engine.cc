#include "harness/replay_engine.h"

#include <algorithm>
#include <chrono>

#include "support/error.h"
#include "support/parallel.h"

namespace wrl {

namespace {

uint64_t WallNowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Materializes the parsed stream into fixed-size segments.  A growing
// dense vector would copy every element O(log n) times and briefly hold
// ~3x the stream during each reallocation; segments never move, and the
// final dense stream is reserved exactly once from the parser's counters.
class SegmentCollectSink : public RefBatchSink {
 public:
  static constexpr size_t kSegmentRefs = size_t{1} << 19;

  void OnRefBatch(const TraceRef* refs, size_t count) override {
    while (count > 0) {
      if (segments_.empty() || segments_.back().size() == kSegmentRefs) {
        segments_.emplace_back();
        segments_.back().reserve(kSegmentRefs);
      }
      std::vector<TraceRef>& segment = segments_.back();
      size_t take = std::min(count, kSegmentRefs - segment.size());
      segment.insert(segment.end(), refs, refs + take);
      refs += take;
      count -= take;
      total_ += take;
    }
  }

  uint64_t total() const { return total_; }

  // Appends every segment to `out` (already reserved), freeing each
  // segment as it drains so peak memory is stream + one segment.
  void MoveInto(std::vector<TraceRef>& out) {
    for (std::vector<TraceRef>& segment : segments_) {
      out.insert(out.end(), segment.begin(), segment.end());
      std::vector<TraceRef>().swap(segment);
    }
    segments_.clear();
  }

 private:
  std::vector<std::vector<TraceRef>> segments_;
  uint64_t total_ = 0;
};

}  // namespace

void ReplayEngine::Parse() {
  if (parsed_) {
    return;
  }
  WRL_CHECK_MSG(source_.log != nullptr, "ReplayEngine has no TraceLog");
  uint64_t wall0 = WallNowUs();
  TraceParser parser(source_.kernel_table);
  for (const auto& [pid, table] : source_.user_tables) {
    parser.SetUserTable(pid, table);
  }
  parser.SetInitialContext(source_.initial_context);
  SegmentCollectSink collector;
  parser.SetBatchSink(&collector);
  source_.log->Replay(
      [&parser](const uint32_t* words, size_t count) { parser.Feed(words, count); });
  parser.Finish();
  parser_stats_ = parser.stats();
  parser_errors_ = parser.errors();
  // Exact-size materialization: the parser has already counted every
  // reference it delivered (refs == ifetches + loads + stores), so the
  // dense stream allocates once and never grows.
  uint64_t total = parser_stats_.ifetches + parser_stats_.loads + parser_stats_.stores;
  WRL_CHECK_MSG(total == collector.total(), "parser counters disagree with collected refs");
  refs_.reserve(total);
  collector.MoveInto(refs_);
  materialized_bytes_ = refs_.size() * sizeof(TraceRef);
  parse_wall_us_ = WallNowUs() - wall0;
  parsed_ = true;
}

std::vector<ReplayEngine::Outcome> ReplayEngine::Run(const std::vector<Config>& configs) {
  return Run(configs, Options());
}

std::vector<ReplayEngine::Outcome> ReplayEngine::Run(const std::vector<Config>& configs,
                                                     const Options& options) {
  Parse();
  std::vector<Outcome> outcomes(configs.size());
  uint64_t fanout_wall0 = WallNowUs();
  // On a pool, each config records into a private recorder, kept in its
  // Outcome (and absorbed in config order below), so reports are
  // scheduling-independent.  Serially the configs record straight into
  // options.events.
  const bool pooled = options.jobs > 1 && configs.size() > 1;
  std::vector<EventRecorder> recorders(pooled ? configs.size() : 0);
  ParallelFor(configs.size(), options.jobs, [&](size_t i) {
    Outcome& out = outcomes[i];
    out.name = configs[i].name;
    EventRecorder::Scope scope(pooled ? &recorders[i] : options.events,
                               "replay:" + configs[i].name, "replay");
    uint64_t wall0 = WallNowUs();
    out.sink = configs[i].make();
    size_t batch = options.batch_refs == 0 ? kRefBatchCapacity : options.batch_refs;
    for (size_t off = 0; off < refs_.size(); off += batch) {
      size_t count = std::min(batch, refs_.size() - off);
      out.sink->OnRefBatch(refs_.data() + off, count);
    }
    out.refs = refs_.size();
    out.wall_us = WallNowUs() - wall0;
  });
  for (size_t i = 0; i < recorders.size(); ++i) {
    outcomes[i].timeline = recorders[i].TakeEvents();
  }

  last_run_wall_us_ = WallNowUs() - fanout_wall0;
  last_run_refs_ = refs_.size() * configs.size();
  configs_run_ = configs.size();
  last_mrefs_per_sec_ =
      last_run_wall_us_ == 0
          ? 0
          : static_cast<double>(last_run_refs_) / (static_cast<double>(last_run_wall_us_) * 1e-6) /
                1e6;
  if (options.events != nullptr) {
    for (Outcome& out : outcomes) {
      options.events->Absorb(std::move(out.timeline));
      out.timeline.clear();
    }
  }
  return outcomes;
}

void ReplayEngine::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddGauge(prefix + "refs", [this] { return static_cast<double>(refs_.size()); });
  registry.AddCounter(prefix + "materialized_bytes", &materialized_bytes_);
  registry.AddGauge(prefix + "parse_wall_us",
                    [this] { return static_cast<double>(parse_wall_us_); });
  registry.AddGauge(prefix + "configs", [this] { return static_cast<double>(configs_run_); });
  registry.AddGauge(prefix + "delivered_refs",
                    [this] { return static_cast<double>(last_run_refs_); });
  registry.AddGauge(prefix + "wall_us", [this] { return static_cast<double>(last_run_wall_us_); });
  registry.AddGauge(prefix + "mrefs_per_sec", [this] { return last_mrefs_per_sec_; });
}

void ReplayEngine::RegisterParserStats(StatsRegistry& registry, const std::string& prefix) {
  wrl::RegisterParserStats(registry, prefix, &parser_stats_);
}

}  // namespace wrl
