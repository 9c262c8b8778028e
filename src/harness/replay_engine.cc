#include "harness/replay_engine.h"

#include <algorithm>
#include <chrono>

#include "support/error.h"

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
  // Exact-size materialization: the parser has already counted every
  // reference it delivered (refs == ifetches + loads + stores), so the
  // dense stream allocates once and never grows.
  uint64_t total = parser_stats_.ifetches + parser_stats_.loads + parser_stats_.stores;
  WRL_CHECK_MSG(total == collector.total(), "parser counters disagree with collected refs");
  refs_.reserve(total);
  collector.MoveInto(refs_);
  parsed_ = true;
}

std::vector<ReplayEngine::Outcome> ReplayEngine::Run(const std::vector<Config>& configs) {
  return Run(configs, Options());
}

std::vector<ReplayEngine::Outcome> ReplayEngine::Run(const std::vector<Config>& configs,
                                                     const Options& options) {
  Parse();
  const size_t batch = options.batch_refs == 0 ? kRefBatchCapacity : options.batch_refs;
  std::vector<Outcome> outcomes(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    Outcome& out = outcomes[i];
    out.name = configs[i].name;
    EventRecorder::Scope scope(options.events, "replay:" + configs[i].name, "replay");
    uint64_t wall0 = WallNowUs();
    out.sink = configs[i].make();
    for (size_t off = 0; off < refs_.size(); off += batch) {
      size_t count = std::min(batch, refs_.size() - off);
      out.sink->OnRefBatch(refs_.data() + off, count);
    }
    out.refs = refs_.size();
    out.wall_us = WallNowUs() - wall0;
  }
  return outcomes;
}

}  // namespace wrl
