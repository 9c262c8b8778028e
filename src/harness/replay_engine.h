// Capture-once / replay-many analysis over an archived or in-memory trace.
//
// The captured trace is parsed exactly once (one pass of table lookups and
// block reconstruction), the reconstructed reference stream is
// materialized as a dense array, and each analysis configuration replays
// that array in kRefBatchCapacity-sized batches, one configuration after
// the other.  A K-config study therefore costs one parse + K cheap replays.
//
// Bit-identity invariant: the materialized stream is exactly the sequence a
// live sink behind the parser would have seen, so every counter and
// predicted number a replayed configuration produces matches the live path
// bit-for-bit, whatever Options::batch_refs is.
//
// Every experiment (RunExperiment, and tlb_study on it) feeds each drain
// through one parser and one TeeBatchSink as the traced run produces it,
// and `wrltrace replay`/`verify` stream an archive through one parser.
// The engine serves perfbench's studies of archived captures and the
// BM_ReplayBatched micro-benchmark.
#ifndef WRLTRACE_HARNESS_REPLAY_ENGINE_H_
#define WRLTRACE_HARNESS_REPLAY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/events.h"
#include "trace/parser.h"
#include "trace/trace_log.h"

namespace wrl {

// Everything a replay needs to re-parse a captured trace: the chunk source
// (an in-memory TraceLog or an on-disk ArchiveReader — the engine does not
// care which) and the per-address-space lookup tables of the *capturing*
// system (which must stay alive for the engine's lifetime).
struct ReplaySource {
  const TraceChunkSource* log = nullptr;
  const TraceInfoTable* kernel_table = nullptr;
  std::vector<std::pair<uint8_t, const TraceInfoTable*>> user_tables;
  uint8_t initial_context = kKernelPid;
};

class ReplayEngine {
 public:
  explicit ReplayEngine(ReplaySource source) : source_(std::move(source)) {}

  // Parses the log once (TraceChunkSource::Replay) and materializes the
  // reference stream.  Idempotent; Run() calls it implicitly.  The dense
  // stream is reserved exactly once, from the parser's own ifetch+load+
  // store counters, so materialization never grows by reallocation.
  void Parse();

  const TraceParserStats& parser_stats() const { return parser_stats_; }
  const std::vector<TraceRef>& refs() const { return refs_; }

  // One analysis configuration.  `make` builds the config's sink chain; the
  // engine keeps the returned sink alive in the Outcome so callers can
  // downcast and harvest results.
  struct Config {
    std::string name;
    std::function<std::unique_ptr<RefBatchSink>()> make;
  };

  struct Outcome {
    std::string name;
    std::unique_ptr<RefBatchSink> sink;
    uint64_t refs = 0;
    uint64_t wall_us = 0;  // Host wall time of this config's replay.
  };

  struct Options {
    size_t batch_refs = kRefBatchCapacity;
    // When set, each config's replay is recorded here as a
    // `replay:<name>` scope.
    EventRecorder* events = nullptr;
  };

  // Replays the materialized stream through every config, one after the
  // other.  Outcomes are in config order.  Throws whatever a config's
  // make/sink throws.
  std::vector<Outcome> Run(const std::vector<Config>& configs, const Options& options);
  std::vector<Outcome> Run(const std::vector<Config>& configs);  // Default options.

 private:
  ReplaySource source_;
  bool parsed_ = false;
  std::vector<TraceRef> refs_;
  TraceParserStats parser_stats_;
};

}  // namespace wrl

#endif  // WRLTRACE_HARNESS_REPLAY_ENGINE_H_
