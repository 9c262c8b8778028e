// The pipelined trace transport (the ISSUE-7 producer/consumer split).
//
// Chen's argument is that software tracing pays off when the trace is
// consumed on the fly — but a synchronous on-the-fly consumer makes the
// traced machine stall for the full cost of every drain.  HMTT-style
// decoupling fixes that: the traced machine (producer) copies each drained
// trace-buffer chunk into a bounded single-producer/single-consumer ring
// and immediately resumes simulating, while a consumer thread runs the
// parser + analysis sink chain over the chunks in drain order
// (simulate ∥ parse ∥ analyze).
//
// Ordering/identity invariant: the ring is strictly FIFO and the consumer
// is a single thread, so the consumer observes exactly the chunk sequence
// (and chunk boundaries) a synchronous sink would have seen.  Every
// counter, trace word, profile, and report byte is therefore identical to
// the synchronous path; only wall-clock overlap changes.  The overlap is
// observable through the producer-stall / consumer-starve / ring-occupancy
// counters each ring exports as `trace.pipeline.*` wrlstats metrics.
//
// Degradation: the pipeline only helps when a second hardware thread can
// run the consumer, so the experiment harness turns it on for multi-core
// hosts and leaves single-core ones synchronous
// (ExperimentOptions::pipeline).
#ifndef WRLTRACE_TRACE_CHUNK_RING_H_
#define WRLTRACE_TRACE_CHUNK_RING_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats/stats.h"

namespace wrl {

// Default ring capacity, in chunks.  A chunk is one trace-buffer drain, so
// even a shallow ring lets the machine run a full buffer ahead of the
// analysis; deeper rings only buy slack against bursty drains.
constexpr size_t kDefaultPipelineDepth = 8;

// A bounded SPSC ring of trace-word chunks.  Push copies the chunk (the
// producer's buffer is the live kernel trace buffer, reused immediately
// after the drain returns); Pop moves the oldest chunk out by swap, so
// slot storage recycles between the two threads without reallocating once
// the ring reaches steady state.
//
// Exactly one producer thread may call Push/Close and one consumer thread
// Pop; Cancel may be called from either side.  The stats accessors are
// meant for after the ring has quiesced (Close + drained, or Cancel).
class ChunkRing {
 public:
  explicit ChunkRing(size_t capacity = kDefaultPipelineDepth);

  // Copies one chunk into the ring, blocking while the ring is full (a
  // producer stall — the machine outran the analysis).  Returns false,
  // dropping the chunk, once the ring has been cancelled.
  bool Push(const uint32_t* words, size_t count);
  // Moves the oldest chunk into `out`, blocking while the ring is empty (a
  // consumer starve — the analysis outran the machine).  Returns false
  // once the ring is closed and drained, or cancelled.
  bool Pop(std::vector<uint32_t>& out);
  // Producer side: no more chunks; the consumer drains what remains.
  void Close();
  // Error path (either side): unblocks both threads and drops queued
  // chunks.  Push returns false afterwards.
  void Cancel();

  bool cancelled() const;
  // True while the consumer is blocked in Pop on an empty ring: it has
  // taken every chunk pushed so far.  Tests wait on this instead of
  // sleeping to make the consumer starve.
  bool consumer_waiting() const;
  // True while the producer is blocked in Push on a full ring (the mirror
  // of consumer_waiting): tests wait on this instead of sleeping to make
  // the producer stall.
  bool producer_waiting() const;

  // ---- Observability (quiesced ring) ----
  uint64_t chunks() const { return chunks_; }
  uint64_t words() const { return words_; }
  uint64_t producer_stalls() const { return producer_stalls_; }
  uint64_t consumer_starves() const { return consumer_starves_; }
  uint64_t max_occupancy() const { return max_occupancy_; }
  size_t capacity() const { return slots_.size(); }
  const Histogram& occupancy_hist() const { return occupancy_hist_; }

  // Binds the ring's counters into `registry` under `prefix`
  // ("trace.pipeline." in the experiment harness).  The ring must have
  // quiesced and must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "trace.pipeline.");

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<std::vector<uint32_t>> slots_;
  size_t head_ = 0;  // Oldest occupied slot.
  size_t size_ = 0;  // Occupied slots.
  bool closed_ = false;
  bool cancelled_ = false;
  bool consumer_waiting_ = false;
  bool producer_waiting_ = false;

  // Transport accounting (mutated under mutex_; read once quiesced).
  uint64_t chunks_ = 0;
  uint64_t words_ = 0;
  uint64_t producer_stalls_ = 0;
  uint64_t consumer_starves_ = 0;
  uint64_t max_occupancy_ = 0;
  Histogram occupancy_hist_;  // Ring occupancy after each push.
};

// The harness-facing wrapper: owns the ring and the consumer thread.  The
// traced machine's trace sink calls Produce; the consumer thread invokes
// `consume` once per chunk, in drain order.  Finish() closes the ring,
// joins the consumer, and rethrows anything the consumer chain threw — so
// a parser/sink failure mid-stream surfaces on the producer thread as the
// same exception the synchronous path would have thrown.
class TracePipeline {
 public:
  using ChunkFn = std::function<void(const uint32_t*, size_t)>;

  explicit TracePipeline(ChunkFn consume, size_t depth = kDefaultPipelineDepth);
  // Joins without throwing (Finish is the throwing path; the destructor
  // only cleans up after an abandoned pipeline during unwinding).
  ~TracePipeline();

  TracePipeline(const TracePipeline&) = delete;
  TracePipeline& operator=(const TracePipeline&) = delete;

  // Producer side (the trace sink).  If the consumer has already failed,
  // joins it and rethrows its error — the producer learns of a dead
  // analysis at the next drain, not at the end of the run.
  void Produce(const uint32_t* words, size_t count);
  // Closes the ring, joins the consumer, rethrows its error.  Idempotent.
  void Finish();

  const ChunkRing& ring() const { return ring_; }
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "trace.pipeline.") {
    ring_.RegisterStats(registry, prefix);
  }

 private:
  void Join();  // Close + join, no throw.

  ChunkRing ring_;
  std::thread consumer_;
  std::exception_ptr error_;  // Written by the consumer thread before exit.
  bool finished_ = false;
};

}  // namespace wrl

#endif  // WRLTRACE_TRACE_CHUNK_RING_H_
