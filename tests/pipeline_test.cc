// The pipelined trace transport's contract (ISSUE 7): chunks flow through
// the bounded SPSC ring in strict drain order, so a pipelined experiment is
// byte-identical to the synchronous one — every counter, trace word,
// profile, and predicted number — in live, capture-replay, profiled, and
// per-ref-shim modes.  The transport itself must apply backpressure when
// the consumer is slow, count its stalls/starves, and shut down cleanly
// when the consumer chain throws mid-stream.
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bare_runtime.h"
#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "stats/stats.h"
#include "support/error.h"
#include "trace/chunk_ring.h"
#include "trace/trace_log.h"

namespace wrl {
namespace {

const char* kBody = R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        la   $t0, table
        li   $t1, 0
        li   $t2, 96
fill:   sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        sw   $t1, 0($t3)
        addiu $t1, $t1, 1
        bne  $t1, $t2, fill
        nop
        li   $t1, 0
        li   $v0, 0
sum:    sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        lw   $t4, 0($t3)
        addu $v0, $v0, $t4
        addiu $t1, $t1, 1
        bne  $t1, $t2, sum
        nop
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
table:  .space 384
)";

// ---- ChunkRing transport ----

// Spins until `ready()` holds.  Gives up after 30 s, so a ring that never
// reaches the awaited state fails the test instead of hanging it.
template <typename Ready>
bool Await(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(ChunkRing, PreservesOrderUnderBackpressure) {
  constexpr size_t kChunks = 64;
  constexpr size_t kWordsPerChunk = 17;
  ChunkRing ring(2);
  std::vector<uint32_t> first_words;
  std::thread consumer([&] {
    std::vector<uint32_t> chunk;
    for (size_t popped = 0;; ++popped) {
      // A consumer that pops only once the producer is blocked on the full
      // tiny ring, for every chunk the producer still has to push: each
      // such push must stall rather than drop or reorder chunks.
      if (popped + ring.capacity() < kChunks &&
          !Await([&] { return ring.producer_waiting(); })) {
        ADD_FAILURE() << "the producer never blocked on the full ring";
        ring.Cancel();
        return;
      }
      if (!ring.Pop(chunk)) {
        return;
      }
      ASSERT_EQ(chunk.size(), kWordsPerChunk);
      first_words.push_back(chunk[0]);
    }
  });
  for (size_t i = 0; i < kChunks; ++i) {
    std::vector<uint32_t> words(kWordsPerChunk, static_cast<uint32_t>(i));
    ASSERT_TRUE(ring.Push(words.data(), words.size()));
  }
  ring.Close();
  consumer.join();

  ASSERT_EQ(first_words.size(), kChunks);
  for (size_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(first_words[i], static_cast<uint32_t>(i)) << i;
  }
  EXPECT_EQ(ring.chunks(), kChunks);
  EXPECT_EQ(ring.words(), kChunks * kWordsPerChunk);
  // Every push past the ring's capacity stalled.
  EXPECT_EQ(ring.producer_stalls(), kChunks - ring.capacity());
  EXPECT_LE(ring.max_occupancy(), ring.capacity());
  EXPECT_EQ(ring.occupancy_hist().count(), kChunks);
}

TEST(ChunkRing, CountsConsumerStarves) {
  ChunkRing ring(4);
  uint64_t seen = 0;
  std::thread consumer([&] {
    std::vector<uint32_t> chunk;
    while (ring.Pop(chunk)) {
      seen += chunk.size();
    }
  });
  // The producer pushes (and finally closes) only once the consumer has
  // taken everything and is waiting on the empty ring: every Pop starves,
  // and the ring never holds more than one chunk, so no push can stall.
  auto wait_for_consumer = [&] {
    while (!ring.consumer_waiting()) {
      std::this_thread::yield();
    }
  };
  for (uint32_t i = 0; i < 8; ++i) {
    wait_for_consumer();
    ASSERT_TRUE(ring.Push(&i, 1));
  }
  wait_for_consumer();
  ring.Close();
  consumer.join();
  // `seen` and the ring's counters are plain fields: read them only after
  // the join.
  EXPECT_EQ(seen, 8u);
  EXPECT_EQ(ring.consumer_starves(), 9u);
  EXPECT_EQ(ring.producer_stalls(), 0u);
  EXPECT_EQ(ring.max_occupancy(), 1u);
}

TEST(ChunkRing, CancelUnblocksBlockedProducer) {
  ChunkRing ring(1);
  uint32_t word = 1;
  ASSERT_TRUE(ring.Push(&word, 1));  // Fills the ring.
  std::thread canceller([&] {
    // Cancel only once the Push below is blocked on the full ring.
    EXPECT_TRUE(Await([&] { return ring.producer_waiting(); }));
    ring.Cancel();
  });
  // Blocks on the full ring until Cancel, then reports the drop.
  EXPECT_FALSE(ring.Push(&word, 1));
  canceller.join();
  EXPECT_TRUE(ring.cancelled());
  EXPECT_EQ(ring.producer_stalls(), 1u);
  std::vector<uint32_t> out;
  EXPECT_FALSE(ring.Pop(out));  // Cancelled rings drop queued chunks too.
}

// ---- TracePipeline shutdown ----

TEST(TracePipeline, ConsumerErrorSurfacesMidStream) {
  // The consumer chain fails on its third chunk; the producer must learn of
  // the death at a subsequent drain (or Finish) as the consumer's own
  // exception, with no hang and no silent drop.
  size_t consumed = 0;
  TracePipeline pipeline(
      [&consumed](const uint32_t*, size_t) {
        if (++consumed == 3) {
          throw Error("parser failed mid-stream");
        }
      },
      2);
  uint32_t word = 7;
  bool threw = false;
  try {
    for (int i = 0; i < 1000; ++i) {
      pipeline.Produce(&word, 1);
    }
    pipeline.Finish();
  } catch (const Error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "parser failed mid-stream");
  }
  EXPECT_TRUE(threw);
  EXPECT_GE(consumed, 3u);
  // The error was delivered once; a later Finish is a clean no-op.
  EXPECT_NO_THROW(pipeline.Finish());
}

TEST(TracePipeline, AbandonedPipelineJoinsQuietly) {
  // Unwinding past a pipeline whose consumer failed must not terminate:
  // the destructor joins without throwing.
  TracePipeline pipeline([](const uint32_t*, size_t) { throw Error("dead on arrival"); }, 2);
  uint32_t word = 1;
  pipeline.Produce(&word, 1);
  // Destructor runs here with the error still queued.
}

// ---- ReplayEngine: exact materialization ----

TEST(ReplayEngine, MaterializesExactlyOnce) {
  BareBuild build = BuildBareTraced(kBody);
  BareTraceRun run = RunBareTraced(build);
  TraceLog log;
  log.Append(run.trace_words.data(), run.trace_words.size());

  ReplaySource source;
  source.log = &log;
  source.kernel_table = &build.table;
  ReplayEngine engine(std::move(source));
  engine.Parse();

  const TraceParserStats& stats = engine.parser_stats();
  uint64_t expected = stats.ifetches + stats.loads + stats.stores;
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(engine.refs().size(), expected);
  // The single exact reserve: the dense stream never grew by reallocation.
  EXPECT_EQ(engine.refs().capacity(), engine.refs().size());
}

// ---- Experiment-level byte identity: pipelined vs synchronous ----

// Names excluded from identity comparison: the pipeline's own transport
// counters (they exist only on pipelined runs and their stall/starve values
// depend on scheduling) and anything wall-clock derived.
bool TimingOrTransportName(const std::string& name) {
  return name.rfind("trace.pipeline.", 0) == 0 || name.find("wall") != std::string::npos ||
         name.find("per_sec") != std::string::npos || name.find("mips") != std::string::npos;
}

void ExpectSameStats(const StatsSnapshot& pipelined, const StatsSnapshot& sync) {
  for (const auto& [name, value] : sync.values()) {
    if (TimingOrTransportName(name)) {
      continue;
    }
    const StatValue* other = pipelined.Find(name);
    ASSERT_NE(other, nullptr) << "pipelined run lost metric " << name;
    ASSERT_EQ(other->kind, value.kind) << name;
    switch (value.kind) {
      case StatValue::Kind::kCounter:
        EXPECT_EQ(other->counter, value.counter) << name;
        break;
      case StatValue::Kind::kGauge:
        EXPECT_EQ(other->gauge, value.gauge) << name;
        break;
      case StatValue::Kind::kHistogram:
        EXPECT_EQ(other->hist_count, value.hist_count) << name;
        EXPECT_EQ(other->hist_sum, value.hist_sum) << name;
        EXPECT_EQ(other->hist_min, value.hist_min) << name;
        EXPECT_EQ(other->hist_max, value.hist_max) << name;
        EXPECT_EQ(other->hist_buckets, value.hist_buckets) << name;
        break;
    }
  }
  // And nothing new appeared beyond the transport counters.
  for (const auto& [name, value] : pipelined.values()) {
    if (!TimingOrTransportName(name)) {
      EXPECT_TRUE(sync.Has(name)) << "pipelined run grew metric " << name;
    }
  }
}

void ExpectSamePrediction(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.idle_instructions, b.idle_instructions);
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles);
  EXPECT_EQ(a.arith_stall_cycles, b.arith_stall_cycles);
  EXPECT_EQ(a.io_stall_cycles, b.io_stall_cycles);
  EXPECT_EQ(a.utlb_misses, b.utlb_misses);
  EXPECT_EQ(a.synthesized_refs, b.synthesized_refs);
  EXPECT_EQ(a.user_instructions, b.user_instructions);
  EXPECT_EQ(a.kernel_instructions, b.kernel_instructions);
}

WorkloadSpec UnitWorkload() {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;
  return w;
}

void ExpectSameExperiment(const ExperimentResult& pipelined, const ExperimentResult& sync) {
  EXPECT_EQ(pipelined.measured_cycles, sync.measured_cycles);
  EXPECT_EQ(pipelined.measured_utlb, sync.measured_utlb);
  EXPECT_EQ(pipelined.exit_code, sync.exit_code);
  EXPECT_EQ(pipelined.trace_words, sync.trace_words);
  EXPECT_EQ(pipelined.parser_errors, sync.parser_errors);
  EXPECT_EQ(pipelined.analysis_switches, sync.analysis_switches);
  EXPECT_EQ(pipelined.traced_machine_instructions, sync.traced_machine_instructions);
  ExpectSamePrediction(pipelined.prediction, sync.prediction);
  ExpectSameStats(pipelined.stats, sync.stats);
}

// The pipeline is forced on and off (the host may have one core, where the
// default degrades to synchronous).
TEST(PipelinedExperiment, LiveAnalysisIsByteIdentical) {
  WorkloadSpec w = UnitWorkload();

  ExperimentOptions pipelined_options;
  pipelined_options.pipeline = true;
  ExperimentResult pipelined = RunExperiment(w, pipelined_options);

  ExperimentOptions sync_options;
  sync_options.pipeline = false;
  ExperimentResult sync = RunExperiment(w, sync_options);

  ExpectSameExperiment(pipelined, sync);

  // The timeline holds exactly one run.measured and one run.traced phase,
  // each spanning its machine's whole cycle count, after the measured build
  // and before/after the traced build (perfbench's sim_mcycles_per_s sums
  // these two events).
  for (const ExperimentResult* result : {&pipelined, &sync}) {
    SCOPED_TRACE(result == &pipelined ? "pipelined" : "synchronous");
    auto index_of = [&](const std::string& name) {
      size_t found = result->timeline.size();
      for (size_t i = 0; i < result->timeline.size(); ++i) {
        if (result->timeline[i].name == name) {
          EXPECT_EQ(found, result->timeline.size()) << "second " << name << " event";
          found = i;
        }
      }
      EXPECT_LT(found, result->timeline.size()) << "no " << name << " event";
      return found;
    };
    const size_t build_measured = index_of("build.measured");
    const size_t run_measured = index_of("run.measured");
    const size_t build_traced = index_of("build.traced");
    const size_t run_traced = index_of("run.traced");
    ASSERT_LT(run_traced, result->timeline.size());
    EXPECT_LT(build_measured, run_measured);
    EXPECT_LT(run_measured, build_traced);
    EXPECT_LT(build_traced, run_traced);
    EXPECT_EQ(result->timeline[run_measured].cycle_dur,
              result->stats.CounterValue("measured.machine.cycles"));
    EXPECT_EQ(result->timeline[run_traced].cycle_dur,
              result->stats.CounterValue("traced.machine.cycles"));
  }

  // The transport counters exist exactly on the pipelined run, and the ring
  // carried every drained trace word.
  ASSERT_TRUE(pipelined.stats.Has("trace.pipeline.chunks"));
  EXPECT_FALSE(sync.stats.Has("trace.pipeline.chunks"));
  EXPECT_GE(pipelined.stats.CounterValue("trace.pipeline.chunks"), 1u);
  EXPECT_EQ(pipelined.stats.CounterValue("trace.pipeline.words"), pipelined.trace_words);
}

// A variant the sweep cannot price gets its own simulator on the analysis
// tee, so pipelined it runs on the consumer thread next to the parser.
TEST(PipelinedExperiment, VariantAnalysisIsByteIdentical) {
  WorkloadSpec w = UnitWorkload();

  ExperimentOptions pipelined_options;
  pipelined_options.pipeline = true;
  ReplayVariant slowmem;
  slowmem.name = "slowmem";
  slowmem.memsys.read_miss_penalty = 30;
  pipelined_options.replay_variants.push_back(slowmem);
  ExperimentResult pipelined = RunExperiment(w, pipelined_options);

  ExperimentOptions sync_options = pipelined_options;
  sync_options.pipeline = false;
  ExperimentResult sync = RunExperiment(w, sync_options);

  ExpectSameExperiment(pipelined, sync);
  ASSERT_TRUE(pipelined.stats.Has("trace.pipeline.chunks"));
  ASSERT_EQ(pipelined.replays.size(), 1u);
  EXPECT_FALSE(pipelined.replays[0].swept);
  ASSERT_EQ(pipelined.replays.size(), sync.replays.size());
  for (size_t i = 0; i < sync.replays.size(); ++i) {
    EXPECT_EQ(pipelined.replays[i].name, sync.replays[i].name);
    ExpectSamePrediction(pipelined.replays[i].prediction, sync.replays[i].prediction);
    EXPECT_EQ(pipelined.replays[i].refs, sync.replays[i].refs);
  }
}

TEST(PipelinedExperiment, ProfiledRunIsByteIdentical) {
  WorkloadSpec w = UnitWorkload();

  ExperimentOptions pipelined_options;
  pipelined_options.pipeline = true;
  pipelined_options.profile = true;
  ExperimentResult pipelined = RunExperiment(w, pipelined_options);

  ExperimentOptions sync_options = pipelined_options;
  sync_options.pipeline = false;
  ExperimentResult sync = RunExperiment(w, sync_options);

  ExpectSameExperiment(pipelined, sync);
  EXPECT_EQ(pipelined.profile.CanonicalJson(), sync.profile.CanonicalJson());
}

}  // namespace
}  // namespace wrl
