// The wrltrace/1 durable archive's contract (trace_archive.h): a capture
// written to disk round-trips bit-identically through a fresh reader, the
// crash-safety protocol recovers every intact chunk of a truncated or torn
// archive with loud chunk-accurate diagnostics, corrupt payloads are
// detected by CRC before a byte is trusted, and an archived experiment
// capture replays through the ReplayEngine to the exact analysis counters
// the live run produced.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/replay_engine.h"
#include "kernel/kernel_config.h"
#include "kernel/system_build.h"
#include "sim/predictor.h"
#include "sim/tlb_sim.h"
#include "support/error.h"
#include "support/json.h"
#include "trace/chunk_codec.h"
#include "trace/trace_archive.h"
#include "trace/trace_log.h"

namespace wrl {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

// Deterministic address-like trace words: clustered walks through a few
// "spaces" with occasional jumps, like a real interleaved system trace.
std::vector<std::vector<uint32_t>> SyntheticChunks(size_t chunks, size_t words_per_chunk) {
  std::vector<std::vector<uint32_t>> out(chunks);
  uint32_t state = 0x2545f491;
  uint32_t walkers[3] = {0x80001000, 0x10008000, 0x7fff8000};
  for (size_t c = 0; c < chunks; ++c) {
    out[c].reserve(words_per_chunk);
    for (size_t i = 0; i < words_per_chunk; ++i) {
      state = state * 1664525u + 1013904223u;
      uint32_t& walker = walkers[state % 3];
      walker += ((state >> 8) % 5) * 4;
      if ((state & 0xff) == 0) {
        walker ^= (state >> 4) & 0xffff0;  // Occasional long jump.
      }
      out[c].push_back(walker);
    }
  }
  return out;
}

ArchiveMeta TestMeta() {
  return {{"workload", "synthetic"}, {"personality", "ultrix"}, {"scale", "1"}};
}

void WriteTestArchive(const std::string& path,
                      const std::vector<std::vector<uint32_t>>& chunks, bool finalize = true,
                      const ArchiveMeta& meta = TestMeta()) {
  ArchiveWriter writer(path, meta);
  for (const auto& chunk : chunks) {
    writer.Append(chunk);
  }
  if (finalize) {
    writer.Finalize();
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint32_t FileU32(const std::string& bytes, size_t offset) {
  return static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + 3])) << 24;
}

void PutFileU32(std::string& bytes, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

// True when some mapping of this process names the file at `path` — the
// reader leaked its mmap (Linux /proc/self/maps).
bool IsMapped(const std::string& path) {
  const std::string canonical = std::filesystem::canonical(path).string();
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    if (line.find(canonical) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// The archive `bytes` with its identity metadata replaced by `meta`, behind
// recomputed metadata and header CRCs.
std::string WithMetadata(const std::string& bytes, const std::string& meta) {
  std::string out = bytes.substr(0, 24) + meta + bytes.substr(24 + FileU32(bytes, 12));
  PutFileU32(out, 12, static_cast<uint32_t>(meta.size()));
  PutFileU32(out, 16, Crc32(reinterpret_cast<const uint8_t*>(meta.data()), meta.size()));
  PutFileU32(out, 20, Crc32(reinterpret_cast<const uint8_t*>(out.data()), 20));
  return out;
}

// File offset of chunk `index`'s record header (walks the chunk framing).
size_t ChunkOffset(const std::string& bytes, size_t index) {
  size_t offset = 24 + FileU32(bytes, 12);  // Header + metadata.
  for (size_t i = 0; i < index; ++i) {
    offset += 20 + FileU32(bytes, offset + 4);
  }
  return offset;
}

std::vector<uint32_t> AllWords(const std::vector<std::vector<uint32_t>>& chunks) {
  std::vector<uint32_t> all;
  for (const auto& chunk : chunks) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

// ---- Round trips ----

TEST(ArchiveRoundTrip, WriterReaderBitIdentical) {
  const std::string path = TempPath("roundtrip.wrl");
  auto chunks = SyntheticChunks(7, 523);
  WriteTestArchive(path, chunks);

  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), chunks.size());
  EXPECT_EQ(archive.word_count(), 7u * 523u);
  EXPECT_EQ(archive.MetaValue("workload"), "synthetic");
  EXPECT_EQ(archive.MetaValue("personality"), "ultrix");
  EXPECT_EQ(archive.MetaValue("missing", "fallback"), "fallback");
  EXPECT_GT(archive.CompressionRatio(), 1.0);

  std::vector<uint32_t> decoded;
  for (size_t i = 0; i < chunks.size(); ++i) {
    archive.DecodeChunk(i, decoded);
    EXPECT_EQ(decoded, chunks[i]) << "chunk " << i;
  }
  EXPECT_EQ(archive.Words(), AllWords(chunks));

  std::vector<std::string> findings;
  EXPECT_TRUE(archive.Verify(&findings));
  EXPECT_TRUE(findings.empty());
}

TEST(ArchiveRoundTrip, EmptyArchive) {
  const std::string path = TempPath("empty.wrl");
  WriteTestArchive(path, {});
  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  EXPECT_EQ(archive.chunk_count(), 0u);
  EXPECT_EQ(archive.word_count(), 0u);
  EXPECT_TRUE(archive.Verify());
}

TEST(ArchiveRoundTrip, PayloadsShareTheTraceLogCodec) {
  const std::string path = TempPath("codec.wrl");
  auto chunks = SyntheticChunks(5, 400);
  WriteTestArchive(path, chunks);
  TraceLog log;
  for (const auto& chunk : chunks) {
    log.Append(chunk);
  }
  // One codec, two stores: the archive's payload bytes are exactly the
  // packed bytes the in-memory TraceLog holds.
  ArchiveReader archive(path);
  EXPECT_EQ(archive.payload_bytes(), log.stored_bytes());
  EXPECT_EQ(archive.Words(), log.Words());
}

// ---- Crash safety and corruption ----

TEST(ArchiveCorruption, UnfinalizedWriterIsRecoverable) {
  const std::string path = TempPath("unfinalized.wrl");
  auto chunks = SyntheticChunks(4, 211);
  WriteTestArchive(path, chunks, /*finalize=*/false);

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  EXPECT_FALSE(archive.diagnostics().empty());
  ASSERT_EQ(archive.chunk_count(), chunks.size());  // Every chunk was flushed.
  EXPECT_EQ(archive.Words(), AllWords(chunks));
  // Degraded state is a loud finding even when every chunk survived.
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  EXPECT_FALSE(findings.empty());
}

TEST(ArchiveCorruption, TruncatedFooterRecoversEveryChunk) {
  const std::string path = TempPath("truncfooter.wrl");
  auto chunks = SyntheticChunks(5, 163);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 7));  // Tear the footer tail.

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), chunks.size());
  EXPECT_EQ(archive.Words(), AllWords(chunks));
  // The scan stops at the footer debris with a chunk-accurate diagnostic.
  bool mentioned = false;
  for (const std::string& line : archive.diagnostics()) {
    mentioned = mentioned || line.find("chunk 5") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST(ArchiveCorruption, TornFinalChunkKeepsThePrefix) {
  const std::string path = TempPath("tornchunk.wrl");
  auto chunks = SyntheticChunks(6, 149);
  WriteTestArchive(path, chunks);
  std::string pristine = ReadFileBytes(path);

  // Cut mid-payload of the final chunk (no footer, half a payload): the
  // recovered prefix must replay bit-identically to the pristine prefix.
  const size_t last = ChunkOffset(pristine, 5);
  WriteFileBytes(path, pristine.substr(0, last + 20 + FileU32(pristine, last + 4) / 2));

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), 5u);
  std::vector<uint32_t> expect;
  for (size_t i = 0; i < 5; ++i) {
    expect.insert(expect.end(), chunks[i].begin(), chunks[i].end());
  }
  EXPECT_EQ(archive.Words(), expect);
  bool torn = false;
  for (const std::string& line : archive.diagnostics()) {
    torn = torn || (line.find("chunk 5") != std::string::npos &&
                    line.find("torn") != std::string::npos);
  }
  EXPECT_TRUE(torn) << "diagnostics must name the torn chunk";
}

TEST(ArchiveCorruption, FlippedPayloadByteIsDetectedAtDecode) {
  const std::string path = TempPath("flippayload.wrl");
  auto chunks = SyntheticChunks(4, 131);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  bytes[ChunkOffset(bytes, 2) + 20 + 5] ^= 0x40;  // One payload byte of chunk 2.
  WriteFileBytes(path, bytes);

  // The footer is intact, so the archive opens cleanly — but the corrupt
  // chunk must throw at decode with its index, and Verify must find it.
  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  std::vector<uint32_t> decoded;
  archive.DecodeChunk(1, decoded);  // Neighbors decode independently.
  EXPECT_EQ(decoded, chunks[1]);
  try {
    archive.DecodeChunk(2, decoded);
    FAIL() << "corrupt chunk decoded without error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk 2"), std::string::npos) << e.what();
  }
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("chunk 2"), std::string::npos);
}

TEST(ArchiveCorruption, FlippedCrcFieldIsACorruptRecordHeader) {
  const std::string path = TempPath("flipcrc.wrl");
  auto chunks = SyntheticChunks(3, 101);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  bytes[ChunkOffset(bytes, 1) + 12] ^= 0x01;  // payload_crc field of chunk 1.
  WriteFileBytes(path, bytes);

  ArchiveReader archive(path);
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("chunk 1"), std::string::npos);
  EXPECT_NE(findings[0].find("header"), std::string::npos);
}

TEST(ArchiveCorruption, CorruptDirectoryFallsBackToScan) {
  const std::string path = TempPath("baddir.wrl");
  auto chunks = SyntheticChunks(4, 87);
  WriteTestArchive(path, chunks);
  std::string bytes = ReadFileBytes(path);
  // Flip a byte inside the footer directory: dir_crc fails, the reader
  // falls back to the forward scan, and every chunk (all intact) survives.
  bytes[bytes.size() - 20] ^= 0x80;
  WriteFileBytes(path, bytes);

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  ASSERT_EQ(archive.chunk_count(), chunks.size());
  EXPECT_EQ(archive.Words(), AllWords(chunks));
}

// A one-chunk archive whose record header and footer directory both claim
// 0x40000001 words, with every CRC recomputed.  An unchecked count would
// walk the decode past the payload and size a 16 GiB allocation.  The
// reader must reject the count before decoding or reserving anything.
TEST(ArchiveCorruption, HostileWordCountIsRejected) {
  constexpr uint32_t kHostileWords = 0x40000001;
  const std::string path = TempPath("hostile_words.wrl");
  WriteTestArchive(path, {{0x80001000}});
  std::string bytes = ReadFileBytes(path);
  auto crc = [&bytes](size_t offset, size_t size) {
    return Crc32(reinterpret_cast<const uint8_t*>(bytes.data()) + offset, size);
  };
  const size_t chunk = ChunkOffset(bytes, 0);
  ASSERT_EQ(FileU32(bytes, chunk + 8), 1u);  // The honest word count.
  PutFileU32(bytes, chunk + 8, kHostileWords);
  PutFileU32(bytes, chunk + 16, crc(chunk, 16));
  // One-entry footer: fixed part (16) + directory entry (20) + CRC (4) +
  // tail (12).
  const size_t footer = bytes.size() - 52;
  ASSERT_EQ(bytes.compare(footer, 4, "wrlf"), 0);
  PutFileU32(bytes, footer + 8, kHostileWords);       // total_words (high half stays 0).
  PutFileU32(bytes, footer + 16 + 12, kHostileWords);  // The entry's word_count.
  PutFileU32(bytes, footer + 36, crc(footer, 36));
  WriteFileBytes(path, bytes);

  ArchiveReader archive(path);
  EXPECT_TRUE(archive.degraded());
  EXPECT_EQ(archive.chunk_count(), 0u);
  EXPECT_EQ(archive.word_count(), 0u);
  bool named = false;
  for (const std::string& line : archive.diagnostics()) {
    named = named || (line.find("chunk 0") != std::string::npos &&
                      line.find("word count") != std::string::npos);
  }
  EXPECT_TRUE(named) << "diagnostics must name the chunk and its word count";
  std::vector<std::string> findings;
  EXPECT_FALSE(archive.Verify(&findings));
  EXPECT_FALSE(findings.empty());
}

TEST(ArchiveCorruption, WrongMagicIsAHardError) {
  const std::string path = TempPath("badmagic.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  EXPECT_THROW(ArchiveReader{path}, Error);
  EXPECT_FALSE(IsMapped(path)) << "rejected archive left mapped";
}

TEST(ArchiveCorruption, UnknownVersionIsAHardError) {
  const std::string path = TempPath("badversion.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  std::string bytes = ReadFileBytes(path);
  bytes[4] = 99;  // version = 99 …
  // … with a valid header CRC, so only the version trips.
  PutFileU32(bytes, 20, Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), 20));
  WriteFileBytes(path, bytes);
  try {
    ArchiveReader archive(path);
    FAIL() << "unknown version accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(IsMapped(path)) << "rejected archive left mapped";
}

// Every payload is chunk-codec coded; a header whose flags word lacks the
// packed bit is rejected, not decoded.
TEST(ArchiveCorruption, UnpackedHeaderIsAHardError) {
  const std::string path = TempPath("unpacked.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(FileU32(bytes, 8), 1u);  // flags = packed.
  PutFileU32(bytes, 8, 0);
  // A valid header CRC, so only the missing flag trips.
  PutFileU32(bytes, 20, Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), 20));
  WriteFileBytes(path, bytes);
  try {
    ArchiveReader archive(path);
    FAIL() << "header without the packed flag accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("packed"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(IsMapped(path)) << "rejected archive left mapped";
}

// Identity metadata is outside input: JSON nested past the parser's cap,
// behind valid CRCs, is rejected with an Error rather than recursing the
// reader off its stack.
TEST(ArchiveCorruption, DeeplyNestedMetadataIsAHardError) {
  const std::string path = TempPath("deepmeta.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  const std::string meta = "{\"k\": " + std::string(300, '[') + std::string(300, ']') + "}";
  WriteFileBytes(path, WithMetadata(ReadFileBytes(path), meta));
  try {
    ArchiveReader archive(path);
    FAIL() << "deeply nested metadata accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(IsMapped(path)) << "rejected archive left mapped";
}

// Metadata values are outside input too.  The harness's parser of its own
// identity keys rejects every value an experiment could not have run with
// (an out-of-range float-to-int conversion, a kernel buffer past its
// region, a personality it does not know), naming the key and the value.
TEST(ArchiveCorruption, HostileMetadataValuesAreRejected) {
  ExperimentOptions options;
  options.archive_meta.emplace_back("scale", "0.05");
  const ArchiveMeta honest = HarnessArchiveMeta(PaperWorkload("sed", 0.05), options);
  const std::string path = TempPath("hostilemeta.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10), /*finalize=*/true, honest);
  const std::string pristine = ReadFileBytes(path);
  {
    // The control: the honest identity parses back to exactly what wrote it.
    ArchiveReader archive(path);
    const ArchivedExperiment parsed = ParseHarnessArchiveMeta(archive.meta());
    EXPECT_EQ(parsed.workload.source, PaperWorkload("sed", 0.05).source);
    EXPECT_NE(parsed.workload.source, PaperWorkload("sed").source);  // Scale applied.
    EXPECT_EQ(HarnessArchiveMeta(parsed.workload, parsed.options), honest);
  }

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"dilation", "-1"},
      {"dilation", "nan"},
      {"scale", "1e300"},
      {"clock_period", "0"},
      {"trace_buf_bytes", std::to_string(kKernelTraceBufMaxBytes + 4)},
      {"personality", "vms"},
  };
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(key + " = " + value);
    JsonWriter json(0);
    json.BeginObject();
    for (const auto& [k, v] : honest) {
      json.KV(k, k == key ? value : v);
    }
    json.EndObject();
    WriteFileBytes(path, WithMetadata(pristine, json.TakeString()));
    ArchiveReader archive(path);  // The header is valid; only the values lie.
    ASSERT_EQ(archive.MetaValue(key), value);
    try {
      ParseHarnessArchiveMeta(archive.meta());
      FAIL() << "hostile metadata accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
    }
  }
}

TEST(ArchiveCorruption, TruncatedHeaderIsAHardError) {
  const std::string path = TempPath("shortheader.wrl");
  WriteTestArchive(path, SyntheticChunks(1, 10));
  WriteFileBytes(path, ReadFileBytes(path).substr(0, 10));
  EXPECT_THROW(ArchiveReader{path}, Error);
}

// ---- End-to-end: archived experiment captures ----

const char* kBody = R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        la   $t0, table
        li   $t1, 0
        li   $t2, 64
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
table:  .space 256
)";

WorkloadSpec UnitWorkload() {
  WorkloadSpec w;
  w.name = "unit";
  w.description = "tiny compute kernel";
  w.source = kBody;
  return w;
}

ReplaySource UnitSource(const TraceChunkSource* log, const SystemInstance& traced,
                        Personality personality = Personality::kUltrix) {
  ReplaySource source;
  source.log = log;
  source.kernel_table = &traced.kernel_table();
  source.user_tables.emplace_back(1, &traced.user_table());
  if (personality == Personality::kMach) {
    source.user_tables.emplace_back(2, &traced.server_table());
  }
  return source;
}

void ExpectSamePrediction(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.idle_instructions, b.idle_instructions);
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles);
  EXPECT_EQ(a.arith_stall_cycles, b.arith_stall_cycles);
  EXPECT_EQ(a.io_stall_cycles, b.io_stall_cycles);
  EXPECT_EQ(a.utlb_misses, b.utlb_misses);
  EXPECT_EQ(a.synthesized_refs, b.synthesized_refs);
  EXPECT_EQ(a.memsys_stats.icache_misses, b.memsys_stats.icache_misses);
  EXPECT_EQ(a.memsys_stats.dcache_misses, b.memsys_stats.dcache_misses);
  EXPECT_EQ(a.memsys_stats.wb_stall_cycles, b.memsys_stats.wb_stall_cycles);
  EXPECT_EQ(a.user_stall_cycles, b.user_stall_cycles);
  EXPECT_EQ(a.kernel_stall_cycles, b.kernel_stall_cycles);
}

void ExpectSameTlb(const TlbSimStats& a, const TlbSimStats& b) {
  EXPECT_EQ(a.user_refs, b.user_refs);
  EXPECT_EQ(a.utlb_misses, b.utlb_misses);
  EXPECT_EQ(a.ktlb_misses, b.ktlb_misses);
}

void ExpectSameSweep(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.icache.size(), b.icache.size());
  ASSERT_EQ(a.dcache.size(), b.dcache.size());
  for (size_t i = 0; i < a.icache.size(); ++i) {
    EXPECT_EQ(a.icache[i].misses, b.icache[i].misses) << i;
  }
  for (size_t i = 0; i < a.dcache.size(); ++i) {
    EXPECT_EQ(a.dcache[i].misses, b.dcache[i].misses) << i;
  }
  EXPECT_EQ(a.tlb_lru_misses, b.tlb_lru_misses);
  EXPECT_EQ(a.tlb_cold_misses, b.tlb_cold_misses);
  EXPECT_EQ(a.tlb_refs, b.tlb_refs);
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.ifetches, b.ifetches);
  EXPECT_EQ(a.synthesized_refs, b.synthesized_refs);
  EXPECT_EQ(a.family_points, b.family_points);
  ExpectSameTlb(a.tlb, b.tlb);
}

TEST(ArchiveExperiment, TeeReplaysToTheLiveAnalysisCountersBitForBit) {
  const std::string path = TempPath("experiment.wrl");
  ExperimentOptions options;
  options.archive_path = path;
  ExperimentResult live = RunExperiment(UnitWorkload(), options);

  // The archive.* instruments rode the run.
  ASSERT_TRUE(live.stats.Has("archive.words"));
  EXPECT_EQ(live.stats.CounterValue("archive.words"), live.trace_words);
  EXPECT_EQ(live.stats.GaugeValue("archive.finalized"), 1.0);

  // Fresh reader + freshly rebuilt capturing system.
  ArchiveReader archive(path);
  EXPECT_FALSE(archive.degraded());
  EXPECT_EQ(archive.word_count(), live.trace_words);
  EXPECT_EQ(archive.MetaValue("workload"), "unit");

  // Rebuilt as a separate replaying process would: deterministic builds
  // from the harness's own configuration.
  auto measured = BuildSystem(MakeConfig(UnitWorkload(), options, false));
  auto traced = BuildSystem(MakeConfig(UnitWorkload(), options, true));

  TraceDrivenSimulator simulator(PrimaryConfig(options, *measured));
  simulator.AddTextImage(measured->kernel_exe());
  simulator.AddTextImage(measured->workload_orig());

  ReplayEngine engine(UnitSource(&archive, *traced));
  engine.Parse();
  const std::vector<TraceRef>& refs = engine.refs();
  for (size_t i = 0; i < refs.size(); i += kRefBatchCapacity) {
    simulator.OnRefBatch(refs.data() + i, std::min(kRefBatchCapacity, refs.size() - i));
  }
  simulator.Finish();

  StatsRegistry registry;
  engine.RegisterParserStats(registry, "parser.");
  simulator.RegisterStats(registry, "predicted.");
  StatsSnapshot replayed = registry.Snapshot();

  // Every analysis counter the live run produced, reproduced exactly.
  size_t compared = 0;
  for (const auto& [name, value] : replayed.values()) {
    const StatValue* expect = live.stats.Find(name);
    ASSERT_NE(expect, nullptr) << name;
    if (value.kind == StatValue::Kind::kCounter) {
      EXPECT_EQ(value.counter, expect->counter) << name;
      ++compared;
    } else if (value.kind == StatValue::Kind::kGauge) {
      EXPECT_EQ(value.gauge, expect->gauge) << name;
      ++compared;
    }
  }
  EXPECT_GT(compared, 10u);
}

// The analysis wiring oracle: RunExperiment's one analysis tee — the
// primary simulator, the profiler, the sweep engine, and one simulator per
// variant the sweep cannot price, all fed live by the traced run — must
// match dedicated replays of the archived trace bit for bit, sink by sink.
// A Mach paper workload, so that the page-map variant's different draw
// changes its miss counts.
TEST(ArchiveExperiment, AnalysisTeeMatchesDedicatedReplays) {
  const Personality mach = Personality::kMach;
  const WorkloadSpec workload = PaperWorkload("compress", 0.02);
  const std::string path = TempPath("tee_oracle.wrl");
  ReplayVariant geometry;  // Geometry-only: priced by the sweep.
  geometry.name = "cache8k";
  geometry.memsys.icache.size_bytes = 8 * 1024;
  geometry.memsys.dcache.size_bytes = 8 * 1024;
  ReplayVariant slowmem;
  slowmem.name = "slowmem";
  slowmem.memsys.read_miss_penalty = 30;
  slowmem.memsys.uncached_penalty = 30;
  ReplayVariant remap;
  remap.name = "remap";
  remap.page_map_mult = 7;
  ExperimentOptions options;
  options.personality = mach;
  options.archive_path = path;
  options.profile = true;
  options.sweep.tlb_max_entries = 16;
  options.replay_variants = {geometry, slowmem, remap};
  ExperimentResult result = RunExperiment(workload, options);
  ASSERT_TRUE(result.sweep_ran);
  ASSERT_EQ(result.replays.size(), 3u);
  EXPECT_TRUE(result.replays[0].swept);
  EXPECT_FALSE(result.replays[1].swept);
  EXPECT_FALSE(result.replays[2].swept);
  // Every run times its sinks from the tee's per-batch clock: each
  // dedicated variant simulator, the replay throughput, and the sweep.
  EXPECT_GT(result.replays[1].wall_us, 0u);
  EXPECT_GT(result.replays[2].wall_us, 0u);
  EXPECT_GT(result.replay_mrefs_per_sec, 0.0);
  EXPECT_GT(result.sweep_mrefs_per_sec, 0.0);

  // The oracle: one dedicated replay per analysis, from the archive.
  ArchiveReader archive(path);
  auto measured = BuildSystem(MakeConfig(workload, options, false));
  auto traced = BuildSystem(MakeConfig(workload, options, true));
  const PredictorConfig pconfig = PrimaryConfig(options, *measured);
  auto simulator = [&measured](const PredictorConfig& config) {
    auto sim = std::make_unique<TraceDrivenSimulator>(config);
    sim->AddTextImage(measured->kernel_exe());
    sim->AddTextImage(measured->workload_orig());
    return sim;
  };
  SweepConfig sweep_config;
  sweep_config.base = pconfig.memsys;
  sweep_config.page_map = pconfig.page_map;
  sweep_config.tlb_wired = pconfig.tlb_wired;
  sweep_config.icache = {{pconfig.memsys.icache.line_bytes, 8 * 1024, 8 * 1024}};
  sweep_config.dcache = {{pconfig.memsys.dcache.line_bytes, 8 * 1024, 8 * 1024}};
  sweep_config.tlb_max_entries = 16;

  std::vector<ReplayEngine::Config> configs;
  configs.reserve(3 + options.replay_variants.size());
  configs.push_back({"primary", [&] { return simulator(pconfig); }});
  configs.push_back({"profile", [&] {
                       auto prof = std::make_unique<TraceProfiler>(options.profile_options);
                       prof->AddTable(kKernelPid, &traced->kernel_table());
                       prof->AddTable(1, &traced->user_table());
                       prof->AddSymbols(kKernelPid, traced->kernel_orig());
                       prof->AddSymbols(1, measured->workload_orig());
                       prof->SetSpaceName(1, workload.name);
                       prof->AddTable(2, &traced->server_table());
                       prof->AddSymbols(2, traced->server_orig());
                       prof->SetSpaceName(2, "server");
                       return prof;
                     }});
  configs.push_back({"sweep", [&] { return std::make_unique<SweepEngine>(sweep_config); }});
  for (const ReplayVariant& v : options.replay_variants) {
    configs.push_back({v.name, [&, v] {
                         PredictorConfig vconfig = pconfig;
                         vconfig.memsys = v.memsys;
                         vconfig.tlb_wired = v.tlb_wired;
                         if (v.page_map_mult != 0) {
                           vconfig.page_map = measured->PageMap(v.page_map_mult);
                         }
                         return simulator(vconfig);
                       }});
  }
  ReplayEngine engine(UnitSource(&archive, *traced, mach));
  std::vector<ReplayEngine::Outcome> oracle = engine.Run(configs);
  auto sim = [&oracle](size_t i) { return static_cast<TraceDrivenSimulator*>(oracle[i].sink.get()); };

  const Prediction primary = sim(0)->Finish();
  ExpectSamePrediction(result.prediction, primary);
  EXPECT_EQ(result.profile.CanonicalJson(),
            static_cast<TraceProfiler*>(oracle[1].sink.get())->Finish().CanonicalJson());
  auto* sweep = static_cast<SweepEngine*>(oracle[2].sink.get());
  ExpectSameSweep(result.sweep, sweep->Finish());

  // The swept variant: timing derived from the oracle sweep, miss counts
  // exactly those of its own dedicated replay.
  ExpectSamePrediction(result.replays[0].prediction,
                       sweep->DerivePrediction(primary, geometry.memsys));
  ExpectSameTlb(result.replays[0].tlb, sweep->tlb_stats());
  const Prediction geometry_replay = sim(3)->Finish();
  EXPECT_EQ(result.replays[0].prediction.memsys_stats.icache_misses,
            geometry_replay.memsys_stats.icache_misses);
  EXPECT_EQ(result.replays[0].prediction.memsys_stats.dcache_misses,
            geometry_replay.memsys_stats.dcache_misses);
  EXPECT_EQ(result.replays[0].prediction.utlb_misses, geometry_replay.utlb_misses);

  // The replayed variants: each its own simulator on the tee.
  for (size_t v = 1; v < 3; ++v) {
    SCOPED_TRACE(result.replays[v].name);
    ExpectSamePrediction(result.replays[v].prediction, sim(3 + v)->Finish());
    ExpectSameTlb(result.replays[v].tlb, sim(3 + v)->tlb().stats());
    EXPECT_EQ(result.replays[v].refs, engine.refs().size());
  }
  // The variants really differ from the primary, so the checks above bite.
  EXPECT_NE(result.replays[1].prediction.mem_stall_cycles, primary.mem_stall_cycles);
  EXPECT_NE(result.replays[2].prediction.memsys_stats.dcache_misses,
            primary.memsys_stats.dcache_misses);
}

TEST(ArchiveExperiment, PipelinedAndSynchronousTeesWriteIdenticalArchives) {
  const std::string path_a = TempPath("tee_sync.wrl");
  const std::string path_b = TempPath("tee_pipe.wrl");
  ExperimentOptions sync_options;
  sync_options.pipeline = false;
  sync_options.archive_path = path_a;
  ExperimentOptions pipe_options;
  pipe_options.pipeline = true;
  pipe_options.archive_path = path_b;
  RunExperiment(UnitWorkload(), sync_options);
  RunExperiment(UnitWorkload(), pipe_options);

  ArchiveReader a(path_a);
  ArchiveReader b(path_b);
  ASSERT_EQ(a.chunk_count(), b.chunk_count());
  EXPECT_EQ(a.word_count(), b.word_count());
  std::vector<uint32_t> wa;
  std::vector<uint32_t> wb;
  for (size_t i = 0; i < a.chunk_count(); ++i) {
    a.DecodeChunk(i, wa);
    b.DecodeChunk(i, wb);
    EXPECT_EQ(wa, wb) << "chunk " << i;
  }
}

// The archive tee holds every word the traced kernel drained.  (The codec
// the archive shares with TraceLog is pinned by
// ArchiveRoundTrip.PayloadsShareTheTraceLogCodec.)
TEST(ArchiveExperiment, CaptureReplayModeTeesTheSameCapture) {
  const std::string path = TempPath("tee_capture.wrl");
  ExperimentOptions options;
  options.archive_path = path;
  ExperimentResult result = RunExperiment(UnitWorkload(), options);

  ArchiveReader archive(path);
  EXPECT_GT(result.trace_words, 0u);
  EXPECT_EQ(archive.word_count(), result.trace_words);
}

}  // namespace
}  // namespace wrl
