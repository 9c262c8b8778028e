// wrltrace: the wrltrace/1 archive tool — record, inspect, verify, dump,
// replay, and diff durable trace captures (src/trace/trace_archive.h).
//
// The capture-once / analyze-many leverage, across *processes*: `record`
// runs one paper workload through the full experiment harness with the
// archive tee active, and any later invocation — on another machine, in
// another CI job — rebuilds the capturing system from the archive's
// identity metadata and replays the identical reference stream.
//
// Subcommands:
//   record  --workload NAME --out FILE [--scale F] [--personality P]
//           [--json PATH]
//       Run the experiment (live analysis), tee the capture to FILE, and
//       write the analysis-counter document (--json) that `replay --expect`
//       checks bit-for-bit.
//   info    FILE [--json PATH]
//       Header, identity metadata, chunk directory summary, compression,
//       and any degraded-capture diagnostics.
//   verify  FILE
//       Full integrity sweep: every framing CRC, every payload CRC, every
//       payload bounds-decoded, then the capture streamed once through the
//       §4.3 trace-parser defenses of a freshly rebuilt system.  Exit 0
//       only when everything is clean.
//   cat     FILE [--chunk I] [--limit N]
//       Decoded trace words as hex, one per line.
//   replay  FILE [--json PATH] [--expect PATH]
//       Rebuild the capturing system from metadata, stream the archive once
//       through one trace parser into the trace-driven simulator, and (with
//       --expect) require every analysis counter to match a `record --json`
//       document bit-for-bit.
//   diff    A B
//       Byte-level (chunk framing + payload CRCs) and reference-level
//       (decoded word streams) comparison; exit 0 only when identical.
//
// Exit codes: 0 ok/identical, 1 difference, integrity finding or --expect
// mismatch, 2 usage or runtime error (an unknown flag, a bad header, an
// unreadable file, invalid identity metadata).
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "support/error.h"
#include "support/flags.h"
#include "support/json.h"
#include "support/strings.h"
#include "trace/parser.h"
#include "trace/trace_archive.h"
#include "workloads/workloads.h"

using namespace wrl;

namespace {

void WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out || !(out << content)) {
    throw Error("cannot write " + path);
  }
}

std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The analysis-counter document shared by `record` and `replay`: every
// parser.* and predicted.* instrument from the run's registry snapshot.
// Bit-identity between a live capture and its archived replay is asserted
// over exactly this object.
void WriteAnalysisJson(const std::string& path, const std::string& mode,
                       const std::string& workload, Personality personality,
                       const std::string& archive_path, double predicted_cycles,
                       const StatsSnapshot& stats) {
  JsonWriter writer;
  writer.BeginObject();
  writer.KV("schema", "wrltrace-analysis/1");
  writer.KV("tool", "wrltrace");
  writer.KV("mode", mode);
  writer.KV("workload", workload);
  writer.KV("personality", PersonalityName(personality));
  writer.KV("archive", archive_path);
  writer.KV("predicted_cycles", predicted_cycles);
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [name, value] : stats.values()) {
    if (name.rfind("parser.", 0) != 0 && name.rfind("predicted.", 0) != 0) {
      continue;
    }
    if (value.kind == StatValue::Kind::kCounter) {
      writer.KV(name, value.counter);
    } else if (value.kind == StatValue::Kind::kGauge) {
      writer.KV(name, value.gauge);
    }
    // Histograms are shape, not analysis output; skipped.
  }
  writer.EndObject();
  writer.EndObject();
  WriteTextFile(path, writer.TakeString() + "\n");
}

// The capturing system, rebuilt deterministically from archive metadata
// with the harness's own configuration: the measured instance supplies the
// page map and original binaries, the traced instance the instrumentation
// tables — the exact inputs the live analysis used, so the replay is
// bit-identical by construction.
struct RebuiltSystems {
  ArchivedExperiment experiment;
  std::unique_ptr<SystemInstance> measured;
  std::unique_ptr<SystemInstance> traced;
};

RebuiltSystems RebuildFromMeta(const ArchiveReader& archive) {
  RebuiltSystems sys;
  sys.experiment = ParseHarnessArchiveMeta(archive.meta());
  sys.measured = BuildSystem(MakeConfig(sys.experiment.workload, sys.experiment.options, false));
  sys.traced = BuildSystem(MakeConfig(sys.experiment.workload, sys.experiment.options, true));
  return sys;
}

// One pass over the capture: each chunk, decoded in capture order, feeds
// `parser` (keyed by the rebuilt traced system's tables).  `sink` receives
// the reconstructed references; null keeps only the parser's counters and
// errors.
void ParseArchive(const ArchiveReader& archive, RefBatchSink* sink, TraceParser& parser) {
  parser.SetBatchSink(sink);
  archive.Replay([&parser](const uint32_t* words, size_t count) { parser.Feed(words, count); });
  parser.Finish();
}

void PrintDiagnostics(const ArchiveReader& archive) {
  for (const std::string& line : archive.diagnostics()) {
    std::fprintf(stderr, "wrltrace: %s\n", line.c_str());
  }
}

// ---- record ---------------------------------------------------------------

int CmdRecord(ArgList args) {
  std::string workload_name;
  std::string out_path;
  std::string json_path;
  double scale = 1.0;
  std::string personality_name = "ultrix";
  Flags flags("record");
  flags.String("workload", &workload_name, "NAME");
  flags.String("out", &out_path, "FILE");
  flags.Real("scale", &scale);
  flags.String("personality", &personality_name, "ultrix|mach");
  flags.String("json", &json_path, "PATH");
  flags.Parse(args);
  if (workload_name.empty() || out_path.empty()) {
    throw flags.UsageError("record needs --workload and --out");
  }
  const Personality personality = PersonalityFromName(personality_name);

  WorkloadSpec workload = PaperWorkload(workload_name, scale);
  ExperimentOptions options;
  options.personality = personality;
  options.archive_path = out_path;
  options.archive_meta.emplace_back("scale", StrFormat("%.17g", scale));
  ExperimentResult result = RunExperiment(workload, options);

  std::printf("wrltrace: recorded %s (%s, scale %g) -> %s\n", workload.name.c_str(),
              PersonalityName(personality), scale, out_path.c_str());
  std::printf("  %llu trace words, %llu chunks, %.0f bytes on disk (%.2fx compression)\n",
              static_cast<unsigned long long>(result.stats.CounterValue("archive.words")),
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(result.stats.GaugeValue("archive.chunks"))),
              static_cast<double>(result.stats.CounterValue("archive.file_bytes")),
              result.stats.GaugeValue("archive.compression_ratio"));
  for (const std::string& warning : result.Warnings()) {
    std::fprintf(stderr, "wrltrace: %s\n", warning.c_str());
  }
  if (!json_path.empty()) {
    WriteAnalysisJson(json_path, "record", workload.name, personality, out_path,
                      result.prediction.PredictedCycles(), result.stats);
  }
  return result.parser_errors > 0 ? 1 : 0;
}

// ---- info -----------------------------------------------------------------

int CmdInfo(ArgList args) {
  std::string json_path;
  Flags flags("info FILE");
  flags.String("json", &json_path, "PATH");
  const std::string path = flags.Parse(args, 1, 1)[0];
  ArchiveReader archive(path);
  std::printf("%s: wrltrace/%u%s\n", path.c_str(), kArchiveVersion,
              archive.degraded() ? " [DEGRADED: recovered by scan]" : "");
  std::printf("  %zu chunks, %llu words, %llu file bytes, %llu payload bytes "
              "(%.2fx compression)\n",
              archive.chunk_count(), static_cast<unsigned long long>(archive.word_count()),
              static_cast<unsigned long long>(archive.file_bytes()),
              static_cast<unsigned long long>(archive.payload_bytes()),
              archive.CompressionRatio());
  for (const auto& [key, value] : archive.meta()) {
    std::printf("  meta %s = %s\n", key.c_str(), value.c_str());
  }
  PrintDiagnostics(archive);
  if (!json_path.empty()) {
    JsonWriter writer;
    writer.BeginObject();
    writer.KV("schema", "wrltrace-info/1");
    writer.KV("path", path);
    writer.KV("version", kArchiveVersion);
    writer.KV("degraded", archive.degraded());
    writer.KV("chunks", static_cast<uint64_t>(archive.chunk_count()));
    writer.KV("words", archive.word_count());
    writer.KV("file_bytes", archive.file_bytes());
    writer.KV("payload_bytes", archive.payload_bytes());
    writer.KV("compression_ratio", archive.CompressionRatio());
    writer.Key("meta");
    writer.BeginObject();
    for (const auto& [key, value] : archive.meta()) {
      writer.KV(key, value);
    }
    writer.EndObject();
    writer.Key("diagnostics");
    writer.BeginArray();
    for (const std::string& line : archive.diagnostics()) {
      writer.Value(line);
    }
    writer.EndArray();
    writer.EndObject();
    WriteTextFile(json_path, writer.TakeString() + "\n");
  }
  return 0;
}

// ---- verify ---------------------------------------------------------------

int CmdVerify(ArgList args) {
  const std::string path = Flags("verify FILE").Parse(args, 1, 1)[0];
  ArchiveReader archive(path);
  std::vector<std::string> findings;
  archive.Verify(&findings);
  for (const std::string& finding : findings) {
    std::fprintf(stderr, "wrltrace: %s: %s\n", path.c_str(), finding.c_str());
  }

  // Integrity past the CRCs: the decoded stream must survive the trace
  // parser's §4.3 defenses (key-table bounds, marker protocol, context
  // tracking) against a freshly rebuilt system.
  RebuiltSystems sys = RebuildFromMeta(archive);
  TraceParser parser = sys.traced->MakeParser();
  ParseArchive(archive, nullptr, parser);
  const uint64_t parse_errors = parser.stats().validation_errors;
  for (const std::string& error : parser.errors()) {
    std::fprintf(stderr, "wrltrace: %s: parser: %s\n", path.c_str(), error.c_str());
  }

  const bool clean = findings.empty() && parse_errors == 0;
  std::printf("%s: %zu chunks, %llu words, %llu refs: %s\n", path.c_str(),
              archive.chunk_count(), static_cast<unsigned long long>(archive.word_count()),
              static_cast<unsigned long long>(parser.stats().refs), clean ? "OK" : "FAILED");
  return clean ? 0 : 1;
}

// ---- cat ------------------------------------------------------------------

int CmdCat(ArgList args) {
  std::optional<uint64_t> chunk;
  uint64_t limit = 0;
  Flags flags("cat FILE");
  flags.Unsigned("chunk", &chunk);
  flags.Unsigned("limit", &limit);
  const std::string path = flags.Parse(args, 1, 1)[0];
  ArchiveReader archive(path);
  PrintDiagnostics(archive);
  uint64_t printed = 0;
  std::vector<uint32_t> buffer;
  if (chunk.has_value() && *chunk >= archive.chunk_count()) {
    throw Error(StrFormat("chunk %llu out of range (archive has %zu)",
                          static_cast<unsigned long long>(*chunk), archive.chunk_count()));
  }
  const size_t begin = chunk.has_value() ? *chunk : 0;
  const size_t end = chunk.has_value() ? begin + 1 : archive.chunk_count();
  for (size_t i = begin; i < end; ++i) {
    archive.DecodeChunk(i, buffer);
    for (uint32_t word : buffer) {
      std::printf("0x%08x\n", word);
      if (limit != 0 && ++printed >= limit) {
        return 0;
      }
    }
  }
  return 0;
}

// ---- replay ---------------------------------------------------------------

int CmdReplay(ArgList args) {
  std::string json_path;
  std::string expect_path;
  Flags flags("replay FILE");
  flags.String("json", &json_path, "PATH");
  flags.String("expect", &expect_path, "PATH");
  const std::string path = flags.Parse(args, 1, 1)[0];

  ArchiveReader archive(path);
  PrintDiagnostics(archive);
  RebuiltSystems sys = RebuildFromMeta(archive);
  const ExperimentOptions& options = sys.experiment.options;

  std::unique_ptr<TraceDrivenSimulator> simulator =
      MakeSimulator(PrimaryConfig(options, *sys.measured), *sys.measured);
  TraceParser parser = sys.traced->MakeParser();
  ParseArchive(archive, simulator.get(), parser);
  Prediction prediction = simulator->Finish();

  StatsRegistry registry;
  parser.RegisterStats(registry, "parser.");
  simulator->RegisterStats(registry, "predicted.");
  StatsSnapshot stats = registry.Snapshot();

  std::printf("wrltrace: replayed %s: %llu words -> %llu refs, predicted %.0f cycles\n",
              path.c_str(), static_cast<unsigned long long>(archive.word_count()),
              static_cast<unsigned long long>(parser.stats().refs),
              prediction.PredictedCycles());
  if (parser.stats().validation_errors > 0) {
    std::fprintf(stderr, "wrltrace: %llu parser validation error(s) during replay\n",
                 static_cast<unsigned long long>(parser.stats().validation_errors));
  }
  if (!json_path.empty()) {
    WriteAnalysisJson(json_path, "replay", sys.experiment.workload.name, options.personality,
                      path, prediction.PredictedCycles(), stats);
  }

  if (!expect_path.empty()) {
    // Bit-identity gate: every analysis counter of the live run must be
    // reproduced exactly by the archived replay — same keys, same values.
    JsonValue expect = ParseJson(ReadTextFile(expect_path));
    const JsonValue& expected = expect.At("counters");
    size_t mismatches = 0;
    size_t compared = 0;
    for (const auto& [name, value] : expected.object) {
      ++compared;
      const StatValue* actual = stats.Find(name);
      if (actual == nullptr) {
        std::fprintf(stderr, "wrltrace: expect: counter '%s' missing from replay\n",
                     name.c_str());
        ++mismatches;
        continue;
      }
      const double actual_value = actual->kind == StatValue::Kind::kCounter
                                      ? static_cast<double>(actual->counter)
                                      : actual->gauge;
      if (actual_value != value.number) {
        std::fprintf(stderr, "wrltrace: expect: %s: replay %.17g != live %.17g\n",
                     name.c_str(), actual_value, value.number);
        ++mismatches;
      }
    }
    for (const auto& [name, value] : stats.values()) {
      (void)value;
      if ((name.rfind("parser.", 0) == 0 || name.rfind("predicted.", 0) == 0) &&
          !expected.Has(name)) {
        std::fprintf(stderr, "wrltrace: expect: replay counter '%s' absent from %s\n",
                     name.c_str(), expect_path.c_str());
        ++mismatches;
      }
    }
    const double expected_cycles = expect.At("predicted_cycles").number;
    if (expected_cycles != prediction.PredictedCycles()) {
      std::fprintf(stderr, "wrltrace: expect: predicted_cycles: replay %.17g != live %.17g\n",
                   prediction.PredictedCycles(), expected_cycles);
      ++mismatches;
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "wrltrace: replay does NOT match %s (%zu mismatch(es))\n",
                   expect_path.c_str(), mismatches);
      return 1;
    }
    std::printf("wrltrace: replay matches %s bit-for-bit (%zu counters)\n",
                expect_path.c_str(), compared);
  }
  return 0;
}

// ---- diff -----------------------------------------------------------------

int CmdDiff(ArgList args) {
  const std::vector<std::string> paths = Flags("diff A B").Parse(args, 2, 2);
  ArchiveReader a(paths[0]);
  ArchiveReader b(paths[1]);
  PrintDiagnostics(a);
  PrintDiagnostics(b);
  size_t differences = 0;
  auto report = [&differences](const std::string& line) {
    std::fprintf(stderr, "wrltrace: diff: %s\n", line.c_str());
    ++differences;
  };

  if (a.meta() != b.meta()) {
    report("identity metadata differs");
    for (const auto& [key, value] : a.meta()) {
      const std::string other = b.MetaValue(key, "<absent>");
      if (other != value) {
        report("  meta " + key + ": " + value + " != " + other);
      }
    }
    for (const auto& [key, value] : b.meta()) {
      if (a.MetaValue(key, "<absent>") == "<absent>") {
        report("  meta " + key + ": <absent> != " + value);
      }
    }
  }
  if (a.chunk_count() != b.chunk_count()) {
    report(StrFormat("chunk count %zu != %zu", a.chunk_count(), b.chunk_count()));
  }
  if (a.word_count() != b.word_count()) {
    report(StrFormat("word count %llu != %llu",
                     static_cast<unsigned long long>(a.word_count()),
                     static_cast<unsigned long long>(b.word_count())));
  }

  // Reference-level comparison: the decoded word streams, chunk by chunk.
  // (Payload CRCs already pin the byte level — identical words from both
  // decoders plus matching framing means byte-identical payloads.)
  const size_t chunks = std::min(a.chunk_count(), b.chunk_count());
  std::vector<uint32_t> wa;
  std::vector<uint32_t> wb;
  size_t word_diffs = 0;
  for (size_t i = 0; i < chunks; ++i) {
    a.DecodeChunk(i, wa);
    b.DecodeChunk(i, wb);
    if (wa.size() != wb.size()) {
      report(StrFormat("chunk %zu: %zu words != %zu words", i, wa.size(), wb.size()));
      continue;
    }
    for (size_t w = 0; w < wa.size(); ++w) {
      if (wa[w] != wb[w]) {
        if (++word_diffs <= 8) {
          report(StrFormat("chunk %zu word %zu: 0x%08x != 0x%08x", i, w, wa[w], wb[w]));
        }
      }
    }
  }
  if (word_diffs > 8) {
    report(StrFormat("... %zu differing word(s) total", word_diffs));
  }

  if (differences == 0) {
    std::printf("wrltrace: %s and %s are identical (%zu chunks, %llu words, "
                "byte-identical payloads)\n",
                paths[0].c_str(), paths[1].c_str(), a.chunk_count(),
                static_cast<unsigned long long>(a.word_count()));
    return 0;
  }
  return 1;
}

int Run(ArgList args) {
  static const std::map<std::string, int (*)(ArgList)> kCommands = {
      {"record", CmdRecord}, {"info", CmdInfo},     {"verify", CmdVerify},
      {"cat", CmdCat},       {"replay", CmdReplay}, {"diff", CmdDiff}};
  const auto command = args.empty() ? kCommands.end() : kCommands.find(args[0]);
  if (command == kCommands.end()) {
    throw FlagError(args.empty() ? "missing command" : "unknown command '" + args[0] + "'",
                    "record|info|verify|cat|replay|diff ...");
  }
  return command->second(args.subspan(1));
}

}  // namespace

int main(int argc, char** argv) { return RunMain("wrltrace", argc, argv, Run); }
