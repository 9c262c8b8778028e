// Seeded workload inputs: every DiskFile the paper workloads read is
// regenerated from the benchmark seed at the same length and in the same
// byte class as the shipped file, so a seed changes what the programs read
// but not how much of it, nor its statistical kind.  The generators mirror
// the synthesis in src/workloads (word text, token streams, run-length
// binary); CheckInputClasses checks that they still reproduce the shipped
// bytes from the shipped seeds before they are trusted with any seed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "support/error.h"
#include "support/rng.h"
#include "trace/trace_archive.h"

namespace perfbench {
namespace {

enum class ByteClass { kText, kToken, kBinary };

struct InputClass {
  const char* file;
  ByteClass kind;
  uint64_t shipped_seed;  // The seed src/workloads synthesizes it from.
  uint8_t alphabet;       // Token streams only.
};

// Every input file of PaperWorkloads().  An input missing here is an error,
// not a silently unseeded file.
constexpr InputClass kInputs[] = {
    {"sed.in", ByteClass::kText, 101, 0},    {"egrep.in", ByteClass::kText, 202, 0},
    {"yacc.in", ByteClass::kToken, 303, 16}, {"gcc.in", ByteClass::kText, 404, 0},
    {"comp.in", ByteClass::kBinary, 505, 0}, {"esp.in", ByteClass::kToken, 606, 255},
    {"eqn.in", ByteClass::kToken, 707, 255},
};

std::vector<uint8_t> Text(size_t bytes, uint64_t seed) {
  wrl::Rng rng(seed);
  static const char* kWords[] = {"the",  "quick", "brown", "fox",   "jumps", "over",
                                 "lazy", "dog",   "cache", "trace", "tlb",   "kernel"};
  std::vector<uint8_t> out;
  out.reserve(bytes);
  while (out.size() < bytes) {
    for (const char* p = kWords[rng.Below(12)]; *p != '\0'; ++p) {
      out.push_back(static_cast<uint8_t>(*p));
    }
    out.push_back(rng.Below(12) == 0 ? '\n' : ' ');
  }
  out.resize(bytes);
  return out;
}

std::vector<uint8_t> Token(size_t bytes, uint64_t seed, uint8_t alphabet) {
  wrl::Rng rng(seed);
  std::vector<uint8_t> out(bytes);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.Below(alphabet));
  }
  return out;
}

std::vector<uint8_t> Binary(size_t bytes, uint64_t seed) {
  wrl::Rng rng(seed);
  std::vector<uint8_t> out(bytes);
  size_t i = 0;
  while (i < out.size()) {
    uint8_t value = static_cast<uint8_t>(rng.Below(64));
    uint32_t run = 1 + rng.Below(12);
    for (uint32_t j = 0; j < run && i < out.size(); ++j) {
      out[i++] = value + static_cast<uint8_t>(j & 3);
    }
  }
  return out;
}

std::vector<uint8_t> Generate(const InputClass& input, size_t bytes, uint64_t seed) {
  switch (input.kind) {
    case ByteClass::kText:
      return Text(bytes, seed);
    case ByteClass::kToken:
      return Token(bytes, seed, input.alphabet);
    case ByteClass::kBinary:
      return Binary(bytes, seed);
  }
  return {};
}

const InputClass& ClassOf(const std::string& file) {
  for (const InputClass& input : kInputs) {
    if (file == input.file) {
      return input;
    }
  }
  throw wrl::Error("perfbench: input file '" + file + "' has no byte class");
}

}  // namespace

void CheckInputClasses(double scale) {
  for (const wrl::WorkloadSpec& workload : wrl::PaperWorkloads(scale)) {
    for (const wrl::DiskFile& file : workload.files) {
      if (file.content.empty()) {
        continue;  // An output file: capacity only.
      }
      const InputClass& input = ClassOf(file.name);
      if (Generate(input, file.content.size(), input.shipped_seed) != file.content) {
        throw wrl::Error("perfbench: the byte class of '" + file.name +
                         "' no longer reproduces the shipped input");
      }
    }
  }
}

std::vector<wrl::WorkloadSpec> SeededWorkloads(uint64_t seed, double scale) {
  std::vector<wrl::WorkloadSpec> workloads = wrl::PaperWorkloads(scale);
  for (wrl::WorkloadSpec& workload : workloads) {
    for (wrl::DiskFile& file : workload.files) {
      if (file.content.empty()) {
        continue;
      }
      // Every seed regenerates every input, so set-up does the same work at
      // every seed; seed 0 regenerates from the shipped seeds.
      const InputClass& input = ClassOf(file.name);
      uint64_t file_seed = input.shipped_seed;
      if (seed != 0) {
        wrl::Rng mix(seed * 0x9e3779b97f4a7c15ull ^ input.shipped_seed);
        file_seed = mix.Next64();
      }
      file.content = Generate(input, file.content.size(), file_seed);
    }
  }
  return workloads;
}

uint32_t InputChecksum(const wrl::WorkloadSpec& workload) {
  uint32_t crc = 0;
  for (const wrl::DiskFile& file : workload.files) {
    crc = wrl::Crc32(file.content.data(), file.content.size(), crc);
  }
  return crc;
}

void PrintInputs(uint64_t seed, double scale, const std::vector<wrl::WorkloadSpec>& workloads) {
  std::printf("inputs seed=%llu scale=%g", static_cast<unsigned long long>(seed), scale);
  for (const wrl::WorkloadSpec& w : workloads) {
    std::printf(" %s=%08x", w.name.c_str(), InputChecksum(w));
  }
  std::printf("\n");
}

}  // namespace perfbench
