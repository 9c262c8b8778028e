#include "trace/trace_archive.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/error.h"
#include "support/json.h"
#include "trace/chunk_codec.h"

namespace wrl {
namespace {

constexpr char kFileMagic[4] = {'w', 'r', 'l', 't'};
constexpr char kChunkMagic[4] = {'w', 'r', 'l', 'c'};
constexpr char kFooterMagic[4] = {'w', 'r', 'l', 'f'};
constexpr char kEndMagic[4] = {'w', 'r', 'l', 'e'};

constexpr size_t kHeaderBytes = 24;    // magic + version + flags + meta_bytes + 2 CRCs.
constexpr size_t kChunkHeadBytes = 20; // magic + payload_bytes + word_count + 2 CRCs.
constexpr size_t kDirEntryBytes = 20;  // offset u64 + payload_bytes + word_count + crc.
constexpr size_t kFooterFixedBytes = 16;  // magic + chunk_count + total_words.
constexpr size_t kFooterTailBytes = 12;   // footer_bytes u64 + end magic.
constexpr uint32_t kFlagPacked = 1u << 0;

void PutU32(std::vector<uint8_t>& out, uint32_t value) {
  out.push_back(static_cast<uint8_t>(value));
  out.push_back(static_cast<uint8_t>(value >> 8));
  out.push_back(static_cast<uint8_t>(value >> 16));
  out.push_back(static_cast<uint8_t>(value >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t value) {
  PutU32(out, static_cast<uint32_t>(value));
  PutU32(out, static_cast<uint32_t>(value >> 32));
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) | static_cast<uint64_t>(ReadU32(p + 4)) << 32;
}

// Whether a chunk's framed word count is consistent with its payload size:
// every packed word takes at least one varint byte.  Checked before any
// decode, so a hostile count can neither walk a decode past the payload nor
// size an allocation beyond what the file itself holds.
bool WordCountFits(uint64_t payload_bytes, uint64_t word_count) {
  return word_count <= payload_bytes;
}

std::string SerializeMeta(const ArchiveMeta& meta) {
  JsonWriter writer(0);
  writer.BeginObject();
  for (const auto& [key, value] : meta) {
    writer.KV(key, value);
  }
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  // IEEE reflected polynomial, classic byte-at-a-time table.
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xffu];
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// ArchiveWriter
// ---------------------------------------------------------------------------

ArchiveWriter::ArchiveWriter(const std::string& path, const ArchiveMeta& meta)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw Error("archive: cannot create '" + path + "': " + std::strerror(errno));
  }
  const std::string meta_json = SerializeMeta(meta);
  std::vector<uint8_t> header(kFileMagic, kFileMagic + 4);
  PutU32(header, kArchiveVersion);
  PutU32(header, kFlagPacked);
  PutU32(header, static_cast<uint32_t>(meta_json.size()));
  PutU32(header,
         Crc32(reinterpret_cast<const uint8_t*>(meta_json.data()), meta_json.size()));
  PutU32(header, Crc32(header.data(), header.size()));
  header.insert(header.end(), meta_json.begin(), meta_json.end());
  WriteBytes(header.data(), header.size());
  if (std::fflush(file_) != 0) {
    throw Error("archive: flush failed for '" + path_ + "': " + std::strerror(errno));
  }
}

ArchiveWriter::~ArchiveWriter() {
  // An unfinalized writer leaves a footerless (recoverable) archive behind —
  // exactly the torn state the reader's scan recovery is for.
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void ArchiveWriter::WriteBytes(const void* data, size_t size) {
  if (std::fwrite(data, 1, size, file_) != size) {
    throw Error("archive: short write to '" + path_ + "': " + std::strerror(errno));
  }
  bytes_written_ += size;
}

void ArchiveWriter::Append(const uint32_t* words, size_t count) {
  WRL_CHECK_MSG(!finalized_, "ArchiveWriter::Append after Finalize");
  scratch_.clear();
  codec::EncodeChunk(words, count, scratch_);
  DirEntry entry;
  entry.offset = bytes_written_;
  entry.payload_bytes = static_cast<uint32_t>(scratch_.size());
  entry.word_count = static_cast<uint32_t>(count);
  entry.payload_crc = Crc32(scratch_.data(), scratch_.size());

  std::vector<uint8_t> head;
  head.reserve(kChunkHeadBytes);
  head.insert(head.end(), kChunkMagic, kChunkMagic + 4);
  PutU32(head, entry.payload_bytes);
  PutU32(head, entry.word_count);
  PutU32(head, entry.payload_crc);
  PutU32(head, Crc32(head.data(), head.size()));
  WriteBytes(head.data(), head.size());
  WriteBytes(scratch_.data(), scratch_.size());
  // Chunk-granular flush: a crash after this point keeps the chunk.
  if (std::fflush(file_) != 0) {
    throw Error("archive: flush failed for '" + path_ + "': " + std::strerror(errno));
  }
  directory_.push_back(entry);
  words_ += count;
}

void ArchiveWriter::Finalize() {
  if (finalized_) {
    return;
  }
  std::vector<uint8_t> footer;
  footer.reserve(kFooterFixedBytes + directory_.size() * kDirEntryBytes + 4 +
                 kFooterTailBytes);
  footer.insert(footer.end(), kFooterMagic, kFooterMagic + 4);
  PutU32(footer, static_cast<uint32_t>(directory_.size()));
  PutU64(footer, words_);
  for (const DirEntry& entry : directory_) {
    PutU64(footer, entry.offset);
    PutU32(footer, entry.payload_bytes);
    PutU32(footer, entry.word_count);
    PutU32(footer, entry.payload_crc);
  }
  PutU32(footer, Crc32(footer.data(), footer.size()));
  PutU64(footer, footer.size() + kFooterTailBytes);
  footer.insert(footer.end(), kEndMagic, kEndMagic + 4);
  WriteBytes(footer.data(), footer.size());
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw Error("archive: finalize flush failed for '" + path_ + "': " +
                std::strerror(errno));
  }
  std::fclose(file_);
  file_ = nullptr;
  finalized_ = true;
}

double ArchiveWriter::CompressionRatio() const {
  return bytes_written_ == 0
             ? 1.0
             : static_cast<double>(words_ * 4) / static_cast<double>(bytes_written_);
}

void ArchiveWriter::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "words", &words_);
  registry.AddCounter(prefix + "file_bytes", &bytes_written_);
  registry.AddGauge(prefix + "chunks", [this] { return static_cast<double>(chunks()); });
  registry.AddGauge(prefix + "compression_ratio", [this] { return CompressionRatio(); });
  registry.AddGauge(prefix + "finalized", [this] { return finalized_ ? 1.0 : 0.0; });
}

// ---------------------------------------------------------------------------
// ArchiveReader
// ---------------------------------------------------------------------------

ArchiveReader::ArchiveReader(const std::string& path) : path_(path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw Error("archive: cannot open '" + path + "': " + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    throw Error("archive: cannot stat '" + path + "': " + std::strerror(err));
  }
  file_bytes_ = static_cast<uint64_t>(st.st_size);
  if (file_bytes_ < kHeaderBytes) {
    ::close(fd);
    throw Error("archive: '" + path + "' is not a wrltrace archive (only " +
                std::to_string(file_bytes_) + " bytes)");
  }
  void* addr = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    throw Error("archive: mmap of '" + path + "' failed: " + std::strerror(errno));
  }
  map_.addr = addr;
  map_.bytes = file_bytes_;

  const uint8_t* head = data();
  if (std::memcmp(head, kFileMagic, 4) != 0) {
    throw Error("archive: '" + path + "' has wrong magic (not a wrltrace archive)");
  }
  if (Crc32(head, kHeaderBytes - 4) != ReadU32(head + 20)) {
    throw Error("archive: '" + path + "' header checksum mismatch");
  }
  const uint32_t version = ReadU32(head + 4);
  if (version != kArchiveVersion) {
    throw Error("archive: '" + path + "' is wrltrace version " + std::to_string(version) +
                "; this build reads version " + std::to_string(kArchiveVersion));
  }
  if ((ReadU32(head + 8) & kFlagPacked) == 0) {
    throw Error("archive: '" + path +
                "' header lacks the packed flag (raw payloads are not read)");
  }
  const uint32_t meta_bytes = ReadU32(head + 12);
  if (kHeaderBytes + static_cast<uint64_t>(meta_bytes) > file_bytes_) {
    throw Error("archive: '" + path + "' truncated inside identity metadata");
  }
  if (Crc32(head + kHeaderBytes, meta_bytes) != ReadU32(head + 16)) {
    throw Error("archive: '" + path + "' identity metadata checksum mismatch");
  }
  const std::string meta_json(reinterpret_cast<const char*>(head + kHeaderBytes),
                              meta_bytes);
  JsonValue parsed = ParseJson(meta_json);
  if (!parsed.IsObject()) {
    throw Error("archive: '" + path + "' identity metadata is not a JSON object");
  }
  for (const auto& [key, value] : parsed.object) {
    if (!value.IsString()) {
      throw Error("archive: '" + path + "' metadata key '" + key + "' is not a string");
    }
    meta_.emplace_back(key, value.string);
  }
  data_start_ = kHeaderBytes + meta_bytes;

  if (!LoadFooter()) {
    RecoverByScan("footer missing or torn (unfinalized or truncated capture)");
  }
}

ArchiveReader::Mapping::~Mapping() {
  if (addr != nullptr) {
    ::munmap(addr, bytes);
  }
}

bool ArchiveReader::LoadFooter() {
  if (file_bytes_ < data_start_ + kFooterFixedBytes + 4 + kFooterTailBytes) {
    return false;
  }
  const uint8_t* tail = data() + file_bytes_ - kFooterTailBytes;
  if (std::memcmp(tail + 8, kEndMagic, 4) != 0) {
    return false;
  }
  const uint64_t footer_bytes = ReadU64(tail);
  if (footer_bytes < kFooterFixedBytes + 4 + kFooterTailBytes ||
      footer_bytes > file_bytes_ - data_start_) {
    return false;
  }
  const uint64_t fstart = file_bytes_ - footer_bytes;
  const uint8_t* footer = data() + fstart;
  if (std::memcmp(footer, kFooterMagic, 4) != 0) {
    return false;
  }
  const uint32_t chunk_count = ReadU32(footer + 4);
  const uint64_t dir_bytes = static_cast<uint64_t>(chunk_count) * kDirEntryBytes;
  if (footer_bytes != kFooterFixedBytes + dir_bytes + 4 + kFooterTailBytes) {
    return false;
  }
  if (Crc32(footer, kFooterFixedBytes + dir_bytes) !=
      ReadU32(footer + kFooterFixedBytes + dir_bytes)) {
    return false;
  }
  std::vector<DirEntry> directory;
  directory.reserve(chunk_count);
  uint64_t payload_total = 0;
  uint64_t word_total = 0;
  const uint8_t* p = footer + kFooterFixedBytes;
  for (uint32_t i = 0; i < chunk_count; ++i, p += kDirEntryBytes) {
    DirEntry entry;
    entry.offset = ReadU64(p);
    entry.payload_bytes = ReadU32(p + 8);
    entry.word_count = ReadU32(p + 12);
    entry.payload_crc = ReadU32(p + 16);
    // Every entry must frame a chunk wholly inside the data region, with a
    // word count its payload can hold.
    if (entry.offset < data_start_ ||
        entry.offset + kChunkHeadBytes + entry.payload_bytes > fstart ||
        !WordCountFits(entry.payload_bytes, entry.word_count)) {
      return false;
    }
    payload_total += entry.payload_bytes;
    word_total += entry.word_count;
    directory.push_back(entry);
  }
  if (word_total != ReadU64(footer + 8)) {
    return false;
  }
  directory_ = std::move(directory);
  words_ = word_total;
  payload_bytes_ = payload_total;
  return true;
}

void ArchiveReader::RecoverByScan(const std::string& reason) {
  degraded_ = true;
  diagnostics_.push_back("degraded capture: " + reason + "; scanning '" + path_ +
                         "' for intact chunks");
  uint64_t offset = data_start_;
  while (true) {
    if (offset + kChunkHeadBytes > file_bytes_) {
      if (offset < file_bytes_) {
        diagnostics_.push_back("chunk " + std::to_string(directory_.size()) +
                               " at offset " + std::to_string(offset) + ": only " +
                               std::to_string(file_bytes_ - offset) +
                               " bytes remain (torn record header); stopping");
      }
      break;
    }
    const uint8_t* head = data() + offset;
    if (std::memcmp(head, kChunkMagic, 4) != 0) {
      diagnostics_.push_back("chunk " + std::to_string(directory_.size()) + " at offset " +
                             std::to_string(offset) +
                             ": bad record magic (footer debris or corruption); stopping");
      break;
    }
    if (Crc32(head, kChunkHeadBytes - 4) != ReadU32(head + 16)) {
      diagnostics_.push_back("chunk " + std::to_string(directory_.size()) + " at offset " +
                             std::to_string(offset) +
                             ": record header checksum mismatch; stopping");
      break;
    }
    DirEntry entry;
    entry.offset = offset;
    entry.payload_bytes = ReadU32(head + 4);
    entry.word_count = ReadU32(head + 8);
    entry.payload_crc = ReadU32(head + 12);
    if (offset + kChunkHeadBytes + entry.payload_bytes > file_bytes_) {
      diagnostics_.push_back(
          "chunk " + std::to_string(directory_.size()) + " at offset " +
          std::to_string(offset) + ": payload torn (" +
          std::to_string(file_bytes_ - offset - kChunkHeadBytes) + " of " +
          std::to_string(entry.payload_bytes) + " bytes present); stopping");
      break;
    }
    if (Crc32(head + kChunkHeadBytes, entry.payload_bytes) != entry.payload_crc) {
      diagnostics_.push_back("chunk " + std::to_string(directory_.size()) + " at offset " +
                             std::to_string(offset) +
                             ": payload checksum mismatch; stopping");
      break;
    }
    if (!WordCountFits(entry.payload_bytes, entry.word_count)) {
      diagnostics_.push_back("chunk " + std::to_string(directory_.size()) + " at offset " +
                             std::to_string(offset) + ": word count " +
                             std::to_string(entry.word_count) + " does not fit its " +
                             std::to_string(entry.payload_bytes) +
                             "-byte payload; stopping");
      break;
    }
    directory_.push_back(entry);
    words_ += entry.word_count;
    payload_bytes_ += entry.payload_bytes;
    offset += kChunkHeadBytes + entry.payload_bytes;
  }
  diagnostics_.push_back("recovered " + std::to_string(directory_.size()) + " chunk(s), " +
                         std::to_string(words_) + " word(s); " +
                         std::to_string(file_bytes_ - offset) +
                         " byte(s) of tail unusable");
}

void ArchiveReader::DecodeChunk(size_t index, std::vector<uint32_t>& out) const {
  WRL_CHECK_MSG(index < directory_.size(), "ArchiveReader chunk index out of range");
  const DirEntry& entry = directory_[index];
  const uint8_t* payload = data() + entry.offset + kChunkHeadBytes;
  if (Crc32(payload, entry.payload_bytes) != entry.payload_crc) {
    throw Error("archive: '" + path_ + "' chunk " + std::to_string(index) +
                " payload checksum mismatch (corrupt archive)");
  }
  if (!WordCountFits(entry.payload_bytes, entry.word_count)) {
    throw Error("archive: '" + path_ + "' chunk " + std::to_string(index) +
                " payload size disagrees with its word count");
  }
  out.clear();
  out.reserve(entry.word_count);
  if (!codec::DecodeChunkBounded(payload, entry.payload_bytes, entry.word_count, out)) {
    throw Error("archive: '" + path_ + "' chunk " + std::to_string(index) +
                " payload is malformed (does not decode to its framed word count)");
  }
}

std::string ArchiveReader::MetaValue(const std::string& key,
                                     const std::string& fallback) const {
  for (const auto& [k, v] : meta_) {
    if (k == key) {
      return v;
    }
  }
  return fallback;
}

double ArchiveReader::CompressionRatio() const {
  return payload_bytes_ == 0
             ? 1.0
             : static_cast<double>(words_ * 4) / static_cast<double>(payload_bytes_);
}

bool ArchiveReader::Verify(std::vector<std::string>* findings) const {
  std::vector<std::string> local;
  std::vector<std::string>& out = findings != nullptr ? *findings : local;
  const size_t before = out.size();
  out.insert(out.end(), diagnostics_.begin(), diagnostics_.end());
  std::vector<uint32_t> buffer;
  for (size_t i = 0; i < directory_.size(); ++i) {
    const DirEntry& entry = directory_[i];
    const uint8_t* head = data() + entry.offset;
    if (std::memcmp(head, kChunkMagic, 4) != 0 ||
        Crc32(head, kChunkHeadBytes - 4) != ReadU32(head + 16)) {
      out.push_back("chunk " + std::to_string(i) + ": record header corrupt");
      continue;
    }
    if (ReadU32(head + 4) != entry.payload_bytes || ReadU32(head + 8) != entry.word_count ||
        ReadU32(head + 12) != entry.payload_crc) {
      out.push_back("chunk " + std::to_string(i) +
                    ": record header disagrees with chunk directory");
      continue;
    }
    const uint8_t* payload = head + kChunkHeadBytes;
    if (Crc32(payload, entry.payload_bytes) != entry.payload_crc) {
      out.push_back("chunk " + std::to_string(i) + ": payload checksum mismatch");
      continue;
    }
    if (!WordCountFits(entry.payload_bytes, entry.word_count)) {
      out.push_back("chunk " + std::to_string(i) +
                    ": payload size disagrees with its word count");
      continue;
    }
    buffer.clear();
    buffer.reserve(entry.word_count);
    if (!codec::DecodeChunkBounded(payload, entry.payload_bytes, entry.word_count, buffer)) {
      out.push_back("chunk " + std::to_string(i) + ": payload does not decode cleanly");
    }
  }
  return out.size() == before;
}

}  // namespace wrl
