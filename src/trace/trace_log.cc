#include "trace/trace_log.h"

#include "support/error.h"
#include "trace/chunk_codec.h"

namespace wrl {

void TraceLog::Append(const uint32_t* words, size_t count) {
  chunk_words_.push_back(count);
  chunk_starts_.push_back(bytes_.size());
  words_ += count;
  // Fresh predictors per chunk (the codec's contract), so chunks decode
  // independently.
  codec::EncodeChunk(words, count, bytes_);
}

void TraceLog::DecodeChunk(size_t index, std::vector<uint32_t>& out) const {
  WRL_CHECK_MSG(index < chunk_words_.size(), "TraceLog chunk index out of range");
  uint64_t count = chunk_words_[index];
  out.clear();
  out.reserve(count);
  codec::DecodeChunk(bytes_.data(), chunk_starts_[index], count, out);
}

double TraceLog::CompressionRatio() const {
  uint64_t stored = stored_bytes();
  return stored == 0 ? 1.0 : static_cast<double>(raw_bytes()) / static_cast<double>(stored);
}

}  // namespace wrl
