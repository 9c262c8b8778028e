#include "trace/chunk_ring.h"

#include "support/error.h"

namespace wrl {

ChunkRing::ChunkRing(size_t capacity) : slots_(capacity == 0 ? 1 : capacity) {}

bool ChunkRing::Push(const uint32_t* words, size_t count) {
  std::unique_lock<std::mutex> lock(mutex_);
  WRL_CHECK_MSG(!closed_, "ChunkRing::Push after Close");
  if (size_ == slots_.size() && !cancelled_) {
    ++producer_stalls_;
    producer_waiting_ = true;
    not_full_.wait(lock, [this] { return size_ < slots_.size() || cancelled_; });
    producer_waiting_ = false;
  }
  if (cancelled_) {
    return false;
  }
  std::vector<uint32_t>& slot = slots_[(head_ + size_) % slots_.size()];
  slot.assign(words, words + count);
  ++size_;
  ++chunks_;
  words_ += count;
  if (size_ > max_occupancy_) {
    max_occupancy_ = size_;
  }
  occupancy_hist_.Record(size_);
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool ChunkRing::Pop(std::vector<uint32_t>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (size_ == 0 && !closed_ && !cancelled_) {
    ++consumer_starves_;
    consumer_waiting_ = true;
    not_empty_.wait(lock, [this] { return size_ > 0 || closed_ || cancelled_; });
    consumer_waiting_ = false;
  }
  if (cancelled_ || size_ == 0) {
    return false;  // Cancelled, or closed and fully drained.
  }
  out.swap(slots_[head_]);
  slots_[head_].clear();  // Recycled storage; capacity kept.
  head_ = (head_ + 1) % slots_.size();
  --size_;
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void ChunkRing::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

void ChunkRing::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool ChunkRing::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

bool ChunkRing::consumer_waiting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return consumer_waiting_ && size_ == 0;  // A push is about to wake it.
}

bool ChunkRing::producer_waiting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return producer_waiting_ && size_ == slots_.size();  // A pop is about to wake it.
}

void ChunkRing::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "chunks", &chunks_);
  registry.AddCounter(prefix + "words", &words_);
  registry.AddCounter(prefix + "producer_stalls", &producer_stalls_);
  registry.AddCounter(prefix + "consumer_starves", &consumer_starves_);
  registry.AddCounter(prefix + "max_occupancy", &max_occupancy_);
  registry.AddGauge(prefix + "capacity", [this] { return static_cast<double>(capacity()); });
  registry.AddHistogram(prefix + "occupancy", &occupancy_hist_);
}

TracePipeline::TracePipeline(ChunkFn consume, size_t depth) : ring_(depth) {
  consumer_ = std::thread([this, consume = std::move(consume)] {
    try {
      std::vector<uint32_t> chunk;
      while (ring_.Pop(chunk)) {
        consume(chunk.data(), chunk.size());
      }
    } catch (...) {
      error_ = std::current_exception();
      ring_.Cancel();  // Unblock (and fail) the producer.
    }
  });
}

TracePipeline::~TracePipeline() { Join(); }

void TracePipeline::Join() {
  if (consumer_.joinable()) {
    ring_.Close();
    consumer_.join();
  }
}

void TracePipeline::Produce(const uint32_t* words, size_t count) {
  if (!ring_.Push(words, count)) {
    // The consumer cancelled the ring: surface its error here, exactly
    // where a synchronous sink would have thrown.
    Finish();
    throw Error("trace pipeline consumer failed without recording an error");
  }
}

void TracePipeline::Finish() {
  if (!finished_) {
    Join();
    finished_ = true;
  }
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

}  // namespace wrl
