// The one worker pool: every fan-out in the tree (the experiment suite,
// replay configurations, wrlverify targets, bench sweep points) runs its
// independent jobs through ParallelFor.
#ifndef WRLTRACE_SUPPORT_PARALLEL_H_
#define WRLTRACE_SUPPORT_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace wrl {

// Runs fn(i) for every i in [0, n) on min(jobs, n) threads, the calling
// thread being one of them: with jobs <= 1 or n <= 1 every call runs
// inline, in index order, and no thread starts.  Workers claim the next
// unstarted index, so a caller that writes index i's result into slot i
// gets results in index order whatever the schedule.  Once any call throws
// no new index starts; after every worker has joined, the exception of the
// lowest index that threw is rethrown.
template <typename Fn>
void ParallelFor(size_t n, unsigned jobs, Fn fn) {
  const size_t threads = std::min<size_t>(jobs, n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  size_t error_index = n;
  std::exception_ptr error;
  auto work = [&] {
    while (!failed.load()) {
      const size_t i = next.fetch_add(1);
      if (i >= n) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (size_t t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // The host is out of threads: run on the ones already started.
    }
  }
  work();
  for (std::thread& worker : pool) {
    worker.join();
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace wrl

#endif  // WRLTRACE_SUPPORT_PARALLEL_H_
