#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace wrl {
namespace {

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(Hex32(0xdeadbeef), "0xdeadbeef");
  EXPECT_EQ(Hex32(5), "0x00000005");
}

TEST(Strings, SplitFields) {
  auto f = SplitFields("a, b,,c", " ,");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
  EXPECT_TRUE(SplitFields("", ",").empty());
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("\t \n"), "");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-17"), -17);
  EXPECT_EQ(ParseInt("0x10"), 16);
  EXPECT_EQ(ParseInt("0xFFFFFFFF"), 0xffffffffLL);
  EXPECT_EQ(ParseInt(" 7 "), 7);
  EXPECT_THROW(ParseInt(""), Error);
  EXPECT_THROW(ParseInt("12x"), Error);
  EXPECT_THROW(ParseInt("0x"), Error);
  EXPECT_THROW(ParseInt("9a"), Error);
}

TEST(Error, CheckMacroThrowsInternalError) {
  EXPECT_THROW(WRL_CHECK(false), InternalError);
  EXPECT_NO_THROW(WRL_CHECK(true));
  try {
    WRL_CHECK_MSG(1 == 2, "details here");
    FAIL();
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("details here"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {0};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++buckets[rng.Below(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kSamples / 10, kSamples / 100);
  }
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (size_t n : {0, 1, 7, 100}) {
    for (unsigned jobs : {0u, 1u, 3u, 16u}) {
      std::vector<std::atomic<int>> runs(n);
      ParallelFor(n, jobs, [&](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " jobs=" << jobs << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, SerialRunsInlineInIndexOrder) {
  for (unsigned jobs : {0u, 1u}) {
    std::vector<size_t> order;
    std::vector<std::thread::id> threads;
    ParallelFor(7, jobs, [&](size_t i) {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6})) << "jobs=" << jobs;
    for (std::thread::id id : threads) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "jobs=" << jobs;
    }
  }
  // One index needs no second thread, whatever jobs asks for.
  std::thread::id ran_on;
  ParallelFor(1, 16, [&](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// Indices 3 and 5 throw: index 3's exception is the one rethrown, even on
// a pool where index 5 throws first.
TEST(ParallelFor, RethrowsTheLowestThrowingIndex) {
  for (unsigned jobs : {1u, 3u, 16u}) {
    std::vector<std::atomic<bool>> ran(20);
    std::atomic<bool> five_threw{false};
    try {
      ParallelFor(ran.size(), jobs, [&](size_t i) {
        ran[i] = true;
        if (i == 3) {
          // On a pool, wait (up to 10 s) until index 5 has thrown.
          for (int ms = 0; jobs > 1 && !five_threw && ms < 10000; ++ms) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (five_threw) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }
        if (i == 5) {
          five_threw = true;
        }
        if (i == 3 || i == 5) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3") << "jobs=" << jobs;
    }
    EXPECT_TRUE(ran[3]);
    if (jobs <= 1) {
      // Inline, the throw ends the loop: no index after 3 runs.
      for (size_t i = 4; i < ran.size(); ++i) {
        EXPECT_FALSE(ran[i]) << "i=" << i;
      }
    }
  }
}

// On a pool, index 0 throws while every other worker holds an index: those
// finish, but no new index starts.
TEST(ParallelFor, StartsNoIndexAfterAThrow) {
  constexpr unsigned kJobs = 3;
  std::atomic<bool> zero_threw{false};
  std::atomic<size_t> started{0};
  EXPECT_THROW(ParallelFor(1000, kJobs,
                           [&](size_t i) {
                             started.fetch_add(1);
                             if (i == 0) {
                               zero_threw = true;
                               throw std::runtime_error("index 0");
                             }
                             for (int ms = 0; !zero_threw && ms < 10000; ++ms) {
                               std::this_thread::sleep_for(std::chrono::milliseconds(1));
                             }
                             std::this_thread::sleep_for(std::chrono::milliseconds(20));
                           }),
               std::runtime_error);
  EXPECT_LE(started.load(), kJobs);
}

}  // namespace
}  // namespace wrl
