#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.h"
#include "support/flags.h"
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

// The message of the FlagError `parse` throws ("" when it does not throw).
template <typename Fn>
std::string FlagErrorOf(Fn parse) {
  try {
    parse();
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, AcceptsBothSpellings) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--scale=0.05", "--jobs=3", "--json=a.json", "--quiet"},
        std::vector<std::string>{"--scale", "0.05", "--jobs", "3", "--json", "a.json", "--quiet"}}) {
    double scale = 0.2;
    unsigned jobs = 1;
    std::string json;
    bool quiet = false;
    Flags flags;
    flags.Real("scale", &scale);
    flags.Unsigned("jobs", &jobs);
    flags.String("json", &json, "PATH");
    flags.Switch("quiet", &quiet);
    EXPECT_TRUE(flags.Parse(args).empty());
    EXPECT_EQ(scale, 0.05);
    EXPECT_EQ(jobs, 3u);
    EXPECT_EQ(json, "a.json");
    EXPECT_TRUE(quiet);
  }
}

TEST(Flags, UndeclaredFlagsKeepTheirDefaults) {
  double scale = 0.2;
  bool quiet = false;
  Flags flags;
  flags.Real("scale", &scale);
  flags.Switch("quiet", &quiet);
  flags.Parse(std::vector<std::string>{});
  EXPECT_EQ(scale, 0.2);
  EXPECT_FALSE(quiet);
}

TEST(Flags, RepeatedFlagsAppendAndValuesMayContainEquals) {
  std::vector<std::string> metrics;
  Flags flags;
  flags.Strings("metric", &metrics, "NAME=PCT");
  flags.Parse(std::vector<std::string>{"--metric", "a=5", "--metric=b=7.5", "--metric", "c"});
  EXPECT_EQ(metrics, (std::vector<std::string>{"a=5", "b=7.5", "c"}));
}

TEST(Flags, CollectsAndCountsPositionals) {
  bool quiet = false;
  Flags flags("A B");
  flags.Switch("quiet", &quiet);
  EXPECT_EQ(flags.Parse(std::vector<std::string>{"x", "--quiet", "y"}, 2, 2),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(quiet);
  EXPECT_EQ(flags.Parse(std::vector<std::string>{"-"}, 0, 1), (std::vector<std::string>{"-"}));
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"x"}, 2, 2); }),
            "expected 2 positional argument(s), got 1");
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"x", "y", "z"}, 2, 2); }),
            "unexpected argument 'z'");
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"x"}); }),
            "unexpected argument 'x'");
}

TEST(Flags, RejectsUnknownMissingAndMisplacedValues) {
  std::string json;
  bool check = false;
  Flags flags;
  flags.String("json", &json, "PATH");
  flags.Switch("check", &check);
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--jbos", "4"}); }),
            "unknown flag '--jbos'");
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"-j"}); }),
            "unknown flag '-j'");
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--js=x"}); }),
            "unknown flag '--js=x'");
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--json"}); }),
            "--json needs a value");
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--check=1"}); }),
            "--check takes no value (got '--check=1')");
  EXPECT_EQ(flags.Usage(), "[--json PATH] [--check]");
}

TEST(Flags, RejectsNumbersThatDoNotParseWhole) {
  for (const char* bad : {"abc", "0.5x", "1e", "nan", "inf", "-inf", "", " 1", "1 ", "0x10"}) {
    double scale = 0.2;
    Flags flags;
    flags.Real("scale", &scale);
    EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--scale", bad}); }),
              std::string("--scale: '") + bad + "' is not a finite number")
        << bad;
    EXPECT_EQ(scale, 0.2) << bad;
  }
  for (const char* bad : {"-1", "+1", "1.5", "4x", "", "abc", "99999999999999999999"}) {
    unsigned jobs = 1;
    Flags flags;
    flags.Unsigned("jobs", &jobs);
    EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--jobs=" + std::string(bad)}); }),
              std::string("--jobs: '") + bad + "' is not an unsigned integer")
        << bad;
  }
  uint8_t small = 0;
  Flags flags;
  flags.Unsigned("n", &small);
  EXPECT_EQ(FlagErrorOf([&] { flags.Parse(std::vector<std::string>{"--n", "256"}); }),
            "--n: 256 is larger than 255");
  flags.Parse(std::vector<std::string>{"--n", "255"});
  EXPECT_EQ(small, 255);
  EXPECT_EQ(ParseFiniteReal("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(ParseFiniteReal("16"), 16.0);
  EXPECT_EQ(ParseUnsigned("0"), 0u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"), UINT64_MAX);
}

TEST(Flags, PassThroughForwardsWhatItDoesNotDeclare) {
  std::string json;
  std::vector<std::string> rest;
  Flags flags;
  flags.String("json", &json, "PATH");
  flags.PassThrough(&rest);
  EXPECT_TRUE(flags.Parse(std::vector<std::string>{"--benchmark_filter=BM_X", "--json", "m.json",
                                                   "pos", "-v"})
                  .empty());
  EXPECT_EQ(json, "m.json");
  EXPECT_EQ(rest, (std::vector<std::string>{"--benchmark_filter=BM_X", "pos", "-v"}));
}

TEST(RunMain, MapsOutcomesOntoExitCodes) {
  std::string tool = "tool";
  std::string arg = "--x";
  char* argv[] = {tool.data(), arg.data()};
  EXPECT_EQ(RunMain("tool", 1, argv, [](ArgList args) { return static_cast<int>(args.size()); }),
            0);
  EXPECT_EQ(RunMain("tool", 2, argv, [](ArgList args) { return static_cast<int>(args.size()); }),
            1);
  EXPECT_EQ(RunMain("tool", 2, argv,
                    [](ArgList args) {
                      Flags().Parse(args);
                      return 0;
                    }),
            2);
  EXPECT_EQ(RunMain("tool", 1, argv, [](ArgList) -> int { throw Error("runtime"); }), 2);
  EXPECT_EQ(RunMain("tool", 1, argv, [](ArgList) -> int { throw std::out_of_range("x"); }), 2);
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
