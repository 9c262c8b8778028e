// The Table 1 workloads: each must build, run to a clean exit on the
// uninstrumented Ultrix system, and behave identically under tracing (the
// end-to-end "tracing does not distort results" property).  The full
// measured-vs-predicted experiment runs for a sample of workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "harness/experiment.h"
#include "kernel/system_build.h"
#include "support/error.h"
#include "trace/trace_archive.h"
#include "workloads/workloads.h"

namespace wrl {
namespace {

constexpr double kScale = 0.05;  // Tiny but structurally complete.
constexpr uint64_t kBudget = 1'500'000'000;

class WorkloadRuns : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadRuns, UntracedUltrix) {
  WorkloadSpec w = PaperWorkload(GetParam(), kScale);
  SystemConfig config;
  config.program_source = w.source;
  config.program_name = w.name;
  config.files = w.files;
  auto sys = BuildSystem(config);
  RunResult r = sys->Run(kBudget);
  ASSERT_TRUE(r.halted) << w.name;
  EXPECT_EQ(r.halt_code, 0u);
  EXPECT_NE(sys->ProcessExitCode(1), 0xdeadu) << w.name << " was killed";
  EXPECT_GT(sys->machine().user_instructions(), 1000u);
}

TEST_P(WorkloadRuns, UntracedMach) {
  WorkloadSpec w = PaperWorkload(GetParam(), kScale);
  SystemConfig config;
  config.personality = Personality::kMach;
  config.policy = PagePolicy::kScrambled;
  config.program_source = w.source;
  config.program_name = w.name;
  config.files = w.files;
  auto sys = BuildSystem(config);
  RunResult r = sys->Run(kBudget);
  ASSERT_TRUE(r.halted) << w.name;
  EXPECT_NE(sys->ProcessExitCode(1), 0xdeadu) << w.name << " was killed";
}

TEST_P(WorkloadRuns, SameResultUnderBothPersonalities) {
  WorkloadSpec w = PaperWorkload(GetParam(), kScale);
  SystemConfig ultrix;
  ultrix.program_source = w.source;
  ultrix.files = w.files;
  auto u = BuildSystem(ultrix);
  u->Run(kBudget);
  SystemConfig mach = ultrix;
  mach.personality = Personality::kMach;
  mach.policy = PagePolicy::kScrambled;
  auto m = BuildSystem(mach);
  m->Run(kBudget);
  EXPECT_EQ(u->ProcessExitCode(1), m->ProcessExitCode(1)) << w.name;
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, WorkloadRuns,
                         ::testing::Values("sed", "egrep", "yacc", "gcc", "compress", "espresso",
                                           "lisp", "eqntott", "fpppp", "doduc", "liv", "tomcatv"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Every workload size is an integer cast of a scaled constant, so a scale
// that is not finite or not in [0, kMaxWorkloadScale] is refused before
// any cast, by PaperWorkload as by PaperWorkloads.
TEST(WorkloadScale, OutOfRangeScalesAreRejected) {
  for (double scale : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, 16.0001, 1e12}) {
    SCOPED_TRACE(scale);
    EXPECT_THROW(PaperWorkloads(scale), Error);
    EXPECT_THROW(PaperWorkload("sed", scale), Error);
  }
  EXPECT_EQ(PaperWorkloads(0).size(), 12u);
  EXPECT_EQ(PaperWorkloads(kMaxWorkloadScale).size(), 12u);
}

// The disk image, written in place into a fresh (lazily zeroed) disk, must be
// byte-identical over all 16 MB to the image the flat filesystem has always
// had.  The CRCs were recorded from the zero-filled image that earlier
// versions built as a vector and copied in, so a byte past the files that
// did not read as zero would change them.
uint32_t DiskImageCrc(const std::vector<DiskFile>& files) {
  Disk disk{DiskConfig{}};
  WriteDiskImage(files, disk.image());
  return Crc32(disk.image().data(), disk.image().size());
}

TEST(DiskImage, MatchesTheRecordedImages) {
  const std::map<std::string, uint32_t> want = {
      {"sed", 0xd46069bf},      {"egrep", 0xf7b4dcfd},    {"yacc", 0x965837c4},
      {"gcc", 0x3d55f570},      {"compress", 0x2f71660d}, {"espresso", 0x6d149e3e},
      {"lisp", 0xa47ca14a},     {"eqntott", 0xa03065f4},  {"fpppp", 0xa47ca14a},
      {"doduc", 0xa47ca14a},    {"liv", 0xa47ca14a},      {"tomcatv", 0xa47ca14a},
  };
  const std::vector<WorkloadSpec> workloads = PaperWorkloads(0.1);
  ASSERT_EQ(workloads.size(), want.size());
  for (const WorkloadSpec& w : workloads) {
    ASSERT_TRUE(want.count(w.name)) << w.name;
    EXPECT_EQ(DiskImageCrc(w.files), want.at(w.name)) << w.name;
  }

  // Extra capacity must read as zero too, including a file with no content.
  std::vector<DiskFile> files(3);
  files[0].name = "alpha";
  files[0].content = {1, 2, 3, 4, 5};
  files[1].name = "beta.out";
  files[1].extra_capacity = 70000;
  files[2].name = "gamma";
  files[2].content.assign(1300, 0xab);
  files[2].extra_capacity = 9000;
  EXPECT_EQ(DiskImageCrc(files), 0xfa381213u);
}

TEST(Experiment, SedEndToEnd) {
  // The full §5 methodology on one workload: measured vs predicted with no
  // parser errors and identical program behavior.
  ExperimentOptions options;
  ExperimentResult r = RunExperiment(PaperWorkload("sed", 0.1), options);
  EXPECT_EQ(r.parser_errors, 0u);
  EXPECT_GT(r.measured_cycles, 0u);
  EXPECT_GT(r.prediction.PredictedCycles(), 0.0);
  // The prediction tracks the measurement within the paper-ish band.
  EXPECT_LT(std::abs(r.TimeErrorPercent()), 40.0);
}

TEST(Experiment, EqntottTlbShape) {
  // eqntott is the TLB-dominant workload: its measured misses must dwarf a
  // compute-bound workload's, and the prediction must land in the same
  // order of magnitude (random replacement precludes exactness, §5.2).
  ExperimentOptions options;
  ExperimentResult eqntott = RunExperiment(PaperWorkload("eqntott", 0.1), options);
  ExperimentResult lisp = RunExperiment(PaperWorkload("lisp", 0.1), options);
  EXPECT_GT(eqntott.measured_utlb, 10u * std::max<uint64_t>(lisp.measured_utlb, 1));
  EXPECT_GT(eqntott.prediction.utlb_misses, eqntott.measured_utlb / 3);
  EXPECT_LT(eqntott.prediction.utlb_misses, eqntott.measured_utlb * 3);
}

TEST(Experiment, MachShowsClientServerStructure) {
  ExperimentOptions options;
  options.personality = Personality::kMach;
  ExperimentResult r = RunExperiment(PaperWorkload("egrep", 0.1), options);
  EXPECT_EQ(r.parser_errors, 0u);
  EXPECT_GT(r.measured_tlbdropins, 0u);  // tlb_map_random fired.
}

}  // namespace
}  // namespace wrl
