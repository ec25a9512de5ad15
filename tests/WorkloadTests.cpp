//===-- tests/WorkloadTests.cpp - Workload validation ---------------------==//
///
/// \file
/// The Table 2 harness only means something if every synthetic workload
/// (a) terminates and (b) produces the same checksum natively and under
/// the core; these parameterised suites enforce both for all fourteen
/// workloads. Memcheck cleanliness (c) is checked on a subset only, and
/// not every workload is clean: at scale 1, bzip2 reports 53 errors and
/// gcc 3120; the other twelve report none.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace vg;

namespace {

class WorkloadSuite : public ::testing::TestWithParam<int> {
protected:
  std::string name() const { return allWorkloads()[GetParam()].Name; }
};

TEST_P(WorkloadSuite, NativeAndNulgrindAgree) {
  GuestImage Img = buildWorkload(name(), 1);
  RunReport N = runNative(Img);
  ASSERT_TRUE(N.Completed) << name() << " did not complete natively";
  ASSERT_FALSE(N.Stdout.empty()) << name() << " printed no checksum";
  Nulgrind T;
  RunReport C = runUnderCore(Img, &T);
  ASSERT_TRUE(C.Completed) << name() << " did not complete under the core";
  EXPECT_EQ(N.Stdout, C.Stdout) << name() << " checksum differs";
  EXPECT_EQ(N.ExitCode, C.ExitCode);
  EXPECT_GT(N.NativeInsns, 100'000u) << name() << " is suspiciously small";
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSuite,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return allWorkloads()[I.param].Name;
                         });

// Memcheck cleanliness on a representative subset (full sweeps live in the
// bench harness; these keep the unit-test cycle fast).
class WorkloadMemcheck : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadMemcheck, IsMemcheckClean) {
  GuestImage Img = buildWorkload(GetParam(), 1);
  RunReport N = runNative(Img);
  Memcheck T;
  RunReport C = runUnderCore(Img, &T);
  ASSERT_TRUE(C.Completed);
  EXPECT_EQ(N.Stdout, C.Stdout) << "checksum differs under Memcheck";
  EXPECT_NE(C.ToolOutput.find("ERROR SUMMARY: 0 errors"), std::string::npos)
      << GetParam() << " output:\n"
      << C.ToolOutput;
}

INSTANTIATE_TEST_SUITE_P(Subset, WorkloadMemcheck,
                         ::testing::Values("mcf", "vortex", "equake"));

} // namespace
