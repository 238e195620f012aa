#include "atpg/cycles.h"

#include <gtest/gtest.h>

#include "base/error.h"

namespace fstg {
namespace {

TEST(Cycles, PaperFormula) {
  // N_SV * (N_T + 1) + N_PIC.
  EXPECT_EQ(test_application_cycles(2, 9, 28), 48u);    // lion functional
  EXPECT_EQ(per_transition_cycles(2, 16), 50u);         // lion baseline
  EXPECT_EQ(per_transition_cycles(3, 32), 131u);        // bbtas baseline
  EXPECT_EQ(per_transition_cycles(5, 262144), 1572869u);  // nucpwr baseline
}

TEST(Cycles, FromTestSet) {
  TestSet set;
  set.tests.push_back({0, {0, 1}, 0, {}});
  set.tests.push_back({0, {2}, 0, {}});
  EXPECT_EQ(test_application_cycles(3, set), 3u * 3u + 3u);
}

TEST(Cycles, SlowScan) {
  // M = 1 reduces to the plain formula.
  EXPECT_EQ(test_application_cycles_slow_scan(2, 9, 28, 1),
            test_application_cycles(2, 9, 28));
  // Scan contribution scales by M, applied inputs do not.
  EXPECT_EQ(test_application_cycles_slow_scan(2, 9, 28, 3),
            2u * 10u * 3u + 28u);
}

TEST(Cycles, MultiChain) {
  // One chain reduces to the plain formula.
  EXPECT_EQ(test_application_cycles_multi_chain(4, 1, 9, 28),
            test_application_cycles(4, 9, 28));
  // Four chains: shift length ceil(4/4) = 1.
  EXPECT_EQ(test_application_cycles_multi_chain(4, 4, 9, 28),
            1u * 10u + 28u);
  // Three chains on five flops: ceil(5/3) = 2.
  EXPECT_EQ(test_application_cycles_multi_chain(5, 3, 10, 40),
            2u * 11u + 40u);
  // More chains than flops cannot beat one cycle per scan op.
  EXPECT_EQ(test_application_cycles_multi_chain(2, 8, 1, 1),
            1u * 2u + 1u);
}

TEST(Cycles, Validation) {
  EXPECT_THROW(test_application_cycles(0, 1, 1), Error);
  EXPECT_THROW(test_application_cycles_slow_scan(2, 1, 1, 0), Error);
  EXPECT_THROW(test_application_cycles_multi_chain(2, 0, 1, 1), Error);
}

}  // namespace
}  // namespace fstg
