#include "atpg/coverage.h"

#include <gtest/gtest.h>

#include "atpg/generator.h"
#include "atpg/per_transition.h"
#include "fsm/state_table.h"
#include "kiss/benchmarks.h"

namespace fstg {
namespace {

StateTable lion_table() {
  return expand_fsm(load_benchmark("lion"), FillPolicy::kError);
}

TEST(StFaults, EnumerationCount) {
  StateTable t = lion_table();
  // Per transition: (num_states - 1) next-state faults + output_bits
  // single-bit output faults. lion: 16 * (3 + 1) = 64.
  std::vector<StFault> faults = enumerate_st_faults(t);
  EXPECT_EQ(faults.size(), 64u);
  for (const StFault& f : faults) {
    const bool next_differs = f.faulty_next != t.next(f.state, f.input);
    const bool out_differs = f.faulty_output != t.output(f.state, f.input);
    EXPECT_NE(next_differs, out_differs);  // exactly one aspect faulted
  }
}

TEST(StFaults, PerTransitionTestsDetectEverything) {
  // One scan test per transition observes both the transition's output and
  // its next state, so every single ST fault is detected by construction.
  for (const char* name : {"lion", "dk27", "beecount"}) {
    SCOPED_TRACE(name);
    StateTable t = expand_fsm(load_benchmark(name), FillPolicy::kSelfLoop);
    std::vector<StFault> faults = enumerate_st_faults(t);
    StCoverageResult r =
        simulate_st_faults(t, per_transition_tests(t), faults);
    EXPECT_EQ(r.detected, r.total);
    EXPECT_DOUBLE_EQ(r.percent(), 100.0);
  }
}

TEST(StFaults, ChainedTestsOnLion) {
  StateTable t = lion_table();
  GeneratorResult gen = generate_functional_tests(t);
  StCoverageResult r =
      simulate_st_faults(t, gen.tests, enumerate_st_faults(t));
  // The paper expects near-complete coverage; for lion it is complete.
  EXPECT_EQ(r.detected, r.total);
}

TEST(StFaults, SingleFaultDetectionSemantics) {
  StateTable t = lion_table();
  // Fault: transition (0, 01) goes to state 0 instead of 1.
  StFault fault{0, 1, 0, t.output(0, 1)};
  // A test applying (0,01) then scanning out catches it.
  TestSet catching;
  catching.tests.push_back({0, {1}, 1, {}});
  EXPECT_EQ(simulate_st_faults(t, catching, {fault}).detected, 1u);
  // A test that never exercises (0,01) does not.
  TestSet missing;
  missing.tests.push_back({0, {0}, 0, {}});
  EXPECT_EQ(simulate_st_faults(t, missing, {fault}).detected, 0u);
}

TEST(StFaults, OutputFaultCaughtWithoutScanOut) {
  StateTable t = lion_table();
  // Output fault on (0,00): z flips 0 -> 1; next state unchanged, so only
  // the observed output catches it.
  StFault fault{0, 0, t.next(0, 0), t.output(0, 0) ^ 1u};
  TestSet set;
  set.tests.push_back({0, {0}, 0, {}});
  EXPECT_EQ(simulate_st_faults(t, set, {fault}).detected, 1u);
}

TEST(StFaults, EmptyFaultListIsFullCoverage) {
  StateTable t = lion_table();
  StCoverageResult r = simulate_st_faults(t, per_transition_tests(t), {});
  EXPECT_DOUBLE_EQ(r.percent(), 100.0);
}

}  // namespace
}  // namespace fstg
