#include "fault/compaction.h"

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

TEST(Compaction, EffectiveSubsetPreservesCoverage) {
  for (const char* name : {"lion", "dk17", "beecount", "ex5"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
    CompactionResult r = select_effective_tests(circuit, exp.gen.tests, faults);

    // Re-simulating only the effective tests must detect the same faults.
    FaultSimResult again =
        simulate_faults(circuit, r.effective_tests, faults);
    EXPECT_EQ(again.detected_faults, r.sim.detected_faults);
    // And every effective test must be effective again (none became
    // redundant by dropping non-effective tests, which detect nothing new).
    EXPECT_EQ(again.num_effective_tests(), r.effective_tests.size());
  }
}

TEST(Compaction, OrderedLongestFirst) {
  CircuitExperiment exp = run_circuit("lion");
  CompactionResult r = select_effective_tests(
      exp.synth.circuit, exp.gen.tests,
      enumerate_stuck_at(exp.synth.circuit.comb));
  for (std::size_t i = 1; i < r.ordered_tests.tests.size(); ++i)
    EXPECT_GE(r.ordered_tests.tests[i - 1].length(),
              r.ordered_tests.tests[i].length());
  EXPECT_EQ(r.ordered_tests.size(), exp.gen.tests.size());
}

TEST(Compaction, LionDropsAllLengthOneTests) {
  // The paper's Table 3 observation: no length-one test is needed for
  // lion's stuck-at coverage.
  CircuitExperiment exp = run_circuit("lion");
  CompactionResult r = select_effective_tests(
      exp.synth.circuit, exp.gen.tests,
      enumerate_stuck_at(exp.synth.circuit.comb));
  for (const auto& t : r.effective_tests.tests) EXPECT_GT(t.length(), 1);
  EXPECT_LT(r.effective_tests.size(), exp.gen.tests.size());
}

TEST(Compaction, EffectiveTotalLength) {
  CircuitExperiment exp = run_circuit("lion");
  CompactionResult r = select_effective_tests(
      exp.synth.circuit, exp.gen.tests,
      enumerate_stuck_at(exp.synth.circuit.comb));
  std::size_t len = 0;
  for (const auto& t : r.effective_tests.tests)
    len += t.inputs.size();
  EXPECT_EQ(r.effective_total_length(), len);
}

}  // namespace
}  // namespace fstg
