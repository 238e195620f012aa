#include "fault/static_compaction.h"

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "harness/experiment.h"

namespace fstg {
namespace {

TEST(StaticCompaction, PreservesCoverageAndReducesScans) {
  for (const std::string name : {"lion", "dk17", "ex5"}) {
    SCOPED_TRACE(name);
    CircuitExperiment exp = run_circuit(name);
    const ScanCircuit& circuit = exp.synth.circuit;
    const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
    StaticCompactionResult r =
        static_compact(circuit, exp.gen.tests, faults);

    EXPECT_EQ(r.detected_after, r.detected_before);
    EXPECT_LE(r.compacted.size(), exp.gen.tests.size());
    EXPECT_EQ(exp.gen.tests.size() - r.compacted.size(),
              r.combinations_applied);
    // Total applied inputs are preserved; only scan operations go away.
    EXPECT_EQ(r.compacted.total_length(), exp.gen.tests.total_length());
    EXPECT_EQ(r.cycles_before - r.cycles_after,
              static_cast<std::size_t>(circuit.num_sv) *
                  r.combinations_applied);
    // The compacted tests are still consistent with the machine.
    r.compacted.validate(exp.table);
  }
}

TEST(StaticCompaction, OnlyMatchingStatesAreCombined) {
  // Craft two tests whose boundary states do not match: nothing combines.
  CircuitExperiment exp = run_circuit("lion");
  TestSet set;
  set.tests.push_back({0, {1}, 1, {}});  // ends in 1
  set.tests.push_back({0, {0}, 0, {}});  // starts in 0
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  StaticCompactionResult r = static_compact(exp.synth.circuit, set, faults);
  EXPECT_EQ(r.combinations_applied, 0u);
  EXPECT_EQ(r.compacted.size(), 2u);
}

TEST(StaticCompaction, CombinesChainableTests) {
  // tau_a ends where tau_b begins; combining must be attempted and, since
  // the faults it detects survive (the suffix re-exercises the state),
  // usually accepted. We only require: no coverage loss and valid output.
  CircuitExperiment exp = run_circuit("lion");
  TestSet set;
  set.tests.push_back({0, {1}, 1, {}});        // 0 --01--> 1
  set.tests.push_back({1, {2}, 3, {}});        // 1 --10--> 3
  set.tests.push_back({3, {3}, 3, {}});        // 3 --11--> 3
  const std::vector<FaultSpec> faults =
      enumerate_stuck_at(exp.synth.circuit.comb);
  StaticCompactionResult r = static_compact(exp.synth.circuit, set, faults);
  EXPECT_EQ(r.detected_after, r.detected_before);
  r.compacted.validate(exp.table);
  EXPECT_LE(r.cycles_after, r.cycles_before);
}

}  // namespace
}  // namespace fstg
