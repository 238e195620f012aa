// Deep cross-validation: independent implementations of the same question
// must agree on randomized machines. These are the oracles that caught
// real bugs during development, promoted into the permanent suite.

#include <gtest/gtest.h>

#include "atpg/coverage.h"
#include "atpg/per_transition.h"
#include "fault/fault.h"
#include "fault/podem.h"
#include "fault/redundancy.h"
#include "fsm/minimize.h"
#include "harness/experiment.h"
#include "seq/distinguishing.h"
#include "seq/wmethod.h"

namespace fstg {
namespace {

class CrossValidation : public ::testing::TestWithParam<int> {
 protected:
  Kiss2Fsm make_fsm() const {
    const int seed = GetParam();
    return make_synthetic_fsm("xval-" + std::to_string(seed),
                              2 + seed % 3,        // pi in 2..4
                              4 + (seed * 3) % 9,  // states in 4..12
                              1 + seed % 4);       // outputs in 1..4
  }
};

TEST_P(CrossValidation, PodemAgreesWithExhaustiveRedundancy) {
  CircuitExperiment exp = run_fsm(make_fsm());
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  RedundancyResult oracle =
      classify_faults(circuit, exp.gen.tests, faults);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    PodemResult r = podem(circuit, faults[f]);
    ASSERT_NE(r.status, PodemResult::Status::kAborted) << f;
    EXPECT_EQ(r.status == PodemResult::Status::kDetected,
              oracle.status[f] != FaultStatus::kUndetectable)
        << describe_fault(circuit.comb, faults[f]);
  }
}

TEST_P(CrossValidation, MinimizationAgreesWithDistinguishing) {
  CircuitExperiment exp = run_fsm(make_fsm());
  MinimizationResult m = minimize(exp.table);
  for (int a = 0; a < exp.table.num_states(); ++a) {
    for (int b = a + 1; b < exp.table.num_states(); ++b) {
      const bool same_block =
          m.block_of_state[static_cast<std::size_t>(a)] ==
          m.block_of_state[static_cast<std::size_t>(b)];
      const bool indistinguishable =
          !distinguishing_sequence(exp.table, a, b).has_value();
      EXPECT_EQ(same_block, indistinguishable) << a << "," << b;
    }
  }
}

TEST_P(CrossValidation, WMethodExistsIffMachineMinimal) {
  CircuitExperiment exp = run_fsm(make_fsm());
  WMethodResult w = w_method_tests(exp.table);
  MinimizationResult m = minimize(exp.table);
  EXPECT_EQ(w.machine_is_minimal, m.num_blocks == exp.table.num_states());
  if (w.machine_is_minimal) {
    // W tests detect every ST fault (completeness of the classical method).
    StCoverageResult cov = simulate_st_faults(
        exp.table, w.tests, enumerate_st_faults(exp.table));
    EXPECT_EQ(cov.detected, cov.total);
  }
}

TEST_P(CrossValidation, ChainedDetectionIsWithinExhaustiveDetection) {
  // The per-transition set is the exhaustive combinational test set, so it
  // detects every combinationally detectable fault; anything the chained
  // tests catch must be in that set. (The converse — the paper's Table 6
  // claim — holds empirically on every benchmark; see test_integration and
  // test_property_random_fsm for the detectable-coverage checks.)
  CircuitExperiment exp = run_fsm(make_fsm());
  const ScanCircuit& circuit = exp.synth.circuit;
  const std::vector<FaultSpec> faults = enumerate_stuck_at(circuit.comb);
  FaultSimResult chained = simulate_faults(circuit, exp.gen.tests, faults);
  FaultSimResult exhaustive =
      simulate_faults(circuit, per_transition_tests(exp.table), faults);
  for (std::size_t f = 0; f < faults.size(); ++f)
    if (chained.detected_by[f] >= 0) {
      EXPECT_GE(exhaustive.detected_by[f], 0)
          << describe_fault(circuit.comb, faults[f]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation, ::testing::Range(0, 8));

}  // namespace
}  // namespace fstg
